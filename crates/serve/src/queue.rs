//! Bounded job queue with single-flight coalescing and topology
//! batching.
//!
//! The characterization service funnels every cache miss through one of
//! these. Three guarantees:
//!
//! - **single-flight** — at most one computation per fingerprint is
//!   ever in flight. A submission whose key is already being computed
//!   parks on the in-flight entry and shares its result
//!   (`serve.coalesced`); the check happens under the same lock that
//!   re-probes the cache, so there is no window in which two threads
//!   can both schedule the same key.
//! - **batching** — a worker dequeuing a job also claims every queued
//!   job with the same `batch_key` (same circuit topology), up to
//!   [`BATCH_MAX`], and runs them back-to-back. Combined with the
//!   per-worker metrics memo in the executor, the analysis kinds of one
//!   circuit share a single characterization instead of interleaving
//!   with unrelated work. Batch sizes land in the `serve.batch_size`
//!   histogram.
//! - **bounded** — at most `capacity` jobs wait. Past that, submission
//!   fails fast as [`SubmitOutcome::Shed`] and the server answers
//!   `429` with a `Retry-After` derived from the backlog
//!   (`serve.shed`). Queue depth at each enqueue lands in the
//!   `serve.queue_depth` histogram.
//!
//! Workers are plain named threads (`chworker/<k>`), not a sweep pool:
//! a sweep executes a finite grid and joins; this queue serves forever
//! until [`JobQueue::drain`] — which stops intake (new submissions see
//! [`SubmitOutcome::Draining`]), lets the backlog finish, and joins the
//! workers. The executor is a plain closure so tests can drive the
//! queue with barriers instead of simulations.

use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::cache::ResultCache;

/// Most jobs one worker claims in a single batch.
pub(crate) const BATCH_MAX: usize = 8;

/// A unit of work: compute the response for one canonical request.
#[derive(Debug, Clone)]
pub(crate) struct Job {
    /// Full content fingerprint — the cache key and single-flight key.
    pub(crate) key: u128,
    /// Fingerprint of the circuit identity (request minus analysis
    /// kind) — jobs sharing it batch onto one worker pass.
    pub(crate) batch_key: u128,
    /// Canonical request bytes; the executor computes from these and
    /// nothing else, which is what makes responses a pure function of
    /// the fingerprint.
    pub(crate) canonical: Arc<String>,
}

/// Computes the response body for a job. Errors are service-level
/// failures (simulation refused to converge, invalid derived config)
/// reported to every waiter of the fingerprint.
pub(crate) type Executor = Arc<dyn Fn(&Job) -> Result<String, String> + Send + Sync>;

/// How a submission resolved.
#[derive(Debug)]
pub(crate) enum SubmitOutcome {
    /// This submission scheduled the computation and waited for it.
    Computed(Arc<String>),
    /// An identical fingerprint was already in flight; its result is
    /// shared.
    Coalesced(Arc<String>),
    /// The queue's authoritative cache re-probe found the entry (a
    /// computation finished between the caller's fast-path probe and
    /// this submission).
    Hit(Arc<String>),
    /// The queue is full; retry after the hinted number of seconds.
    Shed {
        /// Backlog-derived retry hint, in whole seconds (≥ 1).
        retry_after_s: u64,
    },
    /// The service is draining and takes no new work.
    Draining,
    /// The computation failed; the message is the executor's error.
    Failed(String),
}

/// A computation other submissions can park on.
struct InFlight {
    result: Mutex<Option<Result<Arc<String>, String>>>,
    cv: Condvar,
}

impl InFlight {
    fn new() -> Self {
        Self {
            result: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn complete(&self, result: Result<Arc<String>, String>) {
        let mut slot = self
            .result
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Arc<String>, String> {
        let guard = self
            .result
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let guard = self
            .cv
            .wait_while(guard, |slot| slot.is_none())
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.clone().expect("wait_while guarantees Some")
    }
}

struct State {
    pending: VecDeque<Job>,
    inflight: HashMap<u128, Arc<InFlight>>,
    draining: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Wakes workers on new work and on drain.
    work_cv: Condvar,
    capacity: usize,
    worker_count: usize,
    cache: Arc<ResultCache>,
    executor: Executor,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The queue handle. Dropping it drains (waits for the backlog) and
/// joins the workers.
pub(crate) struct JobQueue {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl JobQueue {
    /// Starts `worker_count` worker threads executing jobs with
    /// `executor`, holding at most `capacity` queued jobs, and
    /// publishing finished results into `cache`.
    #[must_use]
    pub(crate) fn new(
        worker_count: usize,
        capacity: usize,
        cache: Arc<ResultCache>,
        executor: Executor,
    ) -> Self {
        let worker_count = worker_count.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                pending: VecDeque::new(),
                inflight: HashMap::new(),
                draining: false,
            }),
            work_cv: Condvar::new(),
            capacity: capacity.max(1),
            worker_count,
            cache,
            executor,
        });
        let workers = (0..worker_count)
            .map(|k| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("chworker/{k}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn characterization worker")
            })
            .collect();
        Self {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Submits a job and blocks until it resolves (or fails fast on a
    /// full queue / draining service). See [`SubmitOutcome`].
    pub(crate) fn submit(&self, job: Job) -> SubmitOutcome {
        let (flight, scheduled) = {
            let mut state = self.inner.lock();
            if state.draining {
                return SubmitOutcome::Draining;
            }
            if let Some(flight) = state.inflight.get(&job.key) {
                telemetry::counter("serve.coalesced", 1);
                (Arc::clone(flight), false)
            } else if let Some(value) = self.inner.cache.get(job.key) {
                // Authoritative re-probe: results enter the cache
                // before their in-flight entry is removed (both on the
                // worker, removal under this lock), so "not in flight
                // and not cached" really means "never scheduled".
                return SubmitOutcome::Hit(value);
            } else {
                if state.pending.len() >= self.inner.capacity {
                    telemetry::counter("serve.shed", 1);
                    return SubmitOutcome::Shed {
                        retry_after_s: self.retry_after_s(state.pending.len()),
                    };
                }
                let flight = Arc::new(InFlight::new());
                state.inflight.insert(job.key, Arc::clone(&flight));
                state.pending.push_back(job);
                telemetry::counter("serve.cache.misses", 1);
                let depth = state.pending.len();
                drop(state);
                telemetry::histogram("serve.queue_depth", depth as f64);
                self.inner.work_cv.notify_one();
                (flight, true)
            }
        };
        match flight.wait() {
            Ok(value) if scheduled => SubmitOutcome::Computed(value),
            Ok(value) => SubmitOutcome::Coalesced(value),
            Err(message) => SubmitOutcome::Failed(message),
        }
    }

    /// Whole-seconds retry hint for a shed response: the backlog over
    /// the worker pool, assuming a handful of jobs per worker-second.
    fn retry_after_s(&self, backlog: usize) -> u64 {
        let per_second = self.inner.worker_count * 4;
        ((backlog / per_second.max(1)) as u64).clamp(1, 30)
    }

    /// Jobs currently waiting (not yet claimed by a worker).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn backlog(&self) -> usize {
        self.inner.lock().pending.len()
    }

    /// Stops intake: subsequent [`submit`](Self::submit) calls return
    /// [`SubmitOutcome::Draining`] immediately. Queued and in-flight
    /// jobs still complete. Non-blocking; call [`drain`](Self::drain)
    /// to also wait for the backlog.
    pub(crate) fn set_draining(&self) {
        self.inner.lock().draining = true;
        self.inner.work_cv.notify_all();
    }

    /// Graceful shutdown: stop intake, let workers finish every queued
    /// job, join them. Idempotent.
    pub(crate) fn drain(&self) {
        self.set_draining();
        let handles: Vec<_> = {
            let mut workers = self
                .workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            workers.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for JobQueue {
    fn drop(&mut self) {
        self.drain();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let batch = {
            let mut state = inner.lock();
            loop {
                if !state.pending.is_empty() {
                    break;
                }
                if state.draining {
                    return;
                }
                state = inner
                    .work_cv
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            let first = state.pending.pop_front().expect("non-empty");
            let batch_key = first.batch_key;
            let mut batch = vec![first];
            // Claim queued work of the same topology, preserving the
            // FIFO order of everything left behind.
            let mut index = 0;
            while index < state.pending.len() && batch.len() < BATCH_MAX {
                if state.pending[index].batch_key == batch_key {
                    let job = state.pending.remove(index).expect("in range");
                    batch.push(job);
                } else {
                    index += 1;
                }
            }
            batch
        };
        telemetry::histogram("serve.batch_size", batch.len() as f64);
        for job in batch {
            // A panicking executor must not strand waiters or kill the
            // worker: surface it as a failed computation instead.
            let computed = std::panic::catch_unwind(AssertUnwindSafe(|| (inner.executor)(&job)))
                .unwrap_or_else(|_| Err("internal error: characterization worker panicked".into()));
            let result = computed.map(Arc::new);
            if let Ok(value) = &result {
                // Publish before removing the in-flight entry — the
                // ordering `submit` relies on.
                inner.cache.insert(job.key, Arc::clone(value));
            }
            let flight = inner.lock().inflight.remove(&job.key);
            if let Some(flight) = flight {
                flight.complete(result);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn job(key: u128, batch_key: u128, canonical: &str) -> Job {
        Job {
            key,
            batch_key,
            canonical: Arc::new(canonical.to_owned()),
        }
    }

    #[test]
    fn identical_keys_coalesce_onto_one_computation() {
        let executions = Arc::new(AtomicUsize::new(0));
        // Hold every worker at a barrier until all submitters have had
        // time to pile onto the in-flight entry.
        let release = Arc::new(Barrier::new(2));
        let executor: Executor = {
            let executions = Arc::clone(&executions);
            let release = Arc::clone(&release);
            Arc::new(move |job: &Job| {
                release.wait();
                executions.fetch_add(1, Ordering::SeqCst);
                Ok(format!("result:{}", job.canonical))
            })
        };
        let queue = Arc::new(JobQueue::new(
            2,
            64,
            Arc::new(ResultCache::new(64)),
            executor,
        ));

        let submitters: Vec<_> = (0..4)
            .map(|_| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || queue.submit(job(1, 1, "req")))
            })
            .collect();
        // Give the submitters time to coalesce, then open the gate.
        std::thread::sleep(std::time::Duration::from_millis(50));
        release.wait();

        let outcomes: Vec<_> = submitters.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(executions.load(Ordering::SeqCst), 1, "single flight");
        let computed = outcomes
            .iter()
            .filter(|o| matches!(o, SubmitOutcome::Computed(_)))
            .count();
        let coalesced = outcomes
            .iter()
            .filter(|o| matches!(o, SubmitOutcome::Coalesced(_)))
            .count();
        assert_eq!(computed, 1, "{outcomes:?}");
        assert_eq!(coalesced, 3, "{outcomes:?}");
        for outcome in &outcomes {
            let (SubmitOutcome::Computed(v) | SubmitOutcome::Coalesced(v)) = outcome else {
                panic!("unexpected outcome {outcome:?}");
            };
            assert_eq!(v.as_str(), "result:req");
        }
    }

    #[test]
    fn second_submission_after_completion_hits_the_cache() {
        let executions = Arc::new(AtomicUsize::new(0));
        let executor: Executor = {
            let executions = Arc::clone(&executions);
            Arc::new(move |job: &Job| {
                executions.fetch_add(1, Ordering::SeqCst);
                Ok(format!("result:{}", job.canonical))
            })
        };
        let queue = JobQueue::new(1, 8, Arc::new(ResultCache::new(8)), executor);
        let first = queue.submit(job(9, 9, "r"));
        assert!(matches!(first, SubmitOutcome::Computed(_)), "{first:?}");
        // The service fast-path normally catches this; the queue's own
        // re-probe must too (it is the race-free one).
        let second = queue.submit(job(9, 9, "r"));
        let SubmitOutcome::Hit(value) = second else {
            panic!("expected Hit, got {second:?}");
        };
        assert_eq!(value.as_str(), "result:r");
        assert_eq!(executions.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn full_queue_sheds_with_a_retry_hint() {
        // One worker stuck behind a barrier; capacity 1 → the stuck
        // job's successor fills the queue, the next one sheds.
        let started = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let executor: Executor = {
            let started = Arc::clone(&started);
            let release = Arc::clone(&release);
            Arc::new(move |job: &Job| {
                if job.canonical.as_str() == "a" {
                    started.wait();
                }
                release.wait();
                Ok("done".into())
            })
        };
        let queue = Arc::new(JobQueue::new(1, 1, Arc::new(ResultCache::new(8)), executor));
        let blocker = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.submit(job(1, 1, "a")))
        };
        // Rendezvous with the worker: it is now executing job 1 and
        // cannot claim anything else until `release` opens.
        started.wait();
        let filler = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.submit(job(2, 2, "b")))
        };
        while queue.backlog() != 1 {
            std::thread::yield_now();
        }
        let shed = queue.submit(job(3, 3, "c"));
        let SubmitOutcome::Shed { retry_after_s } = shed else {
            panic!("expected Shed, got {shed:?}");
        };
        assert!(retry_after_s >= 1);
        // Unblock both queued computations (worker hits the barrier
        // once per job).
        release.wait();
        release.wait();
        assert!(matches!(
            blocker.join().unwrap(),
            SubmitOutcome::Computed(_)
        ));
        assert!(matches!(filler.join().unwrap(), SubmitOutcome::Computed(_)));
    }

    #[test]
    fn executor_errors_reach_every_waiter_and_are_not_cached() {
        let attempts = Arc::new(AtomicUsize::new(0));
        let executor: Executor = {
            let attempts = Arc::clone(&attempts);
            Arc::new(move |_: &Job| {
                attempts.fetch_add(1, Ordering::SeqCst);
                Err("solver diverged".into())
            })
        };
        let cache = Arc::new(ResultCache::new(8));
        let queue = JobQueue::new(1, 8, Arc::clone(&cache), executor);
        let outcome = queue.submit(job(5, 5, "bad"));
        let SubmitOutcome::Failed(message) = outcome else {
            panic!("expected Failed, got {outcome:?}");
        };
        assert_eq!(message, "solver diverged");
        assert!(cache.get(5).is_none(), "errors must not be cached");
        // Errors are retryable: a later submission re-executes.
        assert!(matches!(
            queue.submit(job(5, 5, "bad")),
            SubmitOutcome::Failed(_)
        ));
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn panicking_executor_fails_the_job_but_not_the_worker() {
        let calls = Arc::new(AtomicUsize::new(0));
        let executor: Executor = {
            let calls = Arc::clone(&calls);
            Arc::new(move |job: &Job| {
                if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("boom");
                }
                Ok(format!("ok:{}", job.canonical))
            })
        };
        let queue = JobQueue::new(1, 8, Arc::new(ResultCache::new(8)), executor);
        let first = queue.submit(job(1, 1, "a"));
        assert!(matches!(first, SubmitOutcome::Failed(_)), "{first:?}");
        // The worker survived and serves the next job.
        let second = queue.submit(job(2, 2, "b"));
        assert!(matches!(second, SubmitOutcome::Computed(_)), "{second:?}");
    }

    #[test]
    fn drain_finishes_the_backlog_then_refuses_new_work() {
        let executed = Arc::new(AtomicUsize::new(0));
        let started = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let executor: Executor = {
            let executed = Arc::clone(&executed);
            let started = Arc::clone(&started);
            let release = Arc::clone(&release);
            Arc::new(move |_: &Job| {
                started.wait();
                release.wait();
                executed.fetch_add(1, Ordering::SeqCst);
                Ok("done".into())
            })
        };
        let queue = Arc::new(JobQueue::new(1, 8, Arc::new(ResultCache::new(8)), executor));
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.submit(job(1, 1, "a")))
        };
        // Begin draining while the job is mid-execution: the rendezvous
        // guarantees the worker has claimed it.
        started.wait();
        queue.set_draining();
        assert!(matches!(
            queue.submit(job(2, 2, "b")),
            SubmitOutcome::Draining
        ));
        release.wait();
        assert!(matches!(waiter.join().unwrap(), SubmitOutcome::Computed(_)));
        queue.drain();
        assert_eq!(executed.load(Ordering::SeqCst), 1, "backlog completed");
    }

    #[test]
    fn same_topology_jobs_batch_onto_one_worker_pass() {
        // Single worker held at a gate; interleaved jobs pile up; when
        // released, the worker must claim same-topology runs as batches.
        let started = Arc::new(Barrier::new(2));
        let gate = Arc::new(Barrier::new(2));
        let batches = Arc::new(Mutex::new(Vec::<String>::new()));
        let executor: Executor = {
            let started = Arc::clone(&started);
            let gate = Arc::clone(&gate);
            let batches = Arc::clone(&batches);
            Arc::new(move |job: &Job| {
                if job.canonical.as_str() == "gate" {
                    started.wait();
                    gate.wait(); // hold the gate job until the pile-up exists
                }
                batches
                    .lock()
                    .unwrap()
                    .push(job.canonical.as_str().to_owned());
                Ok(format!("r:{}", job.canonical))
            })
        };
        let queue = Arc::new(JobQueue::new(
            1,
            64,
            Arc::new(ResultCache::new(64)),
            executor,
        ));
        // The gate job occupies the worker (any topology); the
        // rendezvous guarantees it was claimed before anything else.
        let blocker = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.submit(job(100, 100, "gate")))
        };
        started.wait();
        // Interleave topologies 7 and 8 in the queue. The batch-order
        // assertion below needs the enqueue order to match the key
        // order, so wait for each submission to join the backlog before
        // spawning the next (the submitter threads themselves race).
        let submitters: Vec<_> = [(1u128, 7u128), (2, 8), (3, 7), (4, 8), (5, 7)]
            .into_iter()
            .enumerate()
            .map(|(i, (key, topo))| {
                let queue_for_job = Arc::clone(&queue);
                let handle = std::thread::spawn(move || {
                    queue_for_job.submit(job(key, topo, &format!("t{topo}k{key}")))
                });
                while queue.backlog() != i + 1 {
                    std::thread::yield_now();
                }
                handle
            })
            .collect();
        gate.wait();
        for s in submitters {
            assert!(matches!(s.join().unwrap(), SubmitOutcome::Computed(_)));
        }
        assert!(matches!(
            blocker.join().unwrap(),
            SubmitOutcome::Computed(_)
        ));
        let order = batches.lock().unwrap().clone();
        // After the gate job, the worker's first batch is all of
        // topology 7 (FIFO head), then all of topology 8.
        assert_eq!(
            order,
            vec!["gate", "t7k1", "t7k3", "t7k5", "t8k2", "t8k4"],
            "same-topology jobs run contiguously"
        );
    }
}
