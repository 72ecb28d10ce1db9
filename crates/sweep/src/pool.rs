//! The worker pool and ordered result collector.
//!
//! [`run`] / [`run_with_state`] execute every point of a
//! [`Grid`](crate::Grid) and return the results **in grid order**,
//! regardless of completion order. Work distribution is chunked
//! self-scheduling over a shared atomic cursor (the zero-dependency
//! cousin of work-stealing: finished workers pull the next chunk
//! instead of idling), results travel over an `mpsc` channel to the
//! collector running on the calling thread, and each worker owns
//! private state built lazily on its own thread — the place consumers
//! keep their pools of `SimulationSession`s.
//!
//! With one worker (or one point) no thread is spawned at all: jobs run
//! on the calling thread, preserving the serial path exactly —
//! including telemetry span parentage under the caller's open spans.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use crate::grid::Grid;

/// Execution options for a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOptions {
    /// Worker count. `0` selects the host's available parallelism;
    /// `1` runs serially on the calling thread (no threads spawned).
    pub jobs: usize,
    /// Points claimed per cursor fetch. `0` selects an automatic chunk
    /// (about eight chunks per worker) that balances scheduling
    /// overhead against tail latency.
    pub chunk: usize,
    /// Telemetry span label wrapped around every job. Under a parallel
    /// run each worker opens a `worker/<k>` root span for its lifetime,
    /// so jobs aggregate per worker (`worker/<k>/<label>`); under
    /// `jobs = 1` the label nests beneath the caller's spans.
    pub span_label: &'static str,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            jobs: 0,
            chunk: 0,
            span_label: "sweep.job",
        }
    }
}

impl SweepOptions {
    /// Options with an explicit worker count (`0` = auto).
    #[must_use]
    pub fn with_jobs(jobs: usize) -> Self {
        Self {
            jobs,
            ..Self::default()
        }
    }

    /// Resolves `jobs = 0` to the host's available parallelism and caps
    /// the count at `total` (more workers than points is pure waste).
    #[must_use]
    pub fn effective_workers(&self, total: usize) -> usize {
        let requested = if self.jobs == 0 {
            available_parallelism()
        } else {
            self.jobs
        };
        requested.clamp(1, total.max(1))
    }
}

/// The host's available parallelism, defaulting to 1 when the OS will
/// not say.
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Per-job context handed to the job function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobCtx {
    /// The point's grid index.
    pub index: usize,
    /// The point's deterministic RNG seed
    /// ([`Grid::seed_of`](crate::Grid::seed_of)`(index)`). Jobs that
    /// need randomness must derive it from this seed *only* — never
    /// from worker identity or shared state — or determinism across
    /// worker counts is lost.
    pub seed: u64,
    /// The executing worker's id (`0..workers`). Informational; results
    /// must not depend on it.
    pub(crate) worker: usize,
}

/// Progress of a running sweep, handed to the progress callback after
/// every completed job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Progress {
    /// Jobs completed so far (excluding checkpoint-restored ones).
    pub(crate) done: usize,
    /// Jobs this run must execute (excluding checkpoint-restored ones).
    pub(crate) total: usize,
    /// Wall-clock seconds since the sweep started.
    pub(crate) elapsed_s: f64,
    /// Estimated seconds to completion, extrapolated from the mean
    /// job rate so far.
    pub(crate) eta_s: f64,
}

/// Aggregate accounting of one sweep run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunSummary {
    /// Total points in the grid.
    pub points: usize,
    /// Points restored from a checkpoint instead of executed.
    pub resumed: usize,
    /// Workers that executed jobs.
    pub workers: usize,
    /// Wall-clock seconds of the whole run.
    pub wall_s: f64,
    /// Cumulative seconds spent inside jobs, summed over workers. With
    /// `workers = 1` this tracks `wall_s`; the ratio is the realized
    /// speedup.
    pub busy_s: f64,
}

impl RunSummary {
    /// Realized parallel speedup: cumulative job time over wall-clock
    /// time (≈ 1 for a serial run, → `workers` for perfect scaling).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.busy_s / self.wall_s
        } else {
            1.0
        }
    }
}

/// Results of a sweep: one entry per grid point, in grid order, plus
/// the run accounting.
#[derive(Debug, Clone)]
pub struct SweepOutcome<T> {
    /// Per-point results, index-aligned with the grid's points.
    pub results: Vec<T>,
    /// Worker/wall-clock accounting for the run.
    pub summary: RunSummary,
}

/// Runs a stateless job over every grid point. See [`run_with_state`]
/// for the variant with per-worker state.
///
/// # Examples
///
/// ```
/// let grid = sweep::Grid::with_seed(vec![1u64, 2, 3, 4], 9);
/// let opts = sweep::SweepOptions::with_jobs(2);
/// let out = sweep::run(&grid, &opts, |ctx, &p| p * 10 + ctx.index as u64);
/// assert_eq!(out.results, vec![10, 21, 32, 43]); // grid order
/// ```
pub fn run<P, T>(
    grid: &Grid<P>,
    opts: &SweepOptions,
    job: impl Fn(&JobCtx, &P) -> T + Sync,
) -> SweepOutcome<T>
where
    P: Sync,
    T: Send,
{
    run_with_state(grid, opts, |_| (), |(), ctx, point| job(ctx, point), None)
}

/// Runs a job over every grid point with per-worker state.
///
/// `make_state` is called once per worker, **on that worker's thread**,
/// before its first job — the hook for lazily-built expensive state
/// such as a pool of simulation sessions (see
/// [`LazyPool`](crate::LazyPool)). The job receives its worker's state
/// mutably, the per-point [`JobCtx`], and the point.
///
/// `on_progress`, when given, is invoked on the calling thread after
/// every completed job (in completion order) with running ETA figures.
///
/// Determinism contract: the returned `results` are bit-identical for
/// any worker count **provided** the job derives its output from the
/// point and `ctx.seed` alone. Worker state may cache and amortize, but
/// must not alter results.
pub fn run_with_state<P, S, T, FS, FJ>(
    grid: &Grid<P>,
    opts: &SweepOptions,
    make_state: FS,
    job: FJ,
    on_progress: Option<&mut dyn FnMut(&Progress)>,
) -> SweepOutcome<T>
where
    P: Sync,
    T: Send,
    FS: Fn(usize) -> S + Sync,
    FJ: Fn(&mut S, &JobCtx, &P) -> T + Sync,
{
    let pending: Vec<usize> = (0..grid.len()).collect();
    let slots = (0..grid.len()).map(|_| None).collect();
    let (results, summary) = run_pending(
        grid,
        pending,
        slots,
        opts,
        &make_state,
        &job,
        on_progress,
        &mut |_, _| {},
    );
    SweepOutcome { results, summary }
}

/// The engine core shared by [`run_with_state`] and the checkpointed
/// runner: executes the `pending` indices of `grid` into `slots`
/// (pre-filled entries are counted as resumed), reporting each result
/// to `sink` (on the collector thread, in completion order) before
/// storing it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_pending<P, S, T, FS, FJ>(
    grid: &Grid<P>,
    pending: Vec<usize>,
    mut slots: Vec<Option<T>>,
    opts: &SweepOptions,
    make_state: &FS,
    job: &FJ,
    mut on_progress: Option<&mut dyn FnMut(&Progress)>,
    sink: &mut dyn FnMut(usize, &T),
) -> (Vec<T>, RunSummary)
where
    P: Sync,
    T: Send,
    FS: Fn(usize) -> S + Sync,
    FJ: Fn(&mut S, &JobCtx, &P) -> T + Sync,
{
    assert_eq!(slots.len(), grid.len(), "slot/grid length mismatch");
    let total = pending.len();
    let resumed = slots.iter().filter(|s| s.is_some()).count();
    let workers = opts.effective_workers(total);
    let start = Instant::now();
    telemetry::counter("sweep.runs", 1);
    telemetry::counter("sweep.jobs_resumed", resumed as u64);

    let mut busy_s = 0.0f64;
    let mut done = 0usize;

    if workers <= 1 || total <= 1 {
        let mut state = make_state(0);
        for &index in &pending {
            let ctx = JobCtx {
                index,
                seed: grid.seed_of(index),
                worker: 0,
            };
            let t0 = Instant::now();
            let result = {
                let _span = telemetry::span(opts.span_label);
                job(&mut state, &ctx, &grid.points()[index])
            };
            telemetry::counter("sweep.jobs", 1);
            busy_s += t0.elapsed().as_secs_f64();
            done += 1;
            sink(index, &result);
            slots[index] = Some(result);
            if let Some(progress) = on_progress.as_deref_mut() {
                progress(&progress_of(done, total, start));
            }
        }
    } else {
        let chunk = if opts.chunk > 0 {
            opts.chunk
        } else {
            (total / (workers * 8)).max(1)
        };
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, f64, T)>();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for worker in 0..workers {
                let tx = tx.clone();
                let cursor = &cursor;
                let pending = &pending;
                let span_label = opts.span_label;
                handles.push(scope.spawn(move || {
                    // Give every worker its own span-path root
                    // (`worker/<k>/<job>/…`) and chrome-trace track
                    // label — without it, all workers' jobs collapse
                    // into one indistinguishable root row in
                    // render_summary and the trace viewer.
                    let tel = telemetry::enabled();
                    let _worker_span = tel.then(|| {
                        telemetry::set_thread_label(telemetry::worker_label(worker));
                        telemetry::span(telemetry::worker_label(worker))
                    });
                    let mut state = make_state(worker);
                    loop {
                        let claim = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if claim >= total {
                            break;
                        }
                        for &index in &pending[claim..(claim + chunk).min(total)] {
                            let ctx = JobCtx {
                                index,
                                seed: grid.seed_of(index),
                                worker,
                            };
                            let t0 = Instant::now();
                            let result = {
                                let _span = telemetry::span(span_label);
                                job(&mut state, &ctx, &grid.points()[index])
                            };
                            telemetry::counter("sweep.jobs", 1);
                            if tx
                                .send((index, t0.elapsed().as_secs_f64(), result))
                                .is_err()
                            {
                                return; // collector gone; unwind quietly
                            }
                        }
                    }
                }));
            }
            drop(tx);
            // Ordered collection: completion order arrives here, grid
            // order is restored by slot index. A worker that panics
            // drops its `tx`, so the loop drains whatever the healthy
            // workers produced and then ends.
            while let Ok((index, dur_s, result)) = rx.recv() {
                busy_s += dur_s;
                done += 1;
                sink(index, &result);
                slots[index] = Some(result);
                if let Some(progress) = on_progress.as_deref_mut() {
                    progress(&progress_of(done, total, start));
                }
            }
            // Join the workers *before* touching the result slots, and
            // re-raise the first worker panic with its original payload.
            // Leaving the handles to the scope's implicit join would
            // replace a job's panic message with the scope's generic
            // "a scoped thread panicked", and the collector would then
            // die on an unfilled slot instead of the real cause.
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    let wall_s = start.elapsed().as_secs_f64();
    if telemetry::enabled() {
        telemetry::histogram("sweep.run_wall_s", wall_s);
    }
    let results: Vec<T> = slots
        .into_iter()
        .map(|slot| slot.expect("every grid point produced a result"))
        .collect();
    let summary = RunSummary {
        points: grid.len(),
        resumed,
        workers: if total <= 1 { 1 } else { workers },
        wall_s,
        busy_s,
    };
    (results, summary)
}

fn progress_of(done: usize, total: usize, start: Instant) -> Progress {
    let elapsed_s = start.elapsed().as_secs_f64();
    let eta_s = if done > 0 {
        elapsed_s / done as f64 * (total - done) as f64
    } else {
        f64::INFINITY
    };
    Progress {
        done,
        total,
        elapsed_s,
        eta_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix_job(ctx: &JobCtx, p: &u64) -> u64 {
        // Output depends only on (point, seed) — the determinism
        // contract — but takes long enough to interleave workers.
        let mut acc = ctx.seed ^ p;
        for _ in 0..50 {
            acc = acc.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
        }
        acc
    }

    #[test]
    fn results_are_bit_identical_across_worker_counts() {
        let grid = Grid::with_seed((0..97u64).collect(), 1234);
        let serial = run(&grid, &SweepOptions::with_jobs(1), mix_job);
        for jobs in [2, 4, 8] {
            let parallel = run(&grid, &SweepOptions::with_jobs(jobs), mix_job);
            assert_eq!(parallel.results, serial.results, "jobs = {jobs}");
        }
    }

    #[test]
    fn results_come_back_in_grid_order_not_completion_order() {
        // Early points sleep longest, so completion order is roughly
        // reversed; the collector must still restore grid order.
        let grid = Grid::new((0..16u64).collect());
        let opts = SweepOptions {
            jobs: 4,
            chunk: 1,
            ..SweepOptions::default()
        };
        let out = run(&grid, &opts, |ctx, &p| {
            std::thread::sleep(std::time::Duration::from_millis(
                (16 - ctx.index as u64) * 2,
            ));
            p
        });
        assert_eq!(out.results, (0..16u64).collect::<Vec<_>>());
        assert_eq!(out.summary.workers, 4);
        assert_eq!(out.summary.points, 16);
    }

    #[test]
    fn serial_path_spawns_no_threads_and_reports_one_worker() {
        let grid = Grid::new(vec![5u64; 8]);
        let caller = std::thread::current().id();
        let out = run(&grid, &SweepOptions::with_jobs(1), |_, _| {
            std::thread::current().id()
        });
        assert!(out.results.iter().all(|&id| id == caller));
        assert_eq!(out.summary.workers, 1);
    }

    #[test]
    fn worker_state_is_built_per_worker_and_threaded_through() {
        let grid = Grid::new((0..32u64).collect());
        let out = run_with_state(
            &grid,
            &SweepOptions::with_jobs(4),
            |worker| (worker, 0usize),
            |state: &mut (usize, usize), ctx, _| {
                state.1 += 1;
                assert_eq!(state.0, ctx.worker);
                state.1
            },
            None,
        );
        // Each worker counts its own jobs from 1; every value is ≥ 1
        // and the per-worker counts cover all 32 points.
        assert_eq!(out.results.len(), 32);
        assert!(out.results.iter().all(|&n| (1..=32).contains(&n)));
    }

    #[test]
    fn progress_reports_monotonic_completion() {
        let grid = Grid::new(vec![0u64; 10]);
        let mut seen = Vec::new();
        let mut on_progress = |p: &Progress| seen.push(p.done);
        let _ = run_with_state(
            &grid,
            &SweepOptions::with_jobs(2),
            |_| (),
            |(), _, _| (),
            Some(&mut on_progress),
        );
        assert_eq!(seen.len(), 10);
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*seen.last().expect("nonempty"), 10);
    }

    #[test]
    fn worker_panic_resurfaces_with_original_payload() {
        // Regression: the collector used to leave panicked workers to
        // the scope's implicit join, which replaced the job's payload
        // with the scope's generic "a scoped thread panicked" (or died
        // first on an unfilled result slot). The original message must
        // survive to the caller.
        let grid = Grid::new((0..24u64).collect());
        let opts = SweepOptions {
            jobs: 3,
            chunk: 1,
            ..SweepOptions::default()
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(&grid, &opts, |ctx, &p| {
                if ctx.index == 7 {
                    panic!("boom at point {}", ctx.index);
                }
                p
            })
        }));
        let payload = outcome.expect_err("the worker panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("panic payload is a string");
        assert_eq!(message, "boom at point 7");
    }

    #[test]
    fn empty_grid_returns_empty_outcome() {
        let grid: Grid<u64> = Grid::new(Vec::new());
        let out = run(&grid, &SweepOptions::default(), |_, &p| p);
        assert!(out.results.is_empty());
        assert_eq!(out.summary.points, 0);
    }

    #[test]
    fn effective_workers_resolves_auto_and_caps_at_points() {
        let auto = SweepOptions::default();
        assert!(auto.effective_workers(1000) >= 1);
        assert_eq!(SweepOptions::with_jobs(8).effective_workers(3), 3);
        assert_eq!(SweepOptions::with_jobs(2).effective_workers(0), 1);
    }

    #[test]
    fn speedup_is_busy_over_wall() {
        let summary = RunSummary {
            points: 4,
            resumed: 0,
            workers: 4,
            wall_s: 1.0,
            busy_s: 3.5,
        };
        assert!((summary.speedup() - 3.5).abs() < 1e-12);
        assert!((RunSummary::default().speedup() - 1.0).abs() < 1e-12);
    }
}
