//! Allocation discipline of the rare-event sampler.
//!
//! A serial tilted campaign draws each block of lanes and folds it into
//! the accumulator in one pass, with no per-sample records and no block
//! buffers, so once warm it must not touch the heap at any sample
//! count. The adaptive tilt search keeps a candidate list, its scores
//! and one common batch of innovations: a fixed number of allocations,
//! however many pilot samples it draws. A counting global allocator
//! pins both. It counts only the allocations of the thread that runs
//! the measured call, inside the measured window, so the test harness's
//! own threads cannot land in a count; the test checks that the
//! measured calls stay on that thread, and that a thread they spawned
//! would still show in the count.
//!
//! The mtj *library* forbids `unsafe`; this integration test is a
//! separate crate, and the allocator shim below is the one place unsafe
//! is warranted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use mtj::rare::{self, Estimator, TailEnv, TailOptions, Tilt, TiltSearch};
use mtj::{wer, MtjParams, VariationModel};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the measuring thread for the measured window only. A
    /// const-initialised `Cell` needs no lazy set-up and no destructor,
    /// so reading it inside the allocator never allocates.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if MEASURING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and counts the allocations it makes on this thread.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    MEASURING.set(true);
    let out = f();
    MEASURING.set(false);
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

// One test function only: the counter is shared, so two tests measuring
// at once would add into each other's windows.
#[test]
fn serial_campaigns_do_not_allocate_and_the_tilt_search_allocates_a_fixed_count() {
    let params = MtjParams::date2018();
    let drive = params.nominal_write_current();
    let env = TailEnv::new(&params, VariationModel::default(), drive);
    let pulse = wer::pulse_for_wer(&env.reference_model(), drive, 1e-7);
    let tilt = Tilt::along_switching_current(1.5);
    let opts = |samples: usize, lanes: usize, estimator: Estimator| TailOptions {
        samples,
        seed: 7,
        jobs: 1,
        lanes,
        estimator,
        tilt: Some(tilt),
        ..TailOptions::default()
    };

    // A worker thread started inside a window cannot hide its work from
    // the per-thread count: spawning it allocates on this thread.
    let (spawn_allocs, ()) = count_allocs(|| std::thread::spawn(|| ()).join().expect("worker"));
    assert!(spawn_allocs >= 1, "a spawned thread went uncounted");

    // Warm up: settles any lazy one-time allocation.
    let _ = rare::accumulate_tilted(&env, pulse, tilt, &opts(100, 0, Estimator::Smooth));

    for estimator in [Estimator::Smooth, Estimator::Bernoulli] {
        for lanes in [0, 1, 8] {
            for samples in [1, 63, 64, 1000, 10_000] {
                let (allocs, (acc, summary)) = count_allocs(|| {
                    rare::accumulate_tilted(&env, pulse, tilt, &opts(samples, lanes, estimator))
                });
                assert_eq!(
                    allocs, 0,
                    "{estimator:?}, lanes {lanes}, {samples} samples: {allocs} allocations"
                );
                assert_eq!(summary.points, samples);
                assert_eq!(summary.workers, 1, "the campaign left the calling thread");
                assert_eq!(acc.estimate(0.99).samples, samples as u64);
            }
        }
    }

    let search_allocs = |pilot_samples: usize, lanes: usize| {
        let search = TiltSearch {
            rounds: 3,
            pilot_samples,
        };
        let (allocs, result) =
            count_allocs(|| rare::adaptive_tilt(&env, pulse, &search, 11, lanes));
        assert!(result.tilt.magnitude() > 0.0);
        allocs
    };
    for lanes in [0, 1, 8] {
        let small = search_allocs(64, lanes);
        for pilot_samples in [517, 4096] {
            assert_eq!(
                search_allocs(pilot_samples, lanes),
                small,
                "lanes {lanes}: {pilot_samples} pilot samples allocate more than 64 do"
            );
        }
        assert!(
            small <= 3,
            "lanes {lanes}: the tilt search allocated {small} times"
        );
    }
}
