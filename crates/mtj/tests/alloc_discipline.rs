//! Allocation discipline of the rare-event sampler.
//!
//! A serial tilted campaign draws each block of lanes and folds it into
//! the accumulator in one pass, with no per-sample records and no block
//! buffers, so once warm it must not touch the heap at any sample
//! count. The adaptive tilt search keeps a candidate list, its scores
//! and one common batch of innovations: a fixed number of allocations,
//! however many pilot samples it draws. A counting global allocator
//! pins both.
//!
//! The mtj *library* forbids `unsafe`; this integration test is a
//! separate crate, and the allocator shim below is the one place unsafe
//! is warranted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mtj::rare::{self, Estimator, TailEnv, TailOptions, Tilt, TiltSearch};
use mtj::{wer, MtjParams, VariationModel};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

// One test function only: the counter is process-global, and a single
// test keeps the harness from running other allocating threads
// concurrently with the measured sections.
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
