//! Differential suite for the lane-batched Monte-Carlo engine: the SIMD
//! kernel must be **bit-identical** to the scalar counter-seeded path
//! for every supported lane width and every worker count, and the
//! scalar kernel's own draw accounting must be pulse-scale invariant
//! (the property that makes the lane batching legal in the first
//! place). The rare-event kernels — the tilted draw and the
//! variation-aware brute force — are held to the same standard.

use mtj::lanes::{self, SUPPORTED_LANE_COUNTS};
use mtj::rare::{self, Estimator, TailEnv, TailOptions, Tilt};
use mtj::wer::{self, WerGridOptions, TRIAL_STEPS};
use mtj::{MtjParams, SwitchingModel, VariationModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use units::{Current, Time};

/// A small WER grid spanning deep-failure to deep-success pulses at the
/// nominal write current, so trials retire at varied step counts.
fn grid(params: &MtjParams, points: usize) -> Vec<(Current, Time)> {
    let model = SwitchingModel::new(params);
    let drive = params.nominal_write_current();
    let tau = model.mean_switching_time(drive);
    (1..=points)
        .map(|k| (drive, tau * (0.7 * k as f64)))
        .collect()
}

#[test]
fn every_lane_width_and_worker_count_matches_scalar_serial() {
    let params = MtjParams::date2018();
    let points = grid(&params, 3);
    let trials = 250;
    let seed = 90;

    let reference = {
        let opts = WerGridOptions {
            trials,
            seed,
            jobs: 1,
            lanes: 1,
        };
        wer::monte_carlo_wer_grid(&params, &points, &opts).0
    };
    assert!(reference.iter().any(|e| e.failures > 0));
    assert!(reference.iter().any(|e| e.failures < trials));

    // `0` is auto: the built-in default width.
    assert_eq!(lanes::resolve_lanes(0), lanes::DEFAULT_LANES);
    for lanes in std::iter::once(0).chain(SUPPORTED_LANE_COUNTS) {
        for jobs in [1usize, 2, 4] {
            let opts = WerGridOptions {
                trials,
                seed,
                jobs,
                lanes,
            };
            let (estimates, _) = wer::monte_carlo_wer_grid(&params, &points, &opts);
            assert_eq!(
                estimates, reference,
                "lanes={lanes} jobs={jobs} diverged from scalar serial"
            );
        }
    }
}

#[test]
fn batched_kernel_matches_scalar_at_awkward_trial_counts() {
    let params = MtjParams::date2018();
    let model = SwitchingModel::new(&params);
    let drive = params.nominal_write_current();
    let pulse = model.mean_switching_time(drive) * 1.3;

    // Trial counts straddling every supported lane width, including
    // zero (no draws at all) and counts that leave a ragged last deal.
    for trials in [0usize, 1, 3, 31, 64, 65, 100] {
        let scalar = wer::count_write_failures(&params, drive, pulse, trials, 7);
        for &lanes in &SUPPORTED_LANE_COUNTS {
            let batched =
                lanes::count_write_failures_batched(&params, drive, pulse, trials, 7, lanes);
            assert_eq!(batched, scalar, "lanes={lanes} trials={trials}");
        }
    }
}

/// Every lane width the tilted-draw kernel can run at: `0` (the
/// default) and each supported width, `1` being the scalar draw.
fn all_lane_widths() -> impl Iterator<Item = usize> {
    std::iter::once(0).chain(SUPPORTED_LANE_COUNTS)
}

/// The importance sampler's lane kernel (Box–Muller, weight and
/// failure probability as passes over the lanes) folds to the same
/// accumulator bits as the scalar draw, for both estimators, at every
/// lane width and worker count — with a sample count that leaves a
/// ragged last block at every width.
#[test]
fn tilted_sampler_matches_the_scalar_draw_at_every_lane_width_and_worker_count() {
    let params = MtjParams::date2018();
    let drive = params.nominal_write_current();
    let env = TailEnv::new(&params, VariationModel::default(), drive);
    let pulse = wer::pulse_for_wer(&env.reference_model(), drive, 1e-6);
    let tilt = Tilt::along_switching_current(2.0);
    for estimator in [Estimator::Smooth, Estimator::Bernoulli] {
        let opts = |jobs: usize, lanes: usize| TailOptions {
            samples: 777,
            seed: 2022,
            jobs,
            lanes,
            estimator,
            tilt: Some(tilt),
            ..TailOptions::default()
        };
        let (scalar, _) = rare::accumulate_tilted(&env, pulse, tilt, &opts(1, 1));
        for lanes in all_lane_widths() {
            for jobs in [1, 2, 4] {
                let (got, summary) = rare::accumulate_tilted(&env, pulse, tilt, &opts(jobs, lanes));
                assert_eq!(got, scalar, "{estimator:?} lanes={lanes} jobs={jobs}");
                assert_eq!(summary.points, 777);
            }
        }
    }
}

/// The variation-aware brute force on lanes (device draws a block at a
/// time, then lockstep stepping against per-lane integer thresholds)
/// counts the same failures as its one-lane form at every width, across
/// the shallow and moderate regimes and at trial counts straddling the
/// widths; the pooled grid is identical for every worker count.
#[test]
fn varied_brute_force_is_bit_identical_at_every_lane_width_and_worker_count() {
    let params = MtjParams::date2018();
    let drive = params.nominal_write_current();
    let env = TailEnv::new(&params, VariationModel::default(), drive);
    let pulses: Vec<Time> = [0.3, 0.02, 1e-3]
        .iter()
        .map(|&t| wer::pulse_for_wer(&env.reference_model(), drive, t))
        .collect();
    for (k, &pulse) in pulses.iter().enumerate() {
        for trials in [0usize, 1, 63, 65, 1000] {
            let seed = 90 + k as u64;
            let one_lane = lanes::count_varied_write_failures_batched(&env, pulse, trials, seed, 1);
            for width in all_lane_widths() {
                let got =
                    lanes::count_varied_write_failures_batched(&env, pulse, trials, seed, width);
                assert_eq!(got, one_lane, "pulse {k}, trials {trials}, lanes {width}");
            }
        }
    }
    let expected: Vec<usize> = pulses
        .iter()
        .enumerate()
        .map(|(i, &pulse)| {
            let seed = sweep::point_seed(31, i as u64);
            lanes::count_varied_write_failures_batched(&env, pulse, 2000, seed, 1)
        })
        .collect();
    for jobs in [1, 2, 4] {
        let (grid, _) = rare::varied_wer_grid(&env, &pulses, 2000, 31, jobs);
        let failures: Vec<usize> = grid.iter().map(|e| e.failures).collect();
        assert_eq!(failures, expected, "jobs={jobs}");
    }
}

proptest! {
    /// The per-trial draw budget is pulse-scale invariant: any pulse at
    /// or above the step-floor × [`TRIAL_STEPS`] plans exactly
    /// `TRIAL_STEPS` draws, however the pulse magnitude rounds. (The
    /// old float-accumulated time loop consumed 64 or 65 draws
    /// depending on rounding, which would have made lane batching
    /// diverge from the scalar path.)
    #[test]
    fn draw_budget_is_pulse_scale_invariant(
        mantissa in 1.0f64..10.0,
        exponent in -10i32..-3,
        scale_pow in 0u32..16,
    ) {
        let pulse = Time::from_seconds(mantissa * 10f64.powi(exponent));
        let (steps, step) = wer::trial_step_plan(pulse);
        prop_assert_eq!(steps, TRIAL_STEPS);
        // The plan tiles the pulse exactly.
        prop_assert!((step.seconds() * steps as f64 - pulse.seconds()).abs() <= 1e-12 * pulse.seconds());
        // And the budget does not move when the pulse is rescaled by a
        // power of two (an exact float operation).
        let scaled = Time::from_seconds(pulse.seconds() * f64::from(2u32.pow(scale_pow)));
        prop_assert_eq!(wer::trial_step_plan(scaled).0, steps);
    }

    /// Every trial's consumed draw count obeys the plan: at most the
    /// budget, and exactly the budget whenever the trial fails.
    #[test]
    fn failing_trials_consume_exactly_the_budget(
        seed in any::<u64>(),
        pulse_scale in 0.2f64..4.0,
    ) {
        let params = MtjParams::date2018();
        let model = SwitchingModel::new(&params);
        let drive = params.nominal_write_current();
        let pulse = model.mean_switching_time(drive) * pulse_scale;
        let (steps, _) = wer::trial_step_plan(pulse);

        let mut rng = StdRng::seed_from_u64(seed);
        let trial = wer::write_trial(&params, drive, pulse, &mut rng);
        prop_assert!(trial.draws >= 1);
        prop_assert!(trial.draws <= steps);
        if trial.failed {
            prop_assert_eq!(trial.draws, steps);
        }
    }
}
