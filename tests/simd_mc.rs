//! Differential suite for the lane-batched Monte-Carlo engine: the
//! rare-event kernels, the tilted draw and the variation-aware brute
//! force, must be **bit-identical** to their one-lane path for every
//! supported lane width and every worker count, and a trial's draw
//! budget must be pulse-scale invariant (the property that makes the
//! lane batching legal in the first place).

use mtj::lanes::{self, SUPPORTED_LANE_COUNTS};
use mtj::rare::{self, Estimator, TailEnv, TailOptions, Tilt};
use mtj::wer::{self, TRIAL_STEPS};
use mtj::{MtjParams, VariationModel};
use proptest::prelude::*;
use units::Time;

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
}
