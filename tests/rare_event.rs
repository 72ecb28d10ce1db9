//! Differential suite for the rare-event engine: the importance-sampled
//! WER must agree with brute force where brute force can see (the 1e-3
//! regime), stay bit-identical across worker and lane counts, and reach
//! the deep tail (≤ 1e-9) within its sample budget.
//!
//! Every campaign below is counter-seeded, so each assertion is exactly
//! reproducible — the statistical margins were sized so the pinned
//! seeds pass with room (IS intervals dominated by their own width, not
//! the brute-force noise they must cover).

use mtj::rare::{self, Estimator, TailEnv, TailOptions, Tilt};
use mtj::{wer, MtjParams, VariationModel};
use units::Time;

fn env() -> TailEnv {
    let params = MtjParams::date2018();
    let drive = params.nominal_write_current();
    TailEnv::new(&params, VariationModel::default(), drive)
}

/// Pulse sized so the *typical* die sits at `target` WER; the
/// population WER under variation is then a factor ~e^{σ²/2} above it
/// (Jensen), which is what both estimators below must agree on.
fn pulse_at(e: &TailEnv, target: f64) -> Time {
    wer::pulse_for_wer(&e.reference_model(), e.current(), target)
}

/// The headline differential: across a pulse-width grid in the 1e-3
/// regime, the brute-force estimate falls inside the importance
/// sampler's 99 % confidence interval. The IS arm runs the Bernoulli
/// estimator so its interval reflects genuine trial noise (wide enough
/// to cover the brute-force arm's own ~10 % relative error), and both
/// arms integrate the same variation measure.
#[test]
fn brute_force_point_falls_inside_the_is_99_percent_ci() {
    let e = env();
    for (k, target) in [3e-3, 1e-3, 5e-4].into_iter().enumerate() {
        let pulse = pulse_at(&e, target);
        let is = rare::estimate_tail(
            &e,
            pulse,
            &TailOptions {
                samples: 3000,
                seed: 100 + k as u64,
                jobs: 2,
                lanes: 8,
                estimator: Estimator::Bernoulli,
                ..TailOptions::default()
            },
        );
        let (bf, _) = rare::varied_wer_grid(&e, &[pulse], 30_000, 9000 + k as u64, 2);
        let brute = bf[0].wer();
        let ci = is.estimate.ci;
        assert!(
            ci.contains(brute),
            "target {target}: brute force {brute} outside IS 99% CI [{}, {}] (is {})",
            ci.lo,
            ci.hi,
            is.estimate.wer
        );
        // Both estimates live above the typical-die WER: variation only
        // hurts (Jensen on a convex tail).
        assert!(is.estimate.wer > 0.5 * target, "is {}", is.estimate.wer);
    }
}

/// Tighter two-sided consistency: a smooth (Rao–Blackwellized) IS run
/// and a large brute-force run agree within 4 pooled standard errors.
#[test]
fn smooth_is_and_brute_force_agree_within_pooled_error() {
    let e = env();
    let pulse = pulse_at(&e, 1e-3);
    let is = rare::estimate_tail(
        &e,
        pulse,
        &TailOptions {
            samples: 4000,
            seed: 42,
            jobs: 2,
            lanes: 8,
            ..TailOptions::default()
        },
    );
    let trials = 40_000usize;
    let (bf, _) = rare::varied_wer_grid(&e, &[pulse], trials, 4242, 2);
    let p = bf[0].wer();
    let bf_se = (p * (1.0 - p) / trials as f64).sqrt();
    let pooled = (is.estimate.std_error.powi(2) + bf_se.powi(2)).sqrt();
    assert!(
        (is.estimate.wer - p).abs() <= 4.0 * pooled,
        "is {} vs brute force {p} (pooled se {pooled})",
        is.estimate.wer
    );
    // The smooth estimator earns its keep: same target variance would
    // cost brute force far more than the IS sample budget.
    assert!(
        is.estimate.brute_force_equivalent_trials() > 2.0 * is.estimate.samples as f64,
        "bf-equivalent {} vs samples {}",
        is.estimate.brute_force_equivalent_trials(),
        is.estimate.samples
    );
}

/// The tilted sampler is bit-identical for jobs ∈ {1, 2, 4} × lanes ∈
/// {1, 4, 8, 64} — the adaptive tilt search included (its pilots are
/// internally serial and counter-seeded).
#[test]
fn tilted_sampler_is_bit_identical_across_jobs_and_lanes() {
    let e = env();
    let pulse = pulse_at(&e, 1e-5);
    let opts = |jobs: usize, lanes: usize| TailOptions {
        samples: 1200,
        seed: 17,
        jobs,
        lanes,
        pilot_rounds: 2,
        pilot_samples: 256,
        ..TailOptions::default()
    };
    let reference = rare::estimate_tail(&e, pulse, &opts(1, 1));
    assert!(reference.estimate.wer > 0.0);
    for jobs in [1, 2, 4] {
        for lanes in [1, 4, 8, 64] {
            let got = rare::estimate_tail(&e, pulse, &opts(jobs, lanes));
            assert_eq!(got.tilt, reference.tilt, "jobs={jobs} lanes={lanes}");
            assert_eq!(
                got.estimate, reference.estimate,
                "jobs={jobs} lanes={lanes}"
            );
        }
    }
    // The Bernoulli estimator (one extra uniform per sample) holds the
    // same guarantee.
    let bopts = |jobs: usize, lanes: usize| TailOptions {
        estimator: Estimator::Bernoulli,
        tilt: Some(Tilt::along_switching_current(1.3)),
        ..opts(jobs, lanes)
    };
    let reference = rare::estimate_tail(&e, pulse, &bopts(1, 1));
    for (jobs, lanes) in [(2, 64), (4, 4), (1, 16)] {
        let got = rare::estimate_tail(&e, pulse, &bopts(jobs, lanes));
        assert_eq!(
            got.estimate, reference.estimate,
            "jobs={jobs} lanes={lanes}"
        );
    }
}

/// The acceptance criterion: the engine resolves WER ≤ 1e-9 with a
/// meaningful confidence interval at ≤ 1e4 samples for the point.
#[test]
fn deep_tail_wer_resolved_at_bounded_sample_budget() {
    let e = env();
    // Typical die at 1e-11; the variation-averaged population WER sits
    // a Jensen factor above — still at or below 1e-9.
    let pulse = pulse_at(&e, 1e-11);
    let result = rare::estimate_tail(
        &e,
        pulse,
        &TailOptions {
            samples: 10_000,
            seed: 7,
            jobs: 2,
            lanes: 64,
            ..TailOptions::default()
        },
    );
    let est = result.estimate;
    assert!(est.samples <= 10_000);
    assert!(est.wer > 0.0 && est.wer <= 1e-9, "wer {}", est.wer);
    assert!(est.ci.lo > 0.0, "vacuous lower bound");
    assert!(est.ci.contains(est.wer));
    assert!(
        est.ci.hi / est.ci.lo < 10.0,
        "ci [{}, {}]",
        est.ci.lo,
        est.ci.hi
    );
    // Brute force would need > 1e8 trials for the same variance.
    assert!(
        est.brute_force_equivalent_trials() > 1e8,
        "bf-equivalent {}",
        est.brute_force_equivalent_trials()
    );
}

/// Campaign-level ESS geometry on common random numbers: the
/// contribution ESS rises from the null tilt to the optimum and then
/// decays monotonically as the tilt overshoots.
#[test]
fn contribution_ess_peaks_at_the_optimum_and_decays_past_it() {
    let e = env();
    let pulse = pulse_at(&e, 1e-9);
    let ess_at = |shift: f64| {
        let tilt = Tilt::along_switching_current(shift);
        rare::accumulate_tilted(
            &e,
            pulse,
            tilt,
            &TailOptions {
                samples: 2000,
                seed: 5,
                jobs: 1,
                lanes: 8,
                tilt: Some(tilt),
                ..TailOptions::default()
            },
        )
        .0
        .contribution_ess()
    };
    // Around the optimum (≈ 2σ for this workload) the tilt beats the
    // null proposal by a wide margin...
    assert!(ess_at(2.0) > 5.0 * ess_at(0.0).max(1.0));
    // ...and past it the ESS ladder is strictly decreasing.
    let ladder: Vec<f64> = [2.0, 3.0, 4.0, 5.0, 6.0]
        .iter()
        .map(|&t| ess_at(t))
        .collect();
    for pair in ladder.windows(2) {
        assert!(pair[1] < pair[0], "ESS ladder not decreasing: {ladder:?}");
    }
}

/// Regression (PR 9 follow-up): a zero-trial estimate is NaN — never a
/// silent perfect device — and its new confidence interval is NaN too,
/// containing nothing.
#[test]
fn zero_trial_wer_estimate_and_interval_are_nan() {
    let e = env();
    let est = wer::WerEstimate {
        current: e.current(),
        pulse: Time::from_nano_seconds(2.0),
        trials: 0,
        failures: 0,
    };
    assert!(est.wer().is_nan());
    let ci = est.confidence_interval(0.99);
    assert!(ci.lo.is_nan() && ci.hi.is_nan());
    assert!(!ci.contains(0.0));
    assert!(!ci.contains(f64::NAN));
}

/// The Wilson interval on unweighted counts brackets the point estimate
/// and stays informative at zero failures (lo = 0, hi > 0) — the CI
/// field callers use instead of eyeballing raw counts.
#[test]
fn wilson_interval_on_counted_estimates_is_informative() {
    let e = env();
    let pulse = pulse_at(&e, 1e-2);
    let (rows, _) = rare::varied_wer_grid(&e, &[pulse], 2000, 3, 1);
    let est = &rows[0];
    assert!(est.failures > 0, "regime check: expected failures at 1e-2");
    let ci = est.confidence_interval(0.95);
    assert!(ci.contains(est.wer()));
    assert!(ci.lo > 0.0 && ci.hi < 1.0);

    let clean = wer::WerEstimate {
        failures: 0,
        ..*est
    };
    let ci = clean.confidence_interval(0.95);
    assert_eq!(ci.lo, 0.0);
    assert!(
        ci.hi > 0.0 && ci.hi < 0.01,
        "rule-of-three-like bound, got {}",
        ci.hi
    );
}
