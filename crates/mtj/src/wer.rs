//! Write-error-rate (WER) analysis.
//!
//! STT switching is stochastic: holding a drive current for a finite
//! pulse leaves a residual probability `exp(−t/τ(I))` that the free
//! layer has not reversed. The paper sizes its store phase with margin
//! ("reliable back-up"); this module quantifies that margin — the WER
//! as a function of pulse width and drive, and the inverse problem of
//! choosing a pulse for a target error rate.
//!
//! The Monte-Carlo kernel is **counter-seeded per trial**: trial `t` of
//! a campaign draws from a private `StdRng` seeded by
//! [`sweep::point_seed`]`(seed, t)`, and every trial integrates a
//! deterministic **integer** number of steps ([`trial_step_plan`]).
//! Together these make any trial computable independently of every
//! other — which is what lets the lane-batched engine in
//! [`crate::lanes`] run trials in lockstep and still return results
//! bit-identical to this scalar path.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use units::{Current, Time};

use crate::device::{Mtj, WritePolarity};
use crate::params::MtjParams;
use crate::resistance::MtjState;
use crate::switching::SwitchingModel;

/// Probability that a single device fails to reverse under `current`
/// held for `pulse` — `exp(−t/τ)`.
///
/// # Examples
///
/// ```
/// use mtj::{MtjParams, SwitchingModel, wer};
/// use units::Time;
///
/// let p = MtjParams::date2018();
/// let m = SwitchingModel::new(&p);
/// let short = wer::write_error_rate(&m, p.nominal_write_current(), Time::from_nano_seconds(2.0));
/// let long = wer::write_error_rate(&m, p.nominal_write_current(), Time::from_nano_seconds(8.0));
/// assert!(long < short);
/// ```
#[must_use]
pub fn write_error_rate(model: &SwitchingModel, current: Current, pulse: Time) -> f64 {
    let tau = model.mean_switching_time(current).seconds();
    (-pulse.seconds() / tau).exp()
}

/// WER of a complementary-pair store: both devices of the pair must
/// reverse (worst-case data), so the pair fails if either does.
///
/// With single-device failure probability `s` the pair fails with
/// probability `1 − (1 − s)²`, computed here in the algebraically
/// equivalent form `s·(2 − s)`. The naive form cancels catastrophically
/// in the tail (`s ≲ 1e-16` rounds `1 − s` to exactly `1.0`, reporting
/// a zero pair WER) — and the tail is precisely the rare-event regime
/// reliability studies target.
#[must_use]
pub(crate) fn pair_write_error_rate(model: &SwitchingModel, current: Current, pulse: Time) -> f64 {
    let single = write_error_rate(model, current, pulse);
    single * (2.0 - single)
}

/// The shortest pulse meeting a target WER at the given drive:
/// `t = τ·ln(1/target)`.
///
/// # Panics
///
/// Panics unless `0 < target_wer < 1`.
#[must_use]
pub fn pulse_for_wer(model: &SwitchingModel, current: Current, target_wer: f64) -> Time {
    assert!(
        target_wer > 0.0 && target_wer < 1.0,
        "target WER must be in (0, 1), got {target_wer}"
    );
    let tau = model.mean_switching_time(current).seconds();
    Time::from_seconds(tau * (1.0 / target_wer).ln())
}

/// Nominal integration steps per stochastic write trial.
pub const TRIAL_STEPS: usize = 64;

/// Floor on the integration step — trials never step finer than 1 ps.
const MIN_STEP_SECONDS: f64 = 1e-12;

/// The integration plan of one stochastic write trial: the integer step
/// count and the uniform step width covering `pulse`.
///
/// A trial takes exactly [`TRIAL_STEPS`] steps of `pulse / TRIAL_STEPS`
/// whenever that step clears the 1 ps floor; shorter pulses fall back
/// to 1 ps steps, `⌈pulse / 1 ps⌉` of them. The count is computed by
/// integer arithmetic on the *ratio* — never by accumulating the step
/// in floating point and comparing against the pulse, which made the
/// per-trial draw count depend on the rounding of the pulse magnitude.
/// Rescaling a (floor-clear) pulse therefore never changes how many
/// RNG draws a trial consumes — the invariance the lane-batched versus
/// scalar differential tests rest on.
///
/// # Examples
///
/// ```
/// use mtj::wer::{trial_step_plan, TRIAL_STEPS};
/// use units::Time;
///
/// let (steps, step) = trial_step_plan(Time::from_nano_seconds(2.0));
/// assert_eq!(steps, TRIAL_STEPS);
/// assert!((step.seconds() * TRIAL_STEPS as f64 - 2.0e-9).abs() < 1e-21);
///
/// // A 10 ps pulse hits the 1 ps floor: 10 steps of 1 ps.
/// let (steps, step) = trial_step_plan(Time::from_pico_seconds(10.0));
/// assert_eq!(steps, 10);
/// assert_eq!(step.seconds(), 1e-12);
/// ```
#[must_use]
pub fn trial_step_plan(pulse: Time) -> (usize, Time) {
    let nominal = pulse.seconds() / TRIAL_STEPS as f64;
    if nominal >= MIN_STEP_SECONDS {
        (TRIAL_STEPS, Time::from_seconds(nominal))
    } else {
        let steps = (pulse.seconds().max(0.0) / MIN_STEP_SECONDS).ceil() as usize;
        (steps, Time::from_seconds(MIN_STEP_SECONDS))
    }
}

/// Probability that one stochastic write **trial** fails, conditioned on
/// the device's switching model — `exp(−(steps·step)/τ)` under the exact
/// integration plan of [`trial_step_plan`], with the trial preamble's
/// guards applied (a torque-less drive or a zero-step pulse fails with
/// certainty).
///
/// This is the Rao–Blackwellized ("smooth") form of [`write_trial`]: it
/// returns the trial's failure probability instead of a Bernoulli draw,
/// and is what the importance-sampling engine in [`crate::rare`]
/// integrates over the variation space. It matches the stepped trial's
/// distribution exactly — `(1 − p_step)^steps = exp(−steps·step/τ)` —
/// where [`write_error_rate`] uses the un-discretized pulse length and
/// no polarity guard.
#[must_use]
pub(crate) fn trial_failure_probability(
    model: &SwitchingModel,
    current: Current,
    pulse: Time,
) -> f64 {
    if WritePolarity::PositiveSetsAntiParallel.target_state(current) != Some(MtjState::AntiParallel)
    {
        return 1.0;
    }
    let (steps, step) = trial_step_plan(pulse);
    if steps == 0 {
        return 1.0;
    }
    let per_step = 1.0 - model.switch_probability(current, step);
    per_step.powi(i32::try_from(steps).unwrap_or(i32::MAX))
}

/// Outcome of one stochastic write trial — see [`write_trial`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteTrial {
    /// Whether the free layer was still un-reversed when the pulse
    /// ended.
    pub failed: bool,
    /// RNG draws the trial consumed: one per executed step, zero when
    /// the drive exerts no switching torque.
    pub draws: usize,
}

/// Runs one stochastic write trial — a `Parallel` device driven toward
/// `AntiParallel` for `pulse` — stepping per [`trial_step_plan`] and
/// drawing one uniform per step from `rng` until the device reverses
/// or the pulse ends.
///
/// This is the scalar reference the lane-batched kernel
/// ([`crate::lanes`]) is differentially tested against; it is public so
/// property tests can pin its draw accounting directly.
pub fn write_trial<R: Rng + ?Sized>(
    params: &MtjParams,
    current: Current,
    pulse: Time,
    rng: &mut R,
) -> WriteTrial {
    write_trial_with_model(params, SwitchingModel::new(params), current, pulse, rng)
}

/// [`write_trial`] with an explicit switching model instead of the
/// self-calibrated `SwitchingModel::new(params)`.
///
/// Variation studies need this: a Monte-Carlo sample must be stepped
/// under a **reference-calibrated** model
/// ([`SwitchingModel::with_reference`]) or the per-sample recalibration
/// cancels the very `Ic` excursion being sampled. The draw pattern is
/// identical to [`write_trial`].
pub(crate) fn write_trial_with_model<R: Rng + ?Sized>(
    params: &MtjParams,
    model: SwitchingModel,
    current: Current,
    pulse: Time,
    rng: &mut R,
) -> WriteTrial {
    let mut device = Mtj::with_model(
        params.clone(),
        model,
        MtjState::Parallel,
        WritePolarity::PositiveSetsAntiParallel,
    );
    if device.polarity().target_state(current) != Some(MtjState::AntiParallel) {
        // Zero or reverse drive exerts no torque toward a reversal:
        // the trial fails without consuming a draw.
        return WriteTrial {
            failed: true,
            draws: 0,
        };
    }
    let (steps, step) = trial_step_plan(pulse);
    let mut draws = 0usize;
    for _ in 0..steps {
        draws += 1;
        if device.advance_stochastic(current, step, rng) {
            break;
        }
    }
    WriteTrial {
        failed: device.state() == MtjState::Parallel,
        draws,
    }
}

/// Counts stochastic write failures over `trials` attempted writes —
/// the scalar reference kernel.
///
/// Trial `t` draws from a private `StdRng` seeded by
/// [`sweep::point_seed`]`(seed, t)`, so any trial's outcome is
/// independent of every other trial and of the batching strategy:
/// [`crate::lanes::count_write_failures_batched`] returns bit-identical
/// counts for every lane count.
#[must_use]
pub fn count_write_failures(
    params: &MtjParams,
    current: Current,
    pulse: Time,
    trials: usize,
    seed: u64,
) -> usize {
    let mut failures = 0usize;
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(sweep::point_seed(seed, t as u64));
        if write_trial(params, current, pulse, &mut rng).failed {
            failures += 1;
        }
    }
    failures
}

/// One Monte-Carlo WER estimate at a `(current, pulse)` grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WerEstimate {
    /// Drive current of this grid point.
    pub current: Current,
    /// Pulse width of this grid point.
    pub pulse: Time,
    /// Attempted writes.
    pub trials: usize,
    /// Writes that failed to reverse the free layer.
    pub failures: usize,
}

impl WerEstimate {
    /// The estimated write error rate, `failures / trials`.
    ///
    /// A zero-trial estimate carries no information, so it returns
    /// `NaN` — silently reporting `0.0` would claim perfect
    /// reliability from an empty campaign.
    #[must_use]
    pub fn wer(&self) -> f64 {
        if self.trials == 0 {
            f64::NAN
        } else {
            self.failures as f64 / self.trials as f64
        }
    }

    /// Two-sided **Wilson score** confidence interval on the estimated
    /// WER — the right interval for an unweighted Bernoulli count.
    ///
    /// Unlike the Wald interval `p̂ ± z·√(p̂(1−p̂)/n)`, Wilson stays
    /// inside `[0, 1]` and remains informative at zero observed
    /// failures (`lo = 0`, `hi ≈ z²/(n+z²)` — the rule-of-three
    /// regime), which is the typical state of a rare-event campaign's
    /// brute-force arm. Weighted (importance-sampled) estimates use the
    /// CLT-on-weights interval from [`crate::rare`] instead.
    ///
    /// A zero-trial estimate returns a `NaN` interval, mirroring
    /// [`Self::wer`].
    ///
    /// # Examples
    ///
    /// ```
    /// use mtj::wer::WerEstimate;
    /// use units::{Current, Time};
    ///
    /// let est = WerEstimate {
    ///     current: Current::from_micro_amps(70.0),
    ///     pulse: Time::from_nano_seconds(2.0),
    ///     trials: 1000,
    ///     failures: 3,
    /// };
    /// let ci = est.confidence_interval(0.99);
    /// assert!(ci.lo > 0.0 && ci.lo < est.wer() && est.wer() < ci.hi);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless `0 < confidence < 1`.
    #[must_use]
    pub fn confidence_interval(&self, confidence: f64) -> ConfidenceInterval {
        let z = crate::rare::z_for_confidence(confidence);
        if self.trials == 0 {
            return ConfidenceInterval {
                lo: f64::NAN,
                hi: f64::NAN,
                confidence,
            };
        }
        let n = self.trials as f64;
        let p = self.failures as f64 / n;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ConfidenceInterval {
            lo: (center - half).max(0.0),
            hi: (center + half).min(1.0),
            confidence,
        }
    }
}

/// A two-sided confidence interval `[lo, hi]` at the stated confidence
/// level — attached to both the brute-force Wilson intervals here and
/// the CLT-on-weights intervals of the importance-sampled estimates in
/// [`crate::rare`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Confidence level in `(0, 1)`, e.g. `0.99`.
    pub confidence: f64,
}

impl ConfidenceInterval {
    /// Whether `value` lies inside the closed interval. `NaN` bounds
    /// (zero-sample estimates) contain nothing.
    #[must_use]
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lo && value <= self.hi
    }

    /// Interval width, `hi − lo`.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Options for [`monte_carlo_wer_grid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WerGridOptions {
    /// Attempted writes per grid point.
    pub trials: usize,
    /// Base seed of the campaign.
    pub seed: u64,
    /// Worker count (`0` = auto, `1` = serial on the calling thread).
    pub jobs: usize,
    /// SIMD lane count of the batched kernel (`0` = the built-in
    /// [`crate::lanes::DEFAULT_LANES`], `1` = the scalar reference kernel).
    /// Results are bit-identical for every value.
    pub lanes: usize,
}

impl Default for WerGridOptions {
    fn default() -> Self {
        Self {
            trials: 1000,
            seed: 0,
            jobs: 0,
            lanes: 0,
        }
    }
}

/// Monte-Carlo WER over a `(current, pulse)` grid, fanned out over a
/// [`sweep`] worker pool with the lane-batched kernel inside each
/// worker (lanes × workers composed).
///
/// Each grid point runs its `trials` stochastic writes with per-trial
/// counter-derived seeds rooted at the point's [`sweep::point_seed`],
/// so the returned estimates are **bit-identical for every
/// `jobs` value and every `lanes` value**. Results come back in grid
/// order alongside the pool's [`sweep::RunSummary`].
///
/// # Examples
///
/// ```
/// use mtj::{wer, MtjParams};
/// use units::{Current, Time};
///
/// let p = MtjParams::date2018();
/// let points = vec![
///     (p.nominal_write_current(), Time::from_nano_seconds(2.0)),
///     (p.nominal_write_current(), Time::from_nano_seconds(6.0)),
/// ];
/// let opts = wer::WerGridOptions { trials: 200, seed: 17, jobs: 2, lanes: 0 };
/// let (estimates, _) = wer::monte_carlo_wer_grid(&p, &points, &opts);
/// assert!(estimates[1].wer() <= estimates[0].wer());
/// ```
pub fn monte_carlo_wer_grid(
    params: &MtjParams,
    points: &[(Current, Time)],
    opts: &WerGridOptions,
) -> (Vec<WerEstimate>, sweep::RunSummary) {
    let grid = sweep::Grid::with_seed(points.to_vec(), opts.seed);
    let pool = sweep::SweepOptions {
        jobs: opts.jobs,
        span_label: "mtj.wer_point",
        ..sweep::SweepOptions::default()
    };
    let trials = opts.trials;
    let lanes = opts.lanes;
    let outcome = sweep::run(&grid, &pool, |ctx, &(current, pulse)| WerEstimate {
        current,
        pulse,
        trials,
        failures: crate::lanes::count_write_failures_batched(
            params, current, pulse, trials, ctx.seed, lanes,
        ),
    });
    (outcome.results, outcome.summary)
}

/// One row of a WER-vs-pulse characterization sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WerPoint {
    /// Pulse width.
    pub pulse: Time,
    /// Single-device analytic WER.
    pub single: f64,
    /// Complementary-pair analytic WER.
    pub pair: f64,
}

/// Sweeps the WER over pulse widths (the store-margin curve).
#[must_use]
pub fn sweep(model: &SwitchingModel, current: Current, pulses: &[Time]) -> Vec<WerPoint> {
    pulses
        .iter()
        .map(|&pulse| WerPoint {
            pulse,
            single: write_error_rate(model, current, pulse),
            pair: pair_write_error_rate(model, current, pulse),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MtjParams, SwitchingModel) {
        let p = MtjParams::date2018();
        let m = SwitchingModel::new(&p);
        (p, m)
    }

    #[test]
    fn wer_decays_exponentially_with_pulse() {
        let (p, m) = setup();
        let i = p.nominal_write_current();
        let tau = m.mean_switching_time(i);
        let w1 = write_error_rate(&m, i, tau);
        let w2 = write_error_rate(&m, i, tau * 2.0);
        assert!((w1 - (-1.0f64).exp()).abs() < 1e-12);
        assert!((w2 - w1 * w1).abs() < 1e-12); // exp(-2) = exp(-1)²
    }

    #[test]
    fn pair_wer_is_worse_than_single() {
        let (p, m) = setup();
        let i = p.nominal_write_current();
        let pulse = Time::from_nano_seconds(4.0);
        let single = write_error_rate(&m, i, pulse);
        let pair = pair_write_error_rate(&m, i, pulse);
        assert!(pair > single);
        assert!(pair < 2.0 * single + 1e-12);
    }

    #[test]
    fn pair_wer_survives_the_tail_regime() {
        // Regression: the naive 1 − (1 − s)² rounds to 0 once
        // s < 2⁻⁵³ ≈ 1.1e-16 (1 − s collapses to exactly 1.0). The
        // rewritten s·(2 − s) keeps full relative precision: in the
        // tail the pair WER is 2s to within one part in 1e16.
        let (p, m) = setup();
        let i = p.nominal_write_current();
        for target in [1e-15, 1e-18, 1e-21] {
            let pulse = pulse_for_wer(&m, i, target);
            let single = write_error_rate(&m, i, pulse);
            assert!(single > 0.0 && single < 2e-15, "single = {single}");
            let pair = pair_write_error_rate(&m, i, pulse);
            assert!(pair > 0.0, "tail pair WER must not round to zero");
            assert!(
                (pair / (2.0 * single) - 1.0).abs() < 1e-12,
                "pair {pair} vs 2·single {}",
                2.0 * single
            );
            // The naive form loses the value entirely down here.
            let naive = 1.0 - (1.0 - single) * (1.0 - single);
            if single < 5e-17 {
                assert_eq!(naive, 0.0, "tail premise: naive form cancels");
            }
        }
    }

    #[test]
    fn pulse_for_wer_inverts_the_rate() {
        let (p, m) = setup();
        let i = p.nominal_write_current();
        for target in [1e-3, 1e-6, 1e-9] {
            let pulse = pulse_for_wer(&m, i, target);
            let achieved = write_error_rate(&m, i, pulse);
            assert!((achieved / target - 1.0).abs() < 1e-9, "{target}");
        }
        // 1e-9 at the nominal drive needs ~20.7 τ ≈ 41 ns.
        let pulse = pulse_for_wer(&m, i, 1e-9);
        assert!((pulse.nano_seconds() - 41.4).abs() < 1.0, "{pulse}");
    }

    #[test]
    fn stronger_drive_needs_shorter_pulses() {
        let (_, m) = setup();
        let weak = pulse_for_wer(&m, Current::from_micro_amps(55.0), 1e-6);
        let strong = pulse_for_wer(&m, Current::from_micro_amps(90.0), 1e-6);
        assert!(strong < weak);
    }

    #[test]
    fn step_plan_is_pulse_scale_invariant_above_the_floor() {
        // The committed regression for the float-accumulation bug: the
        // per-trial step count must not depend on the magnitude of the
        // pulse. (The old `elapsed += step; elapsed < pulse` loop took
        // 64 or 65 draws depending on rounding.)
        for exponent in -10..=-4 {
            for mantissa in [1.0, 1.3, 2.0, 3.7, 5.0, 7.77, 9.99] {
                let pulse = Time::from_seconds(mantissa * 10f64.powi(exponent));
                let (steps, step) = trial_step_plan(pulse);
                assert_eq!(steps, TRIAL_STEPS, "pulse {pulse}");
                assert!(
                    (step.seconds() * TRIAL_STEPS as f64 / pulse.seconds() - 1.0).abs() < 1e-12
                );
            }
        }
    }

    #[test]
    fn step_plan_floors_at_one_picosecond() {
        let (steps, step) = trial_step_plan(Time::from_pico_seconds(3.0));
        assert_eq!(steps, 3);
        assert_eq!(step.seconds(), 1e-12);
        let (steps, step) = trial_step_plan(Time::from_pico_seconds(2.5));
        assert_eq!(steps, 3); // ceil covers the whole pulse
        assert_eq!(step.seconds(), 1e-12);
        let (steps, _) = trial_step_plan(Time::ZERO);
        assert_eq!(steps, 0);
    }

    #[test]
    fn write_trial_accounts_its_draws() {
        let (p, _) = setup();
        let i = p.nominal_write_current();
        // A far-sub-critical drive (τ astronomically long): the trial
        // runs — and draws on — all 64 steps, then fails.
        let mut rng = StdRng::seed_from_u64(3);
        let trial = write_trial(
            &p,
            Current::from_micro_amps(1.0),
            Time::from_nano_seconds(2.0),
            &mut rng,
        );
        assert!(trial.failed);
        assert_eq!(trial.draws, TRIAL_STEPS);
        // Zero drive exerts no torque: failure with zero draws.
        let mut rng = StdRng::seed_from_u64(3);
        let trial = write_trial(&p, Current::ZERO, Time::from_nano_seconds(2.0), &mut rng);
        assert!(trial.failed);
        assert_eq!(trial.draws, 0);
        // Reverse drive stabilises Parallel: same.
        let mut rng = StdRng::seed_from_u64(3);
        let trial = write_trial(&p, -i, Time::from_nano_seconds(2.0), &mut rng);
        assert!(trial.failed);
        assert_eq!(trial.draws, 0);
    }

    #[test]
    fn monte_carlo_agrees_with_analytic() {
        let (p, m) = setup();
        let i = p.nominal_write_current();
        let pulse = m.mean_switching_time(i); // WER = e⁻¹ ≈ 0.368
        let empirical = count_write_failures(&p, i, pulse, 2000, 17) as f64 / 2000.0;
        let analytic = write_error_rate(&m, i, pulse);
        assert!(
            (empirical - analytic).abs() < 0.04,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn trial_outcomes_are_independent_of_campaign_size() {
        // Counter seeding: shrinking the campaign must not change the
        // trials that remain.
        let (p, m) = setup();
        let i = p.nominal_write_current();
        let pulse = m.mean_switching_time(i);
        let long = count_write_failures(&p, i, pulse, 500, 23);
        let short = count_write_failures(&p, i, pulse, 200, 23);
        let tail: usize = (200..500)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(sweep::point_seed(23, t as u64));
                usize::from(write_trial(&p, i, pulse, &mut rng).failed)
            })
            .sum();
        assert_eq!(long, short + tail);
    }

    #[test]
    fn wer_grid_is_bit_identical_across_worker_counts() {
        let (p, m) = setup();
        let i = p.nominal_write_current();
        let points: Vec<(Current, Time)> = (1..=6)
            .map(|k| (i, m.mean_switching_time(i) * f64::from(k) * 0.5))
            .collect();
        let opts = |jobs| WerGridOptions {
            trials: 150,
            seed: 23,
            jobs,
            lanes: 0,
        };
        let (serial, _) = monte_carlo_wer_grid(&p, &points, &opts(1));
        for jobs in [2, 4] {
            let (parallel, summary) = monte_carlo_wer_grid(&p, &points, &opts(jobs));
            assert_eq!(parallel, serial, "jobs = {jobs}");
            assert_eq!(summary.points, 6);
        }
        // Estimates come back in grid order; over the 2.5τ span the
        // decay dominates the 150-trial sampling noise.
        assert!(serial[5].wer() < serial[0].wer());
    }

    #[test]
    fn wer_estimate_divides_failures_by_trials() {
        let (p, _) = setup();
        let est = WerEstimate {
            current: p.nominal_write_current(),
            pulse: Time::from_nano_seconds(2.0),
            trials: 200,
            failures: 50,
        };
        assert!((est.wer() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_trial_estimate_is_nan_not_perfect() {
        // Regression: an empty campaign used to report WER = 0.0 —
        // perfect reliability from zero evidence.
        let (p, _) = setup();
        let empty = WerEstimate {
            current: p.nominal_write_current(),
            pulse: Time::from_nano_seconds(2.0),
            trials: 0,
            failures: 0,
        };
        assert!(empty.wer().is_nan());
    }

    #[test]
    fn sweep_is_monotone_decreasing() {
        let (p, m) = setup();
        let pulses: Vec<Time> = (1..=8)
            .map(|k| Time::from_nano_seconds(f64::from(k)))
            .collect();
        let points = sweep(&m, p.nominal_write_current(), &pulses);
        assert_eq!(points.len(), 8);
        for pair in points.windows(2) {
            assert!(pair[1].single < pair[0].single);
            assert!(pair[1].pair < pair[0].pair);
        }
    }

    #[test]
    #[should_panic(expected = "target WER")]
    fn invalid_target_panics() {
        let (p, m) = setup();
        let _ = pulse_for_wer(&m, p.nominal_write_current(), 1.5);
    }

    #[test]
    fn trial_failure_probability_matches_the_stepped_trial_distribution() {
        let (p, m) = setup();
        let i = p.nominal_write_current();
        let pulse = Time::from_nano_seconds(4.0);
        let (steps, step) = trial_step_plan(pulse);
        // The stepped trial fails iff all `steps` Bernoulli draws miss.
        let expected = (1.0 - m.switch_probability(i, step)).powi(steps as i32);
        assert_eq!(trial_failure_probability(&m, i, pulse), expected);
        // ... which is the analytic rate over the discretized pulse.
        let covered = Time::from_seconds(step.seconds() * steps as f64);
        let analytic = write_error_rate(&m, i, covered);
        assert!((expected / analytic - 1.0).abs() < 1e-12);
        // Trial-preamble guards: no torque or no steps fails certainly.
        assert_eq!(trial_failure_probability(&m, Current::ZERO, pulse), 1.0);
        assert_eq!(trial_failure_probability(&m, -i, pulse), 1.0);
        assert_eq!(trial_failure_probability(&m, i, Time::ZERO), 1.0);
    }

    #[test]
    fn write_trial_with_model_generalizes_write_trial() {
        let (p, m) = setup();
        let i = p.nominal_write_current();
        let pulse = Time::from_nano_seconds(2.0);
        for seed in 0..50 {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            assert_eq!(
                write_trial(&p, i, pulse, &mut a),
                write_trial_with_model(&p, m.clone(), i, pulse, &mut b)
            );
        }
    }

    #[test]
    fn wilson_interval_brackets_the_point_estimate() {
        let (p, _) = setup();
        let est = WerEstimate {
            current: p.nominal_write_current(),
            pulse: Time::from_nano_seconds(2.0),
            trials: 1000,
            failures: 10,
        };
        let ci95 = est.confidence_interval(0.95);
        let ci99 = est.confidence_interval(0.99);
        assert!(ci95.lo > 0.0 && ci95.contains(est.wer()) && ci95.hi < 1.0);
        // Higher confidence widens the interval; more data narrows it.
        assert!(ci99.width() > ci95.width());
        let bigger = WerEstimate {
            trials: 100_000,
            failures: 1000,
            ..est
        };
        assert!(bigger.confidence_interval(0.95).width() < ci95.width());
    }

    #[test]
    fn wilson_interval_stays_informative_at_zero_failures() {
        // The rule-of-three regime: no observed failures still bounds
        // the rate away from "anything".
        let (p, _) = setup();
        let est = WerEstimate {
            current: p.nominal_write_current(),
            pulse: Time::from_nano_seconds(2.0),
            trials: 3000,
            failures: 0,
        };
        let ci = est.confidence_interval(0.99);
        assert_eq!(ci.lo, 0.0);
        assert!(ci.hi > 0.0 && ci.hi < 5e-3, "hi = {}", ci.hi);
        assert!(ci.contains(0.0) && !ci.contains(0.01));
    }

    #[test]
    fn zero_trial_confidence_interval_is_nan() {
        // Regression companion to `zero_trial_estimate_is_nan_not_perfect`:
        // the interval must not claim certainty from an empty campaign.
        let (p, _) = setup();
        let empty = WerEstimate {
            current: p.nominal_write_current(),
            pulse: Time::from_nano_seconds(2.0),
            trials: 0,
            failures: 0,
        };
        let ci = empty.confidence_interval(0.99);
        assert!(ci.lo.is_nan() && ci.hi.is_nan());
        assert!(!ci.contains(0.0), "a NaN interval contains nothing");
    }
}
