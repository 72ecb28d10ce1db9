//! Rare-event shmoo benchmark: the WER-vs-pulse-width-vs-σ(Isw)(-vs-T)
//! surface driven by the importance-sampled tail engine
//! ([`mtj::rare`]), with a brute-force cross-check in the regime brute
//! force can still see.
//!
//! The surface axes are *typical-die WER targets* (turned into pulse
//! widths through the reference device's closed-form
//! [`mtj::wer::pulse_for_wer`]), σ(Isw) values and operating
//! temperatures. The deep end of the default grid sits at a typical-die
//! WER of 1e-11, whose variation-averaged population WER lands at or
//! below 1e-9 — the acceptance point the committed baseline holds at
//! ≤ 1e4 samples with a reported confidence interval.
//!
//! Two verdicts ride along in the report:
//!
//! - **cross-check** — at the shallowest target (1e-3 by default), a
//!   Bernoulli-estimator IS run and a variation-aware brute-force run
//!   integrate the same measure; the brute-force point must fall inside
//!   the IS 99 % confidence interval.
//! - **samples-to-target-variance** — per deep-tail row,
//!   [`mtj::rare::TailEstimate::brute_force_equivalent_trials`] over
//!   the IS sample budget: the factor brute force would have to
//!   outspend the tilted sampler to match its variance.
//!
//! The [`ShmooReport::section`] output lands in `BENCH_report.json` as
//! the `rare_event` section. The differential suite behind these
//! verdicts — cross-check, deep-tail budget, jobs × lanes bit-identity
//! of the tilted sampler — is `tests/rare_event.rs`.

use std::time::Instant;

use mtj::rare::{self, Estimator, SurfaceAxes, TailEnv, TailOptions, TailSurfaceRow};
use mtj::{wer, MtjParams, SwitchingModel, ThermalModel, VariationModel};
use telemetry::Section;
use units::Temperature;

/// Knobs for one [`run`].
#[derive(Debug, Clone)]
pub struct ShmooOptions {
    /// Importance-sampled draws per surface point.
    pub samples: usize,
    /// Campaign base seed.
    pub seed: u64,
    /// Worker count (`0` = auto) — workers fan over surface points.
    pub jobs: usize,
    /// SIMD lane width of the tilted sampler (`0` = auto).
    pub lanes: usize,
    /// Cross-entropy pilot rounds of the per-point tilt search.
    pub pilot_rounds: usize,
    /// Samples per pilot round.
    pub pilot_samples: usize,
    /// Typical-die WER targets defining the pulse axis (deepest last).
    pub wer_targets: Vec<f64>,
    /// σ(Isw) axis.
    pub sigma_switching_currents: Vec<f64>,
    /// Temperature axis, °C.
    pub temperatures_c: Vec<f64>,
    /// Brute-force trials of the cross-check arm.
    pub crosscheck_trials: usize,
    /// IS samples of the cross-check arm (Bernoulli estimator).
    pub crosscheck_samples: usize,
}

impl Default for ShmooOptions {
    fn default() -> Self {
        Self {
            samples: 10_000,
            seed: 2018,
            jobs: 0,
            lanes: 0,
            pilot_rounds: 3,
            pilot_samples: 512,
            wer_targets: vec![1e-3, 1e-5, 1e-7, 1e-9, 1e-11],
            sigma_switching_currents: vec![0.04, 0.06],
            temperatures_c: vec![27.0, 85.0],
            crosscheck_trials: 30_000,
            crosscheck_samples: 3000,
        }
    }
}

impl ShmooOptions {
    /// The CI / report configuration: a 2-point surface (the shallow
    /// cross-check regime and the deep tail) that finishes in seconds.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            samples: 2000,
            pilot_rounds: 2,
            pilot_samples: 256,
            wer_targets: vec![1e-3, 1e-11],
            sigma_switching_currents: vec![0.06],
            temperatures_c: vec![27.0],
            crosscheck_trials: 12_000,
            crosscheck_samples: 2000,
            ..Self::default()
        }
    }

    /// The surface axes this configuration sweeps.
    #[must_use]
    pub(crate) fn axes(&self, params: &MtjParams) -> SurfaceAxes {
        let model = SwitchingModel::new(params);
        let drive = params.nominal_write_current();
        SurfaceAxes {
            pulses: self
                .wer_targets
                .iter()
                .map(|&t| wer::pulse_for_wer(&model, drive, t))
                .collect(),
            sigma_switching_currents: self.sigma_switching_currents.clone(),
            temperatures: self
                .temperatures_c
                .iter()
                .map(|&c| Temperature::from_celsius(c))
                .collect(),
        }
    }

    fn tail_options(&self) -> TailOptions {
        TailOptions {
            samples: self.samples,
            seed: self.seed,
            jobs: self.jobs,
            lanes: self.lanes,
            pilot_rounds: self.pilot_rounds,
            pilot_samples: self.pilot_samples,
            ..TailOptions::default()
        }
    }
}

/// The cross-check verdict: IS vs brute force in the shallow regime.
#[derive(Debug, Clone)]
pub struct CrossCheck {
    /// Typical-die WER target of the cross-check pulse.
    pub(crate) target: f64,
    /// IS (Bernoulli) population-WER estimate.
    pub(crate) is_wer: f64,
    /// IS 99 % confidence interval bounds.
    pub(crate) ci_lo: f64,
    /// Upper bound of the same interval.
    pub(crate) ci_hi: f64,
    /// Brute-force population-WER point estimate.
    pub(crate) brute_wer: f64,
    /// Brute-force trials spent.
    pub(crate) brute_trials: usize,
    /// The verdict: brute force inside the IS interval.
    pub agrees: bool,
    /// Wall-clock of the IS arm, seconds.
    pub(crate) is_wall_s: f64,
    /// Wall-clock of the brute-force arm, seconds.
    pub(crate) brute_wall_s: f64,
}

/// The full benchmark result.
#[derive(Debug, Clone)]
pub struct ShmooReport {
    /// Surface rows in [`SurfaceAxes::points`] order.
    pub(crate) rows: Vec<TailSurfaceRow>,
    /// Samples per surface point.
    pub(crate) samples: usize,
    /// Workers the surface sweep used.
    pub(crate) workers: usize,
    /// Surface wall-clock, seconds.
    pub(crate) surface_wall_s: f64,
    /// The shallow-regime differential.
    pub crosscheck: CrossCheck,
}

impl ShmooReport {
    /// The deepest resolved row: smallest nonzero WER on the surface.
    #[must_use]
    pub(crate) fn deepest(&self) -> Option<&TailSurfaceRow> {
        self.rows
            .iter()
            .filter(|r| r.estimate.wer > 0.0)
            .min_by(|a, b| a.estimate.wer.total_cmp(&b.estimate.wer))
    }

    /// Brute-force trials that the deepest row's variance would cost.
    #[must_use]
    pub(crate) fn deep_brute_force_equivalent_trials(&self) -> f64 {
        self.deepest()
            .map_or(f64::NAN, |r| r.estimate.brute_force_equivalent_trials())
    }

    /// Samples-to-target-variance advantage at the deepest row:
    /// brute-force-equivalent trials over the IS sample budget.
    #[must_use]
    pub(crate) fn deep_speedup_vs_brute_force(&self) -> f64 {
        self.deep_brute_force_equivalent_trials() / self.samples.max(1) as f64
    }

    /// Minimum WER resolved anywhere on the surface (`NaN` if none).
    #[must_use]
    pub(crate) fn min_wer(&self) -> f64 {
        self.deepest().map_or(f64::NAN, |r| r.estimate.wer)
    }

    /// Markdown block for `REPORT.md`.
    #[must_use]
    pub fn markdown(&self) -> String {
        let mut md = String::new();
        // No wall-clock figure here (it is in the `rare_event` section):
        // the text is deterministic, so builds can be compared byte for
        // byte.
        md.push_str(&format!(
            "{} surface points x {} samples/point ({} workers)\n\n",
            self.rows.len(),
            self.samples,
            self.workers,
        ));
        md.push_str(
            "| pulse (ns) | sigma(Isw) | T (C) | tilt |mu| | WER | 99% CI | \
             contrib. ESS | bf-equivalent trials |\n|--:|--:|--:|--:|--:|:--|--:|--:|\n",
        );
        for row in &self.rows {
            let e = &row.estimate;
            md.push_str(&format!(
                "| {:.3} | {:.3} | {:.0} | {:.2} | {:.3e} | [{:.2e}, {:.2e}] | {:.0} | {:.2e} |\n",
                row.point.pulse.seconds() * 1e9,
                row.point.sigma_switching_current,
                row.point.temperature.celsius(),
                row.tilt.magnitude(),
                e.wer,
                e.ci.lo,
                e.ci.hi,
                e.contribution_ess,
                e.brute_force_equivalent_trials(),
            ));
        }
        let c = &self.crosscheck;
        md.push_str(&format!(
            "\n* deepest WER resolved: {:.3e} at {} samples \
             (brute-force equivalent {:.2e} trials, {:.0}x the IS budget)\n\
             * cross-check at typical-die 1e-3 regime: IS {:.3e} \
             [{:.2e}, {:.2e}] vs brute force {:.3e} ({} trials) — {}\n",
            self.min_wer(),
            self.samples,
            self.deep_brute_force_equivalent_trials(),
            self.deep_speedup_vs_brute_force(),
            c.is_wer,
            c.ci_lo,
            c.ci_hi,
            c.brute_wer,
            c.brute_trials,
            if c.agrees { "agrees" } else { "DISAGREES" },
        ));
        md
    }

    /// The `rare_event` section for `BENCH_report.json`.
    #[must_use]
    pub fn section(&self) -> Section {
        let deep_ci = self.deepest().map(|r| r.estimate.ci);
        Section::new("rare_event")
            .metric("points", self.rows.len() as u64)
            .metric("samples_per_point", self.samples as u64)
            .metric("workers", self.workers as u64)
            .metric("surface_wall_s", self.surface_wall_s)
            .metric("min_wer", self.min_wer())
            .metric("min_wer_ci_lo", deep_ci.map_or(f64::NAN, |ci| ci.lo))
            .metric("min_wer_ci_hi", deep_ci.map_or(f64::NAN, |ci| ci.hi))
            .metric(
                "bf_equivalent_trials",
                self.deep_brute_force_equivalent_trials(),
            )
            .metric("speedup_vs_brute_force", self.deep_speedup_vs_brute_force())
            .metric("crosscheck_target", self.crosscheck.target)
            .metric("crosscheck_is_wer", self.crosscheck.is_wer)
            .metric("crosscheck_brute_wer", self.crosscheck.brute_wer)
            .metric("crosscheck_ci_lo", self.crosscheck.ci_lo)
            .metric("crosscheck_ci_hi", self.crosscheck.ci_hi)
            .metric(
                "crosscheck_brute_trials",
                self.crosscheck.brute_trials as u64,
            )
            .metric("crosscheck_agrees", u64::from(self.crosscheck.agrees))
            .metric("crosscheck_is_wall_s", self.crosscheck.is_wall_s)
            .metric("crosscheck_brute_wall_s", self.crosscheck.brute_wall_s)
    }
}

/// Runs the cross-check differential: both arms integrate the same
/// variation measure at the same pulse; the IS arm runs the Bernoulli
/// estimator so its interval reflects genuine trial noise.
fn crosscheck(env: &TailEnv, opts: &ShmooOptions) -> CrossCheck {
    let target = opts
        .wer_targets
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max)
        .max(1e-3);
    let pulse = wer::pulse_for_wer(&env.reference_model(), env.current(), target);

    let t0 = Instant::now();
    let is = rare::estimate_tail(
        env,
        pulse,
        &TailOptions {
            samples: opts.crosscheck_samples,
            seed: opts.seed ^ 0x5348_4d4f_4f58, // "SHMOOX"
            jobs: opts.jobs,
            lanes: opts.lanes,
            estimator: Estimator::Bernoulli,
            pilot_rounds: opts.pilot_rounds,
            pilot_samples: opts.pilot_samples,
            ..TailOptions::default()
        },
    );
    let is_wall_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let (bf, _) = rare::varied_wer_grid(
        env,
        &[pulse],
        opts.crosscheck_trials,
        opts.seed ^ 0x42_52_55_54_45, // "BRUTE"
        opts.jobs,
    );
    let brute_wall_s = t0.elapsed().as_secs_f64();

    let brute_wer = bf[0].wer();
    CrossCheck {
        target,
        is_wer: is.estimate.wer,
        ci_lo: is.estimate.ci.lo,
        ci_hi: is.estimate.ci.hi,
        brute_wer,
        brute_trials: opts.crosscheck_trials,
        agrees: is.estimate.ci.contains(brute_wer),
        is_wall_s,
        brute_wall_s,
    }
}

/// Runs the full shmoo: the tail surface plus the cross-check arm.
#[must_use]
pub fn run(opts: &ShmooOptions) -> ShmooReport {
    let params = MtjParams::date2018();
    let variation = VariationModel::default();
    let thermal = ThermalModel::default();
    let drive = params.nominal_write_current();
    let axes = opts.axes(&params);

    let t0 = Instant::now();
    let surface = rare::tail_surface(
        &params,
        &variation,
        &thermal,
        drive,
        &axes,
        &opts.tail_options(),
        None,
    )
    .expect("uncheckpointed surface cannot fail");
    let surface_wall_s = t0.elapsed().as_secs_f64();

    let env = TailEnv::new(&params, variation, drive);
    let crosscheck = crosscheck(&env, opts);

    ShmooReport {
        rows: surface.rows,
        samples: opts.samples,
        workers: surface.summary.workers,
        surface_wall_s,
        crosscheck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ShmooOptions {
        ShmooOptions {
            samples: 400,
            pilot_rounds: 1,
            pilot_samples: 64,
            wer_targets: vec![1e-3, 1e-7],
            sigma_switching_currents: vec![0.06],
            temperatures_c: vec![27.0],
            crosscheck_trials: 4000,
            crosscheck_samples: 800,
            ..ShmooOptions::default()
        }
    }

    #[test]
    fn a_tiny_shmoo_is_well_formed_and_cross_checks() {
        let report = run(&tiny());
        assert_eq!(report.rows.len(), 2);
        assert!(report.rows.iter().all(|r| r.estimate.samples == 400));
        assert!(
            report.crosscheck.agrees,
            "crosscheck: {:?}",
            report.crosscheck
        );
        assert!(report.min_wer() > 0.0);
        assert!(report.deep_speedup_vs_brute_force() > 1.0);
        let md = report.markdown();
        assert!(md.contains("bf-equivalent"));
        assert!(md.contains("agrees"));
    }

    #[test]
    fn quick_axes_cover_the_deep_tail() {
        let opts = ShmooOptions::quick();
        let axes = opts.axes(&MtjParams::date2018());
        assert_eq!(axes.pulses.len(), 2);
        // Longer pulse = deeper typical-die target.
        assert!(axes.pulses[1] > axes.pulses[0]);
        assert!(opts.samples <= 10_000);
    }
}
