//! `wer_shmoo`: the importance-sampled write-error-rate surface over the
//! default shmoo axes, with the brute-force cross-check and its
//! Bernoulli IS arm.

use mtj::rare::{
    self, Estimator, SurfaceAxes, TailEnv, TailOptions, TailSurfaceRow, Tilt, TiltSearch,
};
use mtj::{wer, MtjParams, SwitchingModel, ThermalModel, VariationModel};
use units::{Current, Temperature, Time};

use crate::calib;
use crate::harness::{Metric, OpWorkload};
use crate::stats::median;
use crate::trace::Tracer;

/// Typical-die WER targets of the pulse axis (deepest last).
const WER_TARGETS: [f64; 5] = [1e-3, 1e-5, 1e-7, 1e-9, 1e-11];
/// σ(Isw) axis.
const SIGMAS: [f64; 2] = [0.04, 0.06];
/// Temperature axis, °C.
const TEMPERATURES_C: [f64; 2] = [27.0, 85.0];
/// Importance-sampled draws per surface point.
pub const SAMPLES: usize = 10_000;
/// Brute-force trials of the cross-check.
const CROSSCHECK_TRIALS: usize = 30_000;
/// Bernoulli IS samples of the cross-check.
const CROSSCHECK_SAMPLES: usize = 3000;
/// Seeds of the cross-check arms. They are fixed rather than per-op: a
/// 99 % interval misses by construction on some seeds (at 3000
/// Bernoulli samples this arm misses the brute-force point on roughly
/// one seed in ten), so a per-op seed would fail ops of a correct
/// sampler. At a fixed seed the verdict is deterministic and changes
/// only when the sampler's results do.
const IS_SEED: u64 = 2018 ^ 0x5348_4d4f_4f58;
const BRUTE_SEED: u64 = 2018 ^ 0x42_52_55_54_45;

/// One op's results.
pub struct ShmooOut {
    rows: Vec<TailSurfaceRow>,
    /// Cross-check IS estimate and interval.
    is_wer: f64,
    ci: (f64, f64),
    /// Cross-check brute-force WER.
    brute_wer: f64,
}

/// Checks the cross-check agreement and the deep tail's resolution.
pub fn check(out: &ShmooOut) -> Result<(), String> {
    if out.rows.len() != WER_TARGETS.len() * SIGMAS.len() * TEMPERATURES_C.len() {
        return Err(format!("{} surface rows", out.rows.len()));
    }
    if !(out.ci.0 <= out.brute_wer && out.brute_wer <= out.ci.1) {
        return Err(format!(
            "cross-check: brute force {:.3e} outside IS 99 % CI [{:.3e}, {:.3e}] (IS {:.3e})",
            out.brute_wer, out.ci.0, out.ci.1, out.is_wer
        ));
    }
    let deepest = deepest(&out.rows).ok_or("no surface row resolved a nonzero WER")?;
    let e = &deepest.estimate;
    if !(e.wer.is_finite() && e.ci.lo > 0.0 && e.ci.hi.is_finite()) {
        return Err(format!(
            "deep tail unresolved: WER {:.3e}, CI [{:.3e}, {:.3e}]",
            e.wer, e.ci.lo, e.ci.hi
        ));
    }
    if e.samples as usize > SAMPLES {
        return Err(format!("deep tail spent {} > {SAMPLES} samples", e.samples));
    }
    Ok(())
}

fn deepest(rows: &[TailSurfaceRow]) -> Option<&TailSurfaceRow> {
    rows.iter()
        .filter(|r| r.estimate.wer > 0.0)
        .min_by(|a, b| a.estimate.wer.total_cmp(&b.estimate.wer))
}

/// Median over surface rows of the 99 % CI width relative to the WER.
pub fn rel_ci_width(rows: &[TailSurfaceRow]) -> f64 {
    let widths: Vec<f64> = rows
        .iter()
        .map(|r| (r.estimate.ci.hi - r.estimate.ci.lo) / r.estimate.wer)
        .collect();
    median(&widths)
}

/// The workload: fixed axes, campaign seed = workload seed + op index.
pub struct Shmoo {
    seed: u64,
    params: MtjParams,
    variation: VariationModel,
    thermal: ThermalModel,
    drive: Current,
    axes: SurfaceAxes,
    env: TailEnv,
    crosscheck_pulse: Time,
    rel_ci: Vec<f64>,
    ess_frac: Vec<f64>,
}

impl Shmoo {
    /// Builds the axes and the cross-check environment.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let params = MtjParams::date2018();
        let model = SwitchingModel::new(&params);
        let drive = params.nominal_write_current();
        let axes = SurfaceAxes {
            pulses: WER_TARGETS
                .iter()
                .map(|&t| wer::pulse_for_wer(&model, drive, t))
                .collect(),
            sigma_switching_currents: SIGMAS.to_vec(),
            temperatures: TEMPERATURES_C
                .iter()
                .map(|&c| Temperature::from_celsius(c))
                .collect(),
        };
        let variation = VariationModel::default();
        let env = TailEnv::new(&params, variation, drive);
        let crosscheck_pulse = wer::pulse_for_wer(&env.reference_model(), drive, WER_TARGETS[0]);
        Self {
            seed,
            params,
            variation,
            thermal: ThermalModel::default(),
            drive,
            axes,
            env,
            crosscheck_pulse,
            rel_ci: Vec::new(),
            ess_frac: Vec::new(),
        }
    }

    fn options(&self, index: u64) -> TailOptions {
        TailOptions {
            samples: SAMPLES,
            seed: self.seed.wrapping_add(index),
            jobs: 1,
            lanes: 0,
            ..TailOptions::default()
        }
    }

    fn crosscheck_options(&self) -> TailOptions {
        TailOptions {
            samples: CROSSCHECK_SAMPLES,
            seed: IS_SEED,
            estimator: Estimator::Bernoulli,
            ..self.options(0)
        }
    }
}

impl OpWorkload for Shmoo {
    const KERNEL: calib::Kernel = calib::Kernel::DenseAndLanes;
    type Out = ShmooOut;

    fn run(&mut self, index: u64) -> ShmooOut {
        let surface = rare::tail_surface(
            &self.params,
            &self.variation,
            &self.thermal,
            self.drive,
            &self.axes,
            &self.options(index),
            None,
        )
        .expect("an uncheckpointed surface cannot fail");
        let is = rare::estimate_tail(&self.env, self.crosscheck_pulse, &self.crosscheck_options());
        let (bf, _) = rare::varied_wer_grid(
            &self.env,
            &[self.crosscheck_pulse],
            CROSSCHECK_TRIALS,
            BRUTE_SEED,
            1,
        );
        ShmooOut {
            rows: surface.rows,
            is_wer: is.estimate.wer,
            ci: (is.estimate.ci.lo, is.estimate.ci.hi),
            brute_wer: bf[0].wer(),
        }
    }

    /// The surface point by point, as `tail_surface` runs it (same
    /// per-point seeds), so the rows equal the untraced op's.
    fn run_traced(&mut self, index: u64, tr: &mut Tracer) -> ShmooOut {
        let opts = self.options(index);
        let mut rows = Vec::new();
        for (i, point) in self.axes.points().into_iter().enumerate() {
            let seed = sweep::point_seed(opts.seed, i as u64);
            let row = tr.span("mtj.tail_point", |tr| {
                let variation = VariationModel::new(
                    self.variation.sigma_ra(),
                    self.variation.sigma_tmr(),
                    point.sigma_switching_current,
                )
                .expect("axis sigmas are valid");
                let env = TailEnv::at_temperature(
                    &self.params,
                    variation,
                    &self.thermal,
                    point.temperature,
                    self.drive,
                );
                let search = TiltSearch {
                    rounds: opts.pilot_rounds,
                    pilot_samples: opts.pilot_samples,
                };
                let tilt: Tilt = tr.span("mtj.tilt_search", |_| {
                    rare::adaptive_tilt(&env, point.pulse, &search, seed, opts.lanes).tilt
                });
                let inner = TailOptions {
                    seed,
                    tilt: Some(tilt),
                    ..opts
                };
                let (acc, _) = tr.span("mtj.accumulate_tilted", |_| {
                    rare::accumulate_tilted(&env, point.pulse, tilt, &inner)
                });
                TailSurfaceRow {
                    point,
                    tilt,
                    estimate: acc.estimate(opts.confidence),
                }
            });
            rows.push(row);
        }
        let is = tr.span("mtj.crosscheck_is", |_| {
            rare::estimate_tail(&self.env, self.crosscheck_pulse, &self.crosscheck_options())
        });
        let (bf, _) = tr.span("mtj.brute_force", |_| {
            rare::varied_wer_grid(
                &self.env,
                &[self.crosscheck_pulse],
                CROSSCHECK_TRIALS,
                BRUTE_SEED,
                1,
            )
        });
        ShmooOut {
            rows,
            is_wer: is.estimate.wer,
            ci: (is.estimate.ci.lo, is.estimate.ci.hi),
            brute_wer: bf[0].wer(),
        }
    }

    fn check(&mut self, out: &ShmooOut) -> Result<(), String> {
        check(out)?;
        self.rel_ci.push(rel_ci_width(&out.rows));
        if let Some(row) = deepest(&out.rows) {
            self.ess_frac
                .push(row.estimate.contribution_ess / row.estimate.samples as f64);
        }
        Ok(())
    }

    fn detail(&self) -> Vec<Metric> {
        vec![Metric::new("rel_ci_width", median(&self.rel_ci), "ratio")]
    }

    fn per_layer(&self, tr: &Tracer) -> Vec<Metric> {
        let accumulate: f64 = median(&tr.durations("mtj.accumulate_tilted"));
        vec![
            Metric::new(
                "mtj.tilt_search_s",
                median(&tr.durations("mtj.tilt_search")),
                "s",
            ),
            Metric::new(
                "mtj.tail_point_s",
                median(&tr.durations("mtj.tail_point")),
                "s",
            ),
            Metric::new("mtj.is_samples_per_s", SAMPLES as f64 / accumulate, "1/s"),
            Metric::new(
                "mtj.brute_trials_per_s",
                CROSSCHECK_TRIALS as f64 / median(&tr.durations("mtj.brute_force")),
                "1/s",
            ),
            Metric::new("mtj.contribution_ess_frac", median(&self.ess_frac), "frac"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_rows_equal_the_untraced_surface_and_checks_fire() {
        let mut w = Shmoo::new(3);
        let plain = w.run(1);
        let mut tr = Tracer::new(std::time::Instant::now());
        let (traced, _) = tr.op(1, |tr| w.run_traced(1, tr));
        assert_eq!(plain.rows, traced.rows);
        assert_eq!(plain.brute_wer, traced.brute_wer);
        assert_eq!(check(&plain), Ok(()));

        let mut bad = w.run(1);
        bad.brute_wer = bad.ci.1 * 2.0;
        assert!(check(&bad)
            .expect_err("disagreement")
            .contains("cross-check"));

        let mut bad = w.run(1);
        for row in &mut bad.rows {
            row.estimate.ci.hi = f64::INFINITY;
        }
        assert!(check(&bad).expect_err("unresolved").contains("deep tail"));
    }
}
