//! Rare-event WER estimation by importance sampling over the variation
//! space.
//!
//! Brute-force Monte-Carlo needs on the order of `1/WER` trials per
//! observed failure — hopeless at the WER ≈ 1e-9 the flip-flop's store
//! phase is specified against. This module reaches that regime with
//! **Gaussian mean-shift (exponentially tilted) sampling**: the three
//! standard-normal variation coordinates `z = (z_RA, z_TMR, z_Isw)`
//! behind [`crate::variation::VariationModel::sample`] are drawn from
//! `N(μ, I)` instead of `N(0, I)`, pushing samples toward the failure
//! region (slow dies — large critical current), and every draw carries
//! its likelihood ratio
//!
//! ```text
//! w(z) = φ(z)/φ_μ(z) = exp(−μ·ε − |μ|²/2),   ε = z − μ ~ N(0, I)
//! ```
//!
//! so that `E_μ[w·f] = E_0[f]` for any statistic `f` — the estimator
//! stays **unbiased for every tilt** and the tilt only moves its
//! variance. Two estimators are offered ([`Estimator`]): the default
//! **smooth** (Rao–Blackwellized) form integrates the per-device
//! conditional failure probability
//! `crate::wer::trial_failure_probability` exactly, and the
//! **Bernoulli** form draws the stepped trial outcome, matching the
//! brute-force kernel draw-for-draw in distribution.
//!
//! Device samples are stepped under a **reference-calibrated** switching
//! model (`crate::switching::SwitchingModel::with_reference`): the
//! per-sample recalibration of `SwitchingModel::new` cancels an `Ic`
//! excursion exactly at the nominal drive, which would make the WER
//! variation-independent and this whole module a no-op.
//!
//! Everything composes with the repo's determinism discipline: each
//! sample is counter-seeded ([`sweep::point_seed`]), drawn either on a
//! scalar `StdRng` or in lockstep over [`rand::rngs::StdRngLanes`]
//! structure-of-arrays banks (a fixed six/seven-uniform budget per
//! sample — no retire/refill needed), and fanned over the [`sweep`]
//! worker pool — results are **bit-identical for every `jobs` and
//! `lanes` combination**. Surface campaigns
//! ([`tail_surface`]) checkpoint through `nvff-sweep-checkpoint/1`
//! and resume bit-identically.

use rand::rngs::{StdRng, StdRngLanes};
use rand::{Rng, RngExt, SeedableRng};
use units::{Current, Temperature, Time};

use crate::params::MtjParams;
use crate::switching::SwitchingModel;
use crate::thermal::ThermalModel;
use crate::variation::{standard_normal, VariationModel};
use crate::wer::{self, ConfidenceInterval, WerEstimate};

/// Multiplier floor shared with [`VariationModel::sample`] — a deep
/// negative excursion clamps instead of going non-physical. Clamping is
/// a measurable map of the sample space, so it leaves the
/// likelihood-ratio identity (and hence unbiasedness) intact: both the
/// tilted and the brute-force estimators integrate the same clamped
/// push-forward measure.
const MULTIPLIER_FLOOR: f64 = 1e-3;

/// Seed salt separating adaptive-tilt pilot draws from the final
/// estimation round.
const PILOT_SALT: u64 = 0x7261_7265_7069_6c6f; // "rarepilo"

// ---------------------------------------------------------------------------
// Tilt and normal quantiles
// ---------------------------------------------------------------------------

/// A mean shift `μ` of the three variation coordinates
/// `(z_RA, z_TMR, z_Isw)` — the importance-sampling proposal `N(μ, I)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Tilt {
    /// Mean shift per coordinate, in units of that coordinate's σ.
    pub mu: [f64; 3],
}

impl Tilt {
    /// The null tilt — plain Monte-Carlo over the nominal measure.
    pub const ZERO: Self = Self { mu: [0.0; 3] };

    /// A tilt along the switching-current coordinate only (positive
    /// shifts sample slower dies — the write-failure direction).
    #[must_use]
    pub fn along_switching_current(shift: f64) -> Self {
        Self {
            mu: [0.0, 0.0, shift],
        }
    }

    /// Euclidean magnitude `|μ|`.
    #[must_use]
    pub fn magnitude(&self) -> f64 {
        self.mu.iter().map(|m| m * m).sum::<f64>().sqrt()
    }

    /// Log likelihood ratio of a draw with innovation `ε = z − μ`:
    /// `ln w = −μ·ε − |μ|²/2`.
    #[must_use]
    pub fn log_weight(&self, eps: [f64; 3]) -> f64 {
        let dot = self.mu[0] * eps[0] + self.mu[1] * eps[1] + self.mu[2] * eps[2];
        let mag2 = self.mu[0] * self.mu[0] + self.mu[1] * self.mu[1] + self.mu[2] * self.mu[2];
        -dot - 0.5 * mag2
    }

    /// Likelihood-ratio weight `w = exp(ln w)`; satisfies
    /// `E_{ε~N(0,I)}[w] = 1` for every tilt.
    #[must_use]
    pub fn weight(&self, eps: [f64; 3]) -> f64 {
        self.log_weight(eps).exp()
    }
}

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// relative error < 1.15e-9 — far below any sampling noise it is
/// compared against).
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
#[must_use]
pub(crate) fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile argument must be in (0, 1)");
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p > 1.0 - P_LOW {
        -normal_quantile(1.0 - p)
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

/// Two-sided critical value `z` with `P(|N(0,1)| ≤ z) = confidence`
/// (`z ≈ 1.96` at 95 %, `≈ 2.576` at 99 %).
///
/// # Panics
///
/// Panics unless `0 < confidence < 1`.
#[must_use]
pub(crate) fn z_for_confidence(confidence: f64) -> f64 {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1), got {confidence}"
    );
    normal_quantile(0.5 + 0.5 * confidence)
}

/// Effective sample size of a set of non-negative values,
/// `(Σv)² / Σv²` — `n` for equal values, → 1 as one value dominates.
/// Returns 0 for an empty or all-zero set.
#[must_use]
pub fn effective_sample_size(values: &[f64]) -> f64 {
    let sum: f64 = values.iter().sum();
    let sum2: f64 = values.iter().map(|v| v * v).sum();
    if sum2 == 0.0 {
        0.0
    } else {
        sum * sum / sum2
    }
}

// ---------------------------------------------------------------------------
// Sampling environment
// ---------------------------------------------------------------------------

/// The sampling environment of a tail campaign: the (possibly
/// temperature-scaled) reference device, the variation measure over it,
/// and the write drive.
///
/// All paths — the tilted sampler, the adaptive tilt search, and the
/// variation-aware brute-force cross-check — share this one `z ↦ θ(z)`
/// map and the one reference-calibrated switching model, so they
/// integrate the *same* measure and are directly comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct TailEnv {
    reference: MtjParams,
    variation: VariationModel,
    current: Current,
}

impl TailEnv {
    /// An environment at the reference device's own temperature.
    #[must_use]
    pub fn new(nominal: &MtjParams, variation: VariationModel, current: Current) -> Self {
        Self {
            reference: nominal.clone(),
            variation,
            current,
        }
    }

    /// An environment with the reference device re-evaluated at
    /// `temperature` through `thermal` — temperature as a first-class
    /// campaign axis. The switching-model calibration is then frozen on
    /// the *at-temperature* reference, so thermal `Ic` softening shifts
    /// the whole WER curve while per-die variation spreads it.
    #[must_use]
    pub fn at_temperature(
        nominal: &MtjParams,
        variation: VariationModel,
        thermal: &ThermalModel,
        temperature: Temperature,
        current: Current,
    ) -> Self {
        Self {
            reference: thermal.at_temperature(nominal, temperature),
            variation,
            current,
        }
    }

    /// The reference (typical-die) parameter set of this environment.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn reference(&self) -> &MtjParams {
        &self.reference
    }

    /// The variation measure sampled over.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn variation(&self) -> &VariationModel {
        &self.variation
    }

    /// The write drive current.
    #[must_use]
    pub fn current(&self) -> Current {
        self.current
    }

    /// The reference device's own (self-calibrated) switching model —
    /// used for pulse planning (`pulse_for_wer` targets).
    #[must_use]
    pub fn reference_model(&self) -> SwitchingModel {
        SwitchingModel::new(&self.reference)
    }

    /// The deterministic `z ↦ θ(z)` map: standard-normal coordinates to
    /// a perturbed parameter set, `multiplier = max(1 + σ·z, 1e-3)` per
    /// coordinate — exactly the push-forward of
    /// [`VariationModel::sample`].
    #[must_use]
    pub(crate) fn params_from_z(&self, z: [f64; 3]) -> MtjParams {
        self.reference.perturbed(
            (1.0 + self.variation.sigma_ra() * z[0]).max(MULTIPLIER_FLOOR),
            (1.0 + self.variation.sigma_tmr() * z[1]).max(MULTIPLIER_FLOOR),
            (1.0 + self.variation.sigma_switching_current() * z[2]).max(MULTIPLIER_FLOOR),
        )
    }

    /// Reference-calibrated switching model for a sampled device — see
    /// [`SwitchingModel::with_reference`] for why per-sample
    /// recalibration must not be used here.
    #[must_use]
    pub(crate) fn model_for(&self, device: &MtjParams) -> SwitchingModel {
        SwitchingModel::with_reference(&self.reference, device)
    }

    /// Conditional probability that one stochastic write trial of the
    /// device at coordinates `z` fails under `pulse` — the smooth
    /// integrand of the importance-sampling estimator.
    #[must_use]
    pub(crate) fn failure_probability(&self, z: [f64; 3], pulse: Time) -> f64 {
        let params = self.params_from_z(z);
        let model = self.model_for(&params);
        wer::trial_failure_probability(&model, self.current, pulse)
    }
}

// ---------------------------------------------------------------------------
// Estimators and draws
// ---------------------------------------------------------------------------

/// Which per-sample statistic the tilted sampler accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Estimator {
    /// Rao–Blackwellized: `x = w·p_fail(θ(z))`, integrating the
    /// conditional failure probability exactly (6 uniforms per sample).
    /// Lowest variance; the default.
    #[default]
    Smooth,
    /// Stepped-trial form: `x = w·1{u < p_fail(θ(z))}` with a seventh
    /// uniform — matches the brute-force trial's conditional outcome in
    /// distribution, at Bernoulli-noise cost. Useful when the
    /// comparison itself is the point (differential tests).
    Bernoulli,
}

impl Estimator {
    /// Fixed uniform-draw budget of one sample — what lets the lane
    /// path run in pure lockstep with no retire/refill.
    fn draw_rounds(self) -> usize {
        match self {
            Self::Smooth => 6,
            Self::Bernoulli => 7,
        }
    }
}

/// One tilted draw — the per-sample record the accumulator folds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TiltedDraw {
    /// Variation coordinates under the tilted measure, `z = μ + ε`.
    pub(crate) z: [f64; 3],
    /// Likelihood-ratio weight `w(ε)`.
    pub(crate) weight: f64,
    /// Conditional trial-failure probability at `θ(z)`.
    pub(crate) p_fail: f64,
    /// Estimator contribution (`w·p` or `w·1{fail}`).
    pub(crate) x: f64,
}

/// Completes a draw from its innovations (and, for the Bernoulli
/// estimator, its seventh uniform). Shared verbatim by the scalar and
/// lane paths so their arithmetic is bit-identical.
fn finish_draw(
    env: &TailEnv,
    pulse: Time,
    tilt: Tilt,
    estimator: Estimator,
    eps: [f64; 3],
    bernoulli_u: f64,
) -> TiltedDraw {
    let z = [
        tilt.mu[0] + eps[0],
        tilt.mu[1] + eps[1],
        tilt.mu[2] + eps[2],
    ];
    let weight = tilt.weight(eps);
    let p_fail = env.failure_probability(z, pulse);
    let x = match estimator {
        Estimator::Smooth => weight * p_fail,
        Estimator::Bernoulli => {
            if bernoulli_u < p_fail {
                weight
            } else {
                0.0
            }
        }
    };
    TiltedDraw {
        z,
        weight,
        p_fail,
        x,
    }
}

/// The scalar reference draw for sample seed `seed` — the definition of
/// correct the lane path is held to.
fn draw_scalar(
    env: &TailEnv,
    pulse: Time,
    tilt: Tilt,
    estimator: Estimator,
    seed: u64,
) -> TiltedDraw {
    let mut rng = StdRng::seed_from_u64(seed);
    let eps = [
        standard_normal(&mut rng),
        standard_normal(&mut rng),
        standard_normal(&mut rng),
    ];
    let bernoulli_u: f64 = match estimator {
        Estimator::Smooth => 0.0,
        Estimator::Bernoulli => rng.random(),
    };
    finish_draw(env, pulse, tilt, estimator, eps, bernoulli_u)
}

/// Lane-batched draws over one block of sample seeds: the
/// structure-of-arrays RNG banks step all lanes through the fixed
/// six/seven-uniform budget in lockstep, then each lane's innovations
/// finish on the shared scalar arithmetic.
///
/// Box–Muller's rejection branch (first uniform ≤ `f64::MIN_POSITIVE`,
/// probability ≈ 2⁻⁵³ per draw) breaks the fixed budget; an affected
/// lane is recomputed wholesale from its own seed on the scalar path,
/// preserving bit-identity because
/// [`StdRngLanes::seed_lane`] reproduces `StdRng::seed_from_u64`
/// exactly.
fn draw_block_lanes<const LANES: usize>(
    env: &TailEnv,
    pulse: Time,
    tilt: Tilt,
    estimator: Estimator,
    ctxs: &[sweep::JobCtx],
) -> Vec<TiltedDraw> {
    let filled = ctxs.len().min(LANES);
    let mut rngs = StdRngLanes::<LANES>::new();
    for (lane, ctx) in ctxs.iter().enumerate().take(filled) {
        rngs.seed_lane(lane, ctx.seed);
    }
    let mut uniforms = [[0.0f64; LANES]; 7];
    for block in uniforms.iter_mut().take(estimator.draw_rounds()) {
        rngs.fill_unit_f64(block);
    }
    let mut out = Vec::with_capacity(ctxs.len());
    for (lane, ctx) in ctxs.iter().enumerate().take(filled) {
        let mut eps = [0.0f64; 3];
        let mut rejected = false;
        for (k, eps_k) in eps.iter_mut().enumerate() {
            let u1 = uniforms[2 * k][lane];
            if u1 <= f64::MIN_POSITIVE {
                rejected = true;
                break;
            }
            let u2 = uniforms[2 * k + 1][lane];
            *eps_k = (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos();
        }
        if rejected {
            out.push(draw_scalar(env, pulse, tilt, estimator, ctx.seed));
        } else {
            out.push(finish_draw(
                env,
                pulse,
                tilt,
                estimator,
                eps,
                uniforms[6][lane],
            ));
        }
    }
    // A block longer than the lane width cannot come from
    // `run_blocked`, but degrade gracefully rather than truncate.
    for ctx in ctxs.iter().skip(filled) {
        out.push(draw_scalar(env, pulse, tilt, estimator, ctx.seed));
    }
    out
}

/// Runtime-width dispatch of one block of draws.
fn draw_block(
    env: &TailEnv,
    pulse: Time,
    tilt: Tilt,
    estimator: Estimator,
    ctxs: &[sweep::JobCtx],
    lanes: usize,
) -> Vec<TiltedDraw> {
    match lanes {
        2 => draw_block_lanes::<2>(env, pulse, tilt, estimator, ctxs),
        4 => draw_block_lanes::<4>(env, pulse, tilt, estimator, ctxs),
        8 => draw_block_lanes::<8>(env, pulse, tilt, estimator, ctxs),
        16 => draw_block_lanes::<16>(env, pulse, tilt, estimator, ctxs),
        32 => draw_block_lanes::<32>(env, pulse, tilt, estimator, ctxs),
        64 => draw_block_lanes::<64>(env, pulse, tilt, estimator, ctxs),
        _ => ctxs
            .iter()
            .map(|ctx| draw_scalar(env, pulse, tilt, estimator, ctx.seed))
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Accumulation and estimates
// ---------------------------------------------------------------------------

/// Running sums of a tilted campaign — everything the estimators, the
/// confidence interval, the effective sample sizes, and the
/// cross-entropy tilt update need, in nine cells. Folding is done in
/// grid order after collection, so the sums are bit-identical for every
/// `jobs`/`lanes` combination, and the fixed `Self::CELLS`-cell
/// encoding (`Self::to_cells`) is what surface campaigns checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TailAccumulator {
    samples: u64,
    sum_x: f64,
    sum_x2: f64,
    sum_w: f64,
    sum_w2: f64,
    sum_xz: [f64; 3],
}

impl TailAccumulator {
    /// Cells in the checkpoint encoding.
    pub(crate) const CELLS: usize = 8;

    /// Folds one draw.
    pub(crate) fn push(&mut self, draw: &TiltedDraw) {
        self.samples += 1;
        self.sum_x += draw.x;
        self.sum_x2 += draw.x * draw.x;
        self.sum_w += draw.weight;
        self.sum_w2 += draw.weight * draw.weight;
        for (acc, z) in self.sum_xz.iter_mut().zip(draw.z) {
            *acc += draw.x * z;
        }
    }

    /// Mean likelihood-ratio weight — `≈ 1` under any tilt
    /// (unbiasedness diagnostic; the property suite pins it).
    #[must_use]
    pub(crate) fn mean_weight(&self) -> f64 {
        if self.samples == 0 {
            f64::NAN
        } else {
            self.sum_w / self.samples as f64
        }
    }

    /// Effective sample size of the **weights**, `(Σw)²/Σw²`. Maximal
    /// (= n) at zero tilt — a proposal-overlap diagnostic, *not* the
    /// quantity to tune the tilt by.
    #[must_use]
    pub(crate) fn weight_ess(&self) -> f64 {
        if self.sum_w2 == 0.0 {
            0.0
        } else {
            self.sum_w * self.sum_w / self.sum_w2
        }
    }

    /// Effective sample size of the estimator **contributions**,
    /// `(Σx)²/Σx²` — the variance-relevant ESS the adaptive tilt
    /// search maximizes. At zero tilt on a deep tail almost every
    /// contribution is ≈ 0 and this collapses; at the optimal tilt it
    /// approaches n.
    #[must_use]
    pub fn contribution_ess(&self) -> f64 {
        if self.sum_x2 == 0.0 {
            0.0
        } else {
            self.sum_x * self.sum_x / self.sum_x2
        }
    }

    /// Cross-entropy tilt update: the mean of `z` under the
    /// failure-weighted measure, `μ' = Σ x·z / Σ x` — the Gaussian
    /// closest (in KL) to the zero-variance importance distribution.
    /// `None` when no contribution has been observed yet.
    #[must_use]
    pub(crate) fn cross_entropy_tilt(&self) -> Option<Tilt> {
        if self.sum_x > 0.0 {
            Some(Tilt {
                mu: self.sum_xz.map(|s| s / self.sum_x),
            })
        } else {
            None
        }
    }

    /// Point estimate + confidence interval of this campaign.
    #[must_use]
    pub fn estimate(&self, confidence: f64) -> TailEstimate {
        let z = z_for_confidence(confidence);
        if self.samples == 0 {
            // An empty campaign carries no information — NaN, never a
            // silent 0.0 (the WerEstimate regression, weighted form).
            return TailEstimate {
                samples: 0,
                wer: f64::NAN,
                self_normalized: f64::NAN,
                std_error: f64::NAN,
                ci: ConfidenceInterval {
                    lo: f64::NAN,
                    hi: f64::NAN,
                    confidence,
                },
                contribution_ess: 0.0,
                weight_ess: 0.0,
                mean_weight: f64::NAN,
            };
        }
        let n = self.samples as f64;
        let mean = self.sum_x / n;
        let variance = if self.samples < 2 {
            0.0
        } else {
            ((self.sum_x2 - n * mean * mean) / (n - 1.0)).max(0.0)
        };
        let std_error = (variance / n).sqrt();
        TailEstimate {
            samples: self.samples,
            wer: mean,
            self_normalized: if self.sum_w > 0.0 {
                self.sum_x / self.sum_w
            } else {
                f64::NAN
            },
            std_error,
            ci: ConfidenceInterval {
                lo: (mean - z * std_error).max(0.0),
                hi: mean + z * std_error,
                confidence,
            },
            contribution_ess: self.contribution_ess(),
            weight_ess: self.weight_ess(),
            mean_weight: self.mean_weight(),
        }
    }

    /// Fixed-layout cell encoding for checkpoints:
    /// `[n, Σx, Σx², Σw, Σw², Σxz₀, Σxz₁, Σxz₂]` with `n` stored as an
    /// exact `f64` (campaigns are far below 2⁵³ samples).
    #[must_use]
    pub(crate) fn to_cells(self) -> Vec<f64> {
        let mut cells = Vec::with_capacity(Self::CELLS);
        cells.push(self.samples as f64);
        cells.extend_from_slice(&[self.sum_x, self.sum_x2, self.sum_w, self.sum_w2]);
        cells.extend_from_slice(&self.sum_xz);
        cells
    }

    /// Inverse of [`Self::to_cells`]; `None` on a malformed layout.
    #[must_use]
    pub(crate) fn from_cells(cells: &[f64]) -> Option<Self> {
        if cells.len() != Self::CELLS || cells[0] < 0.0 || cells[0].fract() != 0.0 {
            return None;
        }
        Some(Self {
            samples: cells[0] as u64,
            sum_x: cells[1],
            sum_x2: cells[2],
            sum_w: cells[3],
            sum_w2: cells[4],
            sum_xz: [cells[5], cells[6], cells[7]],
        })
    }
}

/// The result of one tail campaign at one `(pulse, σ, T)` point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailEstimate {
    /// Samples accumulated.
    pub samples: u64,
    /// Unbiased (vanilla likelihood-ratio) WER estimate, `Σx/n`.
    pub wer: f64,
    /// Self-normalized estimate `Σx/Σw` — biased O(1/n) but often
    /// lower-variance when weights are dispersed; report both.
    pub self_normalized: f64,
    /// CLT standard error of [`Self::wer`] (Bessel-corrected).
    pub std_error: f64,
    /// CLT-on-weights confidence interval on [`Self::wer`], floored at
    /// zero.
    pub ci: ConfidenceInterval,
    /// Contribution effective sample size, `(Σx)²/Σx²`.
    pub contribution_ess: f64,
    /// Weight effective sample size, `(Σw)²/Σw²`.
    pub weight_ess: f64,
    /// Mean likelihood-ratio weight (≈ 1 diagnostic).
    pub mean_weight: f64,
}

impl TailEstimate {
    /// Brute-force trials that would match this estimate's variance:
    /// `p(1−p)/se²` — the samples-to-target-variance comparison the
    /// bench report records. `NaN`/`∞`-safe only as far as its inputs.
    #[must_use]
    pub fn brute_force_equivalent_trials(&self) -> f64 {
        self.wer * (1.0 - self.wer) / (self.std_error * self.std_error)
    }
}

// ---------------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------------

/// Options of a tail campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailOptions {
    /// Samples per estimated point.
    pub samples: usize,
    /// Base seed.
    pub seed: u64,
    /// Worker count (`0` = auto, `1` = serial on the caller).
    pub jobs: usize,
    /// SIMD lane width (`0` = the built-in default, `1` = scalar).
    pub lanes: usize,
    /// Per-sample statistic.
    pub estimator: Estimator,
    /// Confidence level of the reported interval.
    pub confidence: f64,
    /// Fixed tilt; `None` runs the adaptive (cross-entropy) search.
    pub tilt: Option<Tilt>,
    /// Cross-entropy pilot rounds of the adaptive search.
    pub pilot_rounds: usize,
    /// Samples per pilot round (and per candidate evaluation).
    pub pilot_samples: usize,
}

impl Default for TailOptions {
    fn default() -> Self {
        Self {
            samples: 10_000,
            seed: 0,
            jobs: 0,
            lanes: 0,
            estimator: Estimator::Smooth,
            confidence: 0.99,
            tilt: None,
            pilot_rounds: 3,
            pilot_samples: 512,
        }
    }
}

/// Accumulates `opts.samples` tilted draws at one pulse width, fanned
/// over the worker pool with the lane-batched sampler inside each
/// worker. The returned sums are bit-identical for every
/// `jobs`/`lanes` combination (per-sample counter seeds; grid-order
/// fold).
pub fn accumulate_tilted(
    env: &TailEnv,
    pulse: Time,
    tilt: Tilt,
    opts: &TailOptions,
) -> (TailAccumulator, sweep::RunSummary) {
    let grid = sweep::Grid::samples(opts.samples, opts.seed);
    let pool = sweep::SweepOptions {
        jobs: opts.jobs,
        span_label: "mtj.rare_block",
        ..sweep::SweepOptions::default()
    };
    let lanes = crate::lanes::resolve_lanes(opts.lanes);
    let outcome = sweep::run_blocked(&grid, &pool, lanes, |ctxs, _| {
        draw_block(env, pulse, tilt, opts.estimator, ctxs, lanes)
    });
    let mut acc = TailAccumulator::default();
    for draw in &outcome.results {
        acc.push(draw);
    }
    (acc, outcome.summary)
}

/// Adaptive tilt search configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TiltSearch {
    /// Cross-entropy update rounds.
    pub rounds: usize,
    /// Samples per round and per candidate evaluation.
    pub pilot_samples: usize,
}

impl Default for TiltSearch {
    fn default() -> Self {
        Self {
            rounds: 3,
            pilot_samples: 512,
        }
    }
}

/// Outcome of [`adaptive_tilt`].
#[derive(Debug, Clone, PartialEq)]
pub struct TiltSearchResult {
    /// The winning tilt.
    pub tilt: Tilt,
    /// Its contribution ESS on the common evaluation batch.
    pub(crate) ess: f64,
    /// Every candidate visited, with its evaluation ESS.
    pub(crate) evaluated: Vec<(Tilt, f64)>,
}

/// Cross-entropy tilt search: starting from the null tilt, each pilot
/// round re-centers the proposal on the failure-weighted mean of `z`
/// (`TailAccumulator::cross_entropy_tilt`); every visited candidate
/// is then scored by contribution ESS on **one common batch** (common
/// random numbers — identical innovations for every candidate, so the
/// comparison is noise-free in the differences) and the best wins.
///
/// Pilot seeds are salted counter seeds off `seed`, disjoint from any
/// final estimation round rooted at `seed` itself; the whole search is
/// serial and deterministic.
#[must_use]
pub fn adaptive_tilt(
    env: &TailEnv,
    pulse: Time,
    search: &TiltSearch,
    seed: u64,
    lanes: usize,
) -> TiltSearchResult {
    let pilot_opts = |tilt: Tilt, round: u64| TailOptions {
        samples: search.pilot_samples.max(1),
        seed: sweep::point_seed(seed ^ PILOT_SALT, round),
        jobs: 1,
        lanes,
        estimator: Estimator::Smooth,
        confidence: 0.99,
        tilt: Some(tilt),
        pilot_rounds: 0,
        pilot_samples: 0,
    };
    let mut candidates = vec![Tilt::ZERO];
    let mut current = Tilt::ZERO;
    for round in 0..search.rounds {
        let (acc, _) = accumulate_tilted(env, pulse, current, &pilot_opts(current, round as u64));
        let Some(next) = acc.cross_entropy_tilt() else {
            break;
        };
        current = next;
        candidates.push(next);
    }
    let eval_round = u64::MAX;
    let mut evaluated = Vec::with_capacity(candidates.len());
    let mut best = (Tilt::ZERO, f64::NEG_INFINITY);
    for &tilt in &candidates {
        let (acc, _) = accumulate_tilted(env, pulse, tilt, &pilot_opts(tilt, eval_round));
        let ess = acc.contribution_ess();
        evaluated.push((tilt, ess));
        if ess > best.1 {
            best = (tilt, ess);
        }
    }
    TiltSearchResult {
        tilt: best.0,
        ess: best.1,
        evaluated,
    }
}

/// One fully-driven tail point: adaptive tilt (unless fixed in `opts`),
/// then the estimation campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct TailPointResult {
    /// Pulse width estimated.
    pub pulse: Time,
    /// Tilt used for the estimation round.
    pub tilt: Tilt,
    /// The estimate.
    pub estimate: TailEstimate,
    /// Worker-pool summary of the estimation round.
    pub(crate) summary: sweep::RunSummary,
}

/// Estimates the WER tail at one pulse width: tilt search (or the fixed
/// tilt from `opts`), then `opts.samples` tilted draws.
#[must_use]
pub fn estimate_tail(env: &TailEnv, pulse: Time, opts: &TailOptions) -> TailPointResult {
    let tilt = opts.tilt.unwrap_or_else(|| {
        adaptive_tilt(
            env,
            pulse,
            &TiltSearch {
                rounds: opts.pilot_rounds,
                pilot_samples: opts.pilot_samples,
            },
            opts.seed,
            opts.lanes,
        )
        .tilt
    });
    let (acc, summary) = accumulate_tilted(env, pulse, tilt, opts);
    TailPointResult {
        pulse,
        tilt,
        estimate: acc.estimate(opts.confidence),
        summary,
    }
}

// ---------------------------------------------------------------------------
// Variation-aware brute force (the cross-check arm)
// ---------------------------------------------------------------------------

/// One brute-force trial over the *same* measure as the tilted sampler:
/// draw a device from the nominal variation measure (three standard
/// normals → [`TailEnv::params_from_z`]), then run the stochastic
/// stepped write under the reference-calibrated model.
pub(crate) fn varied_write_trial<R: Rng + ?Sized>(
    env: &TailEnv,
    pulse: Time,
    rng: &mut R,
) -> wer::WriteTrial {
    let z = [
        standard_normal(rng),
        standard_normal(rng),
        standard_normal(rng),
    ];
    let params = env.params_from_z(z);
    let model = env.model_for(&params);
    wer::write_trial_with_model(&params, model, env.current, pulse, rng)
}

/// Counts variation-aware brute-force write failures, one counter seed
/// per trial — the direct analogue of
/// [`crate::wer::count_write_failures`] with per-trial device sampling.
#[must_use]
pub(crate) fn count_varied_write_failures(
    env: &TailEnv,
    pulse: Time,
    trials: usize,
    seed: u64,
) -> usize {
    let mut failures = 0usize;
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(sweep::point_seed(seed, t as u64));
        if varied_write_trial(env, pulse, &mut rng).failed {
            failures += 1;
        }
    }
    failures
}

/// Variation-aware brute-force WER over a pulse grid, fanned over the
/// worker pool — the cross-check the differential suite holds the
/// importance sampler to in the 1e-3 regime. Bit-identical for every
/// `jobs` value.
pub fn varied_wer_grid(
    env: &TailEnv,
    pulses: &[Time],
    trials: usize,
    seed: u64,
    jobs: usize,
) -> (Vec<WerEstimate>, sweep::RunSummary) {
    let grid = sweep::Grid::with_seed(pulses.to_vec(), seed);
    let pool = sweep::SweepOptions {
        jobs,
        span_label: "mtj.rare_bruteforce",
        ..sweep::SweepOptions::default()
    };
    let current = env.current;
    let outcome = sweep::run(&grid, &pool, |ctx, &pulse| WerEstimate {
        current,
        pulse,
        trials,
        failures: count_varied_write_failures(env, pulse, trials, ctx.seed),
    });
    (outcome.results, outcome.summary)
}

// ---------------------------------------------------------------------------
// Shmoo surface campaign (pulse × σ(Isw) × T), checkpointable
// ---------------------------------------------------------------------------

/// Axes of a WER-tail shmoo surface.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceAxes {
    /// Pulse widths.
    pub pulses: Vec<Time>,
    /// σ(Isw) values swept (σ(RA)/σ(TMR) stay at the base model's).
    pub sigma_switching_currents: Vec<f64>,
    /// Operating temperatures.
    pub temperatures: Vec<Temperature>,
}

impl SurfaceAxes {
    /// The row-major point list: temperature-major, then σ, then pulse.
    #[must_use]
    pub fn points(&self) -> Vec<SurfacePoint> {
        let mut points = Vec::with_capacity(
            self.pulses.len().max(1) * self.sigma_switching_currents.len().max(1),
        );
        for &temperature in &self.temperatures {
            for &sigma in &self.sigma_switching_currents {
                for &pulse in &self.pulses {
                    points.push(SurfacePoint {
                        pulse,
                        sigma_switching_current: sigma,
                        temperature,
                    });
                }
            }
        }
        points
    }
}

/// One grid point of the shmoo surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfacePoint {
    /// Pulse width.
    pub pulse: Time,
    /// σ fraction of the switching current at this point.
    pub sigma_switching_current: f64,
    /// Operating temperature.
    pub temperature: Temperature,
}

/// One estimated row of the surface.
#[derive(Debug, Clone, PartialEq)]
pub struct TailSurfaceRow {
    /// The grid point.
    pub point: SurfacePoint,
    /// Tilt the point's campaign used.
    pub tilt: Tilt,
    /// The estimate.
    pub estimate: TailEstimate,
}

/// A completed (or resumed) shmoo surface.
#[derive(Debug, Clone, PartialEq)]
pub struct TailSurface {
    /// Rows in [`SurfaceAxes::points`] order.
    pub rows: Vec<TailSurfaceRow>,
    /// Worker-pool summary (`resumed` counts checkpoint-restored
    /// points).
    pub summary: sweep::RunSummary,
}

/// Canonical fingerprint of a surface campaign for
/// [`sweep::CheckpointPolicy::fingerprint`] — covers the axes and every
/// option that changes the numbers.
#[must_use]
pub fn surface_fingerprint(axes: &SurfaceAxes, opts: &TailOptions) -> u64 {
    use core::fmt::Write as _;
    let mut desc = String::from("nvff-rare-surface/1");
    for p in &axes.pulses {
        let _ = write!(desc, "|p={}", p.seconds());
    }
    for s in &axes.sigma_switching_currents {
        let _ = write!(desc, "|s={s}");
    }
    for t in &axes.temperatures {
        let _ = write!(desc, "|t={}", t.celsius());
    }
    let _ = write!(
        desc,
        "|n={}|est={:?}|conf={}|tilt={:?}|rounds={}|pilot={}",
        opts.samples,
        opts.estimator,
        opts.confidence,
        opts.tilt,
        opts.pilot_rounds,
        opts.pilot_samples
    );
    sweep::fingerprint(&desc)
}

/// Runs (or resumes) a full WER-tail shmoo surface: per grid point, an
/// adaptive tilt search seeded by the point's counter seed, then the
/// estimation campaign — workers fan over *points* and lanes batch
/// *samples* within each point.
///
/// With a checkpoint policy the per-point accumulator sums (exact-f64
/// cells) go through `nvff-sweep-checkpoint/1`; a resumed run restores
/// them bit-for-bit, so the final estimates and intervals are identical
/// to an uninterrupted run.
///
/// # Errors
///
/// Propagates [`sweep::CheckpointError`] from a checkpointed run
/// (mismatched fingerprint, corrupt file, I/O).
///
/// # Panics
///
/// Panics if a surface σ(Isw) value is outside the physical `[0, 1/3)`
/// bound of [`VariationModel::new`].
pub fn tail_surface(
    nominal: &MtjParams,
    base_variation: &VariationModel,
    thermal: &ThermalModel,
    current: Current,
    axes: &SurfaceAxes,
    opts: &TailOptions,
    checkpoint: Option<&sweep::CheckpointPolicy>,
) -> Result<TailSurface, sweep::CheckpointError> {
    for &sigma in &axes.sigma_switching_currents {
        assert!(
            VariationModel::new(base_variation.sigma_ra(), base_variation.sigma_tmr(), sigma)
                .is_ok(),
            "surface sigma(Isw) {sigma} outside [0, 1/3)"
        );
    }
    let points = axes.points();
    let grid = sweep::Grid::with_seed(points, opts.seed);
    let pool = sweep::SweepOptions {
        jobs: opts.jobs,
        span_label: "mtj.rare_point",
        ..sweep::SweepOptions::default()
    };
    let job = |ctx: &sweep::JobCtx, point: &SurfacePoint| -> Vec<f64> {
        let variation = VariationModel::new(
            base_variation.sigma_ra(),
            base_variation.sigma_tmr(),
            point.sigma_switching_current,
        )
        .expect("validated above");
        let env = TailEnv::at_temperature(nominal, variation, thermal, point.temperature, current);
        let tilt = opts.tilt.unwrap_or_else(|| {
            adaptive_tilt(
                &env,
                point.pulse,
                &TiltSearch {
                    rounds: opts.pilot_rounds,
                    pilot_samples: opts.pilot_samples,
                },
                ctx.seed,
                opts.lanes,
            )
            .tilt
        });
        let inner = TailOptions {
            seed: ctx.seed,
            jobs: 1,
            tilt: Some(tilt),
            ..*opts
        };
        let (acc, _) = accumulate_tilted(&env, point.pulse, tilt, &inner);
        let mut cells = vec![tilt.mu[0], tilt.mu[1], tilt.mu[2]];
        cells.extend_from_slice(&acc.to_cells());
        cells
    };
    let outcome = match checkpoint {
        Some(policy) => {
            sweep::run_checkpointed(&grid, &pool, policy, |_| (), |_, ctx, p| job(ctx, p), None)?
        }
        None => sweep::run(&grid, &pool, job),
    };
    let rows = grid
        .points()
        .iter()
        .zip(&outcome.results)
        .map(|(&point, cells)| {
            let tilt = Tilt {
                mu: [cells[0], cells[1], cells[2]],
            };
            let acc = TailAccumulator::from_cells(&cells[3..])
                .expect("surface cells have the fixed accumulator layout");
            TailSurfaceRow {
                point,
                tilt,
                estimate: acc.estimate(opts.confidence),
            }
        })
        .collect();
    Ok(TailSurface {
        rows,
        summary: outcome.summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wer::pulse_for_wer;

    fn env() -> TailEnv {
        let p = MtjParams::date2018();
        let i = p.nominal_write_current();
        TailEnv::new(&p, VariationModel::default(), i)
    }

    fn quick_opts(samples: usize, seed: u64, tilt: Tilt) -> TailOptions {
        TailOptions {
            samples,
            seed,
            jobs: 1,
            lanes: 1,
            tilt: Some(tilt),
            ..TailOptions::default()
        }
    }

    #[test]
    fn normal_quantile_hits_tabulated_values() {
        assert!(normal_quantile(0.5).abs() < 1e-12);
        assert!((z_for_confidence(0.95) - 1.959_963_985).abs() < 1e-6);
        assert!((z_for_confidence(0.99) - 2.575_829_304).abs() < 1e-6);
        // Symmetry across the tail/central region boundary.
        for p in [1e-6, 0.01, 0.2, 0.45] {
            assert!(
                (normal_quantile(p) + normal_quantile(1.0 - p)).abs() < 1e-8,
                "asymmetry at {p}"
            );
        }
        // Deep-tail sanity: Φ⁻¹(1e-9) ≈ −5.9978.
        assert!((normal_quantile(1e-9) + 5.9978).abs() < 1e-3);
    }

    #[test]
    fn weights_are_exactly_one_at_zero_tilt_and_mean_one_tilted() {
        let e = env();
        let m = e.reference_model();
        let pulse = pulse_for_wer(&m, e.current(), 1e-2);
        let (acc, _) = accumulate_tilted(&e, pulse, Tilt::ZERO, &quick_opts(400, 9, Tilt::ZERO));
        assert!((acc.mean_weight() - 1.0).abs() < 1e-12);
        assert_eq!(acc.weight_ess(), 400.0);
        let tilt = Tilt::along_switching_current(1.0);
        let (acc, _) = accumulate_tilted(&e, pulse, tilt, &quick_opts(4000, 9, tilt));
        // E[w] = 1 with sd(w)/√n ≈ √(e−1)/63 ≈ 0.021.
        assert!(
            (acc.mean_weight() - 1.0).abs() < 0.1,
            "{}",
            acc.mean_weight()
        );
        assert!(acc.weight_ess() < 4000.0);
    }

    #[test]
    fn zero_tilt_matches_the_variation_sample_pushforward() {
        // params_from_z ∘ (standard normals) must be exactly the map
        // VariationModel::sample applies — same draws, same floor.
        let p = MtjParams::date2018();
        let var = VariationModel::default();
        let e = env();
        let mut rng = StdRng::seed_from_u64(77);
        let sample = var.sample(&p, &mut rng);
        let mut rng = StdRng::seed_from_u64(77);
        let z = [
            standard_normal(&mut rng),
            standard_normal(&mut rng),
            standard_normal(&mut rng),
        ];
        assert_eq!(e.params_from_z(z), sample.params);
    }

    #[test]
    fn failure_probability_guards_match_trial_preamble() {
        let e = env();
        assert_eq!(e.failure_probability([0.0; 3], Time::ZERO), 1.0);
        let neg = TailEnv::new(e.reference(), *e.variation(), -e.current());
        assert_eq!(
            neg.failure_probability([0.0; 3], Time::from_nano_seconds(2.0)),
            1.0
        );
        // A slow die (large z_Isw) fails more often than the typical.
        let pulse = Time::from_nano_seconds(10.0);
        let typical = e.failure_probability([0.0; 3], pulse);
        let slow = e.failure_probability([0.0, 0.0, 3.0], pulse);
        assert!(slow > typical * 3.0, "slow {slow} vs typical {typical}");
    }

    #[test]
    fn deep_negative_excursions_clamp_and_stay_finite() {
        let e = env();
        let pulse = Time::from_nano_seconds(2.0);
        for z2 in [-5.0, -50.0, -1000.0] {
            let p = e.failure_probability([0.0, 0.0, z2], pulse);
            assert!(p.is_finite() && (0.0..=1.0).contains(&p), "z={z2} p={p}");
        }
    }

    #[test]
    fn lane_widths_and_jobs_are_bit_identical() {
        let e = env();
        let m = e.reference_model();
        let pulse = pulse_for_wer(&m, e.current(), 1e-4);
        for estimator in [Estimator::Smooth, Estimator::Bernoulli] {
            let tilt = Tilt::along_switching_current(1.5);
            let reference = accumulate_tilted(
                &e,
                pulse,
                tilt,
                &TailOptions {
                    samples: 257,
                    seed: 31,
                    jobs: 1,
                    lanes: 1,
                    estimator,
                    tilt: Some(tilt),
                    ..TailOptions::default()
                },
            )
            .0;
            for (jobs, lanes) in [(1, 2), (1, 8), (2, 64), (4, 16), (3, 4)] {
                let got = accumulate_tilted(
                    &e,
                    pulse,
                    tilt,
                    &TailOptions {
                        samples: 257,
                        seed: 31,
                        jobs,
                        lanes,
                        estimator,
                        tilt: Some(tilt),
                        ..TailOptions::default()
                    },
                )
                .0;
                assert_eq!(got, reference, "jobs={jobs} lanes={lanes} {estimator:?}");
            }
        }
    }

    #[test]
    fn tilted_estimate_agrees_with_untilted_within_ci() {
        let e = env();
        let m = e.reference_model();
        let pulse = pulse_for_wer(&m, e.current(), 1e-2);
        let flat = accumulate_tilted(&e, pulse, Tilt::ZERO, &quick_opts(3000, 5, Tilt::ZERO))
            .0
            .estimate(0.99);
        let tilt = Tilt::along_switching_current(1.2);
        let tilted = accumulate_tilted(&e, pulse, tilt, &quick_opts(3000, 6, tilt))
            .0
            .estimate(0.99);
        let pooled = (flat.std_error.powi(2) + tilted.std_error.powi(2)).sqrt();
        assert!(
            (flat.wer - tilted.wer).abs() < 4.0 * pooled,
            "flat {} vs tilted {} (pooled se {pooled})",
            flat.wer,
            tilted.wer
        );
    }

    #[test]
    fn accumulator_cells_round_trip_exactly() {
        let e = env();
        let tilt = Tilt::along_switching_current(0.8);
        let (acc, _) = accumulate_tilted(
            &e,
            Time::from_nano_seconds(12.0),
            tilt,
            &quick_opts(300, 2, tilt),
        );
        let cells = acc.to_cells();
        assert_eq!(cells.len(), TailAccumulator::CELLS);
        assert_eq!(TailAccumulator::from_cells(&cells), Some(acc));
        assert_eq!(TailAccumulator::from_cells(&cells[1..]), None);
    }

    #[test]
    fn zero_sample_estimate_is_nan_not_perfect() {
        let est = TailAccumulator::default().estimate(0.99);
        assert_eq!(est.samples, 0);
        assert!(est.wer.is_nan());
        assert!(est.std_error.is_nan());
        assert!(est.ci.lo.is_nan() && est.ci.hi.is_nan());
        assert!(!est.ci.contains(0.0));
    }

    #[test]
    fn cross_entropy_update_points_along_the_switching_current_axis() {
        let e = env();
        let m = e.reference_model();
        let pulse = pulse_for_wer(&m, e.current(), 1e-6);
        let (acc, _) = accumulate_tilted(&e, pulse, Tilt::ZERO, &quick_opts(4000, 11, Tilt::ZERO));
        let update = acc.cross_entropy_tilt().expect("some failure mass");
        // Failures concentrate where the critical current is high: the
        // Isw component dominates and is positive.
        assert!(update.mu[2] > 0.3, "mu = {:?}", update.mu);
        assert!(update.mu[2] > update.mu[0].abs());
        assert!(update.mu[2] > update.mu[1].abs());
    }

    #[test]
    fn adaptive_tilt_beats_the_null_tilt_in_the_deep_tail() {
        let e = env();
        let m = e.reference_model();
        let pulse = pulse_for_wer(&m, e.current(), 1e-8);
        let search = TiltSearch {
            rounds: 3,
            pilot_samples: 600,
        };
        let result = adaptive_tilt(&e, pulse, &search, 21, 1);
        assert!(result.tilt.magnitude() > 0.5, "tilt {:?}", result.tilt);
        let null_ess = result
            .evaluated
            .iter()
            .find(|(t, _)| *t == Tilt::ZERO)
            .expect("null candidate always evaluated")
            .1;
        assert!(
            result.ess > 3.0 * null_ess.max(1.0),
            "adaptive ess {} vs null {null_ess}",
            result.ess
        );
    }

    #[test]
    fn estimate_tail_reaches_the_deep_tail_with_bounded_samples() {
        let e = env();
        let m = e.reference_model();
        // The pulse sized for 1e-9 on the *typical* die; variation
        // inflates the population WER above that (Jensen), but it stays
        // a deep-tail quantity far beyond brute-force reach at 1e4.
        let pulse = pulse_for_wer(&m, e.current(), 1e-9);
        let result = estimate_tail(
            &e,
            pulse,
            &TailOptions {
                samples: 4000,
                seed: 3,
                jobs: 1,
                lanes: 64,
                pilot_samples: 400,
                ..TailOptions::default()
            },
        );
        let est = result.estimate;
        assert!(est.wer > 1e-10 && est.wer < 1e-5, "wer {}", est.wer);
        assert!(est.ci.lo > 0.0 && est.ci.contains(est.wer));
        // Tight: the CI spans well under a decade.
        assert!(
            est.ci.hi / est.ci.lo < 5.0,
            "ci [{}, {}]",
            est.ci.lo,
            est.ci.hi
        );
        // And the brute-force equivalent is astronomically larger.
        assert!(est.brute_force_equivalent_trials() > 50.0 * est.samples as f64);
    }

    #[test]
    fn varied_brute_force_is_jobs_invariant_and_decays() {
        let e = env();
        let m = e.reference_model();
        let pulses: Vec<Time> = [0.3, 0.15]
            .iter()
            .map(|&t| pulse_for_wer(&m, e.current(), t))
            .collect();
        let (serial, _) = varied_wer_grid(&e, &pulses, 400, 7, 1);
        let (parallel, _) = varied_wer_grid(&e, &pulses, 400, 7, 2);
        assert_eq!(serial, parallel);
        assert!(serial[0].wer() > serial[1].wer());
    }

    #[test]
    fn surface_axes_enumerate_row_major() {
        let axes = SurfaceAxes {
            pulses: vec![Time::from_nano_seconds(1.0), Time::from_nano_seconds(2.0)],
            sigma_switching_currents: vec![0.05, 0.08],
            temperatures: vec![Temperature::from_celsius(27.0)],
        };
        let points = axes.points();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].sigma_switching_current, 0.05);
        assert_eq!(points[1].pulse, Time::from_nano_seconds(2.0));
        assert_eq!(points[2].sigma_switching_current, 0.08);
    }

    #[test]
    fn surface_fingerprint_separates_campaigns() {
        let axes = SurfaceAxes {
            pulses: vec![Time::from_nano_seconds(8.0)],
            sigma_switching_currents: vec![0.05],
            temperatures: vec![Temperature::from_celsius(27.0)],
        };
        let opts = TailOptions::default();
        let base = surface_fingerprint(&axes, &opts);
        assert_eq!(base, surface_fingerprint(&axes, &opts));
        let mut other = axes.clone();
        other.sigma_switching_currents = vec![0.06];
        assert_ne!(base, surface_fingerprint(&other, &opts));
        let fewer = TailOptions {
            samples: 5000,
            ..opts
        };
        assert_ne!(base, surface_fingerprint(&axes, &fewer));
    }
}
