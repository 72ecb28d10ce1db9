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
//! conditional failure probability `(1 − p_step)^steps` of the stepped
//! trial exactly, and the **Bernoulli** form draws the stepped trial
//! outcome, matching the brute-force kernel draw-for-draw in
//! distribution.
//!
//! Device samples are stepped under a **reference-calibrated** switching
//! model (`crate::switching::SwitchingModel::with_reference`): the
//! per-sample recalibration of `SwitchingModel::new` cancels an `Ic`
//! excursion exactly at the nominal drive, which would make the WER
//! variation-independent and this whole module a no-op.
//!
//! **The draw kernel.** A tilted draw is one branch-free, libm-free
//! computation: Box–Muller on three uniform pairs (`√(−2 ln u₁)` and
//! `cos(2πu₂)` from [`units::math`]), the weight `exp(−μ·ε − |μ|²/2)`,
//! and the failure probability of the device at `z_Isw` through the
//! per-point constants of `PointKernel` (`x = I/(Ic·m)`, the piecewise
//! `ln τ` as selects, two `exp`, and `powi(steps)` by
//! square-and-multiply). Each step is a plain pass over `[f64; L]`
//! lane arrays, so the autovectorizer turns it into SIMD; the scalar
//! draw runs the very same passes at `L = 1`, which makes the lane path
//! bit-identical to it by construction. A lane whose Box–Muller draw
//! hits the rejection branch (≈ 2⁻⁵³) takes its inputs from the scalar
//! path.
//! The kernel agrees with the libm form of the same trial to within a
//! few rounding errors of the problem's conditioning (see the
//! `kernel_failure_probability_agrees_with_the_libm_trial_oracle`
//! test).
//!
//! **One pass per block.** Each sample is counter-seeded
//! ([`sweep::point_seed`]) and drawn in lockstep over a
//! [`rand::rngs::StdRngLanes`] structure-of-arrays bank (a fixed
//! six/seven-uniform budget per sample — no retire/refill needed). One
//! block routine draws `L` samples into `z`/weight/contribution lane
//! arrays, and the accumulator folds them lane by lane in sample order:
//! a serial campaign draws and folds block after block with no
//! per-sample record and no allocation; a multi-worker one draws blocks
//! on the [`sweep`] pool and folds them in order afterwards. Results are
//! **bit-identical for every `jobs` and `lanes` combination**. The
//! adaptive tilt search scores its candidates on one common batch, so
//! it draws that batch's innovations once and runs only the
//! tilt-dependent passes per candidate. The variation-aware brute force
//! ([`varied_wer_grid`]) runs on the same kernel in
//! [`crate::lanes::count_varied_write_failures_batched`]. Surface
//! campaigns ([`tail_surface`]) checkpoint their accumulator cells
//! (fingerprint tag `nvff-rare-surface/2`) through
//! `nvff-sweep-checkpoint/1` and resume bit-identically.

use std::time::Instant;

use rand::rngs::{StdRng, StdRngLanes};
use rand::{RngExt, SeedableRng};
use units::math::{exp, select};
use units::{Current, Temperature, Time};

use crate::device::WritePolarity;
use crate::params::MtjParams;
use crate::resistance::MtjState;
use crate::switching::{LogTauCurve, SwitchingModel};
use crate::thermal::ThermalModel;
use crate::variation::{standard_normal, standard_normal_lanes, VariationModel};
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
    /// `E_{ε~N(0,I)}[w] = 1` for every tilt. The same bits as the
    /// sampler's draws carry (same `ln w`, same libm-free `exp`).
    #[must_use]
    pub fn weight(&self, eps: [f64; 3]) -> f64 {
        exp(self.log_weight(eps))
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
    /// [`VariationModel::sample`]. The samplers need only its critical
    /// current, which [`PointKernel`] computes directly.
    #[cfg(test)]
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
    #[cfg(test)]
    #[must_use]
    pub(crate) fn model_for(&self, device: &MtjParams) -> SwitchingModel {
        SwitchingModel::with_reference(&self.reference, device)
    }

    /// Conditional probability that one stochastic write trial of the
    /// device at coordinates `z` fails under `pulse` — the smooth
    /// integrand of the importance-sampling estimator.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn failure_probability(&self, z: [f64; 3], pulse: Time) -> f64 {
        PointKernel::new(self, pulse).failure_probability_lanes(&[z[2]])[0]
    }
}

// ---------------------------------------------------------------------------
// The per-point kernel
// ---------------------------------------------------------------------------

/// Everything a write trial's switching statistics need at one
/// `(environment, pulse)` point, computed once per point; per device
/// only the `z_Isw`-dependent part is left.
///
/// A variation draw moves only the critical current (`τ₀`, `Δ` and the
/// frozen `τ_p` are the reference's — see
/// [`SwitchingModel::with_reference`]), so per device the kernel
/// computes `x = |I|/(Ic·m)` with `m = max(1 + σ·z_Isw, 1e-3)`, the
/// piecewise `ln τ(x)` as selects ([`LogTauCurve`]), the rate
/// `1/τ = e^{−ln τ}`, the per-step switch probability `1 − e^{−dt/τ}`
/// (a product, not a division, on the lanes), and, for the smooth
/// estimator, the failure probability `(1 − p)^steps` by
/// square-and-multiply. All of it is branch-free and libm-free
/// ([`units::math`]); the `*_lanes` methods run it as plain passes over
/// `[f64; L]` arrays that autovectorize, and the scalar paths call them
/// at `L = 1`, so every lane width gives the same bits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PointKernel {
    curve: LogTauCurve,
    /// `|I|`, amperes.
    drive: f64,
    /// The reference die's critical current, amperes.
    critical_current: f64,
    /// σ fraction of the switching current.
    sigma_isw: f64,
    /// Integration steps of one trial ([`wer::trial_step_plan`]).
    pub(crate) steps: u32,
    /// Step width, seconds.
    dt: f64,
    /// The trial preamble's guards: a drive without torque toward the
    /// reversal, or a pulse with no steps, fails every trial.
    pub(crate) certain_failure: bool,
}

impl PointKernel {
    pub(crate) fn new(env: &TailEnv, pulse: Time) -> Self {
        let (steps, step) = wer::trial_step_plan(pulse);
        let torque = WritePolarity::PositiveSetsAntiParallel.target_state(env.current)
            == Some(MtjState::AntiParallel);
        Self {
            // Every draw shares the reference's τ₀, Δ and τ_p.
            curve: SwitchingModel::with_reference(&env.reference, &env.reference).log_tau_curve(),
            drive: env.current.abs().amps(),
            critical_current: env.reference.critical_current().amps(),
            sigma_isw: env.variation.sigma_switching_current(),
            steps: u32::try_from(steps).unwrap_or(u32::MAX),
            dt: step.seconds(),
            certain_failure: !torque || steps == 0,
        }
    }

    /// Per-step switch probability `1 − e^{−dt/τ}` of the device at
    /// switching-current coordinate `z_isw`.
    #[inline(always)]
    pub(crate) fn switch_probability(&self, z_isw: f64) -> f64 {
        let multiplier = (1.0 + self.sigma_isw * z_isw).max(MULTIPLIER_FLOOR);
        let x = self.drive / (self.critical_current * multiplier);
        let rate = exp(-self.curve.log_tau(x));
        1.0 - exp(-self.dt * rate)
    }

    /// Trial failure probability `(1 − p)^steps` over `L` devices: a
    /// survival pass, then square-and-multiply over the lanes (the
    /// exponent is the point's, so every lane takes the same steps).
    #[inline(always)]
    pub(crate) fn failure_probability_lanes<const L: usize>(&self, z_isw: &[f64; L]) -> [f64; L] {
        if self.certain_failure {
            return [1.0; L];
        }
        let mut base = [0.0; L];
        for (b, &z) in base.iter_mut().zip(z_isw) {
            *b = 1.0 - self.switch_probability(z);
        }
        let mut acc = [1.0; L];
        let mut n = self.steps;
        loop {
            if n & 1 != 0 {
                for (a, &b) in acc.iter_mut().zip(&base) {
                    *a *= b;
                }
            }
            n >>= 1;
            if n == 0 {
                break;
            }
            for b in &mut base {
                *b *= *b;
            }
        }
        acc
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

/// `L` tilted draws as lane arrays: what one block of the sampler hands
/// the accumulator, and, at `L = 1`, one scalar draw.
#[derive(Debug, Clone, Copy)]
struct TiltedLanes<const L: usize> {
    /// Variation coordinates under the tilted measure, `z = μ + ε`.
    z: [[f64; L]; 3],
    /// Likelihood-ratio weights `w(ε)`.
    weight: [f64; L],
    /// Estimator contributions (`w·p` or `w·1{fail}`).
    x: [f64; L],
}

/// The random inputs of `L` samples: the innovations `ε` and, for the
/// Bernoulli estimator, the seventh uniform. None of it depends on the
/// tilt, which is what lets the tilt search score every candidate on
/// one batch of inputs.
#[derive(Debug, Clone, Copy)]
struct Innovations<const L: usize> {
    eps: [[f64; L]; 3],
    bernoulli_u: [f64; L],
}

impl Innovations<1> {
    /// One sample's inputs on the scalar path — the definition of
    /// correct the lane path is held to.
    fn scalar(seed: u64, estimator: Estimator) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let eps = [
            [standard_normal(&mut rng)],
            [standard_normal(&mut rng)],
            [standard_normal(&mut rng)],
        ];
        let bernoulli_u: f64 = match estimator {
            Estimator::Smooth => 0.0,
            Estimator::Bernoulli => rng.random(),
        };
        Self {
            eps,
            bernoulli_u: [bernoulli_u],
        }
    }
}

impl<const L: usize> Innovations<L> {
    /// The inputs of the samples seeded `seeds[..n]`: the
    /// structure-of-arrays RNG bank steps every lane through the fixed
    /// six/seven-uniform budget in lockstep, then
    /// [`Self::from_uniforms`].
    #[inline(always)]
    fn draw(seeds: &[u64; L], n: usize, estimator: Estimator) -> Self {
        let mut rngs = StdRngLanes::<L>::new();
        rngs.seed_lanes(seeds);
        let mut uniforms = [[0.0f64; L]; 7];
        for round in uniforms.iter_mut().take(estimator.draw_rounds()) {
            rngs.fill_unit_f64(round);
        }
        Self::from_uniforms(&uniforms, seeds, n, estimator)
    }

    /// Box–Muller over the lanes' uniforms.
    ///
    /// Box–Muller's rejection branch (first uniform ≤ `f64::MIN_POSITIVE`,
    /// probability ≈ 2⁻⁵³ per draw) breaks the fixed budget; an affected
    /// lane among the first `n` takes its inputs from the scalar path,
    /// seeded with its own seed, which keeps it bit-identical because
    /// [`StdRngLanes::seed_lanes`] reproduces `StdRng::seed_from_u64`
    /// exactly.
    #[inline(always)]
    fn from_uniforms(
        uniforms: &[[f64; L]; 7],
        seeds: &[u64; L],
        n: usize,
        estimator: Estimator,
    ) -> Self {
        let mut inputs = Self {
            eps: [
                standard_normal_lanes(&uniforms[0], &uniforms[1]),
                standard_normal_lanes(&uniforms[2], &uniforms[3]),
                standard_normal_lanes(&uniforms[4], &uniforms[5]),
            ],
            bernoulli_u: uniforms[6],
        };
        let rejected = |lane: usize| {
            (uniforms[0][lane] <= f64::MIN_POSITIVE)
                | (uniforms[2][lane] <= f64::MIN_POSITIVE)
                | (uniforms[4][lane] <= f64::MIN_POSITIVE)
        };
        // One branch-free pass over the lanes finds whether any lane
        // needs the slow path at all.
        if (0..L).fold(false, |any, lane| any | rejected(lane)) {
            for lane in (0..n.min(L)).filter(|&lane| rejected(lane)) {
                let scalar = Innovations::scalar(seeds[lane], estimator);
                for (eps_k, scalar_k) in inputs.eps.iter_mut().zip(scalar.eps) {
                    eps_k[lane] = scalar_k[0];
                }
                inputs.bernoulli_u[lane] = scalar.bernoulli_u[0];
            }
        }
        inputs
    }
}

/// Counter seeds ([`sweep::point_seed`]) of samples `lo..lo + L` of the
/// campaign rooted at `seed`; lanes past the campaign's end get seeds
/// too, and their draws are never folded.
#[inline(always)]
fn block_seeds<const L: usize>(seed: u64, lo: usize) -> [u64; L] {
    std::array::from_fn(|lane| sweep::point_seed(seed, (lo + lane) as u64))
}

/// The tilted draw at one point: the [`PointKernel`] plus the tilt.
#[derive(Debug, Clone, Copy)]
struct TiltKernel {
    point: PointKernel,
    mu: [f64; 3],
    /// `|μ|²/2`, the constant term of `−ln w`.
    half_mag2: f64,
    estimator: Estimator,
}

impl TiltKernel {
    fn new(env: &TailEnv, pulse: Time, tilt: Tilt, estimator: Estimator) -> Self {
        Self {
            point: PointKernel::new(env, pulse),
            mu: [0.0; 3],
            half_mag2: 0.0,
            estimator,
        }
        .with_tilt(tilt)
    }

    /// The same point under another tilt.
    fn with_tilt(self, tilt: Tilt) -> Self {
        let mu = tilt.mu;
        Self {
            mu,
            half_mag2: 0.5 * (mu[0] * mu[0] + mu[1] * mu[1] + mu[2] * mu[2]),
            ..self
        }
    }

    /// Completes `L` draws from their inputs as plain passes over the
    /// lanes: `z = μ + ε`, the weight `exp(−μ·ε − |μ|²/2)`, the failure
    /// probability at `z_Isw`, and the contribution. The scalar draw
    /// calls it at `L = 1`, so both paths run the same operations per
    /// sample.
    #[inline(always)]
    fn finish_lanes<const L: usize>(&self, inputs: &Innovations<L>) -> TiltedLanes<L> {
        let eps = &inputs.eps;
        let mut z = [[0.0; L]; 3];
        for ((z_k, eps_k), mu_k) in z.iter_mut().zip(eps).zip(self.mu) {
            for (z_l, &e) in z_k.iter_mut().zip(eps_k) {
                *z_l = mu_k + e;
            }
        }
        let mut weight = [0.0; L];
        for (l, w) in weight.iter_mut().enumerate() {
            let dot = self.mu[0] * eps[0][l] + self.mu[1] * eps[1][l] + self.mu[2] * eps[2][l];
            *w = exp(-dot - self.half_mag2);
        }
        let p_fail = self.point.failure_probability_lanes(&z[2]);
        let mut x = [0.0; L];
        match self.estimator {
            Estimator::Smooth => {
                for ((x_l, &w), &p) in x.iter_mut().zip(&weight).zip(&p_fail) {
                    *x_l = w * p;
                }
            }
            Estimator::Bernoulli => {
                for (((x_l, &w), &p), &u) in x
                    .iter_mut()
                    .zip(&weight)
                    .zip(&p_fail)
                    .zip(&inputs.bernoulli_u)
                {
                    *x_l = select(u < p, w, 0.0);
                }
            }
        }
        TiltedLanes { z, weight, x }
    }

    /// The scalar reference draw for sample seed `seed`.
    #[cfg(test)]
    fn draw_scalar(&self, seed: u64) -> TiltedLanes<1> {
        self.finish_lanes(&Innovations::scalar(seed, self.estimator))
    }

    /// The sampler's block routine: the draws of the samples seeded
    /// `seeds[..n]`, in lockstep over `L` lanes.
    #[inline(always)]
    fn draw_block<const L: usize>(&self, seeds: &[u64; L], n: usize) -> TiltedLanes<L> {
        self.finish_lanes(&Innovations::draw(seeds, n, self.estimator))
    }

    /// `samples` draws of the campaign rooted at `seed`, one block of
    /// `L` at a time, folded in sample order.
    ///
    /// With one worker each block is folded as soon as it is drawn, so
    /// the campaign allocates nothing. With several, workers draw
    /// blocks from the [`sweep`] pool and the blocks are folded in
    /// order after the run, so the sums are the same bits.
    fn accumulate<const L: usize>(
        &self,
        samples: usize,
        seed: u64,
        jobs: usize,
    ) -> (TailAccumulator, sweep::RunSummary) {
        let blocks = samples.div_ceil(L);
        let len = |block: usize| L.min(samples - block * L);
        let draw = |block: usize| self.draw_block::<L>(&block_seeds(seed, block * L), len(block));
        let mut acc = TailAccumulator::default();
        let pool = sweep::SweepOptions {
            jobs,
            span_label: "mtj.rare_block",
            ..sweep::SweepOptions::default()
        };
        if pool.effective_workers(blocks) > 1 {
            let grid = sweep::Grid::new((0..blocks).collect());
            let outcome = sweep::run(&grid, &pool, |_, &block| draw(block));
            for (block, draws) in outcome.results.iter().enumerate() {
                acc.fold(draws, len(block));
            }
            let summary = sweep::RunSummary {
                points: samples,
                ..outcome.summary
            };
            return (acc, summary);
        }
        let start = Instant::now();
        for block in 0..blocks {
            acc.fold(&draw(block), len(block));
        }
        let wall_s = start.elapsed().as_secs_f64();
        let summary = sweep::RunSummary {
            points: samples,
            resumed: 0,
            workers: 1,
            wall_s,
            busy_s: wall_s,
        };
        (acc, summary)
    }
}

// ---------------------------------------------------------------------------
// Accumulation and estimates
// ---------------------------------------------------------------------------

/// Running sums of a tilted campaign — everything the estimators, the
/// confidence interval, the effective sample sizes, and the
/// cross-entropy tilt update need, in ten cells. Draws are folded in
/// sample order, so the sums are bit-identical for every
/// `jobs`/`lanes` combination, and the fixed `Self::CELLS`-cell
/// encoding (`Self::to_cells`) is what surface campaigns checkpoint.
///
/// The variance of the contributions comes from Welford's running mean
/// and centred second moment, not from `Σx² − n·mean²`: that difference
/// cancels when the contributions are nearly equal (a well-tilted deep
/// tail), which is exactly when the interval matters. `Σx` and `Σx²`
/// stay for the point estimate and the contribution ESS.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TailAccumulator {
    samples: u64,
    sum_x: f64,
    sum_x2: f64,
    /// Welford running mean of `x`.
    mean_x: f64,
    /// Welford `Σ(x − mean)²`.
    m2_x: f64,
    sum_w: f64,
    sum_w2: f64,
    sum_xz: [f64; 3],
}

impl TailAccumulator {
    /// Cells in the checkpoint encoding.
    pub(crate) const CELLS: usize = 10;

    /// Folds the first `n` draws of a block, in lane order.
    #[inline(always)]
    fn fold<const L: usize>(&mut self, draws: &TiltedLanes<L>, n: usize) {
        for lane in 0..n.min(L) {
            let x = draws.x[lane];
            let weight = draws.weight[lane];
            self.samples += 1;
            self.sum_x += x;
            self.sum_x2 += x * x;
            // The reciprocal is off the running mean's dependency chain.
            let inv_n = 1.0 / self.samples as f64;
            let delta = x - self.mean_x;
            self.mean_x += delta * inv_n;
            self.m2_x += delta * (x - self.mean_x);
            self.sum_w += weight;
            self.sum_w2 += weight * weight;
            for (acc, z) in self.sum_xz.iter_mut().zip(&draws.z) {
                *acc += x * z[lane];
            }
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
            self.m2_x / (n - 1.0)
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
    /// `[n, Σx, Σx², mean, M2, Σw, Σw², Σxz₀, Σxz₁, Σxz₂]` with `n`
    /// stored as an exact `f64` (campaigns are far below 2⁵³ samples).
    #[must_use]
    pub(crate) fn to_cells(self) -> Vec<f64> {
        let mut cells = Vec::with_capacity(Self::CELLS);
        cells.push(self.samples as f64);
        cells.extend_from_slice(&[
            self.sum_x,
            self.sum_x2,
            self.mean_x,
            self.m2_x,
            self.sum_w,
            self.sum_w2,
        ]);
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
            mean_x: cells[3],
            m2_x: cells[4],
            sum_w: cells[5],
            sum_w2: cells[6],
            sum_xz: [cells[7], cells[8], cells[9]],
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
/// `jobs`/`lanes` combination (per-sample counter seeds; sample-order
/// fold).
pub fn accumulate_tilted(
    env: &TailEnv,
    pulse: Time,
    tilt: Tilt,
    opts: &TailOptions,
) -> (TailAccumulator, sweep::RunSummary) {
    let kernel = TiltKernel::new(env, pulse, tilt, opts.estimator);
    let (samples, seed, jobs) = (opts.samples, opts.seed, opts.jobs);
    match crate::lanes::resolve_lanes(opts.lanes) {
        2 => kernel.accumulate::<2>(samples, seed, jobs),
        4 => kernel.accumulate::<4>(samples, seed, jobs),
        8 => kernel.accumulate::<8>(samples, seed, jobs),
        16 => kernel.accumulate::<16>(samples, seed, jobs),
        32 => kernel.accumulate::<32>(samples, seed, jobs),
        64 => kernel.accumulate::<64>(samples, seed, jobs),
        _ => kernel.accumulate::<1>(samples, seed, jobs),
    }
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
/// comparison is noise-free in the differences) and the best wins. The
/// batch's innovations are drawn once; each candidate runs only the
/// tilt-dependent rest of the draw and the fold.
///
/// Pilot seeds are salted counter seeds off `seed`, disjoint from any
/// final estimation round rooted at `seed` itself; the whole search is
/// serial and deterministic, and its result is the same for every
/// `lanes` value.
#[must_use]
pub fn adaptive_tilt(
    env: &TailEnv,
    pulse: Time,
    search: &TiltSearch,
    seed: u64,
    lanes: usize,
) -> TiltSearchResult {
    let kernel = TiltKernel::new(env, pulse, Tilt::ZERO, Estimator::Smooth);
    match crate::lanes::resolve_lanes(lanes) {
        2 => search_tilt::<2>(kernel, search, seed),
        4 => search_tilt::<4>(kernel, search, seed),
        8 => search_tilt::<8>(kernel, search, seed),
        16 => search_tilt::<16>(kernel, search, seed),
        32 => search_tilt::<32>(kernel, search, seed),
        64 => search_tilt::<64>(kernel, search, seed),
        _ => search_tilt::<1>(kernel, search, seed),
    }
}

/// [`adaptive_tilt`] over `L` lanes, from a smooth-estimator kernel at
/// the null tilt.
fn search_tilt<const L: usize>(
    kernel: TiltKernel,
    search: &TiltSearch,
    seed: u64,
) -> TiltSearchResult {
    let samples = search.pilot_samples.max(1);
    let pilot_seed = |round: u64| sweep::point_seed(seed ^ PILOT_SALT, round);
    let mut candidates = Vec::with_capacity(search.rounds + 1);
    candidates.push(Tilt::ZERO);
    let mut current = kernel;
    for round in 0..search.rounds {
        let (acc, _) = current.accumulate::<L>(samples, pilot_seed(round as u64), 1);
        let Some(next) = acc.cross_entropy_tilt() else {
            break;
        };
        current = kernel.with_tilt(next);
        candidates.push(next);
    }
    let eval_seed = pilot_seed(u64::MAX);
    let len = |block: usize| L.min(samples - block * L);
    let batch: Vec<Innovations<L>> = (0..samples.div_ceil(L))
        .map(|block| {
            Innovations::draw(
                &block_seeds(eval_seed, block * L),
                len(block),
                Estimator::Smooth,
            )
        })
        .collect();
    let mut evaluated = Vec::with_capacity(candidates.len());
    let mut best = (Tilt::ZERO, f64::NEG_INFINITY);
    for &tilt in &candidates {
        let candidate = kernel.with_tilt(tilt);
        let mut acc = TailAccumulator::default();
        for (block, inputs) in batch.iter().enumerate() {
            acc.fold(&candidate.finish_lanes(inputs), len(block));
        }
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
/// normals, of which the switching-current one sets the device), then
/// run the stochastic stepped write — one uniform per step against the
/// device's per-step switch probability — until it reverses or the
/// pulse ends. Returns whether the write failed.
///
/// This is the scalar form of the lane kernel
/// [`crate::lanes::count_varied_write_failures_batched`], which falls
/// back to it for a lane whose Box–Muller draw hits the rejection
/// branch.
pub(crate) fn varied_trial_fails(kernel: &PointKernel, seed: u64) -> bool {
    if kernel.certain_failure {
        return true;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let z = [
        standard_normal(&mut rng),
        standard_normal(&mut rng),
        standard_normal(&mut rng),
    ];
    let p = kernel.switch_probability(z[2]);
    for _ in 0..kernel.steps {
        if rng.random::<f64>() < p {
            return false;
        }
    }
    true
}

/// Counts variation-aware brute-force write failures, one counter seed
/// per trial — the scalar oracle the lane kernel is held to.
#[cfg(test)]
#[must_use]
pub(crate) fn count_varied_write_failures(
    env: &TailEnv,
    pulse: Time,
    trials: usize,
    seed: u64,
) -> usize {
    let kernel = PointKernel::new(env, pulse);
    (0..trials)
        .filter(|&t| varied_trial_fails(&kernel, sweep::point_seed(seed, t as u64)))
        .count()
}

/// Variation-aware brute-force WER over a pulse grid, fanned over the
/// worker pool with the lane kernel
/// ([`crate::lanes::count_varied_write_failures_batched`]) inside each
/// worker — the cross-check the differential suite holds the importance
/// sampler to in the 1e-3 regime. Bit-identical for every `jobs` value
/// and to the scalar trial-by-trial count.
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
        failures: crate::lanes::count_varied_write_failures_batched(
            env,
            pulse,
            trials,
            ctx.seed,
            crate::lanes::DEFAULT_LANES,
        ),
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

/// Version tag of the surface checkpoint layout, hashed into
/// [`surface_fingerprint`]. `/2`: the accumulator cells gained the
/// Welford mean and second moment, so a `/1` checkpoint is rejected
/// with the typed fingerprint mismatch instead of misread.
const SURFACE_TAG: &str = "nvff-rare-surface/2";

/// Canonical fingerprint of a surface campaign for
/// [`sweep::CheckpointPolicy::fingerprint`] — covers the axes and every
/// option that changes the numbers.
#[must_use]
pub fn surface_fingerprint(axes: &SurfaceAxes, opts: &TailOptions) -> u64 {
    use core::fmt::Write as _;
    let mut desc = String::from(SURFACE_TAG);
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

    /// At zero variation the per-point kernel's device is the nominal
    /// one: for every normal draw its per-step switch probability is the
    /// self-calibrated model's, to the rounding of the libm-free `exp`.
    /// That is what lets `margins` check the closed-form WER on this
    /// kernel.
    ///
    /// Both sides compute `p = 1 − e^{−x}`, and their `exp`s may differ
    /// in the last bit. The subtraction turns that into a relative gap
    /// in `p` of up to an ulp of 1 over `p` (1.6e-15 at `p ≈ 0.07` on
    /// this grid), so the gap is measured against the per-step survival
    /// `1 − p`, which keeps the `exp`'s own relative accuracy.
    #[test]
    fn zero_variation_kernel_steps_the_nominal_device() {
        let p = MtjParams::date2018();
        let model = SwitchingModel::new(&p);
        let zero = VariationModel::new(0.0, 0.0, 0.0).expect("zero σ is valid");
        let mut worst = 0.0f64;
        for drive_ua in (40..=150).step_by(5) {
            let drive = Current::from_micro_amps(f64::from(drive_ua));
            let kernel_env = TailEnv::new(&p, zero, drive);
            for pulse_ns in [0.05, 0.1, 0.3, 1.0, 2.0, 3.0, 5.0, 8.0, 20.0, 50.0] {
                let pulse = Time::from_nano_seconds(pulse_ns);
                let (steps, step) = wer::trial_step_plan(pulse);
                let kernel = PointKernel::new(&kernel_env, pulse);
                assert!(!kernel.certain_failure);
                assert_eq!(kernel.steps as usize, steps);
                let expected = model.switch_probability(drive, step);
                assert!(expected > 0.0 && expected < 1.0, "{drive} {pulse}");
                for z in [-3.0, 0.0, 2.5] {
                    let gap = (kernel.switch_probability(z) - expected).abs() / (1.0 - expected);
                    worst = worst.max(gap);
                }
            }
        }
        assert!(worst <= 1e-15, "worst relative gap {worst:e}");
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

    /// The kernel's failure probability against the libm form of the
    /// same trial (`wer::trial_failure_probability` under the
    /// reference-calibrated model of the device at `z`), over drives
    /// spanning the thermal (`I < 0.8·Ic`), bridge and precessional
    /// (`I > 1.2·Ic`) regimes, device excursions down to the clamp, and
    /// pulses from a fraction of τ to 40 τ (p_fail from ≈ 0.8 down to
    /// ≈ 4e-18). Both sides round the 64 survival factors `1 − p` and
    /// `τ`, whose error enters `ln p_fail` scaled by its magnitude, so
    /// the relative difference is measured in units of
    /// `ε·(64 + ln(1/p_fail))` (ε = 2⁻⁵²): measured worst 0.60, bound 2
    /// (in plain terms at most 1.4e-14 relative on these points).
    #[test]
    fn kernel_failure_probability_agrees_with_the_libm_trial_oracle() {
        let p = MtjParams::date2018();
        let ic = p.critical_current();
        let mut worst = 0.0f64;
        for ratio in [0.3, 0.6, 0.79, 0.8, 0.85, 1.0, 1.19, 1.2, 1.5, 2.5] {
            let e = TailEnv::new(&p, VariationModel::default(), ic * ratio);
            for z_isw in [-40.0, -3.0, -1.0, 0.0, 0.7, 2.5, 5.0] {
                let z = [0.3, -0.2, z_isw];
                let model = e.model_for(&e.params_from_z(z));
                let tau = model.mean_switching_time(e.current());
                for k in [0.2, 1.0, 5.0, 12.0, 40.0] {
                    let pulse = tau * k;
                    let want = wer::trial_failure_probability(&model, e.current(), pulse);
                    let got = e.failure_probability(z, pulse);
                    // In units of the problem's condition number:
                    // an ulp of each of the `steps` survival factors
                    // and of ln p_fail = −steps·dt/τ.
                    let cond = f64::EPSILON * (64.0 - want.ln());
                    let rel = (got - want).abs() / want / cond;
                    assert!(
                        rel <= 2.0,
                        "I = {ratio}·Ic, z = {z_isw}, {k}τ: {got:e} vs {want:e}"
                    );
                    worst = worst.max(rel);
                }
            }
        }
        assert!(worst > 0.0, "the libm-free kernel is not libm");
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

    impl<const L: usize> TiltedLanes<L> {
        /// Lane `lane` as a one-lane draw.
        fn lane(&self, lane: usize) -> TiltedLanes<1> {
            TiltedLanes {
                z: self.z.map(|z_k| [z_k[lane]]),
                weight: [self.weight[lane]],
                x: [self.x[lane]],
            }
        }
    }

    /// The bits of a one-lane draw: `z`, weight, contribution.
    fn draw_bits(draw: &TiltedLanes<1>) -> [u64; 5] {
        [
            draw.z[0][0].to_bits(),
            draw.z[1][0].to_bits(),
            draw.z[2][0].to_bits(),
            draw.weight[0].to_bits(),
            draw.x[0].to_bits(),
        ]
    }

    /// The sampler's block routine over `seeds`, `L` at a time (the last
    /// block partial), as one-lane draws.
    fn block_draws<const L: usize>(kernel: &TiltKernel, seeds: &[u64]) -> Vec<TiltedLanes<1>> {
        let mut draws = Vec::new();
        for chunk in seeds.chunks(L) {
            let mut block = [0u64; L];
            block[..chunk.len()].copy_from_slice(chunk);
            let lanes = kernel.draw_block(&block, chunk.len());
            draws.extend((0..chunk.len()).map(|lane| lanes.lane(lane)));
        }
        draws
    }

    /// A lane whose first Box–Muller uniform is 0 (the rejection
    /// branch, ≈ 2⁻⁵³ per draw, so injected here) takes its inputs from
    /// the scalar path, seeded with its own seed; every other lane keeps
    /// its lockstep value. Either way each lane equals `draw_scalar`.
    #[test]
    fn a_rejected_box_muller_lane_falls_back_to_the_scalar_draw() {
        let e = env();
        let pulse = pulse_for_wer(&e.reference_model(), e.current(), 1e-5);
        for estimator in [Estimator::Smooth, Estimator::Bernoulli] {
            let kernel = TiltKernel::new(&e, pulse, Tilt::along_switching_current(1.4), estimator);
            let seeds: [u64; 8] = block_seeds(5, 0);
            let mut rngs = StdRngLanes::<8>::new();
            rngs.seed_lanes(&seeds);
            let mut uniforms = [[0.0f64; 8]; 7];
            for round in &mut uniforms {
                rngs.fill_unit_f64(round);
            }
            // Lane 3's first normal and lane 6's third hit the branch.
            uniforms[0][3] = 0.0;
            uniforms[4][6] = f64::MIN_POSITIVE;
            let inputs = Innovations::from_uniforms(&uniforms, &seeds, 8, estimator);
            let draws = kernel.finish_lanes(&inputs);
            for (lane, &seed) in seeds.iter().enumerate() {
                let draw = draws.lane(lane);
                assert_eq!(
                    draw_bits(&draw),
                    draw_bits(&kernel.draw_scalar(seed)),
                    "lane {lane}"
                );
                assert!(draw.x[0].is_finite() && draw.weight[0] > 0.0, "lane {lane}");
            }
            let lockstep = kernel.draw_block(&seeds, 8);
            for (lane, &seed) in seeds.iter().enumerate() {
                assert_eq!(
                    draw_bits(&lockstep.lane(lane)),
                    draw_bits(&kernel.draw_scalar(seed)),
                    "lane {lane}"
                );
            }
        }
    }

    /// libm and `units::math` agree on nearly every input, so a lane
    /// path that slipped back to libm `ln` or `cos` would still match
    /// the scalar draw on most seeds. This test picks sample seeds whose
    /// Box–Muller deviates in the untilted components (where `z = ε`
    /// exactly) come out differently under libm's radius or angle,
    /// checks that they do, and only then holds the block routine's
    /// draws to the scalar ones bit for bit.
    #[test]
    fn lane_draws_match_the_scalar_draw_where_libm_and_units_math_differ() {
        use std::f64::consts::TAU;
        use units::math::{cos_tau, ln};
        let radius = |u1: f64| (-2.0 * ln(u1)).sqrt();
        // The uniform pairs of a sample's first two normals, as
        // `draw_scalar` consumes them.
        let pairs = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let u: [f64; 4] = std::array::from_fn(|_| rng.random());
            [(u[0], u[1]), (u[2], u[3])]
        };
        let libm_ln_differs = |(u1, u2): (f64, f64)| {
            (-2.0 * u1.ln()).sqrt() * cos_tau(u2) != radius(u1) * cos_tau(u2)
        };
        let libm_cos_differs =
            |(u1, u2): (f64, f64)| radius(u1) * (TAU * u2).cos() != radius(u1) * cos_tau(u2);

        let pick = |differs: &dyn Fn((f64, f64)) -> bool| -> Vec<u64> {
            (0..4096)
                .map(|i| sweep::point_seed(17, i))
                .filter(|&seed| pairs(seed).into_iter().any(differs))
                .take(4)
                .collect()
        };
        let by_ln = pick(&libm_ln_differs);
        let by_cos = pick(&libm_cos_differs);
        assert_eq!(
            by_ln.len(),
            4,
            "too few seeds where libm ln changes a deviate"
        );
        assert_eq!(
            by_cos.len(),
            4,
            "too few seeds where libm cos changes a deviate"
        );
        // Seven seeds, so the widest block below is partial.
        let seeds: Vec<u64> = by_ln.into_iter().chain(by_cos).take(7).collect();

        let e = env();
        let pulse = pulse_for_wer(&e.reference_model(), e.current(), 1e-5);
        for estimator in [Estimator::Smooth, Estimator::Bernoulli] {
            let kernel = TiltKernel::new(&e, pulse, Tilt::along_switching_current(1.4), estimator);
            let scalar: Vec<[u64; 5]> = seeds
                .iter()
                .map(|&seed| draw_bits(&kernel.draw_scalar(seed)))
                .collect();
            let by_width = [
                block_draws::<2>(&kernel, &seeds),
                block_draws::<4>(&kernel, &seeds),
                block_draws::<8>(&kernel, &seeds),
            ];
            for (lanes, draws) in [2, 4, 8].into_iter().zip(&by_width) {
                assert_eq!(draws.len(), seeds.len());
                for (k, (got, want)) in draws.iter().zip(&scalar).enumerate() {
                    assert_eq!(draw_bits(got), *want, "sample {k}, lanes {lanes}");
                }
            }
        }
    }

    /// The tilt search draws its common batch once and scores every
    /// candidate on it: each candidate's ESS equals, bit for bit, that
    /// candidate's own campaign at the evaluation seed, at every lane
    /// width, with a partial last block.
    #[test]
    fn tilt_candidates_are_scored_on_one_common_batch() {
        let e = env();
        let pulse = pulse_for_wer(&e.reference_model(), e.current(), 1e-7);
        let search = TiltSearch {
            rounds: 3,
            pilot_samples: 517,
        };
        let seed = 13;
        let mut by_width = Vec::new();
        for lanes in [1, 8, 64] {
            let result = adaptive_tilt(&e, pulse, &search, seed, lanes);
            assert_eq!(result.evaluated.len(), 4, "lanes {lanes}");
            for &(tilt, ess) in &result.evaluated {
                let own = TailOptions {
                    samples: 517,
                    seed: sweep::point_seed(seed ^ PILOT_SALT, u64::MAX),
                    jobs: 1,
                    lanes,
                    tilt: Some(tilt),
                    ..TailOptions::default()
                };
                let want = accumulate_tilted(&e, pulse, tilt, &own)
                    .0
                    .contribution_ess();
                assert_eq!(ess.to_bits(), want.to_bits(), "lanes {lanes}, {tilt:?}");
            }
            by_width.push(result);
        }
        assert!(by_width.windows(2).all(|w| w[0] == w[1]));
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
    fn an_old_layout_checkpoint_no_longer_matches() {
        // The `/1` description of the same campaign: its checkpoint's
        // eight accumulator cells must not be read as the ten of `/2`.
        let axes = SurfaceAxes {
            pulses: vec![Time::from_nano_seconds(8.0)],
            sigma_switching_currents: vec![0.05],
            temperatures: vec![Temperature::from_celsius(27.0)],
        };
        let opts = TailOptions::default();
        let old = format!(
            "nvff-rare-surface/1|p={}|s=0.05|t=27|n={}|est={:?}|conf={}|tilt={:?}|rounds={}|pilot={}",
            axes.pulses[0].seconds(),
            opts.samples,
            opts.estimator,
            opts.confidence,
            opts.tilt,
            opts.pilot_rounds,
            opts.pilot_samples
        );
        let new = old.replacen("/1", "/2", 1);
        assert_eq!(surface_fingerprint(&axes, &opts), sweep::fingerprint(&new));
        assert_ne!(surface_fingerprint(&axes, &opts), sweep::fingerprint(&old));
    }

    #[test]
    fn welford_variance_survives_nearly_equal_contributions() {
        // 1e4 contributions 1e-9·(1 + 1e-9·k), k = 0..9: the spread is
        // 1e-18 against a mean of 1e-9, where Σx² − n·mean² has no
        // correct digit left.
        let mut acc = TailAccumulator::default();
        for i in 0..10_000u32 {
            let draw = TiltedLanes {
                z: [[0.0]; 3],
                weight: [1.0],
                x: [1e-9 * (1.0 + 1e-9 * f64::from(i % 10))],
            };
            acc.fold(&draw, 1);
        }
        let est = acc.estimate(0.99);
        // Population variance of k = 0..9 is 8.25, scaled by (1e-18)².
        let want = (8.25e-36 * 10_000.0 / 9_999.0 / 10_000.0f64).sqrt();
        assert!(
            (est.std_error / want - 1.0).abs() < 1e-6,
            "se {} vs {want}",
            est.std_error
        );
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
