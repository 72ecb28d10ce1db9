//! Process variation and corner models for the MTJ.
//!
//! The paper's corner methodology (Section IV-A): "we have considered ±3σ
//! variations for the product of Resistance-Area (RA), Tunnelling Magneto
//! Resistance (TMR) value and switching current". The σ fractions are not
//! published; the defaults here (4 % RA, 5 % TMR, 5 % switching current)
//! are typical of perpendicular MTJ statistics in the literature and are
//! fully overridable.

use core::fmt;
use std::error::Error;

use rand::{Rng, RngExt};
use units::math::{cos_tau, ln};

use crate::params::MtjParams;

/// Standard deviations (as fractions of the nominal) of the three varied
/// MTJ parameters, plus sampling and corner application.
///
/// # Examples
///
/// ```
/// use mtj::{MtjParams, VariationModel, MtjCorner};
///
/// let nominal = MtjParams::date2018();
/// let var = VariationModel::default();
/// let worst = var.at_corner(&nominal, MtjCorner::WorstRead);
/// // Worst read corner: less TMR → smaller sense margin.
/// assert!(worst.tmr_zero_bias() < nominal.tmr_zero_bias());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    sigma_ra: f64,
    sigma_tmr: f64,
    sigma_switching_current: f64,
}

impl VariationModel {
    /// Creates a variation model from per-parameter σ fractions.
    ///
    /// # Errors
    ///
    /// Returns `VariationBoundsError` if any σ is negative or large
    /// enough (≥ 1/3) that a −3σ excursion would reach a non-physical
    /// (zero or negative) parameter value.
    pub fn new(
        sigma_ra: f64,
        sigma_tmr: f64,
        sigma_switching_current: f64,
    ) -> Result<Self, VariationBoundsError> {
        for (name, sigma) in [
            ("RA", sigma_ra),
            ("TMR", sigma_tmr),
            ("switching current", sigma_switching_current),
        ] {
            if !(0.0..1.0 / 3.0).contains(&sigma) {
                return Err(VariationBoundsError { name, sigma });
            }
        }
        Ok(Self {
            sigma_ra,
            sigma_tmr,
            sigma_switching_current,
        })
    }

    /// σ fraction of the resistance–area product.
    #[must_use]
    pub fn sigma_ra(&self) -> f64 {
        self.sigma_ra
    }

    /// σ fraction of the zero-bias TMR.
    #[must_use]
    pub fn sigma_tmr(&self) -> f64 {
        self.sigma_tmr
    }

    /// σ fraction of the switching current.
    #[must_use]
    pub fn sigma_switching_current(&self) -> f64 {
        self.sigma_switching_current
    }

    /// Applies a deterministic corner: each varied parameter is shifted by
    /// the corner's signed σ multiple.
    #[must_use]
    pub fn at_corner(&self, nominal: &MtjParams, corner: MtjCorner) -> MtjParams {
        let (ra_sigmas, tmr_sigmas, isw_sigmas) = corner.sigma_shifts();
        nominal.perturbed(
            1.0 + ra_sigmas * self.sigma_ra,
            1.0 + tmr_sigmas * self.sigma_tmr,
            1.0 + isw_sigmas * self.sigma_switching_current,
        )
    }

    /// Draws one Monte-Carlo sample: independent Gaussian multipliers on
    /// the three varied parameters.
    pub fn sample<R: Rng + ?Sized>(&self, nominal: &MtjParams, rng: &mut R) -> MtjSample {
        let ra = 1.0 + self.sigma_ra * standard_normal(rng);
        let tmr = 1.0 + self.sigma_tmr * standard_normal(rng);
        let isw = 1.0 + self.sigma_switching_current * standard_normal(rng);
        // Clamp at a floor so a >3σ tail draw can never go non-physical.
        let floor = 1e-3;
        MtjSample {
            params: nominal.perturbed(ra.max(floor), tmr.max(floor), isw.max(floor)),
            ra_multiplier: ra.max(floor),
            tmr_multiplier: tmr.max(floor),
            switching_current_multiplier: isw.max(floor),
        }
    }
}

impl Default for VariationModel {
    /// The documented defaults: σ(RA) = 4 %, σ(TMR) = 5 %, σ(Isw) = 5 %.
    fn default() -> Self {
        Self::new(0.04, 0.05, 0.05).expect("default sigmas are in bounds")
    }
}

/// One Monte-Carlo draw of a perturbed device.
#[derive(Debug, Clone, PartialEq)]
pub struct MtjSample {
    /// The perturbed parameter set.
    pub params: MtjParams,
    /// Multiplier applied to the RA product (and hence Rp).
    pub(crate) ra_multiplier: f64,
    /// Multiplier applied to the zero-bias TMR.
    pub(crate) tmr_multiplier: f64,
    /// Multiplier applied to the critical/switching current.
    pub(crate) switching_current_multiplier: f64,
}

/// The ±3σ MTJ corners used for Table II's worst/typical/best columns.
///
/// "Worst" is defined from the **read path's** point of view, which is what
/// the paper's Table II reports: low TMR (small sense margin), high RA
/// (less read current, slower evaluation), high switching current (slower,
/// more energetic writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MtjCorner {
    /// −3σ TMR, +3σ RA, +3σ switching current.
    WorstRead,
    /// Nominal parameters.
    #[default]
    Typical,
    /// +3σ TMR, −3σ RA, −3σ switching current.
    BestRead,
}

impl MtjCorner {
    /// All three corners in worst → best order (Table II column order).
    pub const ALL: [Self; 3] = [Self::WorstRead, Self::Typical, Self::BestRead];

    /// Signed σ multiples applied to (RA, TMR, switching current).
    #[must_use]
    pub(crate) fn sigma_shifts(self) -> (f64, f64, f64) {
        match self {
            Self::WorstRead => (3.0, -3.0, 3.0),
            Self::Typical => (0.0, 0.0, 0.0),
            Self::BestRead => (-3.0, 3.0, -3.0),
        }
    }
}

impl fmt::Display for MtjCorner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::WorstRead => "worst",
            Self::Typical => "typical",
            Self::BestRead => "best",
        })
    }
}

/// Error returned when a σ fraction passed to [`VariationModel::new`] is
/// out of the physical range `[0, 1/3)`.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationBoundsError {
    name: &'static str,
    sigma: f64,
}

impl fmt::Display for VariationBoundsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sigma for {} is {}, outside the physical range [0, 1/3)",
            self.name, self.sigma
        )
    }
}

impl Error for VariationBoundsError {}

/// Standard normal deviate via the Box–Muller transform (rand 0.10 does
/// not bundle a normal distribution; `rand_distr` would be an extra
/// dependency for one function): two uniforms per deviate, redrawn
/// while the first is not above `f64::MIN_POSITIVE` (never, in
/// practice: the uniforms sit on a 2⁻⁵³ grid).
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.random();
        let u2: f64 = rng.random();
        if u1 > f64::MIN_POSITIVE {
            return box_muller_radius(u1) * cos_tau(u2);
        }
    }
}

/// The radius `√(−2·ln u₁)` of the Box–Muller transform, libm-free.
#[inline(always)]
fn box_muller_radius(u1: f64) -> f64 {
    (-2.0 * ln(u1)).sqrt()
}

/// [`standard_normal`]'s transform over `L` lanes of uniform pairs, as
/// two plain passes (radius, then angle) and a product — the same
/// operations per lane as the scalar deviate, so the bits agree. Lanes
/// whose `u1` is not above `f64::MIN_POSITIVE` hold garbage; callers
/// recompute them on the scalar path.
#[inline(always)]
pub(crate) fn standard_normal_lanes<const L: usize>(u1: &[f64; L], u2: &[f64; L]) -> [f64; L] {
    let mut radius = [0.0; L];
    for (r, &u) in radius.iter_mut().zip(u1) {
        *r = box_muller_radius(u);
    }
    let mut out = [0.0; L];
    for ((o, &r), &u) in out.iter_mut().zip(&radius).zip(u2) {
        *o = r * cos_tau(u);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_sigmas() {
        let v = VariationModel::default();
        assert!((v.sigma_ra() - 0.04).abs() < 1e-12);
        assert!((v.sigma_tmr() - 0.05).abs() < 1e-12);
        assert!((v.sigma_switching_current() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn out_of_bounds_sigma_rejected() {
        assert!(VariationModel::new(-0.01, 0.05, 0.05).is_err());
        let err = VariationModel::new(0.04, 0.4, 0.05).unwrap_err();
        assert!(err.to_string().contains("TMR"));
    }

    #[test]
    fn corners_shift_in_documented_directions() {
        let nominal = MtjParams::date2018();
        let v = VariationModel::default();
        let worst = v.at_corner(&nominal, MtjCorner::WorstRead);
        let typical = v.at_corner(&nominal, MtjCorner::Typical);
        let best = v.at_corner(&nominal, MtjCorner::BestRead);

        assert_eq!(typical, nominal);
        assert!(worst.tmr_zero_bias() < nominal.tmr_zero_bias());
        assert!(best.tmr_zero_bias() > nominal.tmr_zero_bias());
        assert!(worst.resistance_parallel() > nominal.resistance_parallel());
        assert!(best.resistance_parallel() < nominal.resistance_parallel());
        assert!(worst.critical_current() > nominal.critical_current());
        assert!(best.critical_current() < nominal.critical_current());
    }

    #[test]
    fn corner_magnitudes_are_three_sigma() {
        let nominal = MtjParams::date2018();
        let v = VariationModel::default();
        let worst = v.at_corner(&nominal, MtjCorner::WorstRead);
        let ra_shift = worst.resistance_parallel() / nominal.resistance_parallel();
        assert!((ra_shift - 1.12).abs() < 1e-9); // 1 + 3·0.04
        let tmr_shift = worst.tmr_zero_bias() / nominal.tmr_zero_bias();
        assert!((tmr_shift - 0.85).abs() < 1e-9); // 1 − 3·0.05
    }

    #[test]
    fn samples_are_centred_and_spread() {
        let nominal = MtjParams::date2018();
        let v = VariationModel::default();
        let mut rng = StdRng::seed_from_u64(1234);
        let n = 4000;
        let samples: Vec<MtjSample> = (0..n).map(|_| v.sample(&nominal, &mut rng)).collect();
        let mean: f64 = samples.iter().map(|s| s.tmr_multiplier).sum::<f64>() / f64::from(n);
        let var: f64 = samples
            .iter()
            .map(|s| (s.tmr_multiplier - mean).powi(2))
            .sum::<f64>()
            / f64::from(n - 1);
        assert!((mean - 1.0).abs() < 0.005, "mean = {mean}");
        assert!((var.sqrt() - 0.05).abs() < 0.005, "sd = {}", var.sqrt());
    }

    #[test]
    fn samples_never_go_nonphysical() {
        // Even with the largest admissible sigma, the clamp keeps every
        // perturbed parameter positive.
        let nominal = MtjParams::date2018();
        let v = VariationModel::new(0.33, 0.33, 0.33).expect("in bounds");
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..10_000 {
            let s = v.sample(&nominal, &mut rng);
            assert!(s.params.resistance_parallel().ohms() > 0.0);
            assert!(s.params.tmr_zero_bias() > 0.0);
            assert!(s.params.critical_current().amps() > 0.0);
        }
    }

    #[test]
    fn corner_display_matches_table_headers() {
        assert_eq!(MtjCorner::WorstRead.to_string(), "worst");
        assert_eq!(MtjCorner::Typical.to_string(), "typical");
        assert_eq!(MtjCorner::BestRead.to_string(), "best");
        assert_eq!(MtjCorner::ALL.len(), 3);
    }

    #[test]
    fn standard_normal_has_unit_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / f64::from(n);
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / f64::from(n - 1);
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.03, "var = {var}");
    }
}
