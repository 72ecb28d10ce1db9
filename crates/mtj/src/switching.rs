//! Spin-transfer-torque switching dynamics.
//!
//! Switching time versus drive current follows the classic three-regime
//! picture (Sun's model plus Néel–Brown thermal activation, as used by the
//! compact model of Mejdoubi et al. that the paper simulates with):
//!
//! * **Thermal activation** (`I ≤ 0.8·Ic0`): mean switching time
//!   `τ = τ₀ · exp(Δ·(1 − I/Ic0))`. At zero current this is the retention
//!   time (`e^Δ` ≈ 10¹⁷ s for Δ = 60).
//! * **Precessional** (`I ≥ 1.2·Ic0`): `τ = τ_p / (I/Ic0 − 1)`, the
//!   strong-overdrive asymptote used for deliberate writes.
//! * **Intermediate** (`0.8·Ic0 < I < 1.2·Ic0`): log-linear interpolation
//!   in `log τ` between the two boundary values, keeping the curve
//!   continuous and strictly decreasing.
//!
//! The precessional time constant `τ_p` is calibrated so the nominal write
//! current (70 µA in Table I) switches in the paper's worst-case write
//! latency of 2 ns; see [`SwitchingModel::new`].

use units::{Current, Time};

use crate::params::MtjParams;

/// Fraction of `Ic0` below which switching is purely thermally activated.
const THERMAL_BOUNDARY: f64 = 0.8;
/// Fraction of `Ic0` above which switching is purely precessional.
const PRECESSIONAL_BOUNDARY: f64 = 1.2;

/// Switching-time model for one MTJ parameter set.
///
/// # Examples
///
/// ```
/// use mtj::{MtjParams, SwitchingModel};
/// use units::Current;
///
/// let params = MtjParams::date2018();
/// let model = SwitchingModel::new(&params);
/// // Calibrated: the nominal 70 µA write completes in 2 ns.
/// let t = model.mean_switching_time(params.nominal_write_current());
/// assert!((t.nano_seconds() - 2.0).abs() < 1e-9);
/// // A read-disturb-level current (a few µA) practically never switches.
/// let t_read = model.mean_switching_time(Current::from_micro_amps(5.0));
/// assert!(t_read.seconds() > 1e4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchingModel {
    critical_current: Current,
    attempt_time: Time,
    thermal_stability: f64,
    precessional_time_constant: Time,
}

impl SwitchingModel {
    /// Default write latency the model is calibrated against (paper
    /// Section IV-B: "around … 2 ns for the worst case").
    pub(crate) const DEFAULT_WRITE_TIME: Time = Time::from_seconds(2e-9);

    /// Builds a model calibrated so that the parameter set's nominal write
    /// current switches in `Self::DEFAULT_WRITE_TIME`.
    #[must_use]
    pub fn new(params: &MtjParams) -> Self {
        Self::with_write_time(params, Self::DEFAULT_WRITE_TIME)
    }

    /// Builds a model calibrated so the nominal write current switches in
    /// `write_time`.
    ///
    /// # Panics
    ///
    /// Panics if `write_time` is not positive; parameter-set validity is
    /// already guaranteed by [`MtjParams`] construction.
    #[must_use]
    pub(crate) fn with_write_time(params: &MtjParams, write_time: Time) -> Self {
        assert!(
            write_time.seconds() > 0.0,
            "write time must be positive, got {write_time}"
        );
        let overdrive = params.nominal_write_current() / params.critical_current() - 1.0;
        Self {
            critical_current: params.critical_current(),
            attempt_time: params.attempt_time(),
            thermal_stability: params.thermal_stability(),
            precessional_time_constant: write_time * overdrive,
        }
    }

    /// Builds a model for a *perturbed* device using the precessional
    /// calibration of a *reference* device — the construction variation
    /// and temperature studies need.
    ///
    /// [`Self::new`] calibrates `τ_p` so the parameter set's own nominal
    /// write current switches in the target write time. Applied to a
    /// Monte-Carlo sample that recalibration silently absorbs the very
    /// perturbation under study: at the nominal drive the overdrive
    /// factor cancels and every sample switches in exactly the
    /// calibrated time, regardless of its critical current. Here the
    /// time constant is frozen from `reference` (it is a device-class
    /// property — magnetics and damping — not a per-die one), while the
    /// critical current, thermal stability and attempt time come from
    /// `device`, so an `Ic` excursion shifts the switching curve the
    /// way a real slow die would.
    ///
    /// `with_reference(p, p)` is identical to `new(p)`.
    #[must_use]
    pub(crate) fn with_reference(reference: &MtjParams, device: &MtjParams) -> Self {
        Self::with_reference_write_time(reference, device, Self::DEFAULT_WRITE_TIME)
    }

    /// [`Self::with_reference`] with an explicit reference write time.
    ///
    /// # Panics
    ///
    /// Panics if `write_time` is not positive.
    #[must_use]
    pub(crate) fn with_reference_write_time(
        reference: &MtjParams,
        device: &MtjParams,
        write_time: Time,
    ) -> Self {
        assert!(
            write_time.seconds() > 0.0,
            "write time must be positive, got {write_time}"
        );
        let overdrive = reference.nominal_write_current() / reference.critical_current() - 1.0;
        Self {
            critical_current: device.critical_current(),
            attempt_time: device.attempt_time(),
            thermal_stability: device.thermal_stability(),
            precessional_time_constant: write_time * overdrive,
        }
    }

    /// Mean time to reverse the free layer under a constant drive of
    /// magnitude `current` (the sign is the caller's concern — see
    /// [`crate::device::Mtj`]).
    ///
    /// The returned time is continuous and strictly decreasing in the
    /// current magnitude.
    #[must_use]
    pub fn mean_switching_time(&self, current: Current) -> Time {
        let x = current.abs() / self.critical_current;
        Time::from_seconds(self.log_tau(x).exp())
    }

    /// Switching rate `1/τ` in 1/s — the quantity integrated by the
    /// dynamic device model under time-varying current.
    #[must_use]
    pub(crate) fn switching_rate(&self, current: Current) -> f64 {
        let x = current.abs() / self.critical_current;
        (-self.log_tau(x)).exp()
    }

    /// Probability that a constant drive of magnitude `current` held for
    /// `duration` reverses the free layer, `1 − exp(−t/τ)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mtj::{MtjParams, SwitchingModel};
    /// use units::Time;
    ///
    /// let p = MtjParams::date2018();
    /// let m = SwitchingModel::new(&p);
    /// // Holding the nominal write current for 5× the mean time is a
    /// // practically certain write.
    /// let prob = m.switch_probability(p.nominal_write_current(), Time::from_nano_seconds(10.0));
    /// assert!(prob > 0.99);
    /// ```
    #[must_use]
    pub fn switch_probability(&self, current: Current, duration: Time) -> f64 {
        let tau = self.mean_switching_time(current).seconds();
        1.0 - (-duration.seconds() / tau).exp()
    }

    /// Natural log of the mean switching time at normalized current `x =
    /// I/Ic0`, the internal piecewise-continuous curve.
    fn log_tau(&self, x: f64) -> f64 {
        if x <= THERMAL_BOUNDARY {
            self.log_tau_thermal(x)
        } else if x >= PRECESSIONAL_BOUNDARY {
            self.log_tau_precessional(x)
        } else {
            // Log-linear bridge across the crossover window.
            let t = (x - THERMAL_BOUNDARY) / (PRECESSIONAL_BOUNDARY - THERMAL_BOUNDARY);
            let lo = self.log_tau_thermal(THERMAL_BOUNDARY);
            let hi = self.log_tau_precessional(PRECESSIONAL_BOUNDARY);
            lo + t * (hi - lo)
        }
    }

    fn log_tau_thermal(&self, x: f64) -> f64 {
        self.attempt_time.seconds().ln() + self.thermal_stability * (1.0 - x)
    }

    fn log_tau_precessional(&self, x: f64) -> f64 {
        self.precessional_time_constant.seconds().ln() - (x - 1.0).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> (MtjParams, SwitchingModel) {
        let p = MtjParams::date2018();
        let m = SwitchingModel::new(&p);
        (p, m)
    }

    #[test]
    fn calibrated_write_time() {
        let (p, m) = model();
        let t = m.mean_switching_time(p.nominal_write_current());
        assert!((t.nano_seconds() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn custom_write_time_calibration() {
        let p = MtjParams::date2018();
        let m = SwitchingModel::with_write_time(&p, Time::from_nano_seconds(5.0));
        let t = m.mean_switching_time(p.nominal_write_current());
        assert!((t.nano_seconds() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn zero_current_gives_retention_time() {
        let (p, m) = model();
        let t = m.mean_switching_time(Current::ZERO);
        assert!((t / p.retention_time() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn switching_time_is_strictly_decreasing_and_continuous() {
        let (p, m) = model();
        let ic = p.critical_current().micro_amps();
        let mut last = f64::INFINITY;
        let mut prev_log = f64::INFINITY;
        for step in 1..400 {
            let i = Current::from_micro_amps(ic * 0.01 * f64::from(step));
            let log_tau = m.mean_switching_time(i).seconds().ln();
            assert!(log_tau < last, "not decreasing at {i}");
            if prev_log.is_finite() {
                // No jumps bigger than the local slope allows (continuity).
                assert!(
                    (prev_log - log_tau) < 2.0,
                    "discontinuity near {i}: {prev_log} -> {log_tau}"
                );
            }
            last = log_tau;
            prev_log = log_tau;
        }
    }

    #[test]
    fn rate_is_reciprocal_of_time() {
        let (p, m) = model();
        let i = p.nominal_write_current();
        let tau = m.mean_switching_time(i).seconds();
        assert!((m.switching_rate(i) * tau - 1.0).abs() < 1e-9);
    }

    #[test]
    fn read_level_currents_are_disturb_safe() {
        let (_, m) = model();
        // A 10 µA read current held for 1 ns: disturb probability ~ 0.
        let p_disturb =
            m.switch_probability(Current::from_micro_amps(10.0), Time::from_nano_seconds(1.0));
        assert!(p_disturb < 1e-15, "p = {p_disturb}");
    }

    #[test]
    fn write_current_held_long_enough_switches() {
        let (p, m) = model();
        let prob = m.switch_probability(p.nominal_write_current(), Time::from_nano_seconds(20.0));
        assert!(prob > 0.9999);
    }

    #[test]
    #[should_panic(expected = "write time must be positive")]
    fn zero_write_time_panics() {
        let p = MtjParams::date2018();
        let _ = SwitchingModel::with_write_time(&p, Time::ZERO);
    }

    #[test]
    fn reference_calibration_matches_new_on_the_reference() {
        let p = MtjParams::date2018();
        assert_eq!(
            SwitchingModel::with_reference(&p, &p),
            SwitchingModel::new(&p)
        );
        assert_eq!(
            SwitchingModel::with_reference_write_time(&p, &p, Time::from_nano_seconds(5.0)),
            SwitchingModel::with_write_time(&p, Time::from_nano_seconds(5.0))
        );
    }

    #[test]
    fn reference_calibration_sees_critical_current_excursions() {
        // Regression for the variation studies: recalibrating on the
        // perturbed set (`new`) cancels an Ic excursion exactly at the
        // nominal drive — overdrive appears in both τ_p and the
        // denominator, so every sample switches in the calibrated 2 ns
        // no matter how slow its die is. The reference-calibrated model
        // must expose the excursion instead.
        let p = MtjParams::date2018();
        let slow = p.perturbed(1.0, 1.0, 1.15); // a +3σ Isw die at σ = 5 %
        let i = p.nominal_write_current();
        let recalibrated = SwitchingModel::new(&slow).mean_switching_time(i);
        assert!((recalibrated.nano_seconds() - 2.0).abs() < 1e-9);
        let referenced = SwitchingModel::with_reference(&p, &slow).mean_switching_time(i);
        assert!(
            referenced > recalibrated * 1.2,
            "slow die must switch slower: {referenced} vs {recalibrated}"
        );
        // And a fast die switches faster.
        let fast = p.perturbed(1.0, 1.0, 0.85);
        let fast_tau = SwitchingModel::with_reference(&p, &fast).mean_switching_time(i);
        assert!(fast_tau < recalibrated * 0.8, "fast die: {fast_tau}");
    }
}
