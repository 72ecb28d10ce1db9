//! Static MTJ device parameters and their validation.

use core::fmt;
use std::error::Error;

use units::{Current, Length, Resistance, Temperature, Time, Voltage};

use crate::resistance::MtjState;

/// Complete parameter set of one MTJ device.
///
/// Constructed either from the paper's Table I via [`MtjParams::date2018`]
/// or through [`MtjParams::builder`]. All parameters are nominal; process
/// variation is applied by [`crate::variation::VariationModel::at_corner`],
/// which returns a perturbed copy.
///
/// # Examples
///
/// ```
/// use mtj::MtjParams;
///
/// let nominal = MtjParams::date2018();
/// assert!((nominal.tmr_zero_bias() - 1.2).abs() < 0.05); // 123 % → Rap/Rp ≈ 2.2
/// assert!((nominal.resistance_parallel().kilo_ohms() - 5.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MtjParams {
    radius: Length,
    free_layer_thickness: Length,
    oxide_thickness: Length,
    resistance_area_product_ohm_um2: f64,
    resistance_parallel: Resistance,
    tmr_zero_bias: f64,
    tmr_half_bias: Voltage,
    critical_current: Current,
    nominal_write_current: Current,
    thermal_stability: f64,
    attempt_time: Time,
    temperature: Temperature,
}

impl MtjParams {
    /// Parameters of the paper's Table I (DATE 2018 circuit-level setup).
    ///
    /// `Rp` is taken from the table's explicit 'AP'/'P' resistance row
    /// (5 kΩ / 11 kΩ) rather than derived from RA / area; the table's RA and
    /// radius are internally inconsistent with those values (RA / πr²
    /// ≈ 1 kΩ), a common artefact of quoting RA at a different reference
    /// geometry. [`Self::resistance_parallel`] is the authoritative value.
    #[must_use]
    pub fn date2018() -> Self {
        Self {
            radius: Length::from_nano_meters(20.0),
            free_layer_thickness: Length::from_nano_meters(1.84),
            oxide_thickness: Length::from_nano_meters(1.48),
            resistance_area_product_ohm_um2: 1.26,
            resistance_parallel: Resistance::from_kilo_ohms(5.0),
            tmr_zero_bias: 1.2,
            tmr_half_bias: Voltage::from_volts(0.5),
            critical_current: Current::from_micro_amps(37.0),
            nominal_write_current: Current::from_micro_amps(70.0),
            thermal_stability: 60.0,
            attempt_time: Time::from_nano_seconds(1.0),
            temperature: Temperature::from_celsius(27.0),
        }
    }

    /// Starts building a parameter set from the Table I defaults.
    #[must_use]
    pub fn builder() -> MtjParamsBuilder {
        MtjParamsBuilder {
            params: Self::date2018(),
        }
    }

    /// Starts building a parameter set from `self` — the way to apply
    /// point overrides on top of an already corner-shifted device
    /// without losing the shift. `build()` re-validates the result.
    #[must_use]
    pub fn to_builder(&self) -> MtjParamsBuilder {
        MtjParamsBuilder {
            params: self.clone(),
        }
    }

    /// Free-layer disc radius.
    #[must_use]
    pub fn radius(&self) -> Length {
        self.radius
    }

    /// Free layer thickness.
    #[must_use]
    pub fn free_layer_thickness(&self) -> Length {
        self.free_layer_thickness
    }

    /// MgO barrier thickness.
    #[must_use]
    pub fn oxide_thickness(&self) -> Length {
        self.oxide_thickness
    }

    /// Resistance–area product in Ω·µm².
    #[must_use]
    pub fn resistance_area_product_ohm_um2(&self) -> f64 {
        self.resistance_area_product_ohm_um2
    }

    /// Parallel-state resistance at zero bias (authoritative value).
    #[must_use]
    pub fn resistance_parallel(&self) -> Resistance {
        self.resistance_parallel
    }

    /// Anti-parallel-state resistance at zero bias: `Rp · (1 + TMR₀)`.
    #[must_use]
    pub fn resistance_antiparallel(&self) -> Resistance {
        self.resistance_parallel * (1.0 + self.tmr_zero_bias)
    }

    /// Zero-bias TMR as a fraction (Table I's 123 % → `1.23`; the explicit
    /// resistance row implies `1.2`, which is what `date2018` uses so that
    /// `Rap = 11 kΩ` holds exactly).
    #[must_use]
    pub fn tmr_zero_bias(&self) -> f64 {
        self.tmr_zero_bias
    }

    /// Bias voltage at which TMR drops to half its zero-bias value.
    #[must_use]
    pub fn tmr_half_bias(&self) -> Voltage {
        self.tmr_half_bias
    }

    /// Critical switching current `Ic0` (threshold of the precessional
    /// regime).
    #[must_use]
    pub fn critical_current(&self) -> Current {
        self.critical_current
    }

    /// Nominal write-driver current used during the store phase.
    #[must_use]
    pub fn nominal_write_current(&self) -> Current {
        self.nominal_write_current
    }

    /// Thermal stability factor `Δ = E_b / k_B T`.
    #[must_use]
    pub fn thermal_stability(&self) -> f64 {
        self.thermal_stability
    }

    /// Attempt time `τ₀` of thermally activated switching.
    #[must_use]
    pub(crate) fn attempt_time(&self) -> Time {
        self.attempt_time
    }

    /// Operating temperature.
    #[must_use]
    pub(crate) fn temperature(&self) -> Temperature {
        self.temperature
    }

    /// Resistance in `state` under bias `v` (voltage across the junction).
    ///
    /// Delegates to `crate::resistance::resistance_at`; see there for the
    /// TMR roll-off model.
    #[must_use]
    pub fn resistance_at(&self, state: MtjState, v: Voltage) -> Resistance {
        crate::resistance::resistance_at(self, state, v)
    }

    /// Expected data retention time at the operating temperature,
    /// `τ₀ · exp(Δ)`.
    ///
    /// With Δ = 60 this is on the order of 10¹⁷ s — the "zero leakage
    /// storage" property motivating NV flip-flops.
    #[must_use]
    pub fn retention_time(&self) -> Time {
        self.attempt_time * self.thermal_stability.exp()
    }

    /// Returns a copy with the given multiplicative perturbations applied.
    ///
    /// Used by the variation model; multipliers of `1.0` leave the
    /// parameter untouched.
    #[must_use]
    pub(crate) fn perturbed(
        &self,
        ra_multiplier: f64,
        tmr_multiplier: f64,
        switching_current_multiplier: f64,
    ) -> Self {
        let mut p = self.clone();
        p.resistance_area_product_ohm_um2 *= ra_multiplier;
        // Rp scales with RA at fixed geometry.
        p.resistance_parallel = p.resistance_parallel * ra_multiplier;
        p.tmr_zero_bias *= tmr_multiplier;
        p.critical_current = p.critical_current * switching_current_multiplier;
        p
    }
}

impl Default for MtjParams {
    fn default() -> Self {
        Self::date2018()
    }
}

/// Builder for [`MtjParams`], seeded with the Table I defaults.
///
/// # Examples
///
/// ```
/// use mtj::MtjParams;
/// use units::{Current, Resistance};
///
/// let params = MtjParams::builder()
///     .resistance_parallel(Resistance::from_kilo_ohms(4.0))
///     .critical_current(Current::from_micro_amps(30.0))
///     .build()?;
/// assert!((params.resistance_parallel().kilo_ohms() - 4.0).abs() < 1e-12);
/// # Ok::<(), mtj::ValidateParamsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MtjParamsBuilder {
    params: MtjParams,
}

impl MtjParamsBuilder {
    /// Sets the free-layer radius.
    #[must_use]
    pub(crate) fn radius(mut self, radius: Length) -> Self {
        self.params.radius = radius;
        self
    }

    /// Sets the free-layer thickness.
    #[must_use]
    pub(crate) fn free_layer_thickness(mut self, t: Length) -> Self {
        self.params.free_layer_thickness = t;
        self
    }

    /// Sets the oxide-barrier thickness.
    #[must_use]
    pub(crate) fn oxide_thickness(mut self, t: Length) -> Self {
        self.params.oxide_thickness = t;
        self
    }

    /// Sets the resistance–area product (Ω·µm²).
    #[must_use]
    pub(crate) fn resistance_area_product_ohm_um2(mut self, ra: f64) -> Self {
        self.params.resistance_area_product_ohm_um2 = ra;
        self
    }

    /// Sets the zero-bias parallel resistance.
    #[must_use]
    pub fn resistance_parallel(mut self, r: Resistance) -> Self {
        self.params.resistance_parallel = r;
        self
    }

    /// Sets the zero-bias TMR as a fraction (1.2 = 120 %).
    #[must_use]
    pub fn tmr_zero_bias(mut self, tmr: f64) -> Self {
        self.params.tmr_zero_bias = tmr;
        self
    }

    /// Sets the bias at which TMR halves.
    #[must_use]
    pub(crate) fn tmr_half_bias(mut self, v: Voltage) -> Self {
        self.params.tmr_half_bias = v;
        self
    }

    /// Sets the critical (threshold) switching current.
    #[must_use]
    pub fn critical_current(mut self, i: Current) -> Self {
        self.params.critical_current = i;
        self
    }

    /// Sets the nominal write current.
    #[must_use]
    pub fn nominal_write_current(mut self, i: Current) -> Self {
        self.params.nominal_write_current = i;
        self
    }

    /// Sets the thermal stability factor Δ.
    #[must_use]
    pub fn thermal_stability(mut self, delta: f64) -> Self {
        self.params.thermal_stability = delta;
        self
    }

    /// Sets the attempt time τ₀.
    #[must_use]
    pub(crate) fn attempt_time(mut self, tau: Time) -> Self {
        self.params.attempt_time = tau;
        self
    }

    /// Sets the operating temperature.
    #[must_use]
    pub(crate) fn temperature(mut self, t: Temperature) -> Self {
        self.params.temperature = t;
        self
    }

    /// Validates and returns the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateParamsError`] when a physical constraint is
    /// violated: non-positive geometry, resistances, currents or TMR, a
    /// write current at or below the critical current, or a temperature at
    /// or below absolute zero.
    pub fn build(self) -> Result<MtjParams, ValidateParamsError> {
        let p = &self.params;
        let check = |ok: bool, what: &'static str| {
            if ok {
                Ok(())
            } else {
                Err(ValidateParamsError { what })
            }
        };
        check(p.radius.meters() > 0.0, "radius must be positive")?;
        check(
            p.free_layer_thickness.meters() > 0.0,
            "free layer thickness must be positive",
        )?;
        check(
            p.oxide_thickness.meters() > 0.0,
            "oxide thickness must be positive",
        )?;
        check(
            p.resistance_area_product_ohm_um2 > 0.0,
            "RA product must be positive",
        )?;
        check(
            p.resistance_parallel.ohms() > 0.0,
            "parallel resistance must be positive",
        )?;
        check(p.tmr_zero_bias > 0.0, "TMR must be positive")?;
        check(
            p.tmr_half_bias.volts() > 0.0,
            "TMR half-bias voltage must be positive",
        )?;
        check(
            p.critical_current.amps() > 0.0,
            "critical current must be positive",
        )?;
        check(
            p.nominal_write_current > p.critical_current,
            "write current must exceed the critical current",
        )?;
        check(
            p.thermal_stability > 0.0,
            "thermal stability must be positive",
        )?;
        check(
            p.attempt_time.seconds() > 0.0,
            "attempt time must be positive",
        )?;
        check(
            p.temperature > Temperature::ABSOLUTE_ZERO,
            "temperature must exceed absolute zero",
        )?;
        Ok(self.params)
    }
}

/// Error returned when [`MtjParamsBuilder::build`] rejects a parameter set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateParamsError {
    what: &'static str,
}

impl fmt::Display for ValidateParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MTJ parameters: {}", self.what)
    }
}

impl Error for ValidateParamsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_are_consistent() {
        let p = MtjParams::date2018();
        assert!((p.resistance_parallel().kilo_ohms() - 5.0).abs() < 1e-12);
        assert!((p.resistance_antiparallel().kilo_ohms() - 11.0).abs() < 1e-9);
        assert!((p.critical_current().micro_amps() - 37.0).abs() < 1e-12);
        assert!((p.nominal_write_current().micro_amps() - 70.0).abs() < 1e-12);
        assert!((p.temperature().celsius() - 27.0).abs() < 1e-12);
    }

    #[test]
    fn retention_time_is_astronomical() {
        let p = MtjParams::date2018();
        // Δ = 60 → τ ≈ 1 ns · e⁶⁰ ≈ 1.1e17 s.
        assert!(p.retention_time().seconds() > 1e15);
    }

    #[test]
    fn builder_overrides_and_validates() {
        let p = MtjParams::builder()
            .tmr_zero_bias(1.0)
            .resistance_parallel(Resistance::from_kilo_ohms(6.0))
            .build()
            .expect("valid params");
        assert!((p.resistance_antiparallel().kilo_ohms() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn builder_rejects_nonphysical_values() {
        assert!(MtjParams::builder()
            .radius(Length::from_nano_meters(0.0))
            .build()
            .is_err());
        assert!(MtjParams::builder().tmr_zero_bias(-0.5).build().is_err());
        let err = MtjParams::builder()
            .nominal_write_current(Current::from_micro_amps(10.0))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("write current"));
    }

    #[test]
    fn to_builder_preserves_the_starting_point() {
        let shifted = MtjParams::date2018().perturbed(1.1, 0.9, 1.0);
        let p = shifted
            .to_builder()
            .thermal_stability(55.0)
            .build()
            .expect("valid params");
        // The override lands; the perturbation survives.
        assert!((p.thermal_stability() - 55.0).abs() < 1e-12);
        assert!(
            (p.resistance_parallel().ohms() - shifted.resistance_parallel().ohms()).abs() < 1e-12
        );
        assert!((p.tmr_zero_bias() - shifted.tmr_zero_bias()).abs() < 1e-12);
    }

    #[test]
    fn perturbed_scales_the_right_parameters() {
        let p = MtjParams::date2018();
        let q = p.perturbed(1.1, 0.9, 1.2);
        assert!(
            (q.resistance_parallel().ohms() / p.resistance_parallel().ohms() - 1.1).abs() < 1e-12
        );
        assert!((q.tmr_zero_bias() / p.tmr_zero_bias() - 0.9).abs() < 1e-12);
        assert!((q.critical_current().amps() / p.critical_current().amps() - 1.2).abs() < 1e-12);
        // Geometry untouched.
        assert_eq!(q.radius(), p.radius());
    }
}
