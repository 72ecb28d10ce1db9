//! First-order temperature dependence of the MTJ figures of merit.
//!
//! The paper evaluates at a fixed 27 °C (Table I); this module extends
//! the compact model with the standard first-order thermal laws so the
//! reproduction can answer the obvious next question — what happens at
//! automotive/industrial temperatures:
//!
//! * **TMR** falls roughly linearly with temperature (spin polarisation
//!   decays below the Curie point): `TMR(T) = TMR(T₀)·(1 − k_tmr·ΔT)`;
//! * **thermal stability** `Δ = E_b/k_BT` falls both through the
//!   explicit `1/T` and through the barrier energy's magnetisation
//!   dependence: `Δ(T) = Δ(T₀)·(T₀/T)·(1 − k_ms·ΔT)²`;
//! * **critical current** follows the barrier:
//!   `Ic(T) = Ic(T₀)·(1 − k_ic·ΔT)` — hotter devices switch easier.
//!
//! Coefficient defaults are representative of perpendicular CoFeB/MgO
//! stacks (Takemura et al. class devices).

use units::Temperature;

use crate::params::MtjParams;

/// Linear thermal coefficients (per kelvin of excursion from the
/// reference temperature).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    /// Fractional TMR loss per kelvin (default 1.5 × 10⁻³).
    pub(crate) k_tmr: f64,
    /// Fractional saturation-magnetisation loss per kelvin
    /// (default 5 × 10⁻⁴), entering the barrier quadratically.
    pub(crate) k_ms: f64,
    /// Fractional critical-current reduction per kelvin
    /// (default 1 × 10⁻³).
    pub(crate) k_ic: f64,
}

impl Default for ThermalModel {
    fn default() -> Self {
        Self {
            k_tmr: 1.5e-3,
            k_ms: 5e-4,
            k_ic: 1e-3,
        }
    }
}

impl ThermalModel {
    /// Returns the parameter set re-evaluated at `temperature`, taking
    /// the input set's own temperature as the reference point.
    ///
    /// Multipliers are clamped at a small positive floor so extreme
    /// excursions degrade gracefully instead of going non-physical.
    ///
    /// # Examples
    ///
    /// ```
    /// use mtj::{MtjParams, thermal::ThermalModel};
    /// use units::Temperature;
    ///
    /// let nominal = MtjParams::date2018(); // 27 °C
    /// let hot = ThermalModel::default()
    ///     .at_temperature(&nominal, Temperature::from_celsius(85.0));
    /// assert!(hot.tmr_zero_bias() < nominal.tmr_zero_bias());
    /// assert!(hot.critical_current() < nominal.critical_current());
    /// assert!(hot.retention_time() < nominal.retention_time());
    /// ```
    #[must_use]
    pub fn at_temperature(&self, reference: &MtjParams, temperature: Temperature) -> MtjParams {
        const FLOOR: f64 = 1e-3;
        let dt = temperature.celsius() - reference.temperature().celsius();
        let tmr_mult = (1.0 - self.k_tmr * dt).max(FLOOR);
        let ic_mult = (1.0 - self.k_ic * dt).max(FLOOR);
        let ms_mult = (1.0 - self.k_ms * dt).max(FLOOR);
        let delta_mult =
            (reference.temperature().kelvin() / temperature.kelvin()) * ms_mult * ms_mult;

        let delta = reference.thermal_stability() * delta_mult;
        MtjParams::builder()
            .radius(reference.radius())
            .free_layer_thickness(reference.free_layer_thickness())
            .oxide_thickness(reference.oxide_thickness())
            .resistance_area_product_ohm_um2(reference.resistance_area_product_ohm_um2())
            .resistance_parallel(reference.resistance_parallel())
            .tmr_zero_bias(reference.tmr_zero_bias() * tmr_mult)
            .tmr_half_bias(reference.tmr_half_bias())
            .critical_current(reference.critical_current() * ic_mult)
            .nominal_write_current(reference.nominal_write_current())
            .thermal_stability(delta)
            .attempt_time(reference.attempt_time())
            .temperature(temperature)
            .build()
            .expect("thermal scaling keeps parameters physical")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::Current;

    fn nominal() -> MtjParams {
        MtjParams::date2018()
    }

    #[test]
    fn reference_temperature_is_identity() {
        let p = nominal();
        let same = ThermalModel::default().at_temperature(&p, p.temperature());
        assert!((same.tmr_zero_bias() - p.tmr_zero_bias()).abs() < 1e-12);
        assert!((same.critical_current().amps() - p.critical_current().amps()).abs() < 1e-18);
        assert!((same.thermal_stability() - p.thermal_stability()).abs() < 1e-9);
    }

    #[test]
    fn heating_degrades_tmr_stability_and_ic() {
        let p = nominal();
        let hot = ThermalModel::default().at_temperature(&p, Temperature::from_celsius(125.0));
        assert!(hot.tmr_zero_bias() < p.tmr_zero_bias());
        assert!(hot.thermal_stability() < p.thermal_stability());
        assert!(hot.critical_current() < p.critical_current());
        assert_eq!(hot.temperature(), Temperature::from_celsius(125.0));
    }

    #[test]
    fn cooling_improves_everything() {
        let p = nominal();
        let cold = ThermalModel::default().at_temperature(&p, Temperature::from_celsius(-40.0));
        assert!(cold.tmr_zero_bias() > p.tmr_zero_bias());
        assert!(cold.thermal_stability() > p.thermal_stability());
        assert!(cold.critical_current() > p.critical_current());
    }

    #[test]
    fn retention_collapses_by_orders_of_magnitude_at_heat() {
        let p = nominal();
        let model = ThermalModel::default();
        let retention = |celsius: f64| {
            model
                .at_temperature(&p, Temperature::from_celsius(celsius))
                .retention_time()
        };
        let (r27, r85, r125) = (retention(27.0), retention(85.0), retention(125.0));
        assert!(r85 < r27);
        assert!(r125 < r85);
        // Δ drops ~16 % at 85 °C → retention loses ≥ 3 decades.
        assert!(r27.seconds() / r85.seconds() > 1e3);
        // Still a retention device at 125 °C (> 1 year ≈ 3e7 s).
        assert!(r125.seconds() > 3e7, "retention at 125 °C: {r125}");
    }

    #[test]
    fn hot_devices_switch_faster() {
        use crate::switching::SwitchingModel;
        let p = nominal();
        let hot = ThermalModel::default().at_temperature(&p, Temperature::from_celsius(85.0));
        let i = Current::from_micro_amps(55.0);
        let t_cold = SwitchingModel::new(&p).mean_switching_time(i);
        let t_hot = SwitchingModel::new(&hot).mean_switching_time(i);
        assert!(t_hot < t_cold, "hot {t_hot} vs cold {t_cold}");
    }

    #[test]
    fn extreme_excursions_stay_physical() {
        let p = nominal();
        let extreme = ThermalModel::default().at_temperature(&p, Temperature::from_celsius(900.0));
        assert!(extreme.tmr_zero_bias() > 0.0);
        assert!(extreme.critical_current().amps() > 0.0);
        assert!(extreme.thermal_stability() > 0.0);
    }
}
