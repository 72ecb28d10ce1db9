//! The circuit-level setup of the paper's Table I, as a printable
//! structure tying together the technology and MTJ parameter sources.

use core::fmt;

use mtj::MtjParams;
use spice::Technology;
use units::{Temperature, Voltage};

/// The circuit-level experimental setup (paper Table I).
///
/// # Examples
///
/// ```
/// let setup = cells::CircuitSetup::date2018();
/// let text = setup.to_string();
/// assert!(text.contains("1.1 V"));
/// assert!(text.contains("TMR"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitSetup {
    /// Supply voltage.
    pub(crate) vdd: Voltage,
    /// Operating temperature.
    pub(crate) temperature: Temperature,
    /// MTJ parameters (Table I's device rows).
    pub mtj: MtjParams,
    /// CMOS technology.
    pub tech: Technology,
}

impl CircuitSetup {
    /// The paper's setup: 1.1 V, 27 °C, Table I MTJ parameters, 40 nm LP
    /// CMOS.
    #[must_use]
    pub fn date2018() -> Self {
        let tech = Technology::tsmc40lp();
        Self {
            vdd: Voltage::from_volts(tech.vdd),
            temperature: Temperature::from_celsius(27.0),
            mtj: MtjParams::date2018(),
            tech,
        }
    }

    /// Rows of the Table I printout as `(parameter, value)` pairs.
    #[must_use]
    pub(crate) fn rows(&self) -> Vec<(String, String)> {
        let mtj = &self.mtj;
        vec![
            (
                "VDD and Temperature".into(),
                format!("{} and {}", self.vdd, self.temperature),
            ),
            ("MTJ radius".into(), mtj.radius().to_string()),
            (
                "Free/Oxide layer thickness".into(),
                format!(
                    "{:.2}/{:.2} nm",
                    mtj.free_layer_thickness().nano_meters(),
                    mtj.oxide_thickness().nano_meters()
                ),
            ),
            (
                "RA".into(),
                format!("{} Ω·µm²", mtj.resistance_area_product_ohm_um2()),
            ),
            (
                "TMR @ 0V".into(),
                format!("{:.0}%", mtj.tmr_zero_bias() * 100.0),
            ),
            (
                "Critical current".into(),
                mtj.critical_current().to_string(),
            ),
            (
                "Switching current".into(),
                mtj.nominal_write_current().to_string(),
            ),
            (
                "'AP'/'P' resistance".into(),
                format!(
                    "{}/{}",
                    mtj.resistance_antiparallel(),
                    mtj.resistance_parallel()
                ),
            ),
        ]
    }
}

impl Default for CircuitSetup {
    fn default() -> Self {
        Self::date2018()
    }
}

impl fmt::Display for CircuitSetup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<28} | Value", "Parameter")?;
        writeln!(f, "{empty:-<28}-+-{empty:-<24}", empty = "")?;
        for (param, value) in self.rows() {
            writeln!(f, "{param:<28} | {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_table1() {
        let rows = CircuitSetup::date2018().rows();
        assert_eq!(rows.len(), 8);
        let text = CircuitSetup::date2018().to_string();
        for needle in [
            "1.1 V",
            "27 °C",
            "20 nm",
            "1.84/1.48 nm",
            "1.26",
            "120%",
            "37 µA",
            "70 µA",
            "11 kΩ/5 kΩ",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn default_is_date2018() {
        assert_eq!(CircuitSetup::default(), CircuitSetup::date2018());
    }
}
