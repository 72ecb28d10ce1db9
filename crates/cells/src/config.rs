//! Latch configuration: process corner, device sizing and phase timing.

use core::fmt;

use mtj::{MtjCorner, MtjParams, VariationModel};
use spice::{CmosCorner, Technology};
use units::{Capacitance, Length, Time};

/// A combined CMOS ⊗ MTJ process corner.
///
/// The paper's Table II reports per-metric worst/typical/best envelopes
/// over the corner space; [`Corner::all`] enumerates the 3 × 3 grid the
/// envelope is taken over, and the three named constructors give the
/// diagonal corners used for spot checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Corner {
    /// CMOS process corner.
    pub(crate) cmos: CmosCorner,
    /// MTJ ±3σ corner.
    pub(crate) mtj: MtjCorner,
}

impl Corner {
    /// Typical-typical everything.
    #[must_use]
    pub fn typical() -> Self {
        Self::default()
    }

    /// Slow CMOS with the read-hostile MTJ corner.
    #[must_use]
    pub fn slow() -> Self {
        Self {
            cmos: CmosCorner::SlowSlow,
            mtj: MtjCorner::WorstRead,
        }
    }

    /// Fast CMOS with the read-friendly MTJ corner.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            cmos: CmosCorner::FastFast,
            mtj: MtjCorner::BestRead,
        }
    }

    /// The full 3 × 3 corner grid (CMOS × MTJ).
    #[must_use]
    pub fn all() -> Vec<Self> {
        let mut out = Vec::with_capacity(9);
        for cmos in CmosCorner::ALL {
            for mtj in MtjCorner::ALL {
                out.push(Self { cmos, mtj });
            }
        }
        out
    }
}

impl fmt::Display for Corner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.cmos, self.mtj)
    }
}

/// Transistor widths for the latch building blocks (all at minimum
/// length). Defaults are sized for the 40 nm technology so that the
/// 70 µA write current and sub-nanosecond sensing of Table I/II hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizing {
    /// Cross-coupled pull-up PMOS width.
    pub cross_pmos: Length,
    /// Cross-coupled pull-down NMOS width.
    pub cross_nmos: Length,
    /// Pre-charge device width (both PMOS-to-VDD and NMOS-to-GND).
    pub precharge: Length,
    /// Sense-enable footer/header (`N3`, `P3`, and the standard cell's
    /// enable NMOS) width.
    pub sense_enable: Length,
    /// Transmission-gate device width (each polarity).
    pub transmission: Length,
    /// Equalizer (`P4`/`N4`) width.
    pub equalizer: Length,
    /// Write tristate-driver PMOS width.
    pub write_pmos: Length,
    /// Write tristate-driver NMOS width.
    pub write_nmos: Length,
    /// Lumped wiring/load capacitance on each sense output (the restore
    /// mux input of the master latch plus routing). The shared sense
    /// amplifier's energy advantage scales with this load: two 1-bit
    /// cells pre-charge four such outputs per restore, the 2-bit cell
    /// only two.
    pub output_load: Capacitance,
    /// Fractional mismatch applied to the complement output's load
    /// (models sense-amplifier offset: device mismatch skews the
    /// regeneration race). 0 = the idealized symmetric amplifier; a few
    /// percent is silicon-realistic.
    pub output_load_mismatch: f64,
}

impl Default for Sizing {
    fn default() -> Self {
        Self {
            cross_pmos: Length::from_nano_meters(400.0),
            cross_nmos: Length::from_nano_meters(360.0),
            precharge: Length::from_nano_meters(400.0),
            sense_enable: Length::from_nano_meters(480.0),
            transmission: Length::from_nano_meters(240.0),
            equalizer: Length::from_nano_meters(240.0),
            // The write current is limited by the ~16 kΩ series MTJ pair,
            // so the drivers only need Ron ≪ 16 kΩ; keeping them small
            // also keeps their junction load off the sense taps.
            write_pmos: Length::from_nano_meters(600.0),
            write_nmos: Length::from_nano_meters(300.0),
            output_load: Capacitance::from_femto_farads(8.0),
            output_load_mismatch: 0.0,
        }
    }
}

/// Durations of the control phases (Fig. 6 working sequence).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Pre-charge window before each evaluation.
    pub(crate) precharge: Time,
    /// Evaluation (sense) window per bit.
    pub(crate) evaluate: Time,
    /// Control-edge rise/fall time.
    pub(crate) edge: Time,
    /// Write-pulse duration for the store phase.
    pub write_pulse: Time,
    /// Idle margin before the first phase begins.
    pub(crate) lead_in: Time,
}

impl Default for Timing {
    fn default() -> Self {
        Self {
            precharge: Time::from_pico_seconds(200.0),
            evaluate: Time::from_pico_seconds(500.0),
            edge: Time::from_pico_seconds(10.0),
            write_pulse: Time::from_nano_seconds(5.0),
            lead_in: Time::from_pico_seconds(50.0),
        }
    }
}

/// Transient accuracy targets handed to the SPICE engine's adaptive
/// step controller.
///
/// The latch simulations no longer hand-tune a fixed `dt` per phase:
/// [`LatchConfig::time_step`] seeds the controller (and sets its
/// smallest step), and these tolerances bound the local truncation
/// error each accepted step may carry. Tightening them buys accuracy
/// with more steps; the defaults match the engine's SPICE-conventional
/// `reltol`/`abstol`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Relative LTE tolerance per step.
    pub(crate) reltol: f64,
    /// Absolute LTE floor, volts/amperes.
    pub(crate) abstol: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Self {
            reltol: spice::analysis::LTE_RELTOL,
            abstol: spice::analysis::LTE_ABSTOL,
        }
    }
}

/// Full configuration of a latch instance: technology, MTJ parameters,
/// sizing and timing.
///
/// # Examples
///
/// ```
/// use cells::{Corner, LatchConfig};
///
/// let worst = LatchConfig::default().at_corner(Corner::slow());
/// let typ = LatchConfig::default();
/// assert!(worst.tech.nmos.vth > typ.tech.nmos.vth); // SS corner
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LatchConfig {
    /// CMOS technology (possibly corner-shifted).
    pub tech: Technology,
    /// MTJ device parameters (possibly corner-shifted).
    pub mtj: MtjParams,
    /// MTJ variation model used by [`LatchConfig::at_corner`].
    pub variation: VariationModel,
    /// Transistor sizing.
    pub sizing: Sizing,
    /// Control-phase timing.
    pub timing: Timing,
    /// Nominal simulation time step: the adaptive controller's seed and
    /// resolution floor.
    pub time_step: Time,
    /// Transient accuracy targets.
    pub tolerances: Tolerances,
}

impl Default for LatchConfig {
    fn default() -> Self {
        Self {
            tech: Technology::tsmc40lp(),
            mtj: MtjParams::date2018(),
            variation: VariationModel::default(),
            sizing: Sizing::default(),
            timing: Timing::default(),
            time_step: Time::from_pico_seconds(2.0),
            tolerances: Tolerances::default(),
        }
    }
}

impl LatchConfig {
    /// Returns a copy shifted to the given combined process corner.
    #[must_use]
    pub fn at_corner(&self, corner: Corner) -> Self {
        let mut c = self.clone();
        c.tech = Technology::tsmc40lp().at_corner(corner.cmos);
        c.mtj = self.variation.at_corner(&MtjParams::date2018(), corner.mtj);
        c
    }

    /// Supply voltage of the configured technology.
    #[must_use]
    pub fn vdd(&self) -> f64 {
        self.tech.vdd
    }

    /// Transient options for a latch simulation starting from `start`,
    /// carrying this config's accuracy tolerances. Step policy and
    /// integrator stay at the engine defaults (adaptive LTE control).
    #[must_use]
    pub fn transient_options(
        &self,
        start: spice::analysis::StartCondition,
    ) -> spice::analysis::TransientOptions {
        spice::analysis::TransientOptions {
            start,
            reltol: self.tolerances.reltol,
            abstol: self.tolerances.abstol,
            ..spice::analysis::TransientOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_grid_is_nine() {
        let all = Corner::all();
        assert_eq!(all.len(), 9);
        assert!(all.contains(&Corner::typical()));
        assert!(all.contains(&Corner::slow()));
        assert!(all.contains(&Corner::fast()));
    }

    #[test]
    fn corner_display() {
        assert_eq!(Corner::slow().to_string(), "SS/worst");
        assert_eq!(Corner::typical().to_string(), "TT/typical");
    }

    #[test]
    fn at_corner_shifts_both_domains() {
        let base = LatchConfig::default();
        let slow = base.at_corner(Corner::slow());
        assert!(slow.tech.nmos.vth > base.tech.nmos.vth);
        assert!(slow.mtj.tmr_zero_bias() < base.mtj.tmr_zero_bias());
        let fast = base.at_corner(Corner::fast());
        assert!(fast.tech.nmos.vth < base.tech.nmos.vth);
        assert!(fast.mtj.tmr_zero_bias() > base.mtj.tmr_zero_bias());
        // Sizing and timing are corner-invariant.
        assert_eq!(slow.sizing, base.sizing);
        assert_eq!(slow.timing, base.timing);
    }

    #[test]
    fn typical_corner_is_identity() {
        let base = LatchConfig::default();
        let typ = base.at_corner(Corner::typical());
        assert_eq!(typ.tech, base.tech);
        assert_eq!(typ.mtj, base.mtj);
    }

    #[test]
    fn default_vdd_matches_table1() {
        assert!((LatchConfig::default().vdd() - 1.1).abs() < 1e-12);
    }
}
