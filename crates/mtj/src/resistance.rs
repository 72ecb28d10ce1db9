//! Bias-dependent MTJ resistance.
//!
//! The parallel-state resistance of an MgO junction is nearly
//! bias-independent, while the anti-parallel resistance drops with bias
//! because inelastic tunnelling channels open up. The standard compact form
//! (used e.g. by Zhao et al., *Microelectronics Reliability* 2011, the
//! paper's sensing reference 28) expresses that as a TMR roll-off:
//!
//! ```text
//! TMR(V) = TMR(0) / (1 + V² / Vh²)
//! R_P(V)  = R_P(0)
//! R_AP(V) = R_P · (1 + TMR(V))
//! ```
//!
//! where `Vh` is the bias at which TMR has fallen to half its zero-bias
//! value (≈ 0.5 V for MgO junctions).

use core::fmt;

use units::{Resistance, Voltage};

use crate::params::MtjParams;

/// Magnetisation state of the free layer relative to the reference layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MtjState {
    /// Free layer parallel to the reference layer — low resistance,
    /// conventionally logic `0` in the latch designs.
    #[default]
    Parallel,
    /// Free layer anti-parallel to the reference layer — high resistance,
    /// conventionally logic `1`.
    AntiParallel,
}

impl MtjState {
    /// The opposite magnetisation state.
    ///
    /// # Examples
    ///
    /// ```
    /// use mtj::MtjState;
    /// assert_eq!(MtjState::Parallel.toggled(), MtjState::AntiParallel);
    /// assert_eq!(MtjState::AntiParallel.toggled(), MtjState::Parallel);
    /// ```
    #[must_use]
    pub fn toggled(self) -> Self {
        match self {
            Self::Parallel => Self::AntiParallel,
            Self::AntiParallel => Self::Parallel,
        }
    }

    /// Maps a stored logic bit to the state holding it under the
    /// convention used throughout the latch designs (`true` ⇒ AP).
    #[must_use]
    pub fn from_bit(bit: bool) -> Self {
        if bit {
            Self::AntiParallel
        } else {
            Self::Parallel
        }
    }

    /// Maps the state back to the logic bit it encodes (`AP` ⇒ `true`).
    #[must_use]
    pub fn to_bit(self) -> bool {
        matches!(self, Self::AntiParallel)
    }
}

impl fmt::Display for MtjState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Parallel => "P",
            Self::AntiParallel => "AP",
        })
    }
}

/// TMR at bias `v`: `TMR(0) / (1 + (V/Vh)²)`.
///
/// # Examples
///
/// ```
/// use mtj::MtjParams;
/// use units::Voltage;
///
/// let p = MtjParams::date2018();
/// let half = mtj::resistance::tmr_at(&p, p.tmr_half_bias());
/// assert!((half / p.tmr_zero_bias() - 0.5).abs() < 1e-12);
/// ```
#[must_use]
pub fn tmr_at(params: &MtjParams, v: Voltage) -> f64 {
    let ratio = v.volts() / params.tmr_half_bias().volts();
    params.tmr_zero_bias() / (1.0 + ratio * ratio)
}

/// Resistance of the junction in `state` under bias `v`.
///
/// The bias enters only through the TMR roll-off, so the parallel state is
/// bias-independent and symmetric in the sign of `v`.
#[must_use]
pub(crate) fn resistance_at(params: &MtjParams, state: MtjState, v: Voltage) -> Resistance {
    match state {
        MtjState::Parallel => params.resistance_parallel(),
        MtjState::AntiParallel => params.resistance_parallel() * (1.0 + tmr_at(params, v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> MtjParams {
        MtjParams::date2018()
    }

    #[test]
    fn zero_bias_matches_table() {
        let p = params();
        let rp = resistance_at(&p, MtjState::Parallel, Voltage::ZERO);
        let rap = resistance_at(&p, MtjState::AntiParallel, Voltage::ZERO);
        assert!((rp.kilo_ohms() - 5.0).abs() < 1e-12);
        assert!((rap.kilo_ohms() - 11.0).abs() < 1e-9);
    }

    #[test]
    fn ap_resistance_falls_with_bias() {
        let p = params();
        let low = resistance_at(&p, MtjState::AntiParallel, Voltage::from_volts(0.1));
        let high = resistance_at(&p, MtjState::AntiParallel, Voltage::from_volts(0.9));
        assert!(high < low);
        // Parallel state is bias-independent.
        let rp0 = resistance_at(&p, MtjState::Parallel, Voltage::ZERO);
        let rp9 = resistance_at(&p, MtjState::Parallel, Voltage::from_volts(0.9));
        assert_eq!(rp0, rp9);
    }

    #[test]
    fn tmr_halves_at_half_bias_and_is_symmetric() {
        let p = params();
        let vh = p.tmr_half_bias();
        assert!((tmr_at(&p, vh) / p.tmr_zero_bias() - 0.5).abs() < 1e-12);
        assert!((tmr_at(&p, vh) - tmr_at(&p, -vh)).abs() < 1e-15);
    }

    #[test]
    fn ap_always_exceeds_p() {
        let p = params();
        for mv in (0..=1200).step_by(50) {
            let v = Voltage::from_milli_volts(f64::from(mv));
            assert!(
                resistance_at(&p, MtjState::AntiParallel, v)
                    > resistance_at(&p, MtjState::Parallel, v)
            );
        }
    }

    #[test]
    fn state_bit_round_trip() {
        assert_eq!(MtjState::from_bit(true), MtjState::AntiParallel);
        assert_eq!(MtjState::from_bit(false), MtjState::Parallel);
        assert!(MtjState::from_bit(true).to_bit());
        assert!(!MtjState::from_bit(false).to_bit());
        assert_eq!(MtjState::Parallel.toggled().toggled(), MtjState::Parallel);
    }

    #[test]
    fn display_names() {
        assert_eq!(MtjState::Parallel.to_string(), "P");
        assert_eq!(MtjState::AntiParallel.to_string(), "AP");
    }
}
