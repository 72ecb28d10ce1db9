//! Cycle-level behavioral models of the NV flip-flops and the PD
//! protocol.
//!
//! The paper's shadow architecture (Fig. 2a / Fig. 3): a conventional
//! master–slave flip-flop operates normally while powered; on the PD
//! (power-down) signal its state is stored into MTJs, the supply is cut,
//! and on wake-up the stored state is restored before normal operation
//! resumes. The 2-bit variant shares one shadow component between two
//! flip-flops and restores the two bits sequentially (lower pair first).
//!
//! These models capture the *protocol* semantics — what state survives
//! which transitions — and intentionally leave timing and energy to the
//! circuit level ([`cells`]).

use core::fmt;
use std::error::Error;

use mtj::MtjState;

/// Power state of a shadowed flip-flop (group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) enum PowerState {
    /// Supply on, normal clocked operation.
    #[default]
    Active,
    /// Supply off; only the MTJs hold state.
    PoweredDown,
}

impl fmt::Display for PowerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Active => "active",
            Self::PoweredDown => "powered-down",
        })
    }
}

/// Error for operations issued in the wrong power state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerStateError {
    expected: PowerState,
    actual: PowerState,
}

impl fmt::Display for PowerStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "operation requires the {} state but the device is {}",
            self.expected, self.actual
        )
    }
}

impl Error for PowerStateError {}

/// A single-bit non-volatile shadow flip-flop (the state of the art the
/// paper compares against).
///
/// # Examples
///
/// ```
/// use nvff::NvFlipFlop;
///
/// # fn main() -> Result<(), nvff::behavior::PowerStateError> {
/// let mut ff = NvFlipFlop::new();
/// ff.capture(true)?;
/// ff.power_down()?;          // store + cut supply
/// assert!(ff.q().is_none()); // no output while off
/// ff.power_up()?;            // restore
/// assert_eq!(ff.q(), Some(true));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NvFlipFlop {
    state: PowerState,
    /// CMOS master/slave content (lost on power-down).
    q: Option<bool>,
    /// The complementary MTJ pair, stored as the primary device's state.
    shadow: MtjState,
}

impl NvFlipFlop {
    /// A powered-up flip-flop with undefined CMOS state and a parallel
    /// (logic 0) shadow.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current power state.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn power_state(&self) -> PowerState {
        self.state
    }

    /// The CMOS output, or `None` while powered down (or never written).
    #[must_use]
    pub fn q(&self) -> Option<bool> {
        if self.state == PowerState::Active {
            self.q
        } else {
            None
        }
    }

    /// The bit currently held by the NV shadow (always observable to the
    /// model — physically it would require a restore).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn shadow_bit(&self) -> bool {
        self.shadow.to_bit()
    }

    /// Clocks a new data value into the CMOS flip-flop.
    ///
    /// # Errors
    ///
    /// Fails with [`PowerStateError`] while powered down.
    pub fn capture(&mut self, d: bool) -> Result<(), PowerStateError> {
        self.require(PowerState::Active)?;
        self.q = Some(d);
        Ok(())
    }

    /// The PD-high sequence: store the CMOS state into the MTJ pair,
    /// then cut the supply (losing the CMOS nodes).
    ///
    /// # Errors
    ///
    /// Fails with [`PowerStateError`] if already powered down.
    pub fn power_down(&mut self) -> Result<(), PowerStateError> {
        self.require(PowerState::Active)?;
        if let Some(q) = self.q {
            self.shadow = MtjState::from_bit(q);
        }
        self.q = None;
        self.state = PowerState::PoweredDown;
        Ok(())
    }

    /// The PD-low sequence: supply returns, the sense amplifier restores
    /// the shadow bit into the CMOS flip-flop.
    ///
    /// # Errors
    ///
    /// Fails with [`PowerStateError`] if already active.
    pub fn power_up(&mut self) -> Result<(), PowerStateError> {
        self.require(PowerState::PoweredDown)?;
        self.q = Some(self.shadow.to_bit());
        self.state = PowerState::Active;
        Ok(())
    }

    fn require(&self, expected: PowerState) -> Result<(), PowerStateError> {
        if self.state == expected {
            Ok(())
        } else {
            Err(PowerStateError {
                expected,
                actual: self.state,
            })
        }
    }
}

/// Two conventional flip-flops sharing one 2-bit NV shadow component —
/// the paper's proposed architecture (Fig. 3).
///
/// Restore order is observable: the lower MTJ pair (bit 0) restores
/// first, then the upper pair (bit 1), matching Fig. 6(b).
///
/// # Examples
///
/// ```
/// use nvff::MultiBitNvFlipFlop;
///
/// # fn main() -> Result<(), nvff::behavior::PowerStateError> {
/// let mut pair = MultiBitNvFlipFlop::new();
/// pair.capture(0, true)?;
/// pair.capture(1, false)?;
/// pair.power_down()?;
/// pair.power_up()?;
/// assert_eq!(pair.q(0), Some(true));
/// assert_eq!(pair.q(1), Some(false));
/// assert_eq!(pair.last_restore_order(), Some([0, 1]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MultiBitNvFlipFlop {
    state: PowerState,
    q: [Option<bool>; 2],
    shadow: [MtjState; 2],
    last_restore_order: Option<[usize; 2]>,
}

impl MultiBitNvFlipFlop {
    /// A powered-up pair with undefined CMOS state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Output of flip-flop `bit` (0 or 1), `None` while powered down.
    ///
    /// # Panics
    ///
    /// Panics if `bit > 1`.
    #[must_use]
    pub fn q(&self, bit: usize) -> Option<bool> {
        assert!(bit < 2, "bit index out of range");
        if self.state == PowerState::Active {
            self.q[bit]
        } else {
            None
        }
    }

    /// The bits currently held by the shared shadow component.
    #[must_use]
    pub fn shadow_bits(&self) -> [bool; 2] {
        [self.shadow[0].to_bit(), self.shadow[1].to_bit()]
    }

    /// The restore order observed at the last `power_up` (always lower
    /// pair then upper pair — the sequential read).
    #[must_use]
    pub fn last_restore_order(&self) -> Option<[usize; 2]> {
        self.last_restore_order
    }

    /// Clocks data into flip-flop `bit`.
    ///
    /// # Errors
    ///
    /// Fails with [`PowerStateError`] while powered down.
    ///
    /// # Panics
    ///
    /// Panics if `bit > 1`.
    pub fn capture(&mut self, bit: usize, d: bool) -> Result<(), PowerStateError> {
        assert!(bit < 2, "bit index out of range");
        self.require(PowerState::Active)?;
        self.q[bit] = Some(d);
        Ok(())
    }

    /// Stores both bits (parallel, independent write paths) and cuts the
    /// supply.
    ///
    /// # Errors
    ///
    /// Fails with [`PowerStateError`] if already powered down.
    pub fn power_down(&mut self) -> Result<(), PowerStateError> {
        self.require(PowerState::Active)?;
        for bit in 0..2 {
            if let Some(q) = self.q[bit] {
                self.shadow[bit] = MtjState::from_bit(q);
            }
            self.q[bit] = None;
        }
        self.state = PowerState::PoweredDown;
        Ok(())
    }

    /// Restores both bits sequentially (lower pair first) and resumes
    /// operation.
    ///
    /// # Errors
    ///
    /// Fails with [`PowerStateError`] if already active.
    pub fn power_up(&mut self) -> Result<(), PowerStateError> {
        self.require(PowerState::PoweredDown)?;
        // Sequential restore: bit 0 (lower MTJ pair), then bit 1.
        for bit in [0usize, 1] {
            self.q[bit] = Some(self.shadow[bit].to_bit());
        }
        self.last_restore_order = Some([0, 1]);
        self.state = PowerState::Active;
        Ok(())
    }

    fn require(&self, expected: PowerState) -> Result<(), PowerStateError> {
        if self.state == expected {
            Ok(())
        } else {
            Err(PowerStateError {
                expected,
                actual: self.state,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bit_survives_power_cycle() {
        for bit in [false, true] {
            let mut ff = NvFlipFlop::new();
            ff.capture(bit).expect("capture");
            ff.power_down().expect("power down");
            assert_eq!(ff.power_state(), PowerState::PoweredDown);
            assert_eq!(ff.q(), None);
            assert_eq!(ff.shadow_bit(), bit);
            ff.power_up().expect("power up");
            assert_eq!(ff.q(), Some(bit));
        }
    }

    #[test]
    fn capture_overwrites_between_cycles() {
        let mut ff = NvFlipFlop::new();
        ff.capture(true).expect("capture");
        ff.power_down().expect("pd");
        ff.power_up().expect("pu");
        ff.capture(false).expect("capture again");
        ff.power_down().expect("pd");
        ff.power_up().expect("pu");
        assert_eq!(ff.q(), Some(false));
    }

    #[test]
    fn wrong_state_operations_fail() {
        let mut ff = NvFlipFlop::new();
        assert!(ff.power_up().is_err()); // already active
        ff.power_down().expect("pd");
        assert!(ff.capture(true).is_err());
        assert!(ff.power_down().is_err());
        let err = ff.capture(true).unwrap_err();
        assert!(err.to_string().contains("active"));
    }

    #[test]
    fn never_written_flip_flop_restores_shadow_default() {
        let mut ff = NvFlipFlop::new();
        ff.power_down().expect("pd");
        ff.power_up().expect("pu");
        assert_eq!(ff.q(), Some(false)); // parallel shadow = logic 0
    }

    #[test]
    fn pair_survives_all_patterns() {
        for pattern in [[false, false], [false, true], [true, false], [true, true]] {
            let mut pair = MultiBitNvFlipFlop::new();
            pair.capture(0, pattern[0]).expect("capture 0");
            pair.capture(1, pattern[1]).expect("capture 1");
            pair.power_down().expect("pd");
            assert_eq!(pair.q(0), None);
            assert_eq!(pair.shadow_bits(), pattern);
            pair.power_up().expect("pu");
            assert_eq!(pair.q(0), Some(pattern[0]));
            assert_eq!(pair.q(1), Some(pattern[1]));
        }
    }

    #[test]
    fn restore_order_is_sequential_lower_first() {
        let mut pair = MultiBitNvFlipFlop::new();
        assert_eq!(pair.last_restore_order(), None);
        pair.power_down().expect("pd");
        pair.power_up().expect("pu");
        assert_eq!(pair.last_restore_order(), Some([0, 1]));
    }

    #[test]
    #[should_panic(expected = "bit index")]
    fn bit_index_is_checked() {
        let pair = MultiBitNvFlipFlop::new();
        let _ = pair.q(2);
    }

    #[test]
    fn power_state_display() {
        assert_eq!(PowerState::Active.to_string(), "active");
        assert_eq!(PowerState::PoweredDown.to_string(), "powered-down");
    }
}
