//! The paper's proposed 2-bit non-volatile shadow latch (Fig. 5).
//!
//! One sense amplifier serves two complementary MTJ pairs:
//!
//! ```text
//!                    VDD
//!                  P3(sel̄)                       write drivers
//!                     │ mt                        I1 → tl (D1)
//!          MTJ-1 ┌────┴────┐ MTJ-2                I2 → tr (D̄1)
//!            tl ─┤         ├─ tr   ← P4(p4̄) equalizes tl/tr
//!           P1(g=qb)     P2(g=q)
//!   pcv̄→PCV ── q ─┤ cross ├─ qb ── PCV ←pcv̄
//!   pcg→PCG ──────┤       ├────── PCG ←pcg
//!           N1(g=qb)     N2(g=q)
//!            nl ─┐         ┌─ nr   ← N4(n4) equalizes nl/nr
//!          T1(ren)│       │T2(ren)
//!            a3 ─┤         ├─ a4                  I3 → a3 (D̄0)
//!          MTJ-3 └────┬────┘ MTJ-4                I4 → a4 (D0)
//!                     │ m
//!                  N3(ren)
//!                    GND
//! ```
//!
//! The two bits are restored **sequentially**: pre-charge both outputs to
//! VDD and discharge through the lower pair (`N3` on, `P4` equalizing the
//! upper taps so the upper states cannot skew the comparison — the upper
//! pair meanwhile *is* the pull-up supply path through `P3`); then
//! pre-charge to GND and charge through the upper pair (`N4` equalizing,
//! the lower pair now the pull-down return path). Write paths stay
//! independent per bit: `I3/I4` drive the lower pair in series, `I1/I2`
//! the upper pair, exactly as in the standard cell.
//!
//! 16 read-path transistors for 2 bits versus the standard baseline's 22.

use spice::{Circuit, TransientResult};

use crate::config::{LatchConfig, Timing};
use crate::control::{self, ProposedRestoreControls, StoreControls};
use crate::error::CellError;
use crate::generator::{NvWord, WordParams, WordRestoreOutcome, WordStoreOutcome};

/// Which restore control scheme drives the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControlScheme {
    /// Fig. 6(b): independent PC_VDD / PC_GND / SEL signals.
    Explicit,
    /// Fig. 7: single PC plus R_en derive every internal control.
    #[default]
    Optimized,
}

impl ControlScheme {
    /// The restore control sequence this scheme generates.
    pub(crate) fn restore_controls(self, timing: &Timing, vdd: f64) -> ProposedRestoreControls {
        match self {
            Self::Explicit => control::proposed_restore(timing, vdd),
            Self::Optimized => control::proposed_restore_optimized(timing, vdd),
        }
    }
}

/// The proposed 2-bit NV shadow latch characterization harness: the
/// family's `bits = 2` point of [`NvWord`], with fixed-width arguments
/// and a choice of restore controller.
///
/// Bit 0 lives in the lower MTJ pair (read first), bit 1 in the upper
/// pair (read second), matching the paper's Fig. 6(b) ordering.
///
/// # Examples
///
/// ```
/// use cells::{LatchConfig, ProposedLatch};
///
/// # fn main() -> Result<(), cells::CellError> {
/// let latch = ProposedLatch::new(LatchConfig::default());
/// let out = latch.simulate_restore([false, true])?;
/// assert_eq!(out.bits, [false, true]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ProposedLatch {
    word: NvWord,
}

impl ProposedLatch {
    /// Creates a harness with the optimized (Fig. 7) control scheme.
    #[must_use]
    pub fn new(config: LatchConfig) -> Self {
        Self::with_scheme(config, ControlScheme::Optimized)
    }

    /// Creates a harness with an explicit control-scheme choice.
    #[must_use]
    pub fn with_scheme(config: LatchConfig, scheme: ControlScheme) -> Self {
        Self {
            word: NvWord::with_scheme(WordParams::new(2), config, scheme),
        }
    }

    /// The harness this latch views.
    pub(crate) fn word(&self) -> &NvWord {
        &self.word
    }

    /// The configuration in use.
    #[must_use]
    pub(crate) fn config(&self) -> &LatchConfig {
        self.word.config()
    }

    /// The control scheme in use.
    #[must_use]
    pub fn scheme(&self) -> ControlScheme {
        self.word.scheme()
    }

    /// The restore control sequence for the configured scheme.
    fn restore_controls(&self) -> ProposedRestoreControls {
        let config = self.config();
        self.scheme().restore_controls(&config.timing, config.vdd())
    }

    /// Builds the fully-stimulated restore circuit and its control
    /// schedule without simulating — the raw input of
    /// [`ProposedLatch::restore_traces`], exposed so external tooling
    /// (netlist dumps, engine-comparison benchmarks) can drive the
    /// circuit through an engine of its choice.
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] if the circuit cannot be built.
    pub fn restore_circuit(
        &self,
        stored: [bool; 2],
    ) -> Result<(Circuit, ProposedRestoreControls), CellError> {
        Ok((self.word.restore_circuit(&stored)?, self.restore_controls()))
    }

    /// Builds the fully-stimulated store circuit and its control
    /// schedule without simulating (see
    /// [`ProposedLatch::restore_circuit`]).
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] if the circuit cannot be built.
    pub fn store_circuit(
        &self,
        data: [bool; 2],
        initial: [bool; 2],
    ) -> Result<(Circuit, StoreControls), CellError> {
        self.word.store_circuit(&data, &initial)
    }

    /// Builds the idle circuit used for the leakage operating point (see
    /// [`ProposedLatch::restore_circuit`]).
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] if the circuit cannot be built.
    pub fn idle_circuit(&self) -> Result<Circuit, CellError> {
        self.word.idle_circuit()
    }

    /// Simulates the sequential two-bit restore with the MTJ pairs preset
    /// to hold `stored = [bit0, bit1]`.
    ///
    /// # Errors
    ///
    /// See [`NvWord::simulate_restore`].
    pub fn simulate_restore(&self, stored: [bool; 2]) -> Result<WordRestoreOutcome, CellError> {
        self.word.simulate_restore(&stored)
    }

    /// Runs the restore transient and returns the raw waveforms together
    /// with the control schedule — the input for waveform dumps (the
    /// paper's Fig. 6) and energy-breakdown studies.
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] on solver failure.
    pub fn restore_traces(
        &self,
        stored: [bool; 2],
    ) -> Result<(TransientResult, ProposedRestoreControls), CellError> {
        Ok((self.word.restore_traces(&stored)?, self.restore_controls()))
    }

    /// Runs the store transient and returns the raw waveforms together
    /// with the control schedule.
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] on solver failure.
    pub fn store_traces(
        &self,
        data: [bool; 2],
        initial: [bool; 2],
    ) -> Result<(TransientResult, StoreControls), CellError> {
        self.word.store_traces(&data, &initial)
    }

    /// Simulates the parallel two-bit store: both pairs' write drivers
    /// push `data = [bit0, bit1]` simultaneously (the paper's store phase
    /// writes the two pairs over independent paths in parallel).
    ///
    /// # Errors
    ///
    /// See [`NvWord::simulate_store`].
    pub fn simulate_store(
        &self,
        data: [bool; 2],
        initial: [bool; 2],
    ) -> Result<WordStoreOutcome, CellError> {
        self.word.simulate_store(&data, &initial)
    }

    /// Static (leakage) power of the idle 2-bit cell.
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] if the operating point fails.
    pub fn leakage(&self) -> Result<units::Power, CellError> {
        self.word.leakage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Corner;
    use crate::standard::StandardLatch;

    fn latch() -> ProposedLatch {
        ProposedLatch::new(LatchConfig::default())
    }

    #[test]
    fn read_path_has_sixteen_transistors() {
        assert_eq!(latch().word.read_path_transistors(), 16);
        // Four tristate drivers add 16 more.
        assert_eq!(latch().word.total_transistors(), 32);
    }

    #[test]
    fn restores_all_four_bit_patterns() {
        let l = latch();
        for bits in [[false, false], [false, true], [true, false], [true, true]] {
            let out = l.simulate_restore(bits).expect("restore");
            assert_eq!(out.bits, bits, "pattern {bits:?}");
            assert!(out.sense_delays[0].pico_seconds() > 5.0);
            assert!(out.sense_delays[1].pico_seconds() > 5.0);
        }
    }

    #[test]
    fn sequential_read_doubles_delay_but_not_energy() {
        let std_out = StandardLatch::new(LatchConfig::default())
            .simulate_restore([true])
            .expect("standard restore");
        let prop_out = latch().simulate_restore([true, false]).expect("restore");
        // Read delay roughly doubles (two sequential senses)...
        let ratio = prop_out.read_delay / std_out.read_delay;
        assert!((1.3..3.0).contains(&ratio), "delay ratio = {ratio}");
        // ...while supply energy stays below two standard cells' worth.
        let two_standard = std_out.supply_energy * 2.0;
        assert!(
            prop_out.supply_energy < two_standard,
            "proposed {} vs 2× standard {}",
            prop_out.supply_energy,
            two_standard
        );
    }

    #[test]
    fn stores_all_four_patterns() {
        let l = latch();
        for data in [[false, false], [false, true], [true, false], [true, true]] {
            let initial = [!data[0], !data[1]];
            let out = l.simulate_store(data, initial).expect("store");
            assert_eq!(out.stored, data);
            assert_eq!(out.switch_count, 4, "all four MTJs must flip");
            assert!(out.latency.nano_seconds() < 3.0, "{}", out.latency);
        }
    }

    #[test]
    fn partial_store_switches_only_the_changed_pair() {
        let out = latch()
            .simulate_store([true, false], [false, false])
            .expect("store");
        // Bit 1 already held: only the lower pair (2 devices) flips.
        assert_eq!(out.switch_count, 2);
    }

    #[test]
    fn session_reuse_is_deterministic() {
        let l = latch();
        let first = l.simulate_restore([true, false]).expect("first restore");
        // A store flips all four MTJs and dirties the session workspace;
        // the repeated restore must still reproduce the first bit-for-bit.
        let _ = l
            .simulate_store([false, true], [true, false])
            .expect("store");
        let again = l.simulate_restore([true, false]).expect("second restore");
        assert_eq!(first, again);
        assert!(l.word.solver_stats().accepted_steps > 0);
        let fresh = latch()
            .simulate_restore([true, false])
            .expect("fresh restore");
        assert_eq!(first, fresh);
    }

    #[test]
    fn leakage_at_or_below_two_standard_cells() {
        let prop = latch().leakage().expect("leakage");
        let std_leak = StandardLatch::new(LatchConfig::default())
            .leakage()
            .expect("standard leakage");
        assert!(prop.pico_watts() > 1.0);
        assert!(
            prop.watts() <= std_leak.watts() * 2.0,
            "proposed {prop} vs 2× standard {}",
            std_leak * 2.0
        );
    }

    #[test]
    fn explicit_scheme_also_restores() {
        let l = ProposedLatch::with_scheme(LatchConfig::default(), ControlScheme::Explicit);
        let out = l.simulate_restore([true, true]).expect("restore");
        assert_eq!(out.bits, [true, true]);
        assert_eq!(l.scheme(), ControlScheme::Explicit);
    }

    #[test]
    fn control_schemes_agree_on_bits_and_supply_energy() {
        // The Fig. 7 controller derives the same internal windows from
        // fewer nets; the circuit behaviour (and hence supply energy)
        // must be essentially unchanged.
        let cfg = LatchConfig::default();
        let explicit = ProposedLatch::with_scheme(cfg.clone(), ControlScheme::Explicit)
            .simulate_restore([true, false])
            .expect("explicit");
        let optimized = ProposedLatch::with_scheme(cfg, ControlScheme::Optimized)
            .simulate_restore([true, false])
            .expect("optimized");
        assert_eq!(explicit.bits, optimized.bits);
        let ratio = optimized.supply_energy / explicit.supply_energy;
        assert!((0.8..1.2).contains(&ratio), "supply ratio = {ratio}");
    }

    #[test]
    fn read_slower_at_slow_corner() {
        let base = LatchConfig::default();
        let slow = ProposedLatch::new(base.at_corner(Corner::slow()))
            .simulate_restore([true, false])
            .expect("slow");
        let fast = ProposedLatch::new(base.at_corner(Corner::fast()))
            .simulate_restore([true, false])
            .expect("fast");
        assert!(slow.read_delay > fast.read_delay);
    }
}
