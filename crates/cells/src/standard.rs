//! The state-of-the-art standard 1-bit non-volatile shadow latch
//! (paper Fig. 2b).
//!
//! Topology: a pre-charge sense amplifier (after Zhao et al., the
//! paper's reference 28) with the complementary MTJ pair in the
//! discharge path, isolated from the write drivers by transmission
//! gates:
//!
//! ```text
//!        VDD ──┬────────┬───────────┬────────┬── VDD
//!            PCA(pc̄)   P1(g=qb)   P2(g=q)   PCB(pc̄)
//!              └──── q ──┤├ cross ├┤── qb ───┘
//!                   N1(g=qb)     N2(g=q)
//!                    sl │           │ sr
//!                 T1(sen)│          │T2(sen)
//!                    w1 │           │ w2
//!                   MTJ-A │        │ MTJ-B      (complementary pair)
//!                       └─── wm ───┘
//!                          NEN(sen)
//!                           GND
//! ```
//!
//! Write drivers `IA`/`IB` (tristate inverters) push the store current
//! through `w1 → MTJ-A → wm → MTJ-B → w2` (or the reverse), writing the
//! pair to opposite states. 11 read-path transistors; the paper's 2-bit
//! comparison baseline is two of these cells.

use spice::{Circuit, TransientResult};

use crate::config::LatchConfig;
use crate::control::{self, StoreControls, WordRestoreControls};
use crate::error::CellError;
use crate::generator::{NvWord, WordParams, WordRestoreOutcome, WordStoreOutcome};

/// A standard 1-bit NV shadow latch characterization harness: the
/// family's `bits = 1` point of [`NvWord`], with fixed-width arguments.
///
/// # Examples
///
/// ```
/// use cells::{LatchConfig, StandardLatch};
///
/// # fn main() -> Result<(), cells::CellError> {
/// let latch = StandardLatch::new(LatchConfig::default());
/// let restored = latch.simulate_restore([true])?;
/// assert_eq!(restored.bits, [true]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StandardLatch {
    word: NvWord,
}

impl StandardLatch {
    /// Creates a harness for the given configuration.
    #[must_use]
    pub fn new(config: LatchConfig) -> Self {
        Self {
            word: NvWord::new(WordParams::new(1), config),
        }
    }

    /// The harness this latch views.
    pub(crate) fn word(&self) -> &NvWord {
        &self.word
    }

    /// The restore schedule: pre-charge to VDD, then one evaluation.
    fn restore_controls(&self) -> WordRestoreControls {
        let config = self.word.config();
        control::word_restore(&config.timing, config.vdd(), 1)
    }

    /// Simulates the restore (read) phase with the MTJ pair preset to
    /// hold `stored`, returning the recovered bit, sense delay and
    /// consumed energy.
    ///
    /// # Errors
    ///
    /// See [`NvWord::simulate_restore`].
    pub fn simulate_restore(&self, stored: [bool; 1]) -> Result<WordRestoreOutcome, CellError> {
        self.word.simulate_restore(&stored)
    }

    /// Runs the restore transient and returns the raw waveforms together
    /// with the control schedule. The simulation cold-starts from 0 V on
    /// every node — restore happens at wake-up from a power-gated state.
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] on solver failure.
    pub fn restore_traces(
        &self,
        stored: [bool; 1],
    ) -> Result<(TransientResult, WordRestoreControls), CellError> {
        Ok((self.word.restore_traces(&stored)?, self.restore_controls()))
    }

    /// Builds the fully-stimulated restore circuit and its control
    /// schedule without simulating — the raw input of
    /// [`StandardLatch::restore_traces`], exposed so external tooling
    /// (engine-comparison tests and benchmarks) can drive the circuit
    /// through an engine of its choice.
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] if the circuit cannot be built.
    pub fn restore_circuit(
        &self,
        stored: [bool; 1],
    ) -> Result<(Circuit, WordRestoreControls), CellError> {
        Ok((self.word.restore_circuit(&stored)?, self.restore_controls()))
    }

    /// Builds the fully-stimulated store circuit and its control
    /// schedule without simulating (see
    /// [`StandardLatch::restore_circuit`]).
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] if the circuit cannot be built.
    pub fn store_circuit(
        &self,
        data: [bool; 1],
        initial: [bool; 1],
    ) -> Result<(Circuit, StoreControls), CellError> {
        self.word.store_circuit(&data, &initial)
    }

    /// Builds the idle circuit used for the leakage operating point (see
    /// [`StandardLatch::restore_circuit`]).
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] if the circuit cannot be built.
    pub fn idle_circuit(&self) -> Result<Circuit, CellError> {
        self.word.idle_circuit()
    }

    /// Simulates the store (write) phase: the MTJ pair starts holding
    /// `initial` and the write drivers push `data`.
    ///
    /// # Errors
    ///
    /// See [`NvWord::simulate_store`].
    pub fn simulate_store(
        &self,
        data: [bool; 1],
        initial: [bool; 1],
    ) -> Result<WordStoreOutcome, CellError> {
        self.word.simulate_store(&data, &initial)
    }

    /// Static (leakage) power of the idle cell: the total DC power drawn
    /// from all rails with every control inactive.
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
    use units::Time;

    fn latch() -> StandardLatch {
        StandardLatch::new(LatchConfig::default())
    }

    #[test]
    fn read_path_has_eleven_transistors() {
        assert_eq!(latch().word.read_path_transistors(), 11);
        // Two tristate drivers add 8 more.
        assert_eq!(latch().word.total_transistors(), 19);
    }

    #[test]
    fn restores_both_bit_values() {
        let l = latch();
        for bit in [false, true] {
            let out = l.simulate_restore([bit]).expect("restore");
            assert_eq!(out.bits, [bit], "stored {bit}");
            assert!(out.read_delay.pico_seconds() > 5.0);
            assert!(out.read_delay.pico_seconds() < 500.0, "{}", out.read_delay);
            assert!(out.energy.femto_joules() > 0.1);
            assert!(out.energy.femto_joules() < 50.0, "{}", out.energy);
        }
    }

    #[test]
    fn stores_both_bit_values() {
        let l = latch();
        for data in [false, true] {
            let out = l.simulate_store([data], [!data]).expect("store");
            assert_eq!(out.stored, [data]);
            assert_eq!(out.switch_count, 2, "both MTJs must flip");
            assert!(out.latency.nano_seconds() > 0.5);
            assert!(out.latency.nano_seconds() < 3.0, "{}", out.latency);
            assert!(out.energy.femto_joules() > 20.0);
            assert!(out.energy.femto_joules() < 800.0, "{}", out.energy);
        }
    }

    #[test]
    fn rewriting_same_data_switches_nothing() {
        let out = latch().simulate_store([true], [true]).expect("store");
        assert_eq!(out.switch_count, 0);
        assert_eq!(out.latency, Time::ZERO);
    }

    #[test]
    fn session_reuse_is_deterministic() {
        let l = latch();
        let first = l.simulate_restore([true]).expect("first restore");
        // Interleave a store (which flips the MTJs and dirties the
        // session workspace) before repeating the identical restore.
        let _ = l.simulate_store([false], [true]).expect("store");
        let again = l.simulate_restore([true]).expect("second restore");
        assert_eq!(first, again);
        let stats = l.word.solver_stats();
        assert!(stats.newton_iterations > 0);
        assert!(stats.accepted_steps > 0);
        // A fresh latch must agree with the reused session.
        let fresh = latch().simulate_restore([true]).expect("fresh restore");
        assert_eq!(first, fresh);
    }

    #[test]
    fn leakage_is_subnanowatt_scale() {
        let p = latch().leakage().expect("leakage");
        assert!(p.pico_watts() > 1.0, "leakage = {p}");
        assert!(p.nano_watts() < 100.0, "leakage = {p}");
    }

    #[test]
    fn leakage_orders_with_cmos_corner() {
        let base = LatchConfig::default();
        let slow = StandardLatch::new(base.at_corner(Corner::slow()))
            .leakage()
            .expect("slow");
        let typ = StandardLatch::new(base.clone()).leakage().expect("typ");
        let fast = StandardLatch::new(base.at_corner(Corner::fast()))
            .leakage()
            .expect("fast");
        assert!(fast > typ, "fast {fast} vs typ {typ}");
        assert!(typ > slow, "typ {typ} vs slow {slow}");
    }

    #[test]
    fn read_is_slower_at_the_slow_corner() {
        let base = LatchConfig::default();
        let slow = StandardLatch::new(base.at_corner(Corner::slow()))
            .simulate_restore([true])
            .expect("slow");
        let fast = StandardLatch::new(base.at_corner(Corner::fast()))
            .simulate_restore([true])
            .expect("fast");
        assert!(
            slow.read_delay > fast.read_delay,
            "slow {} vs fast {}",
            slow.read_delay,
            fast.read_delay
        );
    }
}
