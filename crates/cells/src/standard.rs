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

use std::cell::RefCell;

use mtj::MtjState;
use spice::{analysis, Circuit, SimulationSession, SourceWaveform};
use units::Time;

use crate::config::LatchConfig;
use crate::control::{self, StandardRestoreControls, StoreControls};
use crate::error::CellError;
use crate::metrics::{resolve_bit, sense_delay, RestoreOutcome, StoreOutcome};

/// A standard 1-bit NV shadow latch characterization harness.
///
/// The circuit is built once and bound to a cached
/// [`SimulationSession`]; successive simulations retarget the source
/// waveforms and MTJ presets in place, reusing the session's solver
/// workspace. Corner sweeps stay trivially parallel — each thread
/// creates its own latch (the cache is per-instance and never shared).
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
#[derive(Debug)]
pub struct StandardLatch {
    config: LatchConfig,
    session: RefCell<Option<SimulationSession>>,
}

impl Clone for StandardLatch {
    /// Clones the configuration; the solver-session cache starts empty in
    /// the clone (it is rebuilt lazily on first simulation).
    fn clone(&self) -> Self {
        Self::new(self.config.clone())
    }
}

/// Node/source names used by the harness (kept in one place so tests and
/// waveform dumps agree).
mod names {
    pub(crate) const VDD_SOURCE: &str = "VDD";
    pub(crate) const Q: &str = "q";
    pub(crate) const QB: &str = "qb";
    pub(crate) const MTJ_A: &str = "MTJA";
    pub(crate) const MTJ_B: &str = "MTJB";
}

impl StandardLatch {
    /// Creates a harness for the given configuration.
    #[must_use]
    pub fn new(config: LatchConfig) -> Self {
        Self {
            config,
            session: RefCell::new(None),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub(crate) fn config(&self) -> &LatchConfig {
        &self.config
    }

    /// Cumulative solver work performed by this latch's cached session
    /// (zero if nothing has been simulated yet).
    #[must_use]
    pub(crate) fn solver_stats(&self) -> spice::SolverStats {
        self.session
            .borrow()
            .as_ref()
            .map(spice::SimulationSession::stats)
            .unwrap_or_default()
    }

    /// Number of read-path transistors (excluding write drivers) — the
    /// paper counts 11 per bit, 22 for the two-cell baseline.
    #[must_use]
    pub(crate) fn read_path_transistors(&self) -> usize {
        let ckt = self.idle_circuit().expect("reference build is valid");
        ckt.devices()
            .iter()
            .filter(|d| d.is_transistor() && !d.name().starts_with('I'))
            .count()
    }

    /// Total transistor count including the write drivers.
    #[must_use]
    pub(crate) fn total_transistors(&self) -> usize {
        let ckt = self.idle_circuit().expect("reference build is valid");
        ckt.transistor_count()
    }

    /// Simulates the restore (read) phase with the MTJ pair preset to
    /// hold `stored`, returning the recovered bit, sense delay and
    /// consumed energy.
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] on solver failure,
    /// [`CellError::SenseFailure`] if the outputs do not resolve, and
    /// [`CellError::MeasurementFailure`] if no threshold crossing is
    /// found inside the evaluation window.
    pub fn simulate_restore(&self, stored: [bool; 1]) -> Result<RestoreOutcome<1>, CellError> {
        let (result, controls) = self.restore_traces(stored)?;
        let vdd = self.config.vdd();

        let q = result.node(names::Q)?;
        let qb = result.node(names::QB)?;
        let sample_at = controls.eval_end.seconds();
        let bit = resolve_bit(q.value_at(sample_at), qb.value_at(sample_at), vdd).ok_or(
            CellError::SenseFailure {
                bit: 0,
                q: q.value_at(sample_at),
                qb: qb.value_at(sample_at),
            },
        )?;

        // The losing output falls from the VDD pre-charge level.
        let loser = if bit { qb } else { q };
        let delay = sense_delay(
            loser,
            vdd,
            spice::measure::Edge::Falling,
            controls.eval_start,
            controls.eval_end,
            "standard latch sense delay",
        )?;
        Ok(RestoreOutcome {
            bits: [bit],
            sense_delays: [delay],
            read_delay: delay,
            sequence_duration: controls.eval_end - controls.eval_start,
            energy: result.total_source_energy(Time::ZERO, controls.total),
            supply_energy: result.supply_energy(names::VDD_SOURCE, Time::ZERO, controls.total)?,
            solver: result.solver_stats(),
        })
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
    ) -> Result<(spice::TransientResult, StandardRestoreControls), CellError> {
        let _span = telemetry::span("cells.standard.restore");
        let vdd = self.config.vdd();
        let controls = control::standard_restore(&self.config.timing, vdd);
        let options = self
            .config
            .transient_options(analysis::StartCondition::Zero);
        let result = self.with_session(
            &IdleControls::from_restore(&controls, vdd),
            stored,
            |session| {
                Ok(session.transient_with_options(
                    controls.total,
                    self.config.time_step,
                    options,
                )?)
            },
        )?;
        Ok((result, controls))
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
    ) -> Result<(Circuit, StandardRestoreControls), CellError> {
        let vdd = self.config.vdd();
        let controls = control::standard_restore(&self.config.timing, vdd);
        let ckt = self.build(&IdleControls::from_restore(&controls, vdd), stored)?;
        Ok((ckt, controls))
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
        let vdd = self.config.vdd();
        let controls = control::store(&self.config.timing, vdd);
        let ckt = self.build(&IdleControls::from_store(&controls, vdd, data[0]), initial)?;
        Ok((ckt, controls))
    }

    /// Builds the idle circuit used for the leakage operating point (see
    /// [`StandardLatch::restore_circuit`]).
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] if the circuit cannot be built.
    pub fn idle_circuit(&self) -> Result<Circuit, CellError> {
        self.build(&IdleControls::restore_idle(&self.config), [false])
    }

    /// Simulates the store (write) phase: the MTJ pair starts holding
    /// `initial` and the write drivers push `data`.
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] on solver failure and
    /// [`CellError::StoreFailure`] if the pair does not end up holding
    /// `data` complementarily.
    pub fn simulate_store(
        &self,
        data: [bool; 1],
        initial: [bool; 1],
    ) -> Result<StoreOutcome<1>, CellError> {
        let _span = telemetry::span("cells.standard.store");
        let vdd = self.config.vdd();
        let controls = control::store(&self.config.timing, vdd);
        // Write dynamics are nanosecond-scale; a coarser nominal step
        // suffices to seed the controller.
        let step = self.config.time_step * 5.0;
        let options = self
            .config
            .transient_options(analysis::StartCondition::OperatingPoint);
        let (result, a, b) = self.with_session(
            &IdleControls::from_store(&controls, vdd, data[0]),
            initial,
            |session| {
                let result = session.transient_with_options(controls.total, step, options)?;
                let a = session
                    .circuit()
                    .mtj_state(names::MTJ_A)
                    .expect("MTJA exists");
                let b = session
                    .circuit()
                    .mtj_state(names::MTJ_B)
                    .expect("MTJB exists");
                Ok((result, a, b))
            },
        )?;
        if a != MtjState::from_bit(data[0]) || b != a.toggled() {
            return Err(CellError::StoreFailure { bit: 0 });
        }
        let (energy, pulse_energy, latency) = crate::metrics::store_energies(&result, &controls);
        Ok(StoreOutcome {
            stored: [data[0]],
            energy,
            pulse_energy,
            latency,
            switch_count: result.mtj_events().len(),
            solver: result.solver_stats(),
        })
    }

    /// Static (leakage) power of the idle cell: the total DC power drawn
    /// from all rails with every control inactive.
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] if the operating point fails.
    pub fn leakage(&self) -> Result<units::Power, CellError> {
        let _span = telemetry::span("cells.standard.leakage");
        let idle = IdleControls::restore_idle(&self.config);
        let op = self.with_session(&idle, [false], |session| Ok(session.op()?))?;
        let vdd = self.config.vdd();
        // Sum v·(−i) over every source; controls at 0 V contribute 0.
        let mut watts = 0.0;
        for (name, level) in idle.levels(vdd) {
            if let Some(i) = op.branch_current(&name) {
                watts += level * -i;
            }
        }
        Ok(units::Power::from_watts(watts))
    }

    /// Runs `f` against the cached [`SimulationSession`], first aiming
    /// the circuit at the given stimulus and MTJ preset.
    ///
    /// The circuit topology never changes between runs — only source
    /// waveforms and MTJ states do — so the first call builds the
    /// circuit and every later call retargets the existing session in
    /// place, reusing its solver workspace.
    fn with_session<T>(
        &self,
        controls: &IdleControls,
        stored: [bool; 1],
        f: impl FnOnce(&mut SimulationSession) -> Result<T, CellError>,
    ) -> Result<T, CellError> {
        let mut slot = self.session.borrow_mut();
        let session = match slot.as_mut() {
            Some(session) => {
                telemetry::counter("cells.session_hit", 1);
                session
            }
            None => {
                telemetry::counter("cells.session_miss", 1);
                let ckt = self.build(controls, stored)?;
                slot.insert(SimulationSession::new(ckt).with_label("standard_latch"))
            }
        };
        let ckt = session.circuit_mut();
        for (name, wave) in controls.waves() {
            ckt.set_source_waveform(name, wave.clone())?;
        }
        // `set_mtj_state` discards any switching progress, so this fully
        // rewinds the previous run's writes.
        let state_a = MtjState::from_bit(stored[0]);
        ckt.set_mtj_state(names::MTJ_A, state_a)?;
        ckt.set_mtj_state(names::MTJ_B, state_a.toggled())?;
        f(session)
    }

    /// Builds the latch circuit with the given control stimulus and the
    /// MTJ pair preset to hold `stored`.
    ///
    /// Delegates to [`crate::generator::word_circuit`] at the family's
    /// `bits = 1` point, which reproduces the original hand-wired
    /// construction bit-for-bit (node, source and device order).
    fn build(&self, controls: &IdleControls, stored: [bool; 1]) -> Result<Circuit, CellError> {
        crate::generator::word_circuit(
            &crate::generator::WordParams::new(1),
            &self.config,
            &controls.stimulus(),
            &stored,
        )
    }
}

/// Complete stimulus set for one standard-latch simulation.
struct IdleControls {
    vdd_wave: SourceWaveform,
    pc_b: SourceWaveform,
    sen: SourceWaveform,
    sen_b: SourceWaveform,
    d: SourceWaveform,
    db: SourceWaveform,
    wen: SourceWaveform,
    wen_b: SourceWaveform,
}

impl IdleControls {
    /// Everything inactive: used for the leakage operating point.
    fn restore_idle(config: &LatchConfig) -> Self {
        Self::restore_idle_at(config.vdd())
    }

    fn from_restore(controls: &StandardRestoreControls, vdd: f64) -> Self {
        let mut idle = Self::restore_idle_at(vdd);
        idle.pc_b = controls.pc_b.clone();
        idle.sen = controls.sen.clone();
        idle.sen_b = controls.sen_b.clone();
        idle
    }

    fn from_store(controls: &StoreControls, vdd: f64, data: bool) -> Self {
        let mut idle = Self::restore_idle_at(vdd);
        idle.wen = controls.wen.clone();
        idle.wen_b = controls.wen_b.clone();
        idle.d = SourceWaveform::Dc(if data { vdd } else { 0.0 });
        idle.db = SourceWaveform::Dc(if data { 0.0 } else { vdd });
        idle
    }

    fn restore_idle_at(vdd: f64) -> Self {
        let hi = SourceWaveform::Dc(vdd);
        let lo = SourceWaveform::Dc(0.0);
        Self {
            vdd_wave: hi.clone(),
            pc_b: hi.clone(),
            sen: lo.clone(),
            sen_b: hi.clone(),
            d: lo.clone(),
            db: hi,
            wen: lo.clone(),
            wen_b: SourceWaveform::Dc(vdd),
        }
    }

    /// The stimulus as the generator's name-addressed form.
    fn stimulus(&self) -> crate::generator::WordStimulus {
        crate::generator::WordStimulus::from_pairs(
            self.waves()
                .into_iter()
                .map(|(name, wave)| (name.to_owned(), wave.clone())),
        )
    }

    /// `(source name, waveform)` pairs for retargeting an already-built
    /// circuit between session runs.
    fn waves(&self) -> [(&'static str, &SourceWaveform); 8] {
        [
            ("VDD", &self.vdd_wave),
            ("VPCB", &self.pc_b),
            ("VSEN", &self.sen),
            ("VSENB", &self.sen_b),
            ("VD", &self.d),
            ("VDB", &self.db),
            ("VWEN", &self.wen),
            ("VWENB", &self.wen_b),
        ]
    }

    /// `(source name, idle level)` pairs for leakage power accounting.
    fn levels(&self, vdd: f64) -> Vec<(String, f64)> {
        let level = |w: &SourceWaveform| w.value_at(0.0);
        vec![
            ("VDD".into(), vdd),
            ("VPCB".into(), level(&self.pc_b)),
            ("VSEN".into(), level(&self.sen)),
            ("VSENB".into(), level(&self.sen_b)),
            ("VD".into(), level(&self.d)),
            ("VDB".into(), level(&self.db)),
            ("VWEN".into(), level(&self.wen)),
            ("VWENB".into(), level(&self.wen_b)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Corner;

    fn latch() -> StandardLatch {
        StandardLatch::new(LatchConfig::default())
    }

    #[test]
    fn read_path_has_eleven_transistors() {
        assert_eq!(latch().read_path_transistors(), 11);
        // Two tristate drivers add 8 more.
        assert_eq!(latch().total_transistors(), 19);
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
        let stats = l.solver_stats();
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
