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

use std::cell::RefCell;

use mtj::MtjState;
use spice::{Circuit, SimulationSession, SourceWaveform};
use units::Time;

use crate::config::LatchConfig;
use crate::control::{self, ProposedRestoreControls, StoreControls};
use crate::error::CellError;
use crate::metrics::{resolve_bit, sense_delay, RestoreOutcome, StoreOutcome};

/// Which restore control scheme drives the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControlScheme {
    /// Fig. 6(b): independent PC_VDD / PC_GND / SEL signals.
    Explicit,
    /// Fig. 7: single PC plus R_en derive every internal control.
    #[default]
    Optimized,
}

/// The proposed 2-bit NV shadow latch characterization harness.
///
/// Bit 0 lives in the lower MTJ pair (read first), bit 1 in the upper
/// pair (read second), matching the paper's Fig. 6(b) ordering.
///
/// The circuit is built once and bound to a cached
/// [`SimulationSession`]; successive simulations retarget the source
/// waveforms and MTJ presets in place, reusing the session's solver
/// workspace. The cache is per-instance, so corner sweeps stay
/// trivially parallel with one latch per thread.
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
#[derive(Debug)]
pub struct ProposedLatch {
    config: LatchConfig,
    scheme: ControlScheme,
    session: RefCell<Option<SimulationSession>>,
}

impl Clone for ProposedLatch {
    /// Clones the configuration and scheme; the solver-session cache
    /// starts empty in the clone (rebuilt lazily on first simulation).
    fn clone(&self) -> Self {
        Self::with_scheme(self.config.clone(), self.scheme)
    }
}

mod names {
    pub(crate) const Q: &str = "mtj_read";
    pub(crate) const QB: &str = "mtj_read_b";
    pub(crate) const MTJ1: &str = "MTJ1";
    pub(crate) const MTJ2: &str = "MTJ2";
    pub(crate) const MTJ3: &str = "MTJ3";
    pub(crate) const MTJ4: &str = "MTJ4";
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
            config,
            scheme,
            session: RefCell::new(None),
        }
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

    /// Runs `f` against the cached [`SimulationSession`], first aiming
    /// the circuit at the given stimulus and MTJ presets. The topology
    /// never changes between runs, so after the first build every call
    /// retargets the existing session in place.
    fn with_session<T>(
        &self,
        stim: &Stimulus,
        stored: [bool; 2],
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
                let ckt = self.build(stim, stored)?;
                slot.insert(SimulationSession::new(ckt).with_label("proposed_2bit"))
            }
        };
        let ckt = session.circuit_mut();
        for (name, wave) in &stim.entries {
            ckt.set_source_waveform(name, wave.clone())?;
        }
        // `set_mtj_state` discards switching progress, fully rewinding
        // the previous run's writes. Mappings mirror `build`.
        let state1 = MtjState::from_bit(stored[1]);
        ckt.set_mtj_state(names::MTJ1, state1.toggled())?;
        ckt.set_mtj_state(names::MTJ2, state1)?;
        let state0 = MtjState::from_bit(stored[0]);
        ckt.set_mtj_state(names::MTJ3, state0)?;
        ckt.set_mtj_state(names::MTJ4, state0.toggled())?;
        f(session)
    }

    /// The configuration in use.
    #[must_use]
    pub(crate) fn config(&self) -> &LatchConfig {
        &self.config
    }

    /// The control scheme in use.
    #[must_use]
    pub fn scheme(&self) -> ControlScheme {
        self.scheme
    }

    /// Number of read-path transistors (excluding write drivers) — the
    /// paper counts 16 for two bits.
    #[must_use]
    pub(crate) fn read_path_transistors(&self) -> usize {
        let ckt = self
            .build(&Stimulus::idle(&self.config), [false, false])
            .expect("reference build is valid");
        ckt.devices()
            .iter()
            .filter(|d| d.is_transistor() && !d.name().starts_with('I'))
            .count()
    }

    /// Total transistor count including the four write drivers.
    #[must_use]
    pub(crate) fn total_transistors(&self) -> usize {
        let ckt = self
            .build(&Stimulus::idle(&self.config), [false, false])
            .expect("reference build is valid");
        ckt.transistor_count()
    }

    /// The restore control sequence for the configured scheme.
    #[must_use]
    pub(crate) fn restore_controls(&self) -> ProposedRestoreControls {
        match self.scheme {
            ControlScheme::Explicit => {
                control::proposed_restore(&self.config.timing, self.config.vdd())
            }
            ControlScheme::Optimized => {
                control::proposed_restore_optimized(&self.config.timing, self.config.vdd())
            }
        }
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
        let vdd = self.config.vdd();
        let controls = self.restore_controls();
        let ckt = self.build(&Stimulus::restore(&controls, vdd), stored)?;
        Ok((ckt, controls))
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
        let vdd = self.config.vdd();
        let controls = control::store(&self.config.timing, vdd);
        let ckt = self.build(&Stimulus::store(&controls, vdd, data), initial)?;
        Ok((ckt, controls))
    }

    /// Builds the idle circuit used for the leakage operating point (see
    /// [`ProposedLatch::restore_circuit`]).
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] if the circuit cannot be built.
    pub fn idle_circuit(&self) -> Result<Circuit, CellError> {
        self.build(&Stimulus::idle(&self.config), [false, false])
    }

    /// Simulates the sequential two-bit restore with the MTJ pairs preset
    /// to hold `stored = [bit0, bit1]`.
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] on solver failure,
    /// [`CellError::SenseFailure`] if either evaluation does not resolve,
    /// and [`CellError::MeasurementFailure`] if a sense crossing cannot
    /// be measured.
    pub fn simulate_restore(&self, stored: [bool; 2]) -> Result<RestoreOutcome<2>, CellError> {
        let (result, controls) = self.restore_traces(stored)?;
        let vdd = self.config.vdd();

        let q = result.node(names::Q)?;
        let qb = result.node(names::QB)?;

        // Bit 0: sampled at the end of the lower-pair evaluation.
        let s0 = controls.eval0_end.seconds();
        let bit0 =
            resolve_bit(q.value_at(s0), qb.value_at(s0), vdd).ok_or(CellError::SenseFailure {
                bit: 0,
                q: q.value_at(s0),
                qb: qb.value_at(s0),
            })?;
        // Bit 1: sampled at the end of the upper-pair evaluation.
        let s1 = controls.eval1_end.seconds();
        let bit1 =
            resolve_bit(q.value_at(s1), qb.value_at(s1), vdd).ok_or(CellError::SenseFailure {
                bit: 1,
                q: q.value_at(s1),
                qb: qb.value_at(s1),
            })?;

        // Lower read evaluates downward from VDD (loser falls); upper
        // read evaluates upward from GND (winner rises).
        let loser0 = if bit0 { qb } else { q };
        let delay0 = sense_delay(
            loser0,
            vdd,
            spice::measure::Edge::Falling,
            controls.eval0_start,
            controls.eval0_end,
            "proposed latch lower-pair sense delay",
        )?;
        let winner1 = if bit1 { q } else { qb };
        let delay1 = sense_delay(
            winner1,
            vdd,
            spice::measure::Edge::Rising,
            controls.eval1_start,
            controls.eval1_end,
            "proposed latch upper-pair sense delay",
        )?;

        Ok(RestoreOutcome {
            bits: [bit0, bit1],
            sense_delays: [delay0, delay1],
            read_delay: delay0 + delay1,
            sequence_duration: controls.eval1_end - controls.eval0_start,
            energy: result.total_source_energy(Time::ZERO, controls.total),
            supply_energy: result.supply_energy("VDD", Time::ZERO, controls.total)?,
            solver: result.solver_stats(),
        })
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
    ) -> Result<(spice::TransientResult, ProposedRestoreControls), CellError> {
        let _span = telemetry::span("cells.proposed.restore");
        let vdd = self.config.vdd();
        let controls = self.restore_controls();
        // Restore happens at wake-up from a power-gated state: every
        // internal node starts at 0 V (cold start), not at a powered
        // operating point.
        let options = self
            .config
            .transient_options(spice::analysis::StartCondition::Zero);
        let result = self.with_session(&Stimulus::restore(&controls, vdd), stored, |session| {
            Ok(session.transient_with_options(controls.total, self.config.time_step, options)?)
        })?;
        Ok((result, controls))
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
    ) -> Result<(spice::TransientResult, StoreControls), CellError> {
        let _span = telemetry::span("cells.proposed.store");
        let vdd = self.config.vdd();
        let controls = control::store(&self.config.timing, vdd);
        let step = self.config.time_step * 5.0;
        let options = self
            .config
            .transient_options(spice::analysis::StartCondition::OperatingPoint);
        let result =
            self.with_session(&Stimulus::store(&controls, vdd, data), initial, |session| {
                Ok(session.transient_with_options(controls.total, step, options)?)
            })?;
        Ok((result, controls))
    }

    /// Simulates the parallel two-bit store: both pairs' write drivers
    /// push `data = [bit0, bit1]` simultaneously (the paper's store phase
    /// writes the two pairs over independent paths in parallel).
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] on solver failure and
    /// [`CellError::StoreFailure`] if either pair ends up inconsistent.
    pub fn simulate_store(
        &self,
        data: [bool; 2],
        initial: [bool; 2],
    ) -> Result<StoreOutcome<2>, CellError> {
        let _span = telemetry::span("cells.proposed.store");
        let vdd = self.config.vdd();
        let controls = control::store(&self.config.timing, vdd);
        let step = self.config.time_step * 5.0;
        let options = self
            .config
            .transient_options(spice::analysis::StartCondition::OperatingPoint);
        let (result, end_states) =
            self.with_session(&Stimulus::store(&controls, vdd, data), initial, |session| {
                let result = session.transient_with_options(controls.total, step, options)?;
                let state = |name| session.circuit().mtj_state(name).expect("MTJ exists");
                let end_states = [
                    (state(names::MTJ3), state(names::MTJ4)),
                    (state(names::MTJ2), state(names::MTJ1)),
                ];
                Ok((result, end_states))
            })?;

        // Bit 0's primary device is MTJ3 (= from_bit(bit0)); bit 1's is
        // MTJ2 — MTJ1 intentionally holds the complement so that the
        // upper-pair read resolves `q` to the true bit value.
        for (bit, (p, c)) in end_states.into_iter().enumerate() {
            if p != MtjState::from_bit(data[bit]) || c != p.toggled() {
                return Err(CellError::StoreFailure { bit });
            }
        }
        let (energy, pulse_energy, latency) = crate::metrics::store_energies(&result, &controls);
        Ok(StoreOutcome {
            stored: data,
            energy,
            pulse_energy,
            latency,
            switch_count: result.mtj_events().len(),
            solver: result.solver_stats(),
        })
    }

    /// Static (leakage) power of the idle 2-bit cell.
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] if the operating point fails.
    pub fn leakage(&self) -> Result<units::Power, CellError> {
        let _span = telemetry::span("cells.proposed.leakage");
        let stim = Stimulus::idle(&self.config);
        let op = self.with_session(&stim, [false, false], |session| Ok(session.op()?))?;
        let mut watts = 0.0;
        for (name, level) in stim.levels() {
            if let Some(i) = op.branch_current(&name) {
                watts += level * -i;
            }
        }
        Ok(units::Power::from_watts(watts))
    }

    /// Builds the 2-bit latch circuit with the given stimulus and the MTJ
    /// pairs preset to `stored = [bit0 (lower pair), bit1 (upper pair)]`.
    ///
    /// Delegates to [`crate::generator::word_circuit`] at the family's
    /// `bits = 2` point, which reproduces the original hand-wired
    /// construction bit-for-bit (node, source and device order).
    fn build(&self, stim: &Stimulus, stored: [bool; 2]) -> Result<Circuit, CellError> {
        crate::generator::word_circuit(
            &crate::generator::WordParams::new(2),
            &self.config,
            &stim.word_stimulus(),
            &stored,
        )
    }
}

/// Complete stimulus set for one proposed-latch simulation, addressed by
/// source name.
#[derive(Debug, Clone)]
struct Stimulus {
    entries: Vec<(&'static str, SourceWaveform)>,
}

impl Stimulus {
    fn idle(config: &LatchConfig) -> Self {
        Self::idle_at(config.vdd())
    }

    fn idle_at(vdd: f64) -> Self {
        let hi = SourceWaveform::Dc(vdd);
        let lo = SourceWaveform::Dc(0.0);
        Self {
            entries: vec![
                ("VDD", hi.clone()),
                ("VPCVB", hi.clone()),
                ("VPCG", lo.clone()),
                ("VREN", lo.clone()),
                ("VRENB", hi.clone()),
                ("VSELB", hi.clone()),
                ("VP4B", hi.clone()),
                ("VN4", lo.clone()),
                ("VD0", lo.clone()),
                ("VD0B", hi.clone()),
                ("VD1", lo.clone()),
                ("VD1B", hi),
                ("VWEN", lo.clone()),
                ("VWENB", SourceWaveform::Dc(vdd)),
            ],
        }
    }

    fn restore(controls: &ProposedRestoreControls, vdd: f64) -> Self {
        let mut s = Self::idle_at(vdd);
        s.set("VPCVB", controls.pcv_b.clone());
        s.set("VPCG", controls.pcg.clone());
        s.set("VREN", controls.ren.clone());
        s.set("VRENB", controls.ren_b.clone());
        s.set("VSELB", controls.sel_b.clone());
        s.set("VP4B", controls.p4_b.clone());
        s.set("VN4", controls.n4.clone());
        s
    }

    fn store(controls: &StoreControls, vdd: f64, data: [bool; 2]) -> Self {
        let level = |b: bool| SourceWaveform::Dc(if b { vdd } else { 0.0 });
        let mut s = Self::idle_at(vdd);
        s.set("VWEN", controls.wen.clone());
        s.set("VWENB", controls.wen_b.clone());
        s.set("VPCG", controls.pcg.clone());
        s.set("VD0", level(data[0]));
        s.set("VD0B", level(!data[0]));
        s.set("VD1", level(data[1]));
        s.set("VD1B", level(!data[1]));
        s
    }

    fn set(&mut self, name: &str, wave: SourceWaveform) {
        let slot = self
            .entries
            .iter_mut()
            .find(|(n, _)| *n == name)
            .expect("stimulus names are fixed");
        slot.1 = wave;
    }

    /// The stimulus as the generator's name-addressed form.
    fn word_stimulus(&self) -> crate::generator::WordStimulus {
        crate::generator::WordStimulus::from_pairs(
            self.entries
                .iter()
                .map(|(name, wave)| ((*name).to_owned(), wave.clone())),
        )
    }

    /// `(source name, idle level)` pairs for leakage accounting.
    fn levels(&self) -> Vec<(String, f64)> {
        self.entries
            .iter()
            .map(|(n, w)| ((*n).to_owned(), w.value_at(0.0)))
            .collect()
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
        assert_eq!(latch().read_path_transistors(), 16);
        // Four tristate drivers add 16 more.
        assert_eq!(latch().total_transistors(), 32);
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
        assert!(l.solver_stats().accepted_steps > 0);
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
