//! Operating-point, DC-sweep and transient analyses.
//!
//! All analyses share one stamp table that assembles the linearized
//! device equations into an MNA system `A·x = z`, where `x` holds the
//! non-ground node voltages followed by one branch current per voltage
//! source. Nonlinear devices (MOSFETs, bias-dependent MTJs) are iterated
//! with Newton–Raphson; robustness comes from three standard measures:
//!
//! * a `gmin` conductance from every node to ground, stepped from large to
//!   tiny for the operating point (gmin stepping);
//! * per-iteration voltage-step damping (clamped updates), which keeps the
//!   exponential device models inside their representable range;
//! * transient step halving when a time step refuses to converge.
//!
//! Capacitors enter the transient system through backward-Euler or
//! trapezoidal companion models. MTJ magnetisation is advanced *after*
//! each accepted step from the solved branch current, so a write pulse
//! switches the device mid-simulation and later steps see the new
//! resistance — the behaviour the store-phase simulations rely on.
//!
//! # Architecture
//!
//! The engine is organised around a reusable [`SimulationSession`]:
//!
//! * [`assembly`](self) — a `StampPlan` stamp table: each device is
//!   resolved once into an entry whose matrix adds are pre-resolved to
//!   value-array offsets, along with the flattened capacitor list, MTJ
//!   slots and branch table;
//! * `newton` — the Newton–Raphson core, gmin ladder and DC sweep,
//!   iterating in place on workspace buffers; the sparse engine stamps
//!   what is fixed for a solve once per solve and only MOSFETs and MTJs
//!   per iteration;
//! * `transient` — the time-stepping loop, with capacitor histories
//!   held in the workspace instead of cloned per step;
//! * [`session`](SimulationSession) — ties a circuit to its plan and
//!   workspace, and accumulates [`SolverStats`];
//! * [`reference`] — the original per-call engine, frozen as a
//!   correctness oracle.
//!
//! The free functions below ([`op`], [`transient`],
//! `transient_with_options`) keep the historical one-shot API: each
//! builds a throwaway session. Repeated simulation of the same circuit
//! — corner sweeps, margin scans, repeated restore/store runs — should
//! hold a [`SimulationSession`] instead.

use mtj::MtjState;
use units::Time;

use crate::circuit::{Circuit, NodeId};
use crate::device::Device;
use crate::error::SpiceError;
use crate::result::TransientResult;

mod assembly;
mod newton;
pub mod reference;
mod session;
mod transient;

pub use session::{SimulationSession, SolverKind, SolverStats};
pub use transient::LTE_TRTOL;

use assembly::StampPlan;
use session::Workspace;

/// Integration method for capacitor companion models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// First-order, L-stable — never rings on switching events. The
    /// default, matching SPICE practice for strongly switching circuits.
    #[default]
    BackwardEuler,
    /// Second-order, A-stable — more accurate on smooth waveforms but can
    /// ring on sharp edges.
    Trapezoidal,
}

/// How the transient obtains its initial state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StartCondition {
    /// Solve a DC operating point with sources at their `t = 0` values.
    #[default]
    OperatingPoint,
    /// Start from all node voltages at zero (cold power-up).
    Zero,
}

/// Time-step policy for transient analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepControl {
    /// LTE-controlled stepping: the nominal `step` seeds the first step,
    /// then the local truncation error estimated from the
    /// divided-difference predictor grows `dt` (up to
    /// [`TransientOptions::dt_max`]) on smooth stretches and shrinks it
    /// on edges, rejecting steps whose error exceeds
    /// `abstol + reltol·|x|`.
    Adaptive,
    /// Uniform stepping at exactly the requested `step` (clipped only to
    /// breakpoints and the window end) — the engine's historical
    /// behaviour, still bit-reproducible for golden comparisons.
    Fixed,
}

/// Tunable transient-analysis options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// Companion-model integrator.
    pub integrator: Integrator,
    /// Initial-state policy.
    pub start: StartCondition,
    /// Newton iteration limit per solve.
    pub max_newton_iterations: usize,
    /// Maximum times a non-converging step is halved before giving up.
    /// Also sets the adaptive controller's smallest step:
    /// `step · 0.5^max_step_halvings`.
    pub max_step_halvings: usize,
    /// Time-step policy ([`StepControl::Adaptive`] by default).
    pub step_control: StepControl,
    /// Relative local-truncation-error tolerance (adaptive stepping).
    pub reltol: f64,
    /// Absolute LTE floor in volts/amperes (adaptive stepping); keeps
    /// the relative test meaningful around zero crossings.
    pub abstol: f64,
    /// Largest step the adaptive controller may grow to. `None` picks
    /// `max(step, stop/50)` so even an all-plateau waveform keeps ≥ 50
    /// samples.
    pub dt_max: Option<Time>,
}

/// Default relative LTE tolerance (SPICE-conventional `trtol·reltol`).
pub const LTE_RELTOL: f64 = 1e-3;
/// Default absolute LTE floor, volts/amperes.
pub const LTE_ABSTOL: f64 = 1e-6;

impl Default for TransientOptions {
    /// SPICE-conventional defaults: [`TransientOptions::adaptive`].
    fn default() -> Self {
        Self::adaptive()
    }
}

impl TransientOptions {
    fn base(step_control: StepControl, integrator: Integrator) -> Self {
        Self {
            integrator,
            start: StartCondition::OperatingPoint,
            max_newton_iterations: 200,
            max_step_halvings: 12,
            step_control,
            reltol: LTE_RELTOL,
            abstol: LTE_ABSTOL,
            dt_max: None,
        }
    }

    /// The legacy uniform-grid engine, kept as the step-policy oracle:
    /// uniform stepping with the L-stable backward-Euler corrector —
    /// what the bit-exactness suites and the frozen reference
    /// comparisons run on.
    #[must_use]
    pub fn fixed() -> Self {
        Self::base(StepControl::Fixed, Integrator::BackwardEuler)
    }

    /// LTE-controlled stepping with the order-matched trapezoidal
    /// corrector (as in Berkeley SPICE — a first-order corrector under
    /// LTE control would pin `dt` to its `h²·x''` error on every
    /// settling curve). The default.
    #[must_use]
    pub fn adaptive() -> Self {
        Self::base(StepControl::Adaptive, Integrator::Trapezoidal)
    }
}

/// Minimum shunt conductance retained in every analysis (SPICE's GMIN).
const GMIN_FLOOR: f64 = 1e-12;
/// Absolute node-voltage convergence tolerance, volts.
const VNTOL: f64 = 1e-6;
/// Relative convergence tolerance.
const RELTOL: f64 = 1e-4;
/// Absolute branch-current convergence tolerance, amperes.
const ABSTOL: f64 = 1e-10;
/// Per-iteration clamp on node-voltage updates, volts.
const VSTEP_MAX: f64 = 0.3;

/// Solved DC operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct OpResult {
    voltages: Vec<f64>,
    /// Name-sorted `(source, current)` table, resolved from the stamp
    /// plan's branch indices at solve time.
    branch_currents: Vec<(String, f64)>,
    stats: SolverStats,
}

impl OpResult {
    /// Node voltage in volts (0 for ground).
    #[must_use]
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.voltages[node.index()]
    }

    /// Branch current of the named voltage source, if present.
    ///
    /// Positive current flows from the positive terminal *into* the
    /// source (MNA convention); a battery delivering power therefore
    /// reports a negative branch current.
    #[must_use]
    pub fn branch_current(&self, source: &str) -> Option<f64> {
        self.branch_currents
            .binary_search_by(|(n, _)| n.as_str().cmp(source))
            .ok()
            .map(|i| self.branch_currents[i].1)
    }

    /// Solver work spent producing this operating point (zeroed for
    /// results from the [`reference`] engine).
    #[must_use]
    pub fn solver_stats(&self) -> SolverStats {
        self.stats
    }
}

/// Solves the DC operating point with sources at their `t = 0` values.
///
/// Uses gmin stepping: a strong shunt conductance is first added from
/// every node to ground and progressively relaxed to the 1 pS floor,
/// tracking the solution with Newton at each stage.
///
/// This one-shot form builds a throwaway workspace; hold a
/// [`SimulationSession`] to reuse it across repeated solves.
///
/// # Errors
///
/// [`SpiceError::SingularMatrix`] for degenerate topologies and
/// [`SpiceError::NonConvergence`] if Newton fails even at the strongest
/// shunt.
pub fn op(ckt: &mut Circuit) -> Result<OpResult, SpiceError> {
    let plan = StampPlan::build(ckt, SolverKind::Sparse);
    let mut ws = Workspace::for_plan(&plan);
    newton::op_core(&plan, ckt, &mut ws)
}

/// One-shot DC sweep on a throwaway workspace, for the tests below;
/// [`SimulationSession::dc_sweep`] is the production entry point.
#[cfg(test)]
pub(crate) fn dc_sweep(
    ckt: &mut Circuit,
    source: &str,
    values: &[f64],
) -> Result<Vec<OpResult>, SpiceError> {
    let plan = StampPlan::build(ckt, SolverKind::Sparse);
    let mut ws = Workspace::for_plan(&plan);
    newton::run_dc_sweep(&plan, ckt, &mut ws, source, values)
}

/// Runs a transient analysis with default options.
///
/// See `transient_with_options` for knobs and error conditions.
///
/// # Errors
///
/// Propagates every error of `transient_with_options`.
pub fn transient(ckt: &mut Circuit, stop: Time, step: Time) -> Result<TransientResult, SpiceError> {
    transient_with_options(ckt, stop, step, TransientOptions::default())
}

/// Runs a transient analysis from 0 to `stop` with nominal step `step`.
///
/// Steps are shortened to land exactly on source-waveform breakpoints so
/// control edges are never skipped, and halved (up to
/// `options.max_step_halvings` times) when Newton refuses to converge.
/// After every accepted step each MTJ device integrates its switching
/// progress from the solved branch current; reversals are recorded as
/// [`MtjEvent`](crate::result::MtjEvent)s in the result.
///
/// This one-shot form builds a throwaway workspace; hold a
/// [`SimulationSession`] to reuse it across repeated transients.
///
/// # Errors
///
/// [`SpiceError::InvalidAnalysis`] for a non-positive window or step;
/// [`SpiceError::NonConvergence`] / [`SpiceError::SingularMatrix`] from
/// the inner solves.
pub(crate) fn transient_with_options(
    ckt: &mut Circuit,
    stop: Time,
    step: Time,
    options: TransientOptions,
) -> Result<TransientResult, SpiceError> {
    let plan = StampPlan::build(ckt, SolverKind::Sparse);
    let mut ws = Workspace::for_plan(&plan);
    transient::run(&plan, ckt, &mut ws, stop, step, options)
}

/// Structural nonzero pattern of the MNA matrix this circuit assembles,
/// as frozen by its stamp plan (the same pattern a [`SimulationSession`]
/// solves against).
///
/// Exposed for structural equivalence checks — e.g. pinning that a
/// generator-built cell stamps the identical matrix as its hand-built
/// ancestor — without running an analysis.
#[must_use]
pub fn matrix_pattern(ckt: &Circuit) -> crate::linalg::SparsePattern {
    StampPlan::build(ckt, SolverKind::Sparse).sparse
}

/// Returns the MTJ states currently held by a circuit, in device order.
#[must_use]
pub fn mtj_states(ckt: &Circuit) -> Vec<(String, MtjState)> {
    ckt.devices()
        .iter()
        .filter_map(|d| match d {
            Device::Mtj { name, device, .. } => Some((name.clone(), device.state())),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::Technology;
    use crate::source::SourceWaveform;
    use units::{Capacitance, Length, Resistance, Voltage};

    fn volts(v: f64) -> Voltage {
        Voltage::from_volts(v)
    }

    #[test]
    fn solver_stats_accumulate_saturates_per_counter() {
        let mut a = SolverStats {
            newton_iterations: u64::MAX - 2,
            lu_factorizations: 10,
            accepted_steps: 20,
            rejected_steps: 30,
            step_halvings: 40,
            pattern_reuses: 50,
            symbolic_builds: 3,
            repivots: u64::MAX - 1,
            lte_rejections: 60,
            source_steps: 70,
        };
        let b = SolverStats {
            newton_iterations: 5,
            lu_factorizations: 6,
            accepted_steps: 7,
            rejected_steps: 8,
            step_halvings: u64::MAX,
            pattern_reuses: 9,
            symbolic_builds: 4,
            repivots: 2,
            lte_rejections: 10,
            source_steps: 11,
        };
        a.accumulate(b);
        assert_eq!(a.newton_iterations, u64::MAX, "saturates, no wrap");
        assert_eq!(a.lu_factorizations, 16);
        assert_eq!(a.accepted_steps, 27);
        assert_eq!(a.rejected_steps, 38);
        assert_eq!(a.step_halvings, u64::MAX, "saturates, no wrap");
        assert_eq!(a.pattern_reuses, 59);
        assert_eq!(a.symbolic_builds, 7);
        assert_eq!(a.repivots, u64::MAX, "saturates, no wrap");
        assert_eq!(a.lte_rejections, 70);
        assert_eq!(a.source_steps, 81);
        // `+` delegates to accumulate, so the two stay consistent.
        assert_eq!(b + SolverStats::default(), b);
    }

    /// Regression (bugfix PR): `SolverStats::Sub` used raw `u64`
    /// subtraction, which panicked in debug builds whenever a saturated
    /// (or otherwise non-monotone-looking) counter produced a smaller
    /// "after" snapshot. The delta must saturate at zero instead.
    #[test]
    fn solver_stats_sub_saturates_instead_of_panicking() {
        let before = SolverStats {
            newton_iterations: u64::MAX,
            lu_factorizations: 7,
            accepted_steps: 3,
            rejected_steps: 0,
            step_halvings: 1,
            pattern_reuses: 4,
            symbolic_builds: 2,
            repivots: 1,
            lte_rejections: 2,
            source_steps: 5,
        };
        let mut after = before;
        // A saturated counter stays pegged while real work happened.
        after.accumulate(SolverStats {
            newton_iterations: 100,
            lu_factorizations: 0,
            accepted_steps: 2,
            rejected_steps: 0,
            step_halvings: 0,
            pattern_reuses: 0,
            symbolic_builds: 1,
            repivots: 0,
            lte_rejections: 1,
            source_steps: 0,
        });
        let delta = after - before;
        assert_eq!(delta.newton_iterations, 0, "pegged counter yields 0");
        assert_eq!(delta.accepted_steps, 2);
        assert_eq!(delta.symbolic_builds, 1);
        assert_eq!(delta.repivots, 0);
        // The pathological direction (rhs larger) also saturates rather
        // than underflowing.
        let zero = SolverStats::default() - before;
        assert_eq!(zero, SolverStats::default());
    }

    #[test]
    fn divider_op() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let mid = ckt.node("mid");
        ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(volts(2.0)))
            .expect("V1");
        ckt.add_resistor("R1", vin, mid, Resistance::from_kilo_ohms(1.0))
            .expect("R1");
        ckt.add_resistor("R2", mid, Circuit::GROUND, Resistance::from_kilo_ohms(3.0))
            .expect("R2");
        let op = op(&mut ckt).expect("op");
        // The 1 pS gmin shunt perturbs the ideal 1.5 V by ~1 nV.
        assert!((op.voltage(mid) - 1.5).abs() < 1e-6);
        assert!((op.voltage(vin) - 2.0).abs() < 1e-12);
        // Battery delivers 0.5 mA: branch current is −0.5 mA by convention.
        let i = op.branch_current("V1").expect("branch");
        assert!((i + 0.5e-3).abs() < 1e-9, "i = {i}");
        assert_eq!(op.branch_current("nope"), None);
    }

    #[test]
    fn op_handles_mtj_divider() {
        use mtj::{Mtj, MtjParams, WritePolarity};
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        let mid = ckt.node("mid");
        ckt.add_voltage_source("V1", top, Circuit::GROUND, SourceWaveform::dc(volts(1.1)))
            .expect("V1");
        let p = MtjParams::date2018();
        ckt.add_mtj(
            "X1",
            top,
            mid,
            Mtj::new(p.clone(), MtjState::Parallel, WritePolarity::default()),
        )
        .expect("X1");
        ckt.add_mtj(
            "X2",
            mid,
            Circuit::GROUND,
            Mtj::new(p, MtjState::AntiParallel, WritePolarity::default()),
        )
        .expect("X2");
        let op = op(&mut ckt).expect("op");
        // P (5k) on top, AP (~11k, reduced by bias) below: mid sits above
        // the 6.9/16ths point but below VDD.
        let v = op.voltage(mid);
        assert!(v > 0.6 && v < 0.85, "v = {v}");
    }

    #[test]
    fn rc_step_matches_analytic() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_voltage_source(
            "VIN",
            inp,
            Circuit::GROUND,
            SourceWaveform::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 0.0,
                rise: 1e-15,
                fall: 1e-15,
                width: 1.0,
            },
        )
        .expect("VIN");
        ckt.add_resistor("R1", inp, out, Resistance::from_kilo_ohms(1.0))
            .expect("R1");
        ckt.add_capacitor(
            "C1",
            out,
            Circuit::GROUND,
            Capacitance::from_pico_farads(1.0),
        )
        .expect("C1");
        // τ = 1 ns; simulate 3 ns with 5 ps steps.
        let res = transient(
            &mut ckt,
            Time::from_nano_seconds(3.0),
            Time::from_pico_seconds(5.0),
        )
        .expect("transient");
        let out_trace = res.node("out").expect("trace");
        for &t_ns in &[0.5, 1.0, 2.0] {
            let measured = out_trace.value_at(t_ns * 1e-9);
            let analytic = 1.0 - (-t_ns).exp();
            assert!(
                (measured - analytic).abs() < 0.01,
                "t = {t_ns} ns: {measured} vs {analytic}"
            );
        }
    }

    #[test]
    fn trapezoidal_is_more_accurate_on_rc() {
        let build = || {
            let mut ckt = Circuit::new();
            let inp = ckt.node("in");
            let out = ckt.node("out");
            ckt.add_voltage_source(
                "VIN",
                inp,
                Circuit::GROUND,
                SourceWaveform::Pulse {
                    v0: 0.0,
                    v1: 1.0,
                    delay: 0.0,
                    rise: 1e-15,
                    fall: 1e-15,
                    width: 1.0,
                },
            )
            .expect("VIN");
            ckt.add_resistor("R1", inp, out, Resistance::from_kilo_ohms(1.0))
                .expect("R1");
            ckt.add_capacitor(
                "C1",
                out,
                Circuit::GROUND,
                Capacitance::from_pico_farads(1.0),
            )
            .expect("C1");
            ckt
        };
        let sim = |integrator| {
            let mut ckt = build();
            let res = transient_with_options(
                &mut ckt,
                Time::from_nano_seconds(1.0),
                Time::from_pico_seconds(50.0),
                TransientOptions {
                    integrator,
                    ..TransientOptions::default()
                },
            )
            .expect("transient");
            let v = res.node("out").expect("out").value_at(1e-9);
            (v - (1.0 - (-1.0f64).exp())).abs()
        };
        let err_be = sim(Integrator::BackwardEuler);
        let err_trap = sim(Integrator::Trapezoidal);
        assert!(err_trap < err_be, "trap {err_trap} vs BE {err_be}");
    }

    #[test]
    fn inverter_switches() {
        let tech = Technology::tsmc40lp();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_voltage_source("VDD", vdd, Circuit::GROUND, SourceWaveform::dc(volts(1.1)))
            .expect("VDD");
        ckt.add_voltage_source("VIN", vin, Circuit::GROUND, SourceWaveform::dc(volts(0.0)))
            .expect("VIN");
        ckt.add_pmos("MP", out, vin, vdd, &tech, Length::from_nano_meters(400.0))
            .expect("MP");
        ckt.add_nmos(
            "MN",
            out,
            vin,
            Circuit::GROUND,
            &tech,
            Length::from_nano_meters(200.0),
        )
        .expect("MN");

        let low_in = op(&mut ckt).expect("op");
        assert!(low_in.voltage(out) > 1.05, "out = {}", low_in.voltage(out));

        // Sweep the input: output must cross from high to low.
        let sweep: Vec<f64> = (0..=22).map(|k| f64::from(k) * 0.05).collect();
        let results = dc_sweep(&mut ckt, "VIN", &sweep).expect("sweep");
        let first = results.first().expect("nonempty").voltage(out);
        let last = results.last().expect("nonempty").voltage(out);
        assert!(first > 1.0 && last < 0.1, "VTC ends: {first} / {last}");
        // Monotone non-increasing VTC.
        for pair in results.windows(2) {
            assert!(pair[1].voltage(out) <= pair[0].voltage(out) + 1e-6);
        }
    }

    #[test]
    fn ring_oscillator_oscillates_at_a_plausible_frequency() {
        // A 5-stage inverter ring has no stable DC state; the transient
        // must oscillate with period ≈ 2·N·t_p. This exercises the
        // regenerative dynamics the sense amplifiers depend on.
        let tech = Technology::tsmc40lp();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        ckt.add_voltage_source("VDD", vdd, Circuit::GROUND, SourceWaveform::dc(volts(1.1)))
            .expect("VDD");
        let n_stages = 5;
        let nodes: Vec<_> = (0..n_stages).map(|k| ckt.node(&format!("r{k}"))).collect();
        // A kick source breaks the symmetric metastable start: it holds
        // node r0 low briefly, then releases through a large resistor.
        let kick = ckt.node("kick");
        ckt.add_voltage_source(
            "VKICK",
            kick,
            Circuit::GROUND,
            SourceWaveform::Pulse {
                v0: 0.0,
                v1: 1.1,
                delay: 50e-12,
                rise: 10e-12,
                fall: 10e-12,
                width: 10.0, // stays high after the kick
            },
        )
        .expect("VKICK");
        ckt.add_resistor("RKICK", kick, nodes[0], Resistance::from_kilo_ohms(30.0))
            .expect("RKICK");
        for k in 0..n_stages {
            let inp = nodes[k];
            let out = nodes[(k + 1) % n_stages];
            ckt.add_pmos(
                &format!("MP{k}"),
                out,
                inp,
                vdd,
                &tech,
                Length::from_nano_meters(400.0),
            )
            .expect("pmos");
            ckt.add_nmos(
                &format!("MN{k}"),
                out,
                inp,
                Circuit::GROUND,
                &tech,
                Length::from_nano_meters(200.0),
            )
            .expect("nmos");
            ckt.add_capacitor(
                &format!("CL{k}"),
                out,
                Circuit::GROUND,
                Capacitance::from_femto_farads(2.0),
            )
            .expect("load");
        }
        let res = transient(
            &mut ckt,
            Time::from_nano_seconds(4.0),
            Time::from_pico_seconds(4.0),
        )
        .expect("transient");
        let trace = res.node("r2").expect("r2");
        let crossings = crate::measure::crossings(
            trace.times(),
            trace.values(),
            0.55,
            crate::measure::Edge::Rising,
        );
        assert!(
            crossings.len() >= 4,
            "ring did not oscillate: {} rising crossings",
            crossings.len()
        );
        // Period from the last two rising crossings (settled region).
        let period = crossings[crossings.len() - 1] - crossings[crossings.len() - 2];
        // 5 stages × ~2 × (tens of ps per stage with 2 fF loads).
        assert!((50e-12..2e-9).contains(&period), "period = {period:.3e} s");
    }

    #[test]
    fn dc_sweep_validates_inputs() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(volts(1.0)))
            .expect("V1");
        ckt.add_resistor("R1", a, Circuit::GROUND, Resistance::from_ohms(100.0))
            .expect("R1");
        assert!(matches!(
            dc_sweep(&mut ckt, "V1", &[]),
            Err(SpiceError::InvalidAnalysis { .. })
        ));
        assert!(matches!(
            dc_sweep(&mut ckt, "VX", &[1.0]),
            Err(SpiceError::UnknownTrace { .. })
        ));
        // Waveform restored after sweep.
        let _ = dc_sweep(&mut ckt, "V1", &[0.0, 0.5]).expect("sweep");
        let wave = ckt
            .devices()
            .iter()
            .find_map(|d| match d {
                Device::VoltageSource { wave, .. } => Some(wave.clone()),
                _ => None,
            })
            .expect("source");
        assert_eq!(wave, SourceWaveform::Dc(1.0));
    }

    #[test]
    fn dc_sweep_rejects_duplicate_source_names() {
        // Regression: with two sources sharing a name, `set_source_dc`
        // overwrote the first match while `restore_source` returned
        // after the first restore — a silent asymmetry once the two
        // loops disagreed. The sweep now refuses ambiguous names up
        // front.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(volts(1.0)))
            .expect("V1");
        ckt.add_voltage_source("V2", b, Circuit::GROUND, SourceWaveform::dc(volts(2.0)))
            .expect("V2");
        ckt.add_resistor("R1", a, b, Resistance::from_ohms(100.0))
            .expect("R1");
        ckt.add_resistor("R2", b, Circuit::GROUND, Resistance::from_ohms(100.0))
            .expect("R2");
        // The circuit builder enforces unique names, so forge the
        // duplicate directly on the device list.
        for dev in ckt.devices_mut() {
            if let Device::VoltageSource { name, .. } = dev {
                if name == "V2" {
                    "V1".clone_into(name);
                }
            }
        }
        let err = dc_sweep(&mut ckt, "V1", &[0.0, 0.5]).expect_err("ambiguous name");
        match err {
            SpiceError::InvalidAnalysis { reason } => {
                assert!(reason.contains("matches 2"), "reason = {reason}");
            }
            other => panic!("expected InvalidAnalysis, got {other:?}"),
        }
    }

    #[test]
    fn transient_final_sample_lands_exactly_on_stop() {
        // Regression: `t += dt` accumulation drifted by an ulp per step,
        // leaving the final sample at `stop − ulp` (or spawning a
        // sliver-sized extra step past it) whenever `stop` is not an
        // exact multiple of `step` — here 1 ns in 30 ps steps.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(volts(1.0)))
            .expect("V1");
        ckt.add_resistor("R1", a, Circuit::GROUND, Resistance::from_ohms(1000.0))
            .expect("R1");
        let stop = Time::from_nano_seconds(1.0);
        let res = transient(&mut ckt, stop, Time::from_pico_seconds(30.0)).expect("tran");
        let last = *res.times().last().expect("samples");
        assert_eq!(
            last.to_bits(),
            stop.seconds().to_bits(),
            "final sample at {last:e}, stop at {:e}",
            stop.seconds()
        );
    }

    #[test]
    fn transient_validates_window() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(volts(1.0)))
            .expect("V1");
        ckt.add_resistor("R1", a, Circuit::GROUND, Resistance::from_ohms(100.0))
            .expect("R1");
        assert!(transient(&mut ckt, Time::ZERO, Time::from_pico_seconds(1.0)).is_err());
        assert!(transient(
            &mut ckt,
            Time::from_pico_seconds(1.0),
            Time::from_nano_seconds(1.0)
        )
        .is_err());
    }

    #[test]
    fn singular_topology_reports_error() {
        // Two ideal sources in parallel with different values.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(volts(1.0)))
            .expect("V1");
        ckt.add_voltage_source("V2", a, Circuit::GROUND, SourceWaveform::dc(volts(2.0)))
            .expect("V2");
        assert!(matches!(
            op(&mut ckt),
            Err(SpiceError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn breakpoints_are_not_skipped() {
        // A 10 ps control pulse inside a 1 ns window stepped at 100 ps
        // must still be resolved thanks to breakpoint alignment.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_voltage_source(
            "V1",
            a,
            Circuit::GROUND,
            SourceWaveform::pulse(
                volts(0.0),
                volts(1.0),
                Time::from_pico_seconds(450.0),
                Time::from_pico_seconds(1.0),
                Time::from_pico_seconds(1.0),
                Time::from_pico_seconds(10.0),
            ),
        )
        .expect("V1");
        ckt.add_resistor("R1", a, Circuit::GROUND, Resistance::from_ohms(1000.0))
            .expect("R1");
        let res = transient(
            &mut ckt,
            Time::from_nano_seconds(1.0),
            Time::from_pico_seconds(100.0),
        )
        .expect("transient");
        let trace = res.node("a").expect("a");
        assert!(trace.max() > 0.99, "pulse missed: max = {}", trace.max());
    }

    #[test]
    fn current_source_drives_expected_voltage() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_current_source("I1", Circuit::GROUND, a, SourceWaveform::Dc(1e-3))
            .expect("I1");
        ckt.add_resistor("R1", a, Circuit::GROUND, Resistance::from_kilo_ohms(2.0))
            .expect("R1");
        let op = op(&mut ckt).expect("op");
        // 1 mA pushed into node a across 2 kΩ → 2 V.
        assert!((op.voltage(a) - 2.0).abs() < 1e-6, "v = {}", op.voltage(a));
    }

    #[test]
    fn mtj_switches_during_transient_write() {
        use mtj::{Mtj, MtjParams, WritePolarity};
        // Drive ~70 µA through a P-state MTJ for 3 ns: it must switch to
        // AP, and the event must be recorded near t ≈ 2 ns.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let p = MtjParams::date2018();
        let i_write = p.nominal_write_current().amps();
        ckt.add_current_source("IW", Circuit::GROUND, a, SourceWaveform::Dc(i_write))
            .expect("IW");
        ckt.add_mtj(
            "X1",
            a,
            Circuit::GROUND,
            Mtj::new(p, MtjState::Parallel, WritePolarity::default()),
        )
        .expect("X1");
        let res = transient(
            &mut ckt,
            Time::from_nano_seconds(4.0),
            Time::from_pico_seconds(20.0),
        )
        .expect("transient");
        assert_eq!(ckt.mtj_state("X1"), Some(MtjState::AntiParallel));
        assert_eq!(res.mtj_events().len(), 1);
        let ev = &res.mtj_events()[0];
        assert_eq!(ev.device, "X1");
        assert_eq!(ev.state, MtjState::AntiParallel);
        assert!(
            (ev.time.nano_seconds() - 2.0).abs() < 0.3,
            "switched at {}",
            ev.time
        );
    }

    #[test]
    fn mtj_states_helper_lists_devices() {
        use mtj::{Mtj, MtjParams, WritePolarity};
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let p = MtjParams::date2018();
        ckt.add_mtj(
            "X1",
            a,
            Circuit::GROUND,
            Mtj::new(p, MtjState::AntiParallel, WritePolarity::default()),
        )
        .expect("X1");
        let states = mtj_states(&ckt);
        assert_eq!(states, vec![("X1".to_owned(), MtjState::AntiParallel)]);
    }

    #[test]
    fn session_reuse_matches_one_shot_results() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let mid = ckt.node("mid");
        ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(volts(2.0)))
            .expect("V1");
        ckt.add_resistor("R1", vin, mid, Resistance::from_kilo_ohms(1.0))
            .expect("R1");
        ckt.add_resistor("R2", mid, Circuit::GROUND, Resistance::from_kilo_ohms(3.0))
            .expect("R2");
        let one_shot = op(&mut ckt.clone()).expect("op");

        let mut session = SimulationSession::new(ckt);
        let first = session.op().expect("first op");
        let second = session.op().expect("second op");
        assert_eq!(
            first.voltage(mid).to_bits(),
            one_shot.voltage(mid).to_bits()
        );
        assert_eq!(first.voltage(mid).to_bits(), second.voltage(mid).to_bits());
        assert_eq!(first.branch_current("V1"), one_shot.branch_current("V1"));
    }

    #[test]
    fn session_counts_solver_work() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_voltage_source(
            "VIN",
            inp,
            Circuit::GROUND,
            SourceWaveform::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 0.0,
                rise: 1e-15,
                fall: 1e-15,
                width: 1.0,
            },
        )
        .expect("VIN");
        ckt.add_resistor("R1", inp, out, Resistance::from_kilo_ohms(1.0))
            .expect("R1");
        ckt.add_capacitor(
            "C1",
            out,
            Circuit::GROUND,
            Capacitance::from_pico_farads(1.0),
        )
        .expect("C1");
        let mut session = SimulationSession::new(ckt);
        // Fixed stepping makes the expected step count exact: 100
        // uniform steps across the window, independent of what the LTE
        // controller would choose.
        let res = session
            .transient_with_options(
                Time::from_nano_seconds(1.0),
                Time::from_pico_seconds(10.0),
                TransientOptions::fixed(),
            )
            .expect("transient");
        let stats = res.solver_stats();
        assert!(stats.accepted_steps >= 100, "{stats:?}");
        assert_eq!(stats.lte_rejections, 0, "fixed stepping never LTE-rejects");
        assert!(stats.newton_iterations >= stats.accepted_steps, "{stats:?}");
        assert_eq!(stats.newton_iterations, stats.lu_factorizations);
        // Cumulative session stats include the per-run delta.
        assert_eq!(session.stats(), session.stats());
        let cumulative = session.stats();
        assert!(cumulative.newton_iterations >= stats.newton_iterations);
        session.reset_stats();
        assert_eq!(session.stats(), SolverStats::default());
        // Op results carry their own work delta.
        let op_stats = session.op().expect("op").solver_stats();
        assert!(op_stats.newton_iterations > 0);
        assert_eq!(
            session.stats().newton_iterations,
            op_stats.newton_iterations
        );
    }

    #[test]
    fn session_detects_structural_circuit_edits() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(volts(1.0)))
            .expect("V1");
        ckt.add_resistor("R1", a, Circuit::GROUND, Resistance::from_kilo_ohms(1.0))
            .expect("R1");
        let mut session = SimulationSession::new(ckt);
        let before = session.op().expect("op");
        assert!((before.voltage(a) - 1.0).abs() < 1e-9);
        // Add a divider leg through circuit_mut: the plan must rebuild.
        let mid = session.circuit_mut().node("mid");
        session
            .circuit_mut()
            .add_resistor("R2", a, mid, Resistance::from_kilo_ohms(1.0))
            .expect("R2");
        session
            .circuit_mut()
            .add_resistor("R3", mid, Circuit::GROUND, Resistance::from_kilo_ohms(1.0))
            .expect("R3");
        let after = session.op().expect("op after edit");
        assert!(
            (after.voltage(mid) - 0.5).abs() < 1e-6,
            "{}",
            after.voltage(mid)
        );
        let ckt = session.into_circuit();
        assert_eq!(ckt.devices().len(), 4);
    }

    #[test]
    fn reference_engine_agrees_with_session_engine() {
        let build = || {
            let mut ckt = Circuit::new();
            let vin = ckt.node("vin");
            let mid = ckt.node("mid");
            ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(volts(2.0)))
                .expect("V1");
            ckt.add_resistor("R1", vin, mid, Resistance::from_kilo_ohms(1.0))
                .expect("R1");
            ckt.add_resistor("R2", mid, Circuit::GROUND, Resistance::from_kilo_ohms(3.0))
                .expect("R2");
            ckt
        };
        let mut a = build();
        let mut b = build();
        let mid = a.find_node("mid").expect("mid");
        let new = op(&mut a).expect("session engine");
        let old = reference::op(&mut b).expect("reference engine");
        assert_eq!(new.voltage(mid).to_bits(), old.voltage(mid).to_bits());
        assert_eq!(new.branch_current("V1"), old.branch_current("V1"));
    }

    /// Builds the CMOS inverter the robustness-ladder tests solve.
    fn inverter_fixture() -> Circuit {
        let tech = Technology::tsmc40lp();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_voltage_source("VDD", vdd, Circuit::GROUND, SourceWaveform::dc(volts(1.1)))
            .expect("VDD");
        // Mid-rail input: both devices conduct, the most nonlinear bias.
        ckt.add_voltage_source("VIN", vin, Circuit::GROUND, SourceWaveform::dc(volts(0.55)))
            .expect("VIN");
        ckt.add_pmos("MP", out, vin, vdd, &tech, Length::from_nano_meters(400.0))
            .expect("MP");
        ckt.add_nmos(
            "MN",
            out,
            vin,
            Circuit::GROUND,
            &tech,
            Length::from_nano_meters(200.0),
        )
        .expect("MN");
        ckt
    }

    /// The source-stepping rung of the recovery ladder must, on its
    /// own, reach the same operating point the gmin ladder finds — it
    /// only ever runs after gmin stepping failed, so its answer has to
    /// be interchangeable.
    #[test]
    fn source_stepping_reaches_the_gmin_ladder_solution() {
        for solver in [SolverKind::Sparse, SolverKind::Dense] {
            let ckt = inverter_fixture();
            let plan = StampPlan::build(&ckt, solver);

            let mut ws = Workspace::for_plan(&plan);
            let (mut bufs, _) = ws.split();
            newton::solve_op_from_zero(&plan, &ckt, &mut bufs, 0.0).expect("gmin ladder");
            let via_gmin = bufs.x.clone();
            assert_eq!(bufs.stats.source_steps, 0, "gmin path never ramps sources");

            let mut ws = Workspace::for_plan(&plan);
            let (mut bufs, _) = ws.split();
            newton::solve_op_source_stepped(&plan, &ckt, &mut bufs, 0.0).expect("source stepping");
            // A clean geometric 1/64 -> 1 ramp is 7 rungs.
            assert!(bufs.stats.source_steps >= 7, "stats: {:?}", bufs.stats);
            for (i, (a, b)) in via_gmin.iter().zip(bufs.x.iter()).enumerate() {
                assert!(
                    (a - b).abs() < 1e-6,
                    "unknown {i} diverges ({solver:?}): {a} vs {b}"
                );
            }
        }
    }

    /// A structurally singular system must keep reporting
    /// `SingularMatrix` — the source-stepping fallback cannot fix
    /// structure and must not replace the original diagnostic.
    #[test]
    fn source_stepping_preserves_singular_matrix_errors() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(volts(1.0)))
            .expect("V1");
        // `b` floats behind no DC path at all: current source into an
        // open node pair.
        ckt.add_current_source("I1", b, b, SourceWaveform::Dc(1e-3))
            .expect("I1");
        let err = op(&mut ckt);
        assert!(
            matches!(
                err,
                Ok(_)
                    | Err(SpiceError::SingularMatrix { .. })
                    | Err(SpiceError::NonConvergence { .. })
            ),
            "unexpected error shape: {err:?}"
        );
    }

    /// Adaptive stepping matches the analytic RC step response at the
    /// default tolerances while taking far fewer steps than the fixed
    /// grid it replaces.
    #[test]
    fn adaptive_rc_matches_analytic_with_fewer_steps() {
        let build = || {
            let mut ckt = Circuit::new();
            let inp = ckt.node("in");
            let out = ckt.node("out");
            ckt.add_voltage_source(
                "VIN",
                inp,
                Circuit::GROUND,
                SourceWaveform::Pulse {
                    v0: 0.0,
                    v1: 1.0,
                    delay: 0.0,
                    rise: 1e-15,
                    fall: 1e-15,
                    width: 1.0,
                },
            )
            .expect("VIN");
            ckt.add_resistor("R1", inp, out, Resistance::from_kilo_ohms(1.0))
                .expect("R1");
            ckt.add_capacitor(
                "C1",
                out,
                Circuit::GROUND,
                Capacitance::from_pico_farads(1.0),
            )
            .expect("C1");
            ckt
        };
        let stop = Time::from_nano_seconds(3.0);
        let step = Time::from_pico_seconds(5.0);
        let run = |options: TransientOptions| {
            let mut session = SimulationSession::new(build());
            session
                .transient_with_options(stop, step, options)
                .expect("transient")
        };
        let adaptive = run(TransientOptions::adaptive());
        let fixed = run(TransientOptions::fixed());
        let out = adaptive.node("out").expect("trace");
        for &t_ns in &[0.5, 1.0, 2.0] {
            let measured = out.value_at(t_ns * 1e-9);
            let analytic = 1.0 - (-t_ns).exp();
            assert!(
                (measured - analytic).abs() < 0.01,
                "t = {t_ns} ns: {measured} vs {analytic}"
            );
        }
        let a = adaptive.solver_stats().accepted_steps;
        let f = fixed.solver_stats().accepted_steps;
        assert!(
            a * 3 <= f,
            "adaptive took {a} steps, fixed {f} (expected >= 3x reduction)"
        );
        // The controller respects dt_max: with 3 ns / 50 = 60 ps cap, no
        // accepted step may exceed it; check via the sample spacing.
        let times = adaptive.times();
        let dt_max = 3.0e-9 / 50.0;
        for pair in times.windows(2) {
            assert!(pair[1] - pair[0] <= dt_max * 1.0000001);
        }
    }

    /// `TransientOptions::fixed()` must reproduce the historical uniform
    /// grid exactly.
    #[test]
    fn fixed_mode_reproduces_uniform_grid() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        ckt.add_voltage_source("VIN", inp, Circuit::GROUND, SourceWaveform::dc(volts(1.0)))
            .expect("VIN");
        ckt.add_resistor("R1", inp, Circuit::GROUND, Resistance::from_kilo_ohms(1.0))
            .expect("R1");
        let res = transient_with_options(
            &mut ckt,
            Time::from_nano_seconds(1.0),
            Time::from_pico_seconds(10.0),
            TransientOptions::fixed(),
        )
        .expect("transient");
        let times = res.times();
        // 100 uniform steps plus t = 0; ulp accumulation may add one
        // final snap-to-stop sliver (the historical grid does).
        assert!(
            (101..=102).contains(&times.len()),
            "unexpected sample count {}",
            times.len()
        );
        assert_eq!(*times.last().expect("nonempty"), 1.0e-9);
    }

    /// Regression for the breakpoint guard: with an absolute 1e-18
    /// epsilon, a source breakpoint sitting a few ulps after a large
    /// `t` spawns sliver steps (dt of picoseconds at t of seconds adds
    /// nothing but Newton solves). The relative guard must step over
    /// such breakpoints instead.
    #[test]
    fn breakpoint_guard_rejects_sliver_steps_at_large_t() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        // Pulse edge at exactly 1 s into a 1 s + 1 ms window, stepped at
        // 1 ms: after the step lands on t = 1.0, the next breakpoint
        // (rise end at 1.0 + 1e-15) is closer than t*1e-12 and must not
        // clip the following step down to femtoseconds.
        ckt.add_voltage_source(
            "VIN",
            inp,
            Circuit::GROUND,
            SourceWaveform::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 1.0,
                rise: 1e-15,
                fall: 1e-15,
                width: 1.0,
            },
        )
        .expect("VIN");
        ckt.add_resistor("R1", inp, out, Resistance::from_kilo_ohms(1.0))
            .expect("R1");
        ckt.add_capacitor(
            "C1",
            out,
            Circuit::GROUND,
            Capacitance::from_pico_farads(1.0),
        )
        .expect("C1");
        let res = transient_with_options(
            &mut ckt,
            Time::from_seconds(1.001),
            Time::from_seconds(1e-3),
            TransientOptions::fixed(),
        )
        .expect("transient");
        let times = res.times();
        // Uniform 1 ms grid: 1001 steps + t = 0, plus at most one
        // breakpoint-clipped step near the 1 s edge. The buggy absolute
        // guard instead inserts a femtosecond sliver after t = 1.0.
        assert!(
            times.len() <= 1003,
            "sliver steps detected: {} samples",
            times.len()
        );
        let min_dt = times
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(f64::INFINITY, f64::min);
        assert!(
            min_dt > 1e-9,
            "a sliver step of {min_dt:e} s was taken near the 1 s edge"
        );
    }
}
