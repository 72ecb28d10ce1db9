//! The production engine (sparse LU, adaptive steps) against its two
//! oracles on the paper's latch workloads at the SS, TT and FF corners,
//! plus the hostile patterns both LU engines must refuse.
//!
//! **LU oracle.** The sparse engine factors in a fill-reducing pivot
//! order (structural Markowitz columns, threshold-pivoted rows), the
//! dense engine in partial-pivoting order, so the two agree to roundoff
//! rather than bit for bit. Roundoff must not reach the step controller:
//! the same latch transient under either engine takes the same accepted
//! and rejected steps, on time axes equal to 1e-9 relative, with every
//! node within 1e-9 V. The idle-circuit leakage operating point takes
//! the same Newton iterations with every node within 1e-9 V.
//!
//! **Step-policy oracle.** The uniform backward-Euler grid
//! ([`TransientOptions::fixed`]) against the adaptive default at Table II
//! level: read energy, read delay, write energy to completion and write
//! latency, computed from the public circuit builders and measurement
//! primitives exactly as `cells::metrics::characterize_*_with` compute
//! them (the adaptive rows equal the production characterization number
//! for number). Both policies resolve the same bits and the same MTJ
//! reversals.
//! Waveform-derived numbers (threshold crossings, energy integrals,
//! latencies quantized by the sample grid) legitimately move by a few
//! percent between discretizations, so the metrics agree within 5 %
//! relative.

use cells::control::{ProposedRestoreControls, StoreControls, WordRestoreControls};
use cells::metrics::{characterize_proposed, characterize_standard_pair, resolve_bit, sense_delay};
use cells::{CellError, CellMetrics, Corner, LatchConfig, ProposedLatch, StandardLatch};
use spice::analysis::{matrix_pattern, StartCondition};
use spice::measure::Edge;
use spice::{
    Circuit, Device, SimulationSession, SolverKind, SourceWaveform, SpiceError, TransientOptions,
    TransientResult,
};
use units::{Energy, Resistance, Time, Voltage};

/// Time-axis agreement budget, relative.
const TIME_REL_TOL: f64 = 1e-9;
/// Node-voltage agreement budget, volts.
const VOLT_TOL: f64 = 1e-9;
/// Leakage-power agreement budget between LU engines, relative.
const LEAKAGE_REL_TOL: f64 = 1e-6;
/// Table II agreement budget between step policies, relative.
const POLICY_REL_TOL: f64 = 0.05;

/// The diagonal corners behind Table II's worst / typical / best columns.
fn corners() -> [Corner; 3] {
    [Corner::slow(), Corner::typical(), Corner::fast()]
}

/// Every stored pattern of the proposed 2-bit cell.
const PATTERNS: [[bool; 2]; 4] = [[false, false], [false, true], [true, false], [true, true]];

/// One latch transient: the circuit, its stop time and nominal step, and
/// the options the cell harness runs it with.
struct Workload {
    name: String,
    ckt: Circuit,
    stop: Time,
    step: Time,
    options: TransientOptions,
}

fn proposed_restore(corner: Corner, stored: [bool; 2]) -> (Workload, ProposedRestoreControls) {
    let config = LatchConfig::default().at_corner(corner);
    let latch = ProposedLatch::new(config.clone());
    let (ckt, controls) = latch.restore_circuit(stored).expect("restore circuit");
    let w = Workload {
        name: format!("proposed restore {stored:?} at {corner}"),
        ckt,
        stop: controls.total,
        step: config.time_step,
        options: config.transient_options(StartCondition::Zero),
    };
    (w, controls)
}

fn proposed_store(corner: Corner) -> (Workload, StoreControls) {
    let config = LatchConfig::default().at_corner(corner);
    let latch = ProposedLatch::new(config.clone());
    let (ckt, controls) = latch
        .store_circuit([true, false], [false, true])
        .expect("store circuit");
    let w = Workload {
        name: format!("proposed store at {corner}"),
        ckt,
        stop: controls.total,
        step: config.time_step * 5.0,
        options: config.transient_options(StartCondition::OperatingPoint),
    };
    (w, controls)
}

fn standard_restore(corner: Corner, stored: bool) -> (Workload, WordRestoreControls) {
    let config = LatchConfig::default().at_corner(corner);
    let latch = StandardLatch::new(config.clone());
    let (ckt, controls) = latch.restore_circuit([stored]).expect("restore circuit");
    let w = Workload {
        name: format!("standard restore [{stored}] at {corner}"),
        ckt,
        stop: controls.total,
        step: config.time_step,
        options: config.transient_options(StartCondition::Zero),
    };
    (w, controls)
}

fn standard_store(corner: Corner) -> (Workload, StoreControls) {
    let config = LatchConfig::default().at_corner(corner);
    let latch = StandardLatch::new(config.clone());
    let (ckt, controls) = latch.store_circuit([true], [false]).expect("store circuit");
    let w = Workload {
        name: format!("standard store at {corner}"),
        ckt,
        stop: controls.total,
        step: config.time_step * 5.0,
        options: config.transient_options(StartCondition::OperatingPoint),
    };
    (w, controls)
}

fn run(w: &Workload, solver: SolverKind) -> (TransientResult, SimulationSession) {
    let mut session = SimulationSession::with_solver(w.ckt.clone(), solver);
    let result = session
        .transient_with_options(w.stop, w.step, w.options)
        .unwrap_or_else(|e| panic!("{} under {solver:?}: {e}", w.name));
    (result, session)
}

fn assert_engines_agree(w: &Workload) -> SimulationSession {
    let (dense, _) = run(w, SolverKind::Dense);
    let (sparse, session) = run(w, SolverKind::Sparse);
    let name = &w.name;
    assert_eq!(
        dense.sample_count(),
        sparse.sample_count(),
        "{name}: sample counts differ"
    );
    let (ds, ss) = (dense.solver_stats(), sparse.solver_stats());
    assert_eq!(
        ds.accepted_steps, ss.accepted_steps,
        "{name}: accepted steps"
    );
    assert_eq!(
        ds.rejected_steps, ss.rejected_steps,
        "{name}: rejected steps"
    );
    // One pivot-order freeze per analysis; every other factorization
    // reuses it or re-pivots. The dense engine has no order to freeze.
    assert_eq!(ss.symbolic_builds, 1, "{name}: symbolic builds");
    assert_eq!(
        ss.pattern_reuses + ss.symbolic_builds + ss.repivots,
        ss.lu_factorizations,
        "{name}: every sparse factorization is accounted for"
    );
    assert_eq!((ds.symbolic_builds, ds.repivots), (0, 0), "{name}: dense");
    for (i, (td, ts)) in dense.times().iter().zip(sparse.times()).enumerate() {
        assert!(
            (td - ts).abs() <= TIME_REL_TOL * td.abs(),
            "{name}: time axis diverges at sample {i}: {td:e} vs {ts:e}"
        );
    }
    for node in dense.node_names() {
        let vd = dense.node(node).expect("node in dense");
        let vs = sparse.node(node).expect("node in sparse");
        for (i, (a, b)) in vd.values().iter().zip(vs.values()).enumerate() {
            assert!(
                (a - b).abs() <= VOLT_TOL,
                "{name}: node {node} sample {i}: dense {a:e} vs sparse {b:e}"
            );
        }
    }
    session
}

#[test]
fn proposed_restore_matches_dense_oracle_for_every_stored_pattern() {
    for corner in corners() {
        for stored in PATTERNS {
            assert_engines_agree(&proposed_restore(corner, stored).0);
        }
    }
}

#[test]
fn proposed_store_matches_dense_oracle() {
    for corner in corners() {
        assert_engines_agree(&proposed_store(corner).0);
    }
}

#[test]
fn standard_restore_matches_dense_oracle() {
    for corner in corners() {
        for stored in [false, true] {
            assert_engines_agree(&standard_restore(corner, stored).0);
        }
    }
}

#[test]
fn standard_store_matches_dense_oracle() {
    for corner in corners() {
        assert_engines_agree(&standard_store(corner).0);
    }
}

/// The leakage operating point of an idle cell under both engines: same
/// Newton iterations, every device terminal within [`VOLT_TOL`], and the
/// leakage power `Σ v·(−i)` over the sources (as `cells` sums it) within
/// [`LEAKAGE_REL_TOL`].
fn assert_idle_ops_agree(name: &str, ckt: &Circuit) {
    let op = |solver| {
        SimulationSession::with_solver(ckt.clone(), solver)
            .op()
            .unwrap_or_else(|e| panic!("{name} under {solver:?}: {e}"))
    };
    let (dense, sparse) = (op(SolverKind::Dense), op(SolverKind::Sparse));
    assert_eq!(
        dense.solver_stats().newton_iterations,
        sparse.solver_stats().newton_iterations,
        "{name}: op Newton iterations"
    );
    let (mut leak_dense, mut leak_sparse) = (0.0, 0.0);
    for device in ckt.devices() {
        let terminals = match device {
            Device::Mosfet { d, g, s, .. } => vec![*d, *g, *s],
            Device::Resistor { a, b, .. }
            | Device::Capacitor { a, b, .. }
            | Device::Mtj { a, b, .. } => vec![*a, *b],
            Device::VoltageSource { pos, neg, .. } | Device::CurrentSource { pos, neg, .. } => {
                vec![*pos, *neg]
            }
        };
        for node in terminals {
            let (a, b) = (dense.voltage(node), sparse.voltage(node));
            assert!(
                (a - b).abs() <= VOLT_TOL,
                "{name}: node {}: dense {a:e} vs sparse {b:e}",
                ckt.node_name(node)
            );
        }
        if let Device::VoltageSource {
            name: source, wave, ..
        } = device
        {
            let level = wave.value_at(0.0);
            let current =
                |op: &spice::analysis::OpResult| op.branch_current(source).expect("source branch");
            leak_dense += level * -current(&dense);
            leak_sparse += level * -current(&sparse);
        }
    }
    assert!(
        (leak_dense - leak_sparse).abs() <= LEAKAGE_REL_TOL * leak_dense.abs(),
        "{name}: leakage dense {leak_dense:e} W vs sparse {leak_sparse:e} W"
    );
}

#[test]
fn idle_leakage_operating_point_matches_dense_oracle() {
    for corner in corners() {
        let config = LatchConfig::default().at_corner(corner);
        let standard = StandardLatch::new(config.clone())
            .idle_circuit()
            .expect("standard idle circuit");
        assert_idle_ops_agree(&format!("standard idle at {corner}"), &standard);
        let proposed = ProposedLatch::new(config)
            .idle_circuit()
            .expect("proposed idle circuit");
        assert_idle_ops_agree(&format!("proposed idle at {corner}"), &proposed);
    }
}

/// The fill-reducing order keeps `L+U` within 10 % of the matrix's own
/// nonzeros on the proposed latch (partial-pivoting order roughly
/// tripled it).
#[test]
fn proposed_latch_factor_fill_stays_small() {
    let (w, _) = proposed_restore(Corner::typical(), [true, false]);
    let csr_nnz = matrix_pattern(&w.ckt).nnz();
    let session = assert_engines_agree(&w);
    let lu_nnz = session.lu_nnz();
    assert!(lu_nnz >= csr_nnz, "L+U {lu_nnz} below CSR {csr_nnz}");
    assert!(
        lu_nnz as f64 <= 1.1 * csr_nnz as f64,
        "L+U holds {lu_nnz} nonzeros for {csr_nnz} in the matrix"
    );
}

/// Step policy a [`Table2Row`] is simulated under.
#[derive(Debug, Clone, Copy)]
enum Policy {
    /// The workload's own options: `LatchConfig::transient_options`.
    Adaptive,
    /// The same start condition and tolerances on the uniform grid.
    Fixed,
}

/// Runs `w` on the sparse engine under `policy`.
fn simulate(w: &Workload, policy: Policy) -> TransientResult {
    let options = match policy {
        Policy::Adaptive => w.options,
        Policy::Fixed => TransientOptions {
            start: w.options.start,
            reltol: w.options.reltol,
            abstol: w.options.abstol,
            ..TransientOptions::fixed()
        },
    };
    let mut session = SimulationSession::new(w.ckt.clone());
    session
        .transient_with_options(w.stop, w.step, options)
        .unwrap_or_else(|e| panic!("{} under {policy:?}: {e}", w.name))
}

/// Names of [`Table2Row::metrics`], in order.
const METRICS: [&str; 4] = ["read energy", "read delay", "write energy", "write latency"];

/// Table II's transient-derived numbers for one design at one corner.
#[derive(Debug)]
struct Table2Row {
    /// Bits each restore resolved, in stored-pattern order.
    bits: Vec<bool>,
    /// MTJ reversals during the store.
    switches: usize,
    /// [`METRICS`] in joules and seconds.
    metrics: [f64; 4],
}

fn si_metrics(read_energy: Energy, read_delay: Time, write: (Energy, Time)) -> [f64; 4] {
    [
        read_energy.joules(),
        read_delay.seconds(),
        write.0.joules(),
        write.1.seconds(),
    ]
}

/// Write energy to completion and write latency, extracted as `cells`
/// does: latency runs from the write-pulse start to the last MTJ
/// reversal, and energy is integrated from the pulse start to that
/// reversal plus a tenth of the latency.
fn write_metrics(result: &TransientResult, controls: &StoreControls) -> (Energy, Time) {
    let last = result
        .mtj_events()
        .iter()
        .map(|e| e.time)
        .fold(Time::ZERO, Time::max);
    let latency = (last - controls.write_start).max(Time::ZERO);
    let energy = if result.mtj_events().is_empty() {
        Energy::ZERO
    } else {
        result.total_source_energy(controls.write_start, last + latency * 0.1)
    };
    (energy, latency)
}

/// Two standard cells: reads averaged over both stored bits, energies
/// doubled, one sense delay (the cells read in parallel).
fn standard_pair_row(corner: Corner, policy: Policy) -> Table2Row {
    let vdd = LatchConfig::default().at_corner(corner).vdd();
    let mut bits = Vec::new();
    let (mut read_energy, mut read_delay) = (Energy::ZERO, Time::ZERO);
    for stored in [false, true] {
        let (w, c) = standard_restore(corner, stored);
        let r = simulate(&w, policy);
        let (q, qb) = (r.node("q").expect("q"), r.node("qb").expect("qb"));
        let (eval_start, eval_end) = c.evals[0];
        let at = eval_end.seconds();
        let bit = resolve_bit(q.value_at(at), qb.value_at(at), vdd)
            .unwrap_or_else(|| panic!("{} under {policy:?}: sense failure", w.name));
        // The losing output falls from the VDD pre-charge level.
        let loser = if bit { qb } else { q };
        read_delay += sense_delay(loser, vdd, Edge::Falling, eval_start, eval_end, &w.name)
            .expect("standard sense delay");
        read_energy += r
            .supply_energy("VDD", Time::ZERO, c.total)
            .expect("VDD energy");
        bits.push(bit);
    }
    let (w, c) = standard_store(corner);
    let r = simulate(&w, policy);
    let (write_energy, write_latency) = write_metrics(&r, &c);
    Table2Row {
        bits,
        switches: r.mtj_events().len(),
        metrics: si_metrics(
            read_energy * 0.5 * 2.0,
            read_delay * 0.5,
            (write_energy * 2.0, write_latency),
        ),
    }
}

/// The proposed 2-bit cell: reads averaged over all four stored
/// patterns, each read delay the sum of its two sequential senses.
fn proposed_row(corner: Corner, policy: Policy) -> Table2Row {
    let vdd = LatchConfig::default().at_corner(corner).vdd();
    let mut bits = Vec::new();
    let (mut read_energy, mut read_delay) = (Energy::ZERO, Time::ZERO);
    for stored in PATTERNS {
        let (w, c) = proposed_restore(corner, stored);
        let r = simulate(&w, policy);
        let q = r.node("mtj_read").expect("mtj_read");
        let qb = r.node("mtj_read_b").expect("mtj_read_b");
        let resolve = |at: Time| {
            let at = at.seconds();
            resolve_bit(q.value_at(at), qb.value_at(at), vdd)
                .unwrap_or_else(|| panic!("{} under {policy:?}: sense failure", w.name))
        };
        let (bit0, bit1) = (resolve(c.eval0_end), resolve(c.eval1_end));
        // Lower read evaluates downward from VDD (loser falls); upper
        // read evaluates upward from GND (winner rises).
        let delay0 = sense_delay(
            if bit0 { qb } else { q },
            vdd,
            Edge::Falling,
            c.eval0_start,
            c.eval0_end,
            &w.name,
        )
        .expect("lower-pair sense delay");
        let delay1 = sense_delay(
            if bit1 { q } else { qb },
            vdd,
            Edge::Rising,
            c.eval1_start,
            c.eval1_end,
            &w.name,
        )
        .expect("upper-pair sense delay");
        read_energy += r
            .supply_energy("VDD", Time::ZERO, c.total)
            .expect("VDD energy");
        read_delay += delay0 + delay1;
        bits.extend([bit0, bit1]);
    }
    let (w, c) = proposed_store(corner);
    let r = simulate(&w, policy);
    Table2Row {
        bits,
        switches: r.mtj_events().len(),
        metrics: si_metrics(
            read_energy / PATTERNS.len() as f64,
            read_delay / PATTERNS.len() as f64,
            write_metrics(&r, &c),
        ),
    }
}

#[test]
fn table2_metrics_agree_between_adaptive_and_fixed_steps() {
    type RowFn = fn(Corner, Policy) -> Table2Row;
    type CharacterizeFn = fn(&LatchConfig) -> Result<CellMetrics, CellError>;
    let designs: [(&str, RowFn, CharacterizeFn, Vec<bool>); 2] = [
        (
            "standard pair",
            standard_pair_row,
            characterize_standard_pair,
            vec![false, true],
        ),
        (
            "proposed",
            proposed_row,
            characterize_proposed,
            PATTERNS.concat(),
        ),
    ];
    for corner in corners() {
        for (design, row, characterize, stored) in &designs {
            let name = format!("{design} at {corner}");
            let adaptive = row(corner, Policy::Adaptive);
            let fixed = row(corner, Policy::Fixed);
            assert_eq!(&adaptive.bits, stored, "{name}: adaptive read-back");
            // The adaptive row is the production characterization,
            // number for number.
            let p = characterize(&LatchConfig::default().at_corner(corner))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                adaptive.metrics,
                si_metrics(
                    p.read_energy,
                    p.read_delay,
                    (p.write_energy, p.write_latency)
                ),
                "{name}: rows reproduce the characterization"
            );
            assert_eq!(adaptive.bits, fixed.bits, "{name}: resolved bits");
            assert_eq!(adaptive.switches, fixed.switches, "{name}: MTJ reversals");
            for ((metric, a), f) in METRICS.iter().zip(adaptive.metrics).zip(fixed.metrics) {
                assert!(
                    (a - f).abs() <= POLICY_REL_TOL * a.abs().max(f.abs()),
                    "{name}: {metric} adaptive {a:e} vs fixed {f:e}"
                );
            }
        }
    }
}

/// Two ideal sources of different value in parallel: their branch rows
/// are identical and inconsistent.
fn source_loop() -> Circuit {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    for (name, volts) in [("V1", 1.0), ("V2", 2.0)] {
        ckt.add_voltage_source(
            name,
            a,
            Circuit::GROUND,
            SourceWaveform::dc(Voltage::from_volts(volts)),
        )
        .expect("source");
    }
    ckt.add_resistor("R1", a, Circuit::GROUND, Resistance::from_ohms(100.0))
        .expect("R1");
    ckt
}

/// Three sources around a loop (`a`–ground, `b`–ground, `a`–`b`), with
/// values that even satisfy KVL: three branch rows share the two node
/// columns, so the pattern is structurally rank-deficient whatever the
/// values.
fn rank_deficient() -> Circuit {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    for (name, p, n, volts) in [
        ("VA", a, Circuit::GROUND, 1.0),
        ("VB", b, Circuit::GROUND, 0.5),
        ("VAB", a, b, 0.5),
    ] {
        ckt.add_voltage_source(name, p, n, SourceWaveform::dc(Voltage::from_volts(volts)))
            .expect("source");
    }
    ckt.add_resistor("R1", a, b, Resistance::from_ohms(100.0))
        .expect("R1");
    ckt
}

fn assert_singular<T: std::fmt::Debug>(what: &str, result: Result<T, SpiceError>) {
    let err = result.expect_err(what);
    assert!(
        matches!(err, SpiceError::SingularMatrix { .. }),
        "{what}: expected SingularMatrix, got {err:?}"
    );
}

#[test]
fn hostile_patterns_are_singular_under_both_engines() {
    assert!(matrix_pattern(&rank_deficient()).column_order().is_none());
    assert!(matrix_pattern(&source_loop()).column_order().is_none());
    let stop = Time::from_nano_seconds(1.0);
    let step = Time::from_pico_seconds(100.0);
    for (name, make) in [
        ("source loop", source_loop as fn() -> Circuit),
        ("rank deficient", rank_deficient),
    ] {
        for solver in [SolverKind::Sparse, SolverKind::Dense] {
            let what = format!("{name} under {solver:?}");
            let mut session = SimulationSession::with_solver(make(), solver);
            assert_singular(&format!("{what}: op"), session.op());
            assert_singular(&format!("{what}: transient"), session.transient(stop, step));
            assert_singular(
                &format!("{what}: transient from zero"),
                session.transient_with_options(
                    stop,
                    step,
                    TransientOptions {
                        start: StartCondition::Zero,
                        ..TransientOptions::default()
                    },
                ),
            );
        }
    }
}
