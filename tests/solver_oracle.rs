//! The sparse LU against the dense oracle on the paper's latch
//! workloads, plus the hostile patterns both engines must refuse.
//!
//! The sparse engine factors in a fill-reducing pivot order (structural
//! Markowitz columns, threshold-pivoted rows), the dense engine in
//! partial-pivoting order, so the two agree to roundoff rather than bit
//! for bit. Roundoff must not reach the step controller: the same latch
//! transient under either engine takes the same accepted and rejected
//! steps, on time axes equal to 1e-9 relative, with every node within
//! 1e-9 V.

use cells::{LatchConfig, ProposedLatch, StandardLatch};
use spice::analysis::{matrix_pattern, StartCondition};
use spice::{
    Circuit, SimulationSession, SolverKind, SourceWaveform, SpiceError, TransientOptions,
    TransientResult,
};
use units::{Resistance, Time, Voltage};

/// Time-axis agreement budget, relative.
const TIME_REL_TOL: f64 = 1e-9;
/// Node-voltage agreement budget, volts.
const VOLT_TOL: f64 = 1e-9;

/// One latch transient: the circuit, its stop time and nominal step, and
/// the options the cell harness runs it with.
struct Workload {
    name: String,
    ckt: Circuit,
    stop: Time,
    step: Time,
    options: TransientOptions,
}

fn proposed_restore(stored: [bool; 2]) -> Workload {
    let config = LatchConfig::default();
    let latch = ProposedLatch::new(config.clone());
    let (ckt, controls) = latch.restore_circuit(stored).expect("restore circuit");
    Workload {
        name: format!("proposed restore {stored:?}"),
        ckt,
        stop: controls.total,
        step: config.time_step,
        options: config.transient_options(StartCondition::Zero),
    }
}

fn proposed_store() -> Workload {
    let config = LatchConfig::default();
    let latch = ProposedLatch::new(config.clone());
    let (ckt, controls) = latch
        .store_circuit([false, true], [true, false])
        .expect("store circuit");
    Workload {
        name: "proposed store".to_owned(),
        ckt,
        stop: controls.total,
        step: config.time_step * 5.0,
        options: config.transient_options(StartCondition::OperatingPoint),
    }
}

fn standard_restore() -> Workload {
    let config = LatchConfig::default();
    let latch = StandardLatch::new(config.clone());
    let (ckt, controls) = latch.restore_circuit([true]).expect("restore circuit");
    Workload {
        name: "standard restore".to_owned(),
        ckt,
        stop: controls.total,
        step: config.time_step,
        options: config.transient_options(StartCondition::Zero),
    }
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
    for stored in [[false, false], [false, true], [true, false], [true, true]] {
        assert_engines_agree(&proposed_restore(stored));
    }
}

#[test]
fn proposed_store_matches_dense_oracle() {
    assert_engines_agree(&proposed_store());
}

#[test]
fn standard_restore_matches_dense_oracle() {
    assert_engines_agree(&standard_restore());
}

/// The fill-reducing order keeps `L+U` within 10 % of the matrix's own
/// nonzeros on the proposed latch (partial-pivoting order roughly
/// tripled it).
#[test]
fn proposed_latch_factor_fill_stays_small() {
    let w = proposed_restore([true, false]);
    let csr_nnz = matrix_pattern(&w.ckt).nnz();
    let session = assert_engines_agree(&w);
    let lu_nnz = session.lu_nnz();
    assert!(lu_nnz >= csr_nnz, "L+U {lu_nnz} below CSR {csr_nnz}");
    assert!(
        lu_nnz as f64 <= 1.1 * csr_nnz as f64,
        "L+U holds {lu_nnz} nonzeros for {csr_nnz} in the matrix"
    );
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
