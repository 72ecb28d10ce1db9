//! Sparse-engine oracle suite: the static-symbolic sparse LU (the
//! production engine) is held against the dense partial-pivoted LU — the
//! correctness oracle that `session_equivalence.rs` has already pinned
//! bit-for-bit to the straight-line reference engine.
//!
//! The sparse engine factors in its own fill-reducing pivot order
//! (structural Markowitz columns, threshold-pivoted rows), so it agrees
//! with the dense oracle to roundoff rather than bit for bit — well
//! within the 1e-9 relative budget asserted here. The step-control
//! decisions (halvings, breakpoints) must then coincide too, which is
//! why the time axes are compared exactly.
//!
//! Also hosts the session lifecycle tests that want both solver kinds:
//! plan rebuild after a structural circuit edit, after an in-place
//! capacitance edit and after a device-kind swap, and singular-matrix
//! propagation out of a transient.

use mtj::{Mtj, MtjParams, MtjState, WritePolarity};
use spice::{
    Circuit, SimulationSession, SolverKind, SourceWaveform, SpiceError, Technology,
    TransientOptions, TransientResult,
};
use units::{Capacitance, Length, Resistance, Time, Voltage};

/// A circuit fixture plus the probe lists the comparison sweeps over.
struct Fixture {
    ckt: Circuit,
    nodes: Vec<&'static str>,
    sources: Vec<&'static str>,
    stop: Time,
    step: Time,
}

fn rc_lowpass() -> Fixture {
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
            delay: 100e-12,
            rise: 20e-12,
            fall: 20e-12,
            width: 2e-9,
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
    Fixture {
        ckt,
        nodes: vec!["in", "out"],
        sources: vec!["VIN"],
        stop: Time::from_nano_seconds(5.0),
        step: Time::from_pico_seconds(10.0),
    }
}

fn cmos_inverter() -> Fixture {
    let tech = Technology::tsmc40lp();
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_voltage_source(
        "VDD",
        vdd,
        Circuit::GROUND,
        SourceWaveform::dc(Voltage::from_volts(1.1)),
    )
    .expect("VDD");
    ckt.add_voltage_source(
        "VIN",
        vin,
        Circuit::GROUND,
        SourceWaveform::Pulse {
            v0: 0.0,
            v1: 1.1,
            delay: 100e-12,
            rise: 50e-12,
            fall: 50e-12,
            width: 1e-9,
        },
    )
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
    ckt.add_capacitor(
        "CL",
        out,
        Circuit::GROUND,
        Capacitance::from_femto_farads(5.0),
    )
    .expect("CL");
    Fixture {
        ckt,
        nodes: vec!["vdd", "in", "out"],
        sources: vec!["VDD", "VIN"],
        stop: Time::from_nano_seconds(3.0),
        step: Time::from_pico_seconds(10.0),
    }
}

fn mtj_write() -> Fixture {
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
    Fixture {
        ckt,
        nodes: vec!["a"],
        sources: vec![],
        stop: Time::from_nano_seconds(4.0),
        step: Time::from_pico_seconds(20.0),
    }
}

/// Relative disagreement budget between the sparse engine and the dense
/// oracle, per the acceptance criteria.
const REL_TOL: f64 = 1e-9;

/// Relative error with a 1 V / 1 A floor: node voltages and branch
/// currents in these fixtures are O(1) or smaller, so sub-`REL_TOL`
/// absolute differences on near-zero samples are also in budget.
fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

fn assert_transients_agree(fx: &Fixture, dense: &TransientResult, sparse: &TransientResult) {
    // Identical step control: same accepted steps at the same times.
    assert_eq!(
        dense.times().len(),
        sparse.times().len(),
        "sample counts differ"
    );
    for (i, (td, ts)) in dense.times().iter().zip(sparse.times()).enumerate() {
        assert_eq!(
            td.to_bits(),
            ts.to_bits(),
            "time axis diverges at sample {i}"
        );
    }
    for name in &fx.nodes {
        let vd = dense.node(name).expect("node in dense");
        let vs = sparse.node(name).expect("node in sparse");
        for (i, (x, y)) in vd.values().iter().zip(vs.values()).enumerate() {
            assert!(
                rel_err(*x, *y) <= REL_TOL,
                "node {name} sample {i}: dense {x:e} vs sparse {y:e}"
            );
        }
    }
    for name in &fx.sources {
        let id = dense.branch(name).expect("branch in dense");
        let is = sparse.branch(name).expect("branch in sparse");
        for (i, (x, y)) in id.values().iter().zip(is.values()).enumerate() {
            assert!(
                rel_err(*x, *y) <= REL_TOL,
                "branch {name} sample {i}: dense {x:e} vs sparse {y:e}"
            );
        }
    }
    assert_eq!(
        dense.mtj_events().len(),
        sparse.mtj_events().len(),
        "event counts differ"
    );
    for (ed, es) in dense.mtj_events().iter().zip(sparse.mtj_events()) {
        assert_eq!(ed.device, es.device);
        assert_eq!(ed.state, es.state);
        assert_eq!(ed.time, es.time);
    }
}

fn check_transient(make: fn() -> Fixture) {
    // Uniform stepping keeps the two engines' time axes identical by
    // construction, so the agreement check can demand bit-equal axes
    // and tight per-sample tolerances. Adaptive-mode dense-vs-sparse
    // agreement (where an ulp of numerical noise may legitimately pick
    // different step sequences) is covered at interpolation tolerance
    // by `adaptive_equivalence.rs`.
    let fixed = TransientOptions::fixed();
    let fx_dense = make();
    let mut dense = SimulationSession::with_solver(fx_dense.ckt, SolverKind::Dense);
    let dense_result = dense
        .transient_with_options(fx_dense.stop, fx_dense.step, fixed)
        .expect("dense");

    let mut fx = make();
    let mut sparse =
        SimulationSession::with_solver(std::mem::take(&mut fx.ckt), SolverKind::Sparse);
    let sparse_result = sparse
        .transient_with_options(fx.stop, fx.step, fixed)
        .expect("sparse");

    assert_transients_agree(&fx, &dense_result, &sparse_result);

    // Final MTJ device states agree (the write either completed in both
    // engines or in neither).
    assert_eq!(
        spice::analysis::mtj_states(dense.circuit()),
        spice::analysis::mtj_states(sparse.circuit())
    );

    // The sparse session actually exercised the pattern-reuse path: one
    // symbolic build per analysis, everything else a refactorization in
    // the frozen pattern.
    let stats = sparse.stats();
    assert!(stats.pattern_reuses > 0, "no pattern reuse recorded");
    assert!(
        stats.pattern_reuses < stats.lu_factorizations,
        "the symbolic build itself must not count as a reuse"
    );
    assert_eq!(
        dense.stats().pattern_reuses,
        0,
        "dense engine has no pattern to reuse"
    );
}

#[test]
fn rc_lowpass_transient_matches_dense_oracle() {
    check_transient(rc_lowpass);
}

#[test]
fn cmos_inverter_transient_matches_dense_oracle() {
    check_transient(cmos_inverter);
}

#[test]
fn mtj_write_transient_matches_dense_oracle() {
    check_transient(mtj_write);
}

#[test]
fn operating_points_match_dense_oracle() {
    for make in [rc_lowpass, cmos_inverter, mtj_write] {
        let fx_dense = make();
        let mut dense = SimulationSession::with_solver(fx_dense.ckt, SolverKind::Dense);
        let dense_op = dense.op().expect("dense op");

        let fx = make();
        let mut sparse = SimulationSession::with_solver(fx.ckt, SolverKind::Sparse);
        let sparse_op = sparse.op().expect("sparse op");

        for name in &fx.nodes {
            let node = sparse.circuit().find_node(name).expect("node exists");
            let d = dense_op.voltage(node);
            let s = sparse_op.voltage(node);
            assert!(rel_err(d, s) <= REL_TOL, "node {name}: {d:e} vs {s:e}");
        }
        for source in &fx.sources {
            let d = dense_op.branch_current(source).expect("dense branch");
            let s = sparse_op.branch_current(source).expect("sparse branch");
            assert!(rel_err(d, s) <= REL_TOL, "branch {source}: {d:e} vs {s:e}");
        }
    }
}

#[test]
fn dc_sweep_matches_dense_oracle() {
    let sweep: Vec<f64> = (0..=22).map(|k| f64::from(k) * 0.05).collect();

    let fx_dense = cmos_inverter();
    let mut dense = SimulationSession::with_solver(fx_dense.ckt, SolverKind::Dense);
    let dense_points = dense.dc_sweep("VIN", &sweep).expect("dense sweep");

    let fx = cmos_inverter();
    let mut sparse = SimulationSession::with_solver(fx.ckt, SolverKind::Sparse);
    let sparse_points = sparse.dc_sweep("VIN", &sweep).expect("sparse sweep");

    assert_eq!(dense_points.len(), sparse_points.len());
    for (i, (dp, sp)) in dense_points.iter().zip(&sparse_points).enumerate() {
        for name in &fx.nodes {
            let node = sparse.circuit().find_node(name).expect("node exists");
            let d = dp.voltage(node);
            let s = sp.voltage(node);
            assert!(
                rel_err(d, s) <= REL_TOL,
                "point {i} node {name}: {d:e} vs {s:e}"
            );
        }
        for source in &fx.sources {
            let d = dp.branch_current(source).expect("dense branch");
            let s = sp.branch_current(source).expect("sparse branch");
            assert!(
                rel_err(d, s) <= REL_TOL,
                "point {i} branch {source}: {d:e} vs {s:e}"
            );
        }
    }
}

/// A structural circuit edit between analyses forces a plan (and frozen
/// sparsity pattern) rebuild; the session must keep its cumulative
/// stats and keep solving correctly — for both solver kinds.
#[test]
fn structural_edit_rebuilds_plan_and_keeps_stats() {
    for solver in [SolverKind::Sparse, SolverKind::Dense] {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_voltage_source(
            "V1",
            a,
            Circuit::GROUND,
            SourceWaveform::dc(Voltage::from_volts(1.0)),
        )
        .expect("V1");
        ckt.add_resistor("R1", a, b, Resistance::from_kilo_ohms(1.0))
            .expect("R1");
        ckt.add_resistor("R2", b, Circuit::GROUND, Resistance::from_kilo_ohms(1.0))
            .expect("R2");

        let mut session = SimulationSession::with_solver(ckt, solver);
        let op1 = session.op().expect("op before edit");
        let node_b = session.circuit().find_node("b").expect("node b");
        // Tolerance leaves room for the gmin floor (1e-12 S to ground
        // shifts a 1 kΩ divider by ~1e-9 relative).
        assert!((op1.voltage(node_b) - 0.5).abs() < 1e-8, "{solver:?}");
        let stats_before = session.stats();
        assert!(stats_before.lu_factorizations > 0, "{solver:?}");

        // Structural edit: a third resistor changes both the unknown
        // count bookkeeping (another stamp) and the matrix pattern.
        session
            .circuit_mut()
            .add_resistor("R3", b, Circuit::GROUND, Resistance::from_kilo_ohms(1.0))
            .expect("R3");
        let op2 = session.op().expect("op after edit");
        // 1k / (1k ∥ 1k): divider now sits at 1/3.
        assert!((op2.voltage(node_b) - 1.0 / 3.0).abs() < 1e-8, "{solver:?}");

        // Cumulative stats survived the plan rebuild.
        let stats_after = session.stats();
        assert!(
            stats_after.lu_factorizations > stats_before.lu_factorizations,
            "{solver:?}: rebuild dropped cumulative stats"
        );
        assert_eq!(session.solver_kind(), solver, "rebuild changed the solver");
    }
}

/// Asserts two transients are the same run: identical time axes and
/// identical samples on every listed node.
fn assert_transients_identical(nodes: &[&str], a: &TransientResult, b: &TransientResult) {
    assert_eq!(a.times(), b.times(), "time axes differ");
    for name in nodes {
        let va = a.node(name).expect("node in first run");
        let vb = b.node(name).expect("node in second run");
        assert_eq!(va.values(), vb.values(), "node {name} differs");
    }
}

/// An in-place capacitance edit changes the companion conductances the
/// plan froze: the next analysis must rebuild the plan and match a
/// fresh session on the edited circuit, for both solver kinds.
#[test]
fn capacitance_edit_rebuilds_plan() {
    for solver in [SolverKind::Sparse, SolverKind::Dense] {
        let fx = rc_lowpass();
        let (stop, step) = (fx.stop, fx.step);
        let mut session = SimulationSession::with_solver(fx.ckt, solver);
        session.transient(stop, step).expect("transient at 1 pF");

        for device in session.circuit_mut().devices_mut() {
            if let spice::Device::Capacitor { farads, .. } = device {
                *farads = 4e-12;
            }
        }
        let edited = session.transient(stop, step).expect("transient at 4 pF");

        let fresh_ckt = session.circuit().clone();
        let mut fresh = SimulationSession::with_solver(fresh_ckt, solver);
        let expected = fresh.transient(stop, step).expect("fresh transient");
        assert_transients_identical(&fx.nodes, &expected, &edited);
        // The 4 pF load is four times slower: at 0.5 ns (0.4 ns into
        // the ramp) a 1 ns time constant leaves `out` near 0.09 V.
        let out = edited.node("out").expect("out").value_at(0.5e-9);
        assert!(out > 0.05 && out < 0.15, "{solver:?}: out(0.5 ns) = {out}");
    }
}

/// Replacing a device by one of another kind at the same index (here a
/// resistor by a capacitor) must rebuild the plan instead of stamping
/// the new device as the old kind, for both solver kinds.
#[test]
fn device_kind_swap_rebuilds_plan() {
    for solver in [SolverKind::Sparse, SolverKind::Dense] {
        let fx = rc_lowpass();
        let (stop, step) = (fx.stop, fx.step);
        let mut ckt = fx.ckt;
        let out = ckt.find_node("out").expect("out");
        ckt.add_resistor("R2", out, Circuit::GROUND, Resistance::from_kilo_ohms(2.0))
            .expect("R2");
        let mut session = SimulationSession::with_solver(ckt, solver);
        session.transient(stop, step).expect("transient with R2");

        let devices = session.circuit_mut().devices_mut();
        let r2 = devices
            .iter()
            .position(|d| d.name() == "R2")
            .expect("R2 present");
        devices[r2] = spice::Device::Capacitor {
            name: "C2".into(),
            a: out,
            b: Circuit::GROUND,
            farads: 1e-12,
        };
        let swapped = session.transient(stop, step).expect("transient with C2");

        let fresh_ckt = session.circuit().clone();
        let mut fresh = SimulationSession::with_solver(fresh_ckt, solver);
        let expected = fresh.transient(stop, step).expect("fresh transient");
        assert_transients_identical(&fx.nodes, &expected, &swapped);
    }
}

/// A singular system discovered mid-analysis surfaces as
/// [`SpiceError::SingularMatrix`] from a transient, for both solver
/// kinds (the sparse engine re-pivots once, then gives up).
#[test]
fn singular_topology_propagates_from_transient() {
    for solver in [SolverKind::Sparse, SolverKind::Dense] {
        // Two ideal sources in parallel with different values: the two
        // branch rows are linearly dependent and inconsistent.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_voltage_source(
            "V1",
            a,
            Circuit::GROUND,
            SourceWaveform::dc(Voltage::from_volts(1.0)),
        )
        .expect("V1");
        ckt.add_voltage_source(
            "V2",
            a,
            Circuit::GROUND,
            SourceWaveform::dc(Voltage::from_volts(2.0)),
        )
        .expect("V2");
        ckt.add_resistor("R1", a, Circuit::GROUND, Resistance::from_ohms(100.0))
            .expect("R1");

        let mut session = SimulationSession::with_solver(ckt, solver);
        let err = session
            .transient(Time::from_nano_seconds(1.0), Time::from_pico_seconds(100.0))
            .expect_err("singular topology must not converge");
        assert!(
            matches!(err, SpiceError::SingularMatrix { .. }),
            "{solver:?}: expected SingularMatrix, got {err:?}"
        );
    }
}
