//! Engine-equivalence suite: the session engine (workspace reuse,
//! pre-resolved stamp plan) must reproduce the straight-line reference
//! engine (`spice::analysis::reference`) bit-for-bit.
//!
//! Both engines execute the same floating-point operations in the same
//! order, so every voltage sample, branch current, time point and MTJ
//! event is compared with exact equality (`f64::to_bits`), not a
//! tolerance. Each fixture is also run twice through one session, with a
//! [`CircuitSnapshot`] rewind in between, to prove that workspace reuse
//! leaks no state from run to run.
//!
//! Every session here is pinned to [`SolverKind::Dense`]: the reference
//! engine *is* the dense partial-pivoted LU, and this suite isolates
//! the workspace-reuse refactor from the solver engine choice. The
//! sparse engine, which factors in its own fill-reducing pivot order,
//! is held to the dense oracle at roundoff tolerance in
//! `sparse_equivalence.rs`.

use mtj::{Mtj, MtjParams, MtjState, WritePolarity};
use spice::analysis;
use spice::analysis::reference;
use spice::{
    Circuit, SimulationSession, SolverKind, SourceWaveform, Technology, TransientOptions,
    TransientResult,
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

fn ring_oscillator() -> Fixture {
    let tech = Technology::tsmc40lp();
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.add_voltage_source(
        "VDD",
        vdd,
        Circuit::GROUND,
        SourceWaveform::dc(Voltage::from_volts(1.1)),
    )
    .expect("VDD");
    let n_stages = 5;
    let nodes: Vec<_> = (0..n_stages).map(|k| ckt.node(&format!("r{k}"))).collect();
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
            width: 10.0,
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
    Fixture {
        ckt,
        nodes: vec!["vdd", "r0", "r1", "r2", "r3", "r4", "kick"],
        sources: vec!["VDD", "VKICK"],
        stop: Time::from_nano_seconds(2.0),
        step: Time::from_pico_seconds(4.0),
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

/// Exact (bit-level) equality of two transient results over the probed
/// nodes and sources, including time axes and MTJ events.
fn assert_transients_identical(fx: &Fixture, a: &TransientResult, b: &TransientResult) {
    assert_eq!(a.times().len(), b.times().len(), "sample counts differ");
    for (i, (ta, tb)) in a.times().iter().zip(b.times()).enumerate() {
        assert_eq!(
            ta.to_bits(),
            tb.to_bits(),
            "time axis diverges at sample {i}"
        );
    }
    for name in &fx.nodes {
        let va = a.node(name).expect("node in a");
        let vb = b.node(name).expect("node in b");
        for (i, (x, y)) in va.values().iter().zip(vb.values()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "node {name} diverges at sample {i}"
            );
        }
    }
    for name in &fx.sources {
        let ia = a.branch(name).expect("branch in a");
        let ib = b.branch(name).expect("branch in b");
        for (i, (x, y)) in ia.values().iter().zip(ib.values()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "branch {name} diverges at sample {i}"
            );
        }
    }
    assert_eq!(
        a.mtj_events().len(),
        b.mtj_events().len(),
        "event counts differ"
    );
    for (ea, eb) in a.mtj_events().iter().zip(b.mtj_events()) {
        assert_eq!(ea.device, eb.device);
        assert_eq!(ea.state, eb.state);
        assert_eq!(ea.time, eb.time);
    }
}

fn check_fixture(make: fn() -> Fixture) {
    // Reference engine on its own copy of the circuit.
    let fx_ref = make();
    let mut ref_ckt = fx_ref.ckt;
    let ref_result =
        reference::transient(&mut ref_ckt, fx_ref.stop, fx_ref.step).expect("reference");

    // A throwaway dense session, standing in for the one-shot free
    // functions (which run the sparse engine and are pinned against the
    // oracle in `sparse_equivalence.rs`). The reference
    // engine is frozen at uniform stepping, so these comparisons pin
    // `StepControl::Fixed`; adaptive-vs-fixed agreement is covered (at
    // tolerance, not bit-exactly) by `adaptive_equivalence.rs`.
    let fixed = TransientOptions::fixed();
    let fx_free = make();
    let mut one_shot = SimulationSession::with_solver(fx_free.ckt, SolverKind::Dense);
    let free_result = one_shot
        .transient_with_options(fx_free.stop, fx_free.step, fixed)
        .expect("one-shot session");
    let free_ckt = one_shot.into_circuit();

    // Session engine, run twice with a snapshot rewind in between: the
    // second run reuses every workspace buffer of the first and must
    // still match the reference exactly.
    let mut fx = make();
    let snap = fx.ckt.snapshot();
    let mut session =
        SimulationSession::with_solver(std::mem::take(&mut fx.ckt), SolverKind::Dense);
    let first = session
        .transient_with_options(fx.stop, fx.step, fixed)
        .expect("session run 1");
    session.circuit_mut().restore(&snap);
    let second = session
        .transient_with_options(fx.stop, fx.step, fixed)
        .expect("session run 2");

    assert_transients_identical(&fx, &ref_result, &free_result);
    assert_transients_identical(&fx, &ref_result, &first);
    assert_transients_identical(&fx, &ref_result, &second);

    // Final device states agree between the engines' circuits.
    assert_eq!(
        reference::mtj_states(&ref_ckt),
        analysis::mtj_states(session.circuit())
    );
    assert_eq!(
        reference::mtj_states(&ref_ckt),
        analysis::mtj_states(&free_ckt)
    );
}

#[test]
fn rc_lowpass_waveforms_are_bit_identical() {
    check_fixture(rc_lowpass);
}

#[test]
fn cmos_inverter_waveforms_are_bit_identical() {
    check_fixture(cmos_inverter);
}

#[test]
fn ring_oscillator_waveforms_are_bit_identical() {
    check_fixture(ring_oscillator);
}

#[test]
fn mtj_write_waveforms_and_events_are_bit_identical() {
    check_fixture(mtj_write);
}

#[test]
fn inverter_dc_sweep_is_bit_identical() {
    let sweep: Vec<f64> = (0..=22).map(|k| f64::from(k) * 0.05).collect();

    let fx_ref = cmos_inverter();
    let mut ref_ckt = fx_ref.ckt;
    let ref_points = reference::dc_sweep(&mut ref_ckt, "VIN", &sweep).expect("reference sweep");

    let fx = cmos_inverter();
    let mut session = SimulationSession::with_solver(fx.ckt, SolverKind::Dense);
    // Run the sweep twice through one session; both passes must match.
    for pass in 0..2 {
        let points = session.dc_sweep("VIN", &sweep).expect("session sweep");
        assert_eq!(points.len(), ref_points.len());
        for (i, (rp, sp)) in ref_points.iter().zip(&points).enumerate() {
            for name in &fx.nodes {
                let node = session.circuit().find_node(name).expect("node exists");
                assert_eq!(
                    rp.voltage(node).to_bits(),
                    sp.voltage(node).to_bits(),
                    "pass {pass}: node {name} diverges at sweep point {i}"
                );
            }
            for source in &fx.sources {
                let ri = rp.branch_current(source).expect("branch in reference");
                let si = sp.branch_current(source).expect("branch in session");
                assert_eq!(
                    ri.to_bits(),
                    si.to_bits(),
                    "pass {pass}: branch {source} diverges at sweep point {i}"
                );
            }
        }
    }
}

#[test]
fn operating_points_are_bit_identical() {
    for make in [rc_lowpass, cmos_inverter, mtj_write] {
        let fx_ref = make();
        let mut ref_ckt = fx_ref.ckt;
        let ref_op = reference::op(&mut ref_ckt).expect("reference op");

        let fx = make();
        let mut session = SimulationSession::with_solver(fx.ckt, SolverKind::Dense);
        let first = session.op().expect("session op 1");
        let second = session.op().expect("session op 2");
        for name in &fx.nodes {
            let node = session.circuit().find_node(name).expect("node exists");
            assert_eq!(
                ref_op.voltage(node).to_bits(),
                first.voltage(node).to_bits(),
                "{name}"
            );
            assert_eq!(
                ref_op.voltage(node).to_bits(),
                second.voltage(node).to_bits(),
                "{name}"
            );
        }
        for source in &fx.sources {
            let r = ref_op.branch_current(source).expect("reference branch");
            let s1 = first.branch_current(source).expect("session branch");
            let s2 = second.branch_current(source).expect("session branch");
            assert_eq!(r.to_bits(), s1.to_bits(), "{source}");
            assert_eq!(r.to_bits(), s2.to_bits(), "{source}");
        }
    }
}
