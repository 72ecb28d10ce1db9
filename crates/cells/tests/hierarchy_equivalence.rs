//! Equivalence suite for the cell generator: the flat
//! `cells::generator` netlists must reproduce the paper's hand-wired
//! latches bit-for-bit.
//!
//! The legacy builders below are *frozen copies* of the hand-wired
//! `standard.rs` / `proposed.rs` construction as it existed before the
//! generator rewiring (node intern order, source order, device order and
//! MTJ polarities copied verbatim). They intentionally bypass the
//! generator so any drift in its emission order fails here.

use cells::control::word_restore;
use cells::generator::word_circuit;
use cells::{LatchConfig, WordParams, WordStimulus};
use mtj::{Mtj, MtjState, WritePolarity};
use spice::analysis::matrix_pattern;
use spice::{Circuit, SimulationSession};

type CellResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Frozen pre-refactor build of the standard 1-bit latch.
fn legacy_standard(cfg: &LatchConfig, stim: &WordStimulus, stored: bool) -> CellResult<Circuit> {
    let tech = &cfg.tech;
    let s = &cfg.sizing;
    let mut ckt = Circuit::new();
    let gnd = Circuit::GROUND;
    let vdd = ckt.node("vdd");
    let q = ckt.node("q");
    let qb = ckt.node("qb");
    let sl = ckt.node("sl");
    let sr = ckt.node("sr");
    let w1 = ckt.node("w1");
    let w2 = ckt.node("w2");
    let wm = ckt.node("wm");
    let pc_b = ckt.node("pc_b");
    let sen = ckt.node("sen");
    let sen_b = ckt.node("sen_b");
    let d = ckt.node("d");
    let db = ckt.node("db");
    let wen = ckt.node("wen");
    let wen_b = ckt.node("wen_b");

    for (name, node) in [
        ("VDD", vdd),
        ("VPCB", pc_b),
        ("VSEN", sen),
        ("VSENB", sen_b),
        ("VD", d),
        ("VDB", db),
        ("VWEN", wen),
        ("VWENB", wen_b),
    ] {
        ckt.add_voltage_source(name, node, gnd, stim.wave(name))?;
    }

    ckt.add_pmos("PCA", q, pc_b, vdd, tech, s.precharge)?;
    ckt.add_pmos("PCB2", qb, pc_b, vdd, tech, s.precharge)?;
    ckt.add_pmos("P1", q, qb, vdd, tech, s.cross_pmos)?;
    ckt.add_pmos("P2", qb, q, vdd, tech, s.cross_pmos)?;
    ckt.add_nmos("N1", q, qb, sl, tech, s.cross_nmos)?;
    ckt.add_nmos("N2", qb, q, sr, tech, s.cross_nmos)?;
    cells::subckt::transmission_gate(&mut ckt, "T1", sl, w1, sen, sen_b, tech, s.transmission)?;
    cells::subckt::transmission_gate(&mut ckt, "T2", sr, w2, sen, sen_b, tech, s.transmission)?;
    ckt.add_nmos("NEN", wm, sen, gnd, tech, s.sense_enable)?;
    let state_a = MtjState::from_bit(stored);
    ckt.add_mtj(
        "MTJA",
        w1,
        wm,
        Mtj::new(
            cfg.mtj.clone(),
            state_a,
            WritePolarity::PositiveSetsAntiParallel,
        ),
    )?;
    ckt.add_mtj(
        "MTJB",
        wm,
        w2,
        Mtj::new(
            cfg.mtj.clone(),
            state_a.toggled(),
            WritePolarity::PositiveSetsParallel,
        ),
    )?;
    cells::subckt::tristate_inverter(
        &mut ckt,
        "IA",
        db,
        w1,
        wen,
        wen_b,
        vdd,
        gnd,
        tech,
        s.write_pmos,
        s.write_nmos,
    )?;
    cells::subckt::tristate_inverter(
        &mut ckt,
        "IB",
        d,
        w2,
        wen,
        wen_b,
        vdd,
        gnd,
        tech,
        s.write_pmos,
        s.write_nmos,
    )?;
    ckt.add_capacitor("CQ", q, gnd, s.output_load)?;
    ckt.add_capacitor(
        "CQB",
        qb,
        gnd,
        s.output_load * (1.0 + s.output_load_mismatch),
    )?;
    Ok(ckt)
}

/// Frozen pre-refactor build of the proposed 2-bit latch.
fn legacy_proposed(
    cfg: &LatchConfig,
    stim: &WordStimulus,
    stored: [bool; 2],
) -> CellResult<Circuit> {
    let tech = &cfg.tech;
    let s = &cfg.sizing;
    let mut ckt = Circuit::new();
    let gnd = Circuit::GROUND;
    let vdd = ckt.node("vdd");
    let q = ckt.node("q");
    let qb = ckt.node("qb");
    let (tl, tr, mt) = (ckt.node("tl"), ckt.node("tr"), ckt.node("mt"));
    let (nl, nr, m) = (ckt.node("nl"), ckt.node("nr"), ckt.node("m"));
    let (a3, a4) = (ckt.node("a3"), ckt.node("a4"));
    let pcv_b = ckt.node("pcv_b");
    let pcg = ckt.node("pcg");
    let ren = ckt.node("ren");
    let ren_b = ckt.node("ren_b");
    let sel_b = ckt.node("sel_b");
    let p4_b = ckt.node("p4_b");
    let n4 = ckt.node("n4");
    let (d0, d0b) = (ckt.node("d0"), ckt.node("d0b"));
    let (d1, d1b) = (ckt.node("d1"), ckt.node("d1b"));
    let (wen, wen_b) = (ckt.node("wen"), ckt.node("wen_b"));

    for (name, node) in [
        ("VDD", vdd),
        ("VPCVB", pcv_b),
        ("VPCG", pcg),
        ("VREN", ren),
        ("VRENB", ren_b),
        ("VSELB", sel_b),
        ("VP4B", p4_b),
        ("VN4", n4),
        ("VD0", d0),
        ("VD0B", d0b),
        ("VD1", d1),
        ("VD1B", d1b),
        ("VWEN", wen),
        ("VWENB", wen_b),
    ] {
        ckt.add_voltage_source(name, node, gnd, stim.wave(name))?;
    }

    ckt.add_pmos("PCVA", q, pcv_b, vdd, tech, s.precharge)?;
    ckt.add_pmos("PCVB2", qb, pcv_b, vdd, tech, s.precharge)?;
    ckt.add_nmos("PCGA", q, pcg, gnd, tech, s.precharge)?;
    ckt.add_nmos("PCGB", qb, pcg, gnd, tech, s.precharge)?;
    ckt.add_pmos("P1", q, qb, tl, tech, s.cross_pmos)?;
    ckt.add_pmos("P2", qb, q, tr, tech, s.cross_pmos)?;
    ckt.add_nmos("N1", q, qb, nl, tech, s.cross_nmos)?;
    ckt.add_nmos("N2", qb, q, nr, tech, s.cross_nmos)?;
    ckt.add_pmos("P3", mt, sel_b, vdd, tech, s.sense_enable)?;
    ckt.add_nmos("N3", m, ren, gnd, tech, s.sense_enable)?;
    ckt.add_pmos("P4", tl, p4_b, tr, tech, s.equalizer)?;
    ckt.add_nmos("N4", nl, n4, nr, tech, s.equalizer)?;
    cells::subckt::transmission_gate(&mut ckt, "T1", nl, a3, ren, ren_b, tech, s.transmission)?;
    cells::subckt::transmission_gate(&mut ckt, "T2", nr, a4, ren, ren_b, tech, s.transmission)?;

    let state1 = MtjState::from_bit(stored[1]);
    ckt.add_mtj(
        "MTJ1",
        tl,
        mt,
        Mtj::new(
            cfg.mtj.clone(),
            state1.toggled(),
            WritePolarity::PositiveSetsAntiParallel,
        ),
    )?;
    ckt.add_mtj(
        "MTJ2",
        mt,
        tr,
        Mtj::new(cfg.mtj.clone(), state1, WritePolarity::PositiveSetsParallel),
    )?;
    let state0 = MtjState::from_bit(stored[0]);
    ckt.add_mtj(
        "MTJ3",
        a3,
        m,
        Mtj::new(
            cfg.mtj.clone(),
            state0,
            WritePolarity::PositiveSetsAntiParallel,
        ),
    )?;
    ckt.add_mtj(
        "MTJ4",
        m,
        a4,
        Mtj::new(
            cfg.mtj.clone(),
            state0.toggled(),
            WritePolarity::PositiveSetsParallel,
        ),
    )?;
    cells::subckt::tristate_inverter(
        &mut ckt,
        "I3",
        d0b,
        a3,
        wen,
        wen_b,
        vdd,
        gnd,
        tech,
        s.write_pmos,
        s.write_nmos,
    )?;
    cells::subckt::tristate_inverter(
        &mut ckt,
        "I4",
        d0,
        a4,
        wen,
        wen_b,
        vdd,
        gnd,
        tech,
        s.write_pmos,
        s.write_nmos,
    )?;
    cells::subckt::tristate_inverter(
        &mut ckt,
        "I1",
        d1,
        tl,
        wen,
        wen_b,
        vdd,
        gnd,
        tech,
        s.write_pmos,
        s.write_nmos,
    )?;
    cells::subckt::tristate_inverter(
        &mut ckt,
        "I2",
        d1b,
        tr,
        wen,
        wen_b,
        vdd,
        gnd,
        tech,
        s.write_pmos,
        s.write_nmos,
    )?;
    ckt.add_capacitor("CQ", q, gnd, s.output_load)?;
    ckt.add_capacitor(
        "CQB",
        qb,
        gnd,
        s.output_load * (1.0 + s.output_load_mismatch),
    )?;
    Ok(ckt)
}

/// Full structural identity: node table size, device list (names,
/// endpoints, values and MTJ presets, via `Debug`), and MNA pattern.
fn assert_identical(generated: &Circuit, legacy: &Circuit) {
    assert_eq!(generated.node_count(), legacy.node_count());
    assert_eq!(generated.devices().len(), legacy.devices().len());
    for (g, l) in generated.devices().iter().zip(legacy.devices()) {
        assert_eq!(format!("{g:?}"), format!("{l:?}"));
    }
    assert_eq!(matrix_pattern(generated), matrix_pattern(legacy));
}

#[test]
fn standard_word_matches_the_frozen_legacy_netlist() -> CellResult<()> {
    let cfg = LatchConfig::default();
    let params = WordParams::new(1);
    for stored in [false, true] {
        let stim = WordStimulus::idle(&params, cfg.vdd());
        let generated = word_circuit(&params, &cfg, &stim, &[stored])?;
        let legacy = legacy_standard(&cfg, &stim, stored)?;
        assert_identical(&generated, &legacy);
    }
    Ok(())
}

#[test]
fn proposed_word_matches_the_frozen_legacy_netlist() -> CellResult<()> {
    let cfg = LatchConfig::default();
    let params = WordParams::new(2);
    for stored in [[false, false], [true, false], [false, true], [true, true]] {
        let stim = WordStimulus::idle(&params, cfg.vdd());
        let generated = word_circuit(&params, &cfg, &stim, &stored)?;
        let legacy = legacy_proposed(&cfg, &stim, stored)?;
        assert_identical(&generated, &legacy);
    }
    Ok(())
}

#[test]
fn standard_restore_transient_is_bit_for_bit() -> CellResult<()> {
    let cfg = LatchConfig::default();
    let params = WordParams::new(1);
    let controls = word_restore(&cfg.timing, cfg.vdd(), 1);
    let stim = WordStimulus::restore(&params, &controls, cfg.vdd());

    let generated = word_circuit(&params, &cfg, &stim, &[true])?;
    let legacy = legacy_standard(&cfg, &stim, true)?;
    assert_identical(&generated, &legacy);

    let run = |ckt: Circuit| -> CellResult<Vec<(f64, f64)>> {
        let mut session = SimulationSession::new(ckt);
        let result = session.transient(controls.total, cfg.time_step)?;
        let q = result.node("q")?;
        let qb = result.node("qb")?;
        Ok((1..=100)
            .map(|k| {
                let t = controls.total.seconds() * f64::from(k) / 100.0;
                (q.value_at(t), qb.value_at(t))
            })
            .collect())
    };
    let a = run(generated)?;
    let b = run(legacy)?;
    // Identical circuits through the same deterministic solver: the
    // traces agree to the last bit, not just to a tolerance.
    assert_eq!(a, b);
    Ok(())
}
