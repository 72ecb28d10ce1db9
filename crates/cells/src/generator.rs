//! Parameterized n-bit NV word generator.
//!
//! One description covers the whole cell family: a [`WordParams`] names a
//! point in the design space — `bits` MTJ pairs around one shared
//! pre-charge sense amplifier, with `series_mtjs` devices per branch —
//! and the generator emits it either as a flat [`Circuit`]
//! ([`word_circuit`]) or as a reusable hierarchical definition
//! ([`word_subckt`]) for [`spice::Circuit::instantiate`].
//!
//! The paper's two hand-wired designs are the family's first members and
//! are reproduced **bit-for-bit**:
//!
//! * `bits = 1, series_mtjs = 1` emits exactly the standard 1-bit latch
//!   (Fig. 2b) — same node order, same source order, same device order —
//!   so [`crate::StandardLatch`] now builds through this generator;
//! * `bits = 2, series_mtjs = 1` emits exactly the proposed 2-bit latch
//!   (Fig. 5), backing [`crate::ProposedLatch`];
//! * every other point emits the *banked* generalization: the standard
//!   cell's PCSA core shared by `bits` MTJ pairs, each behind its own
//!   transmission gates and sense-enable footer, read sequentially by
//!   [`crate::control::word_restore`]. Read path: `6 + 5n` transistors.
//!
//! [`NvWord`] wraps the family behind one harness: it routes the two
//! legacy points to the existing [`StandardLatch`] / [`ProposedLatch`]
//! characterization code and drives the banked variants with its own
//! cached [`SimulationSession`].

use std::cell::RefCell;

use mtj::{Mtj, MtjParams, MtjState, WritePolarity};
use spice::{analysis, join_path, Circuit, SimulationSession, SourceWaveform, SpiceError, Subckt};
use units::{Energy, Time};

use crate::config::LatchConfig;
use crate::control::{self, StoreControls, WordRestoreControls};
use crate::error::CellError;
use crate::metrics::{resolve_bit, sense_delay, CellMetrics, RestoreOutcome, StoreOutcome};
use crate::proposed::ProposedLatch;
use crate::standard::StandardLatch;

/// A point in the NV-word design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WordParams {
    /// Number of stored bits (complementary MTJ pairs).
    pub bits: usize,
    /// MTJ devices in series per branch (1 = the paper's cells; larger
    /// values trade read current for a taller resistance ladder).
    pub(crate) series_mtjs: usize,
}

/// Which circuit template a [`WordParams`] point maps onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WordArm {
    /// The hand-wired standard 1-bit latch (bits = 1, series_mtjs = 1).
    Standard,
    /// The hand-wired proposed 2-bit latch (bits = 2, series_mtjs = 1).
    Proposed,
    /// The banked n-bit generalization (everything else).
    Banked,
}

impl WordParams {
    /// A word of `bits` bits with single MTJs per branch.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    #[must_use]
    pub fn new(bits: usize) -> Self {
        assert!(bits > 0, "an NV word stores at least one bit");
        Self {
            bits,
            series_mtjs: 1,
        }
    }

    /// Same word with `count` serial MTJs per branch.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub(crate) fn with_series_mtjs(mut self, count: usize) -> Self {
        assert!(count > 0, "each branch needs at least one MTJ");
        self.series_mtjs = count;
        self
    }

    /// The canonical subcircuit-definition name for this point.
    #[must_use]
    pub(crate) fn subckt_name(&self) -> String {
        if self.series_mtjs == 1 {
            format!("NVWORD{}", self.bits)
        } else {
            format!("NVWORD{}X{}", self.bits, self.series_mtjs)
        }
    }

    fn arm(&self) -> WordArm {
        match (self.bits, self.series_mtjs) {
            (1, 1) => WordArm::Standard,
            (2, 1) => WordArm::Proposed,
            _ => WordArm::Banked,
        }
    }
}

/// Adds `count` serial MTJs between `from` and `to`, all preset to the
/// same state and polarity. With `count == 1` this is exactly
/// [`Circuit::add_mtj`] under the given name; longer chains name their
/// devices `<base>.S1 … <base>.S<count>` and their internal taps
/// `<base>.m1 … <base>.m<count-1>` through [`join_path`].
///
/// # Errors
///
/// Propagates [`SpiceError`] from device construction.
///
/// # Panics
///
/// Panics if `count` is zero.
#[allow(clippy::too_many_arguments)]
pub(crate) fn add_mtj_chain(
    ckt: &mut Circuit,
    base: &str,
    from: spice::NodeId,
    to: spice::NodeId,
    count: usize,
    params: &MtjParams,
    state: MtjState,
    polarity: WritePolarity,
) -> Result<(), SpiceError> {
    assert!(count > 0, "an MTJ chain needs at least one device");
    if count == 1 {
        return ckt.add_mtj(base, from, to, Mtj::new(params.clone(), state, polarity));
    }
    let mut prev = from;
    for j in 1..=count {
        let next = if j == count {
            to
        } else {
            ckt.node(&join_path(base, &format!("m{j}")))
        };
        ckt.add_mtj(
            &join_path(base, &format!("S{j}")),
            prev,
            next,
            Mtj::new(params.clone(), state, polarity),
        )?;
        prev = next;
    }
    Ok(())
}

/// Device names of the chain emitted by [`add_mtj_chain`] — the handles
/// for [`Circuit::set_mtj_state`] / [`Circuit::mtj_state`].
#[must_use]
pub(crate) fn mtj_chain_names(base: &str, count: usize) -> Vec<String> {
    if count == 1 {
        vec![base.to_owned()]
    } else {
        (1..=count)
            .map(|j| join_path(base, &format!("S{j}")))
            .collect()
    }
}

/// Complete stimulus set for one word simulation, addressed by source
/// name. The name set depends on the [`WordParams`] point — the two
/// legacy arms keep their historical names (`VPCB`, `VSEN`, … /
/// `VPCVB`, `VREN`, …), the banked arm indexes per bit (`VSEN0`,
/// `VSENB0`, `VD0`, …).
#[derive(Debug, Clone)]
pub struct WordStimulus {
    entries: Vec<(String, SourceWaveform)>,
}

impl WordStimulus {
    /// Builds a stimulus from explicit `(source name, waveform)` pairs.
    #[must_use]
    pub(crate) fn from_pairs(pairs: impl IntoIterator<Item = (String, SourceWaveform)>) -> Self {
        Self {
            entries: pairs.into_iter().collect(),
        }
    }

    /// Everything inactive at the given supply: used for leakage
    /// operating points and reference builds.
    #[must_use]
    pub fn idle(params: &WordParams, vdd: f64) -> Self {
        let hi = SourceWaveform::Dc(vdd);
        let lo = SourceWaveform::Dc(0.0);
        let mut entries: Vec<(String, SourceWaveform)> = Vec::new();
        match params.arm() {
            WordArm::Standard => {
                for (name, wave) in [
                    ("VDD", &hi),
                    ("VPCB", &hi),
                    ("VSEN", &lo),
                    ("VSENB", &hi),
                    ("VD", &lo),
                    ("VDB", &hi),
                    ("VWEN", &lo),
                    ("VWENB", &hi),
                ] {
                    entries.push((name.to_owned(), wave.clone()));
                }
            }
            WordArm::Proposed => {
                for (name, wave) in [
                    ("VDD", &hi),
                    ("VPCVB", &hi),
                    ("VPCG", &lo),
                    ("VREN", &lo),
                    ("VRENB", &hi),
                    ("VSELB", &hi),
                    ("VP4B", &hi),
                    ("VN4", &lo),
                    ("VD0", &lo),
                    ("VD0B", &hi),
                    ("VD1", &lo),
                    ("VD1B", &hi),
                    ("VWEN", &lo),
                    ("VWENB", &hi),
                ] {
                    entries.push((name.to_owned(), wave.clone()));
                }
            }
            WordArm::Banked => {
                entries.push(("VDD".to_owned(), hi.clone()));
                entries.push(("VPCB".to_owned(), hi.clone()));
                for i in 0..params.bits {
                    entries.push((format!("VSEN{i}"), lo.clone()));
                    entries.push((format!("VSENB{i}"), hi.clone()));
                }
                for i in 0..params.bits {
                    entries.push((format!("VD{i}"), lo.clone()));
                    entries.push((format!("VDB{i}"), hi.clone()));
                }
                entries.push(("VWEN".to_owned(), lo.clone()));
                entries.push(("VWENB".to_owned(), hi));
            }
        }
        Self { entries }
    }

    /// Restore stimulus: the idle set with the pre-charge and per-bit
    /// sense enables driven by `controls`.
    ///
    /// # Panics
    ///
    /// Panics for the proposed 2-bit arm, whose restore is sequenced by
    /// `crate::control::proposed_restore` through [`ProposedLatch`],
    /// and if `controls` does not carry one enable pair per bit.
    #[must_use]
    pub fn restore(params: &WordParams, controls: &WordRestoreControls, vdd: f64) -> Self {
        assert!(
            params.arm() != WordArm::Proposed,
            "the 2-bit optimized cell is sequenced by ProposedRestoreControls"
        );
        assert_eq!(controls.sen.len(), params.bits, "one sense enable per bit");
        let mut s = Self::idle(params, vdd);
        s.set("VPCB", controls.pc_b.clone());
        match params.arm() {
            WordArm::Standard => {
                s.set("VSEN", controls.sen[0].clone());
                s.set("VSENB", controls.sen_b[0].clone());
            }
            WordArm::Banked => {
                for i in 0..params.bits {
                    s.set(&format!("VSEN{i}"), controls.sen[i].clone());
                    s.set(&format!("VSENB{i}"), controls.sen_b[i].clone());
                }
            }
            WordArm::Proposed => unreachable!(),
        }
        s
    }

    /// Store stimulus: the idle set with the write enable pulsed and the
    /// per-bit data lines at DC levels encoding `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != params.bits`.
    #[must_use]
    pub(crate) fn store(
        params: &WordParams,
        controls: &StoreControls,
        vdd: f64,
        data: &[bool],
    ) -> Self {
        assert_eq!(data.len(), params.bits, "one data bit per stored bit");
        let level = |b: bool| SourceWaveform::Dc(if b { vdd } else { 0.0 });
        let mut s = Self::idle(params, vdd);
        s.set("VWEN", controls.wen.clone());
        s.set("VWENB", controls.wen_b.clone());
        match params.arm() {
            WordArm::Standard => {
                s.set("VD", level(data[0]));
                s.set("VDB", level(!data[0]));
            }
            WordArm::Proposed => {
                s.set("VPCG", controls.pcg.clone());
                for (i, &bit) in data.iter().enumerate() {
                    s.set(&format!("VD{i}"), level(bit));
                    s.set(&format!("VD{i}B"), level(!bit));
                }
            }
            WordArm::Banked => {
                for (i, &bit) in data.iter().enumerate() {
                    s.set(&format!("VD{i}"), level(bit));
                    s.set(&format!("VDB{i}"), level(!bit));
                }
            }
        }
        s
    }

    /// Replaces the waveform of an existing source.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not part of this stimulus (the name set is
    /// fixed by the [`WordParams`] point).
    pub(crate) fn set(&mut self, name: &str, wave: SourceWaveform) {
        let slot = self
            .entries
            .iter_mut()
            .find(|(n, _)| n == name)
            .expect("stimulus names are fixed");
        slot.1 = wave;
    }

    /// The waveform bound to a source name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not part of this stimulus.
    #[must_use]
    pub fn wave(&self, name: &str) -> SourceWaveform {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, w)| w.clone())
            .expect("stimulus names are fixed")
    }

    /// The `(source name, waveform)` pairs, in construction order.
    #[must_use]
    pub(crate) fn entries(&self) -> &[(String, SourceWaveform)] {
        &self.entries
    }

    /// `(source name, t = 0 level)` pairs for leakage accounting.
    #[must_use]
    pub(crate) fn levels(&self) -> Vec<(String, f64)> {
        self.entries
            .iter()
            .map(|(n, w)| (n.clone(), w.value_at(0.0)))
            .collect()
    }
}

/// Node names of the word circuit in interning order. The two legacy
/// arms reproduce the hand-wired builds' exact order (node order fixes
/// MNA indices, so this is part of the bit-for-bit contract).
fn word_node_names(params: &WordParams) -> Vec<String> {
    match params.arm() {
        WordArm::Standard => [
            "vdd", "q", "qb", "sl", "sr", "w1", "w2", "wm", "pc_b", "sen", "sen_b", "d", "db",
            "wen", "wen_b",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect(),
        WordArm::Proposed => [
            "vdd",
            "mtj_read",
            "mtj_read_b",
            "tl",
            "tr",
            "mt",
            "nl",
            "nr",
            "m",
            "a3",
            "a4",
            "pcv_b",
            "pcg",
            "ren",
            "ren_b",
            "sel_b",
            "p4_b",
            "n4",
            "d0",
            "d0b",
            "d1",
            "d1b",
            "wen",
            "wen_b",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect(),
        WordArm::Banked => {
            let mut names: Vec<String> = ["vdd", "q", "qb", "sl", "sr"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect();
            for i in 0..params.bits {
                names.push(format!("w1_{i}"));
                names.push(format!("w2_{i}"));
                names.push(format!("wm_{i}"));
            }
            names.push("pc_b".to_owned());
            for i in 0..params.bits {
                names.push(format!("sen{i}"));
                names.push(format!("sen_b{i}"));
            }
            for i in 0..params.bits {
                names.push(format!("d{i}"));
                names.push(format!("db{i}"));
            }
            names.push("wen".to_owned());
            names.push("wen_b".to_owned());
            names
        }
    }
}

/// `(source name, driven node name)` pairs in source-insertion order.
fn word_source_nodes(params: &WordParams) -> Vec<(String, String)> {
    let own = |pairs: &[(&str, &str)]| {
        pairs
            .iter()
            .map(|&(s, n)| (s.to_owned(), n.to_owned()))
            .collect::<Vec<_>>()
    };
    match params.arm() {
        WordArm::Standard => own(&[
            ("VDD", "vdd"),
            ("VPCB", "pc_b"),
            ("VSEN", "sen"),
            ("VSENB", "sen_b"),
            ("VD", "d"),
            ("VDB", "db"),
            ("VWEN", "wen"),
            ("VWENB", "wen_b"),
        ]),
        WordArm::Proposed => own(&[
            ("VDD", "vdd"),
            ("VPCVB", "pcv_b"),
            ("VPCG", "pcg"),
            ("VREN", "ren"),
            ("VRENB", "ren_b"),
            ("VSELB", "sel_b"),
            ("VP4B", "p4_b"),
            ("VN4", "n4"),
            ("VD0", "d0"),
            ("VD0B", "d0b"),
            ("VD1", "d1"),
            ("VD1B", "d1b"),
            ("VWEN", "wen"),
            ("VWENB", "wen_b"),
        ]),
        WordArm::Banked => {
            let mut pairs = vec![
                ("VDD".to_owned(), "vdd".to_owned()),
                ("VPCB".to_owned(), "pc_b".to_owned()),
            ];
            for i in 0..params.bits {
                pairs.push((format!("VSEN{i}"), format!("sen{i}")));
                pairs.push((format!("VSENB{i}"), format!("sen_b{i}")));
            }
            for i in 0..params.bits {
                pairs.push((format!("VD{i}"), format!("d{i}")));
                pairs.push((format!("VDB{i}"), format!("db{i}")));
            }
            pairs.push(("VWEN".to_owned(), "wen".to_owned()));
            pairs.push(("VWENB".to_owned(), "wen_b".to_owned()));
            pairs
        }
    }
}

/// Port names of the word's subcircuit definition: every node except the
/// internal sense/write taps.
fn word_port_names(params: &WordParams) -> Vec<String> {
    let internal = |name: &str| {
        matches!(name, "sl" | "sr" | "w1" | "w2" | "wm")
            || matches!(name, "tl" | "tr" | "mt" | "nl" | "nr" | "m" | "a3" | "a4")
            || name.starts_with("w1_")
            || name.starts_with("w2_")
            || name.starts_with("wm_")
    };
    word_node_names(params)
        .into_iter()
        .filter(|n| !internal(n))
        .collect()
}

fn resolve(ckt: &Circuit, name: &str) -> spice::NodeId {
    ckt.find_node(name)
        .expect("word nodes are interned before device emission")
}

/// Emits the standard 1-bit latch's devices (paper Fig. 2b) in the
/// legacy hand-wired order. Nodes must already be interned.
fn emit_standard_devices(
    ckt: &mut Circuit,
    cfg: &LatchConfig,
    series_mtjs: usize,
    stored: &[bool],
) -> Result<(), SpiceError> {
    let tech = &cfg.tech;
    let s = &cfg.sizing;
    let gnd = Circuit::GROUND;
    let (vdd, q, qb, sl, sr, w1, w2, wm) = (
        resolve(ckt, "vdd"),
        resolve(ckt, "q"),
        resolve(ckt, "qb"),
        resolve(ckt, "sl"),
        resolve(ckt, "sr"),
        resolve(ckt, "w1"),
        resolve(ckt, "w2"),
        resolve(ckt, "wm"),
    );
    let (pc_b, sen, sen_b, d, db, wen, wen_b) = (
        resolve(ckt, "pc_b"),
        resolve(ckt, "sen"),
        resolve(ckt, "sen_b"),
        resolve(ckt, "d"),
        resolve(ckt, "db"),
        resolve(ckt, "wen"),
        resolve(ckt, "wen_b"),
    );

    // Pre-charge pair.
    ckt.add_pmos("PCA", q, pc_b, vdd, tech, s.precharge)?;
    ckt.add_pmos("PCB2", qb, pc_b, vdd, tech, s.precharge)?;
    // Cross-coupled core.
    ckt.add_pmos("P1", q, qb, vdd, tech, s.cross_pmos)?;
    ckt.add_pmos("P2", qb, q, vdd, tech, s.cross_pmos)?;
    ckt.add_nmos("N1", q, qb, sl, tech, s.cross_nmos)?;
    ckt.add_nmos("N2", qb, q, sr, tech, s.cross_nmos)?;
    // Isolation transmission gates.
    crate::subckt::transmission_gate(ckt, "T1", sl, w1, sen, sen_b, tech, s.transmission)?;
    crate::subckt::transmission_gate(ckt, "T2", sr, w2, sen, sen_b, tech, s.transmission)?;
    // Sense-enable footer.
    ckt.add_nmos("NEN", wm, sen, gnd, tech, s.sense_enable)?;
    // Complementary MTJ pair (chains of `series_mtjs` per branch).
    let state_a = MtjState::from_bit(stored[0]);
    add_mtj_chain(
        ckt,
        "MTJA",
        w1,
        wm,
        series_mtjs,
        &cfg.mtj,
        state_a,
        WritePolarity::PositiveSetsAntiParallel,
    )?;
    add_mtj_chain(
        ckt,
        "MTJB",
        wm,
        w2,
        series_mtjs,
        &cfg.mtj,
        state_a.toggled(),
        WritePolarity::PositiveSetsParallel,
    )?;
    // Write drivers: IA at w1 takes D̄, IB at w2 takes D, so D = 1
    // pushes current w1 → wm → w2 and stores MTJ-A = AP.
    crate::subckt::tristate_inverter(
        ckt,
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
    crate::subckt::tristate_inverter(
        ckt,
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
    // Output wiring load.
    ckt.add_capacitor("CQ", q, gnd, s.output_load)?;
    ckt.add_capacitor(
        "CQB",
        qb,
        gnd,
        s.output_load * (1.0 + s.output_load_mismatch),
    )?;
    Ok(())
}

/// Emits the proposed 2-bit latch's devices (paper Fig. 5) in the legacy
/// hand-wired order. Nodes must already be interned.
fn emit_proposed_devices(
    ckt: &mut Circuit,
    cfg: &LatchConfig,
    series_mtjs: usize,
    stored: &[bool],
) -> Result<(), SpiceError> {
    let tech = &cfg.tech;
    let s = &cfg.sizing;
    let gnd = Circuit::GROUND;
    let (q, qb) = (resolve(ckt, "mtj_read"), resolve(ckt, "mtj_read_b"));
    let (vdd, tl, tr, mt, nl, nr, m, a3, a4) = (
        resolve(ckt, "vdd"),
        resolve(ckt, "tl"),
        resolve(ckt, "tr"),
        resolve(ckt, "mt"),
        resolve(ckt, "nl"),
        resolve(ckt, "nr"),
        resolve(ckt, "m"),
        resolve(ckt, "a3"),
        resolve(ckt, "a4"),
    );
    let (pcv_b, pcg, ren, ren_b, sel_b, p4_b, n4) = (
        resolve(ckt, "pcv_b"),
        resolve(ckt, "pcg"),
        resolve(ckt, "ren"),
        resolve(ckt, "ren_b"),
        resolve(ckt, "sel_b"),
        resolve(ckt, "p4_b"),
        resolve(ckt, "n4"),
    );
    let (d0, d0b, d1, d1b, wen, wen_b) = (
        resolve(ckt, "d0"),
        resolve(ckt, "d0b"),
        resolve(ckt, "d1"),
        resolve(ckt, "d1b"),
        resolve(ckt, "wen"),
        resolve(ckt, "wen_b"),
    );

    // Pre-charge devices (to VDD and to GND).
    ckt.add_pmos("PCVA", q, pcv_b, vdd, tech, s.precharge)?;
    ckt.add_pmos("PCVB2", qb, pcv_b, vdd, tech, s.precharge)?;
    ckt.add_nmos("PCGA", q, pcg, gnd, tech, s.precharge)?;
    ckt.add_nmos("PCGB", qb, pcg, gnd, tech, s.precharge)?;
    // Cross-coupled core with split source taps.
    ckt.add_pmos("P1", q, qb, tl, tech, s.cross_pmos)?;
    ckt.add_pmos("P2", qb, q, tr, tech, s.cross_pmos)?;
    ckt.add_nmos("N1", q, qb, nl, tech, s.cross_nmos)?;
    ckt.add_nmos("N2", qb, q, nr, tech, s.cross_nmos)?;
    // Header/footer sense enables.
    ckt.add_pmos("P3", mt, sel_b, vdd, tech, s.sense_enable)?;
    ckt.add_nmos("N3", m, ren, gnd, tech, s.sense_enable)?;
    // Tap equalizers.
    ckt.add_pmos("P4", tl, p4_b, tr, tech, s.equalizer)?;
    ckt.add_nmos("N4", nl, n4, nr, tech, s.equalizer)?;
    // Lower-pair isolation transmission gates.
    crate::subckt::transmission_gate(ckt, "T1", nl, a3, ren, ren_b, tech, s.transmission)?;
    crate::subckt::transmission_gate(ckt, "T2", nr, a4, ren, ren_b, tech, s.transmission)?;

    // Upper complementary pair (bit 1): tl —MTJ1— mt —MTJ2— tr.
    // Polarities chosen so the I1/I2 drive of D1 = 1 leaves MTJ1 = P,
    // which makes `q` the faster-rising (winning) output on the
    // upper-pair read.
    let state1 = MtjState::from_bit(stored[1]);
    add_mtj_chain(
        ckt,
        "MTJ1",
        tl,
        mt,
        series_mtjs,
        &cfg.mtj,
        state1.toggled(),
        WritePolarity::PositiveSetsAntiParallel,
    )?;
    add_mtj_chain(
        ckt,
        "MTJ2",
        mt,
        tr,
        series_mtjs,
        &cfg.mtj,
        state1,
        WritePolarity::PositiveSetsParallel,
    )?;
    // Lower complementary pair (bit 0): a3 —MTJ3— m —MTJ4— a4.
    let state0 = MtjState::from_bit(stored[0]);
    add_mtj_chain(
        ckt,
        "MTJ3",
        a3,
        m,
        series_mtjs,
        &cfg.mtj,
        state0,
        WritePolarity::PositiveSetsAntiParallel,
    )?;
    add_mtj_chain(
        ckt,
        "MTJ4",
        m,
        a4,
        series_mtjs,
        &cfg.mtj,
        state0.toggled(),
        WritePolarity::PositiveSetsParallel,
    )?;

    // Write drivers. Lower pair per the paper: I4 takes D0 (at a4),
    // I3 takes D̄0 (at a3), so D0 = 1 drives a3 → m → a4 and stores
    // MTJ3 = AP. Upper pair: I1 takes D1 (at tl), I2 takes D̄1 (at
    // tr), so D1 = 1 drives tr → mt → tl and stores MTJ1 = P /
    // MTJ2 = AP — the orientation that makes `q` win the upper read.
    for (name, input, output) in [
        ("I3", d0b, a3),
        ("I4", d0, a4),
        ("I1", d1, tl),
        ("I2", d1b, tr),
    ] {
        crate::subckt::tristate_inverter(
            ckt,
            name,
            input,
            output,
            wen,
            wen_b,
            vdd,
            gnd,
            tech,
            s.write_pmos,
            s.write_nmos,
        )?;
    }
    // Output wiring load.
    ckt.add_capacitor("CQ", q, gnd, s.output_load)?;
    ckt.add_capacitor(
        "CQB",
        qb,
        gnd,
        s.output_load * (1.0 + s.output_load_mismatch),
    )?;
    Ok(())
}

/// Emits the banked n-bit word: the standard cell's PCSA core shared by
/// `bits` MTJ pairs, each behind its own transmission gates, footer and
/// write drivers. Nodes must already be interned.
fn emit_banked_devices(
    ckt: &mut Circuit,
    cfg: &LatchConfig,
    params: &WordParams,
    stored: &[bool],
) -> Result<(), SpiceError> {
    let tech = &cfg.tech;
    let s = &cfg.sizing;
    let gnd = Circuit::GROUND;
    let (vdd, q, qb, sl, sr) = (
        resolve(ckt, "vdd"),
        resolve(ckt, "q"),
        resolve(ckt, "qb"),
        resolve(ckt, "sl"),
        resolve(ckt, "sr"),
    );
    let (wen, wen_b) = (resolve(ckt, "wen"), resolve(ckt, "wen_b"));
    let pc_b = resolve(ckt, "pc_b");

    // Shared PCSA core: pre-charge pair + cross-coupled inverters.
    ckt.add_pmos("PCA", q, pc_b, vdd, tech, s.precharge)?;
    ckt.add_pmos("PCB2", qb, pc_b, vdd, tech, s.precharge)?;
    ckt.add_pmos("P1", q, qb, vdd, tech, s.cross_pmos)?;
    ckt.add_pmos("P2", qb, q, vdd, tech, s.cross_pmos)?;
    ckt.add_nmos("N1", q, qb, sl, tech, s.cross_nmos)?;
    ckt.add_nmos("N2", qb, q, sr, tech, s.cross_nmos)?;

    // Per-bit read branch: transmission gates off the shared taps, a
    // private sense-enable footer and the complementary MTJ chains.
    for (i, &stored_bit) in stored.iter().enumerate() {
        let (w1, w2, wm) = (
            resolve(ckt, &format!("w1_{i}")),
            resolve(ckt, &format!("w2_{i}")),
            resolve(ckt, &format!("wm_{i}")),
        );
        let (sen, sen_b) = (
            resolve(ckt, &format!("sen{i}")),
            resolve(ckt, &format!("sen_b{i}")),
        );
        crate::subckt::transmission_gate(
            ckt,
            &format!("T{i}A"),
            sl,
            w1,
            sen,
            sen_b,
            tech,
            s.transmission,
        )?;
        crate::subckt::transmission_gate(
            ckt,
            &format!("T{i}B"),
            sr,
            w2,
            sen,
            sen_b,
            tech,
            s.transmission,
        )?;
        ckt.add_nmos(&format!("NEN{i}"), wm, sen, gnd, tech, s.sense_enable)?;
        let state = MtjState::from_bit(stored_bit);
        add_mtj_chain(
            ckt,
            &format!("MTJA{i}"),
            w1,
            wm,
            params.series_mtjs,
            &cfg.mtj,
            state,
            WritePolarity::PositiveSetsAntiParallel,
        )?;
        add_mtj_chain(
            ckt,
            &format!("MTJB{i}"),
            wm,
            w2,
            params.series_mtjs,
            &cfg.mtj,
            state.toggled(),
            WritePolarity::PositiveSetsParallel,
        )?;
    }

    // Per-bit write drivers, independent paths exactly as in the paper.
    for i in 0..params.bits {
        let (w1, w2) = (
            resolve(ckt, &format!("w1_{i}")),
            resolve(ckt, &format!("w2_{i}")),
        );
        let (d, db) = (
            resolve(ckt, &format!("d{i}")),
            resolve(ckt, &format!("db{i}")),
        );
        crate::subckt::tristate_inverter(
            ckt,
            &format!("IA{i}"),
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
        crate::subckt::tristate_inverter(
            ckt,
            &format!("IB{i}"),
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
    }
    // Output wiring load.
    ckt.add_capacitor("CQ", q, gnd, s.output_load)?;
    ckt.add_capacitor(
        "CQB",
        qb,
        gnd,
        s.output_load * (1.0 + s.output_load_mismatch),
    )?;
    Ok(())
}

fn emit_devices(
    ckt: &mut Circuit,
    params: &WordParams,
    cfg: &LatchConfig,
    stored: &[bool],
) -> Result<(), SpiceError> {
    match params.arm() {
        WordArm::Standard => emit_standard_devices(ckt, cfg, params.series_mtjs, stored),
        WordArm::Proposed => emit_proposed_devices(ckt, cfg, params.series_mtjs, stored),
        WordArm::Banked => emit_banked_devices(ckt, cfg, params, stored),
    }
}

/// Builds the flat, fully-stimulated word circuit: nodes, one voltage
/// source per stimulus entry, then the cell devices.
///
/// For `bits = 1` and `bits = 2` (single MTJs) this reproduces the
/// hand-wired [`StandardLatch`] / [`ProposedLatch`] circuits
/// **bit-for-bit** — identical node interning order, source order and
/// device order — which is what lets those harnesses delegate here
/// without perturbing a single Table II digit.
///
/// # Errors
///
/// Propagates [`CellError::Simulation`] from circuit construction.
///
/// # Panics
///
/// Panics if `stored.len() != params.bits` or if `stim` is missing a
/// source the topology requires.
pub fn word_circuit(
    params: &WordParams,
    config: &LatchConfig,
    stim: &WordStimulus,
    stored: &[bool],
) -> Result<Circuit, CellError> {
    assert_eq!(stored.len(), params.bits, "one preset per stored bit");
    telemetry::counter("cells.generator.circuits", 1);
    let mut ckt = Circuit::new();
    for name in word_node_names(params) {
        ckt.node(&name);
    }
    for (source, node_name) in word_source_nodes(params) {
        let node = resolve(&ckt, &node_name);
        ckt.add_voltage_source(&source, node, Circuit::GROUND, stim.wave(&source))?;
    }
    emit_devices(&mut ckt, params, config, stored)?;
    Ok(ckt)
}

/// Builds the word as a reusable [`Subckt`] definition — the cell body
/// without any stimulus sources, its supply/output/control/data nodes
/// exposed as ports. Instances flatten under canonical dotted paths and
/// share one flatten plan per definition (see [`spice::subckt`]).
///
/// # Errors
///
/// Propagates [`CellError::Simulation`] from construction.
///
/// # Panics
///
/// Panics if `stored.len() != params.bits`.
pub fn word_subckt(
    params: &WordParams,
    config: &LatchConfig,
    stored: &[bool],
) -> Result<Subckt, CellError> {
    assert_eq!(stored.len(), params.bits, "one preset per stored bit");
    telemetry::counter("cells.generator.subckts", 1);
    let ports = word_port_names(params);
    let port_refs: Vec<&str> = ports.iter().map(String::as_str).collect();
    let mut sub = Subckt::new(&params.subckt_name(), &port_refs)?;
    let body = sub.body_mut();
    for name in word_node_names(params) {
        body.node(&name);
    }
    emit_devices(body, params, config, stored)?;
    Ok(sub)
}

/// Outcome of restoring an n-bit word (the [`RestoreOutcome`] fields
/// with the bit dimension dynamic).
#[derive(Debug, Clone, PartialEq)]
pub struct WordRestoreOutcome {
    /// The recovered logic values, in read order.
    pub bits: Vec<bool>,
    /// Per-evaluation sense delays.
    pub(crate) sense_delays: Vec<Time>,
    /// Sum of the sense delays (the paper's read-delay definition).
    pub(crate) read_delay: Time,
    /// First evaluation start to last evaluation end.
    pub(crate) sequence_duration: Time,
    /// Total active energy drawn from all rails and control drivers.
    pub(crate) energy: Energy,
    /// Energy drawn from the VDD supply alone (Table II's read energy).
    pub(crate) supply_energy: Energy,
    /// Solver work spent on this transient.
    pub(crate) solver: spice::SolverStats,
}

impl<const N: usize> From<RestoreOutcome<N>> for WordRestoreOutcome {
    fn from(o: RestoreOutcome<N>) -> Self {
        Self {
            bits: o.bits.to_vec(),
            sense_delays: o.sense_delays.to_vec(),
            read_delay: o.read_delay,
            sequence_duration: o.sequence_duration,
            energy: o.energy,
            supply_energy: o.supply_energy,
            solver: o.solver,
        }
    }
}

/// Outcome of storing an n-bit word (dynamic-width [`StoreOutcome`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WordStoreOutcome {
    /// The bits now held by the NV pairs.
    pub(crate) stored: Vec<bool>,
    /// Energy to store completion (last reversal + margin).
    pub(crate) energy: Energy,
    /// Energy over the entire drive pulse.
    pub(crate) pulse_energy: Energy,
    /// Write-pulse start to last MTJ reversal.
    pub(crate) latency: Time,
    /// Number of MTJ reversals observed.
    pub(crate) switch_count: usize,
    /// Solver work spent on this transient.
    pub(crate) solver: spice::SolverStats,
}

impl<const N: usize> From<StoreOutcome<N>> for WordStoreOutcome {
    fn from(o: StoreOutcome<N>) -> Self {
        Self {
            stored: o.stored.to_vec(),
            energy: o.energy,
            pulse_energy: o.pulse_energy,
            latency: o.latency,
            switch_count: o.switch_count,
            solver: o.solver,
        }
    }
}

/// Characterization harness for any [`WordParams`] point.
///
/// The two legacy points route to the existing [`StandardLatch`] /
/// [`ProposedLatch`] harnesses (same circuits, same cached-session
/// machinery, same Table II numbers); every other point is driven as a
/// banked word with its own cached [`SimulationSession`].
///
/// # Examples
///
/// ```
/// use cells::{generator::NvWord, generator::WordParams, LatchConfig};
///
/// # fn main() -> Result<(), cells::CellError> {
/// let word = NvWord::new(WordParams::new(4), LatchConfig::default());
/// let out = word.simulate_restore(&[true, false, false, true])?;
/// assert_eq!(out.bits, vec![true, false, false, true]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NvWord {
    params: WordParams,
    kind: WordKind,
}

#[derive(Debug)]
enum WordKind {
    Standard(StandardLatch),
    Proposed(ProposedLatch),
    Banked(BankedWord),
}

impl Clone for NvWord {
    /// Clones parameters and configuration; the solver-session cache
    /// starts empty in the clone.
    fn clone(&self) -> Self {
        Self::new(self.params, self.config().clone())
    }
}

impl NvWord {
    /// Creates a harness for the given design point.
    #[must_use]
    pub fn new(params: WordParams, config: LatchConfig) -> Self {
        let kind = match params.arm() {
            WordArm::Standard => WordKind::Standard(StandardLatch::new(config)),
            WordArm::Proposed => WordKind::Proposed(ProposedLatch::new(config)),
            WordArm::Banked => WordKind::Banked(BankedWord::new(params, config)),
        };
        Self { params, kind }
    }

    /// The configuration in use.
    #[must_use]
    pub(crate) fn config(&self) -> &LatchConfig {
        match &self.kind {
            WordKind::Standard(l) => l.config(),
            WordKind::Proposed(l) => l.config(),
            WordKind::Banked(w) => &w.config,
        }
    }

    /// The word as a reusable subcircuit definition (all MTJs preset to
    /// logic 0).
    ///
    /// # Errors
    ///
    /// Propagates [`CellError::Simulation`] from construction.
    pub fn subckt(&self) -> Result<Subckt, CellError> {
        word_subckt(&self.params, self.config(), &vec![false; self.params.bits])
    }

    /// Read-path transistor count (excluding write drivers): 11 for the
    /// 1-bit cell, 16 for the 2-bit cell, `6 + 5n` for banked words.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn read_path_transistors(&self) -> usize {
        match &self.kind {
            WordKind::Standard(l) => l.read_path_transistors(),
            WordKind::Proposed(l) => l.read_path_transistors(),
            WordKind::Banked(w) => w.read_path_transistors(),
        }
    }

    /// Total transistor count including write drivers.
    #[must_use]
    pub fn total_transistors(&self) -> usize {
        match &self.kind {
            WordKind::Standard(l) => l.total_transistors(),
            WordKind::Proposed(l) => l.total_transistors(),
            WordKind::Banked(w) => w.total_transistors(),
        }
    }

    /// Restores the word with the MTJ pairs preset to hold `stored`.
    ///
    /// # Errors
    ///
    /// Propagates [`CellError`] from simulation or measurement.
    ///
    /// # Panics
    ///
    /// Panics if `stored.len() != self.bits()`.
    pub fn simulate_restore(&self, stored: &[bool]) -> Result<WordRestoreOutcome, CellError> {
        assert_eq!(stored.len(), self.params.bits, "one preset per bit");
        match &self.kind {
            WordKind::Standard(l) => Ok(l.simulate_restore([stored[0]])?.into()),
            WordKind::Proposed(l) => Ok(l.simulate_restore([stored[0], stored[1]])?.into()),
            WordKind::Banked(w) => w.simulate_restore(stored),
        }
    }

    /// Stores `data` over an initial word of `initial`.
    ///
    /// # Errors
    ///
    /// Propagates [`CellError`] from simulation, or
    /// [`CellError::StoreFailure`] if a pair ends inconsistent.
    ///
    /// # Panics
    ///
    /// Panics if `data` or `initial` length differs from `self.bits()`.
    #[cfg(test)]
    pub(crate) fn simulate_store(
        &self,
        data: &[bool],
        initial: &[bool],
    ) -> Result<WordStoreOutcome, CellError> {
        assert_eq!(data.len(), self.params.bits, "one data bit per stored bit");
        assert_eq!(initial.len(), self.params.bits, "one initial bit per pair");
        match &self.kind {
            WordKind::Standard(l) => Ok(l.simulate_store([data[0]], [initial[0]])?.into()),
            WordKind::Proposed(l) => Ok(l
                .simulate_store([data[0], data[1]], [initial[0], initial[1]])?
                .into()),
            WordKind::Banked(w) => w.simulate_store(data, initial),
        }
    }

    /// Static (leakage) power of the idle word.
    ///
    /// # Errors
    ///
    /// Propagates [`CellError::Simulation`] if the operating point fails.
    pub fn leakage(&self) -> Result<units::Power, CellError> {
        match &self.kind {
            WordKind::Standard(l) => l.leakage(),
            WordKind::Proposed(l) => l.leakage(),
            WordKind::Banked(w) => w.leakage(),
        }
    }

    /// Table II-style characterization of this word: read metrics
    /// averaged over representative stored patterns, write metrics from
    /// an all-bits-flip store, leakage, and the read-path transistor
    /// count — all **per word** (reading/writing all `bits` bits once).
    ///
    /// The 2-bit point delegates to
    /// [`crate::metrics::characterize_proposed_with`], so it reports the
    /// paper's exact Table II row.
    ///
    /// # Errors
    ///
    /// Propagates [`CellError`] from the underlying simulations.
    pub fn characterize(&self) -> Result<CellMetrics, CellError> {
        let _span = telemetry::span("cells.characterize_word");
        match &self.kind {
            WordKind::Standard(l) => {
                let solver_before = l.solver_stats();
                let r0 = l.simulate_restore([false])?;
                let r1 = l.simulate_restore([true])?;
                let w = l.simulate_store([true], [false])?;
                Ok(CellMetrics {
                    read_energy: (r0.supply_energy + r1.supply_energy) * 0.5,
                    read_delay: (r0.read_delay + r1.read_delay) * 0.5,
                    leakage: l.leakage()?,
                    write_energy: w.energy,
                    write_latency: w.latency,
                    read_transistors: l.read_path_transistors(),
                    solver: l.solver_stats() - solver_before,
                })
            }
            WordKind::Proposed(l) => crate::metrics::characterize_proposed_with(l),
            WordKind::Banked(w) => w.characterize(),
        }
    }
}

/// Representative stored patterns for read characterization: all zeros,
/// all ones, and (for multi-bit words) alternating.
fn read_patterns(bits: usize) -> Vec<Vec<bool>> {
    let mut patterns = vec![vec![false; bits], vec![true; bits]];
    if bits > 1 {
        patterns.push((0..bits).map(|i| i % 2 == 1).collect());
    }
    patterns
}

/// The banked n-bit word harness: builds the generator's banked circuit
/// once and retargets a cached [`SimulationSession`] between runs,
/// mirroring the legacy latch harnesses.
#[derive(Debug)]
struct BankedWord {
    params: WordParams,
    config: LatchConfig,
    session: RefCell<Option<SimulationSession>>,
}

impl BankedWord {
    fn new(params: WordParams, config: LatchConfig) -> Self {
        Self {
            params,
            config,
            session: RefCell::new(None),
        }
    }

    fn solver_stats(&self) -> spice::SolverStats {
        self.session
            .borrow()
            .as_ref()
            .map(spice::SimulationSession::stats)
            .unwrap_or_default()
    }

    fn with_session<T>(
        &self,
        stim: &WordStimulus,
        stored: &[bool],
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
                let ckt = word_circuit(&self.params, &self.config, stim, stored)?;
                let label = format!("nv_word_{}b", self.params.bits);
                slot.insert(SimulationSession::new(ckt).with_label(&label))
            }
        };
        let ckt = session.circuit_mut();
        for (name, wave) in stim.entries() {
            ckt.set_source_waveform(name, wave.clone())?;
        }
        // `set_mtj_state` discards switching progress, fully rewinding
        // the previous run's writes. Chain device names mirror
        // `emit_banked_devices`.
        for (i, &bit) in stored.iter().enumerate() {
            let state = MtjState::from_bit(bit);
            for name in mtj_chain_names(&format!("MTJA{i}"), self.params.series_mtjs) {
                ckt.set_mtj_state(&name, state)?;
            }
            for name in mtj_chain_names(&format!("MTJB{i}"), self.params.series_mtjs) {
                ckt.set_mtj_state(&name, state.toggled())?;
            }
        }
        f(session)
    }

    fn read_path_transistors(&self) -> usize {
        let ckt = self.reference_circuit();
        ckt.devices()
            .iter()
            .filter(|d| d.is_transistor() && !d.name().starts_with('I'))
            .count()
    }

    fn total_transistors(&self) -> usize {
        self.reference_circuit().transistor_count()
    }

    fn reference_circuit(&self) -> Circuit {
        let stim = WordStimulus::idle(&self.params, self.config.vdd());
        word_circuit(
            &self.params,
            &self.config,
            &stim,
            &vec![false; self.params.bits],
        )
        .expect("reference build is valid")
    }

    fn simulate_restore(&self, stored: &[bool]) -> Result<WordRestoreOutcome, CellError> {
        let _span = telemetry::span("cells.word.restore");
        let vdd = self.config.vdd();
        let controls = control::word_restore(&self.config.timing, vdd, self.params.bits);
        let options = self
            .config
            .transient_options(analysis::StartCondition::Zero);
        let stim = WordStimulus::restore(&self.params, &controls, vdd);
        let result = self.with_session(&stim, stored, |session| {
            Ok(session.transient_with_options(controls.total, self.config.time_step, options)?)
        })?;

        let q = result.node("q")?;
        let qb = result.node("qb")?;
        let mut bits = Vec::with_capacity(self.params.bits);
        let mut sense_delays = Vec::with_capacity(self.params.bits);
        let mut read_delay = Time::ZERO;
        for (i, &(eval_start, eval_end)) in controls.evals.iter().enumerate() {
            let sample_at = eval_end.seconds();
            let bit = resolve_bit(q.value_at(sample_at), qb.value_at(sample_at), vdd).ok_or(
                CellError::SenseFailure {
                    bit: i,
                    q: q.value_at(sample_at),
                    qb: qb.value_at(sample_at),
                },
            )?;
            // Every banked evaluation discharges from the VDD pre-charge
            // level: the losing output falls, like the standard cell.
            let loser = if bit { qb } else { q };
            let delay = sense_delay(
                loser,
                vdd,
                spice::measure::Edge::Falling,
                eval_start,
                eval_end,
                "banked word sense delay",
            )?;
            bits.push(bit);
            sense_delays.push(delay);
            read_delay += delay;
        }
        let first = controls.evals.first().expect("at least one bit").0;
        let last = controls.evals.last().expect("at least one bit").1;
        Ok(WordRestoreOutcome {
            bits,
            sense_delays,
            read_delay,
            sequence_duration: last - first,
            energy: result.total_source_energy(Time::ZERO, controls.total),
            supply_energy: result.supply_energy("VDD", Time::ZERO, controls.total)?,
            solver: result.solver_stats(),
        })
    }

    fn simulate_store(
        &self,
        data: &[bool],
        initial: &[bool],
    ) -> Result<WordStoreOutcome, CellError> {
        let _span = telemetry::span("cells.word.store");
        let vdd = self.config.vdd();
        let controls = control::store(&self.config.timing, vdd);
        let step = self.config.time_step * 5.0;
        let options = self
            .config
            .transient_options(analysis::StartCondition::OperatingPoint);
        let stim = WordStimulus::store(&self.params, &controls, vdd, data);
        let (result, end_states) = self.with_session(&stim, initial, |session| {
            let result = session.transient_with_options(controls.total, step, options)?;
            let mut end_states = Vec::with_capacity(self.params.bits);
            for i in 0..self.params.bits {
                let state = |base: String| {
                    mtj_chain_names(&base, self.params.series_mtjs)
                        .iter()
                        .map(|n| session.circuit().mtj_state(n).expect("MTJ exists"))
                        .collect::<Vec<_>>()
                };
                end_states.push((state(format!("MTJA{i}")), state(format!("MTJB{i}"))));
            }
            Ok((result, end_states))
        })?;

        for (bit, (a_chain, b_chain)) in end_states.into_iter().enumerate() {
            let want = MtjState::from_bit(data[bit]);
            let ok =
                a_chain.iter().all(|&s| s == want) && b_chain.iter().all(|&s| s == want.toggled());
            if !ok {
                return Err(CellError::StoreFailure { bit });
            }
        }
        let (energy, pulse_energy, latency) = crate::metrics::store_energies(&result, &controls);
        Ok(WordStoreOutcome {
            stored: data.to_vec(),
            energy,
            pulse_energy,
            latency,
            switch_count: result.mtj_events().len(),
            solver: result.solver_stats(),
        })
    }

    fn leakage(&self) -> Result<units::Power, CellError> {
        let _span = telemetry::span("cells.word.leakage");
        let stim = WordStimulus::idle(&self.params, self.config.vdd());
        let op = self.with_session(&stim, &vec![false; self.params.bits], |session| {
            Ok(session.op()?)
        })?;
        let mut watts = 0.0;
        for (name, level) in stim.levels() {
            if let Some(i) = op.branch_current(&name) {
                watts += level * -i;
            }
        }
        Ok(units::Power::from_watts(watts))
    }

    fn characterize(&self) -> Result<CellMetrics, CellError> {
        let solver_before = self.solver_stats();
        let patterns = read_patterns(self.params.bits);
        let mut energy = Energy::ZERO;
        let mut delay = Time::ZERO;
        for p in &patterns {
            let r = self.simulate_restore(p)?;
            energy += r.supply_energy;
            delay += r.read_delay;
        }
        let w = self.simulate_store(
            &vec![true; self.params.bits],
            &vec![false; self.params.bits],
        )?;
        Ok(CellMetrics {
            read_energy: energy / patterns.len() as f64,
            read_delay: delay / patterns.len() as f64,
            leakage: self.leakage()?,
            write_energy: w.energy,
            write_latency: w.latency,
            read_transistors: self.read_path_transistors(),
            solver: self.solver_stats() - solver_before,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> LatchConfig {
        LatchConfig::default()
    }

    #[test]
    fn params_classify_the_family() {
        assert_eq!(WordParams::new(1).arm(), WordArm::Standard);
        assert_eq!(WordParams::new(2).arm(), WordArm::Proposed);
        assert_eq!(WordParams::new(3).arm(), WordArm::Banked);
        assert_eq!(
            WordParams::new(1).with_series_mtjs(2).arm(),
            WordArm::Banked
        );
        assert_eq!(WordParams::new(4).subckt_name(), "NVWORD4");
        assert_eq!(
            WordParams::new(2).with_series_mtjs(3).subckt_name(),
            "NVWORD2X3"
        );
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bits_are_rejected() {
        let _ = WordParams::new(0);
    }

    #[test]
    fn transistor_counts_scale_with_bits() {
        // Read path: 6 shared + 5 per bit; write adds 8 per bit.
        for (bits, read, total) in [(1, 11, 19), (2, 16, 32), (3, 21, 45), (4, 26, 58)] {
            let word = NvWord::new(WordParams::new(bits), config());
            assert_eq!(word.read_path_transistors(), read, "bits = {bits}");
            assert_eq!(word.total_transistors(), total, "bits = {bits}");
        }
    }

    #[test]
    fn legacy_points_reproduce_the_paper_counts() {
        let one = NvWord::new(WordParams::new(1), config());
        assert_eq!(one.read_path_transistors(), 11);
        let two = NvWord::new(WordParams::new(2), config());
        assert_eq!(two.read_path_transistors(), 16);
        assert_eq!(two.total_transistors(), 32);
    }

    #[test]
    fn mtj_chains_lengthen_the_branch() {
        let params = WordParams::new(1).with_series_mtjs(3);
        let stim = WordStimulus::idle(&params, config().vdd());
        let ckt = word_circuit(&params, &config(), &stim, &[true]).expect("build");
        // 2 branches × 3 devices; chain devices carry dotted names.
        for name in mtj_chain_names("MTJA0", 3) {
            assert!(ckt.mtj_state(&name).is_some(), "missing {name}");
        }
        assert_eq!(mtj_chain_names("MTJA0", 3)[0], "MTJA0.S1");
        assert_eq!(mtj_chain_names("MTJB0", 1), vec!["MTJB0".to_owned()]);
        // Internal taps are interned under the chain's dotted path.
        assert!(ckt.find_node("MTJA0.m1").is_some());
        assert!(ckt.find_node("MTJA0.m2").is_some());
    }

    #[test]
    fn banked_word_restores_every_pattern() {
        let word = NvWord::new(WordParams::new(3), config());
        for stored in [
            [false, false, false],
            [true, true, true],
            [true, false, true],
            [false, true, false],
        ] {
            let out = word.simulate_restore(&stored).expect("restore");
            assert_eq!(out.bits, stored.to_vec(), "pattern {stored:?}");
            for d in &out.sense_delays {
                assert!(d.pico_seconds() > 5.0, "delay {d}");
            }
            assert_eq!(out.sense_delays.len(), 3);
        }
    }

    #[test]
    fn banked_word_stores_in_parallel() {
        let word = NvWord::new(WordParams::new(3), config());
        let out = word
            .simulate_store(&[true, true, true], &[false, false, false])
            .expect("store");
        assert_eq!(out.stored, vec![true, true, true]);
        assert_eq!(out.switch_count, 6, "both devices of every pair flip");
        assert!(out.latency.nano_seconds() < 3.0, "{}", out.latency);
    }

    #[test]
    fn banked_session_reuse_is_deterministic() {
        let word = NvWord::new(WordParams::new(3), config());
        let first = word.simulate_restore(&[true, false, true]).expect("first");
        let _ = word
            .simulate_store(&[false, true, false], &[true, false, true])
            .expect("store");
        let again = word.simulate_restore(&[true, false, true]).expect("again");
        assert_eq!(first, again);
        let fresh = NvWord::new(WordParams::new(3), config())
            .simulate_restore(&[true, false, true])
            .expect("fresh");
        assert_eq!(first, fresh);
    }

    #[test]
    fn word_energy_scales_sublinearly_with_bits() {
        // The shared sense amplifier is the point of the banked cell: a
        // 4-bit word reads for less than four 1-bit cells.
        let one = NvWord::new(WordParams::new(1), config())
            .simulate_restore(&[true])
            .expect("1-bit");
        let four = NvWord::new(WordParams::new(4), config())
            .simulate_restore(&[true, true, true, true])
            .expect("4-bit");
        assert!(
            four.supply_energy < one.supply_energy * 4.0,
            "4-bit {} vs 4 × 1-bit {}",
            four.supply_energy,
            one.supply_energy * 4.0
        );
    }

    #[test]
    fn word_leakage_is_finite_and_positive() {
        let p = NvWord::new(WordParams::new(4), config())
            .leakage()
            .expect("leakage");
        assert!(p.pico_watts() > 1.0, "leakage = {p}");
        assert!(p.nano_watts() < 400.0, "leakage = {p}");
    }

    #[test]
    fn word_subckt_exposes_ports_and_flattens() {
        let params = WordParams::new(2);
        let sub = word_subckt(&params, &config(), &[false, true]).expect("subckt");
        assert_eq!(sub.name(), "NVWORD2");
        assert!(sub.ports().iter().any(|p| p == "vdd"));
        assert!(sub.ports().iter().any(|p| p == "mtj_read"));
        assert!(sub.ports().iter().any(|p| p == "wen_b"));

        // Two instances share one flatten plan and land under their own
        // dotted prefixes.
        let mut ckt = Circuit::new();
        let ports: Vec<spice::NodeId> = sub
            .ports()
            .iter()
            .map(|p| ckt.node(&format!("u0_{p}")))
            .collect();
        ckt.instantiate("U0", &sub, &ports).expect("U0");
        let ports1: Vec<spice::NodeId> = sub
            .ports()
            .iter()
            .map(|p| ckt.node(&format!("u1_{p}")))
            .collect();
        ckt.instantiate("U1", &sub, &ports1).expect("U1");
        assert!(ckt.find_node("U0.tl").is_some());
        assert!(ckt.find_node("U1.tl").is_some());
        assert!(ckt.mtj_state("U0.MTJ1").is_some());
        assert!(ckt.mtj_state("U1.MTJ4").is_some());
        // 32 transistors per 2-bit instance.
        assert_eq!(ckt.transistor_count(), 64);
    }

    #[test]
    fn banked_subckt_counts_scale() {
        let params = WordParams::new(4);
        let sub = word_subckt(&params, &config(), &[false; 4]).expect("subckt");
        assert_eq!(sub.name(), "NVWORD4");
        let mut ckt = Circuit::new();
        let ports: Vec<spice::NodeId> = sub
            .ports()
            .iter()
            .map(|p| ckt.node(&format!("x_{p}")))
            .collect();
        ckt.instantiate("X0", &sub, &ports).expect("instantiate");
        assert_eq!(ckt.transistor_count(), 58);
        assert!(ckt.find_node("X0.w1_3").is_some());
        assert!(ckt.mtj_state("X0.MTJA3").is_some());
    }

    #[test]
    fn characterization_covers_the_family() {
        let m = NvWord::new(WordParams::new(3), config())
            .characterize()
            .expect("characterize");
        assert_eq!(m.read_transistors, 21);
        assert!(m.read_energy.femto_joules() > 0.1);
        assert!(m.write_energy.femto_joules() > 10.0);
        assert!(m.read_delay.pico_seconds() > 5.0);
    }
}
