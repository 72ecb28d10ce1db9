//! The NV word family: one parameterized generator and one harness.
//!
//! A [`WordParams`] names a point in the design space — `bits` MTJ
//! pairs around one shared pre-charge sense amplifier, with
//! `series_mtjs` devices per branch. The generator emits it as one flat
//! [`Circuit`] ([`word_circuit`]).
//!
//! The paper's two hand-wired designs are the family's first members and
//! are reproduced **bit-for-bit** (node, source and device order):
//!
//! * `bits = 1, series_mtjs = 1` is the standard 1-bit latch (Fig. 2b):
//!   the banked topology below at one bit, under the paper's unindexed
//!   names;
//! * `bits = 2, series_mtjs = 1` is the proposed 2-bit latch (Fig. 5);
//! * every other point is the *banked* word: the standard cell's PCSA
//!   core shared by `bits` MTJ pairs, each behind its own transmission
//!   gates and sense-enable footer, read sequentially by
//!   [`crate::control::word_restore`]. Read path: `6 + 5n` transistors.
//!
//! Everything that differs between points is data here: the stimulus
//! table (source names, driven nodes, idle levels), the MTJ chains that
//! hold each bit, the restore schedule (stimulus plus evaluation windows
//! tagged with their pre-charge rail) and the characterization patterns.
//! [`NvWord`] simulates any point from that data with one cached
//! [`SimulationSession`]; [`crate::StandardLatch`] and
//! [`crate::ProposedLatch`] are fixed-width views of it.

use std::cell::RefCell;

use mtj::{Mtj, MtjParams, MtjState, WritePolarity};
use spice::measure::Edge;
use spice::{
    analysis, Circuit, NodeId, SimulationSession, SourceWaveform, SpiceError, TransientResult,
};
use units::{Energy, Time};

use crate::config::LatchConfig;
use crate::control::{self, ProposedRestoreControls, StoreControls, WordRestoreControls};
use crate::error::CellError;
use crate::metrics::{resolve_bit, sense_delay, CellMetrics};
use crate::proposed::ControlScheme;
use crate::subckt::{join_path, transmission_gate, tristate_inverter};

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
    /// The standard 1-bit latch (bits = 1, series_mtjs = 1): the banked
    /// topology under the paper's unindexed names.
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

    fn arm(&self) -> WordArm {
        match (self.bits, self.series_mtjs) {
            (1, 1) => WordArm::Standard,
            (2, 1) => WordArm::Proposed,
            _ => WordArm::Banked,
        }
    }

    /// Label of the point's cached session, named in solver post-mortems.
    fn session_label(&self) -> String {
        match self.arm() {
            WordArm::Standard => "standard_latch".to_owned(),
            WordArm::Proposed => "proposed_2bit".to_owned(),
            WordArm::Banked => format!("nv_word_{}b", self.bits),
        }
    }

    /// Name suffixes of banked bit `i`: one for its devices and control
    /// nodes, one for its tap nodes. The standard cell keeps the paper's
    /// unindexed names.
    fn bank_suffixes(&self, i: usize) -> (String, String) {
        if self.arm() == WordArm::Standard {
            (String::new(), String::new())
        } else {
            (i.to_string(), format!("_{i}"))
        }
    }

    /// The sense outputs `(q, q̄)`.
    fn outputs(&self) -> [&'static str; 2] {
        if self.arm() == WordArm::Proposed {
            ["mtj_read", "mtj_read_b"]
        } else {
            ["q", "qb"]
        }
    }

    /// The cell's internal taps (neither source-driven nor outputs), in
    /// interning order.
    fn taps(&self) -> Vec<String> {
        if self.arm() == WordArm::Proposed {
            return ["tl", "tr", "mt", "nl", "nr", "m", "a3", "a4"]
                .into_iter()
                .map(str::to_owned)
                .collect();
        }
        let mut taps = vec!["sl".to_owned(), "sr".to_owned()];
        for i in 0..self.bits {
            let (_, s) = self.bank_suffixes(i);
            taps.extend([format!("w1{s}"), format!("w2{s}"), format!("wm{s}")]);
        }
        taps
    }

    /// Per bit, the base names of the MTJ chains holding it: the primary
    /// chain holds the bit's state, the complement chain its toggle.
    /// Bit 1 of the proposed cell is primary on `MTJ2`, so that the
    /// upper-pair read resolves `q` to the true bit value.
    fn mtj_pairs(&self) -> Vec<(String, String)> {
        if self.arm() == WordArm::Proposed {
            return vec![
                ("MTJ3".to_owned(), "MTJ4".to_owned()),
                ("MTJ2".to_owned(), "MTJ1".to_owned()),
            ];
        }
        (0..self.bits)
            .map(|i| {
                let (t, _) = self.bank_suffixes(i);
                (format!("MTJA{t}"), format!("MTJB{t}"))
            })
            .collect()
    }

    /// The stored patterns read to characterize the point: for the
    /// proposed cell every pattern; otherwise all zeros, all ones and
    /// (multi-bit) alternating.
    fn read_patterns(&self) -> Vec<Vec<bool>> {
        if self.arm() == WordArm::Proposed {
            return [[false, false], [false, true], [true, false], [true, true]]
                .into_iter()
                .map(Vec::from)
                .collect();
        }
        let mut patterns = vec![vec![false; self.bits], vec![true; self.bits]];
        if self.bits > 1 {
            patterns.push((0..self.bits).map(|i| i % 2 == 1).collect());
        }
        patterns
    }

    /// The `(data, initial)` store that characterizes the write: every
    /// pair flips.
    fn store_pattern(&self) -> (Vec<bool>, Vec<bool>) {
        if self.arm() == WordArm::Proposed {
            (vec![true, false], vec![false, true])
        } else {
            (vec![true; self.bits], vec![false; self.bits])
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
    from: NodeId,
    to: NodeId,
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

/// What a stimulus source drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Line {
    /// The VDD rail.
    Supply,
    /// VDD pre-charge gate (active low).
    Precharge,
    /// GND pre-charge gate (proposed cell).
    PrechargeGnd,
    /// Bit `i`'s sense enable and its complement (standard, banked).
    Sense(usize),
    SenseB(usize),
    /// `R_en`, its complement, the `P3` header and the `P4`/`N4`
    /// equalizer gates (proposed cell).
    ReadEnable,
    ReadEnableB,
    SelectB,
    EqualizerP,
    EqualizerN,
    /// Bit `i`'s write data and its complement.
    Data(usize),
    DataB(usize),
    /// Write-driver enable and its complement.
    WriteEnable,
    WriteEnableB,
}

/// One row of a point's stimulus table: an ideal voltage source from
/// `node` to ground, held at VDD or 0 V while idle.
struct Source {
    line: Line,
    name: String,
    node: String,
    idle_high: bool,
}

/// Name of the supply source, whose energy is the paper's read energy.
const SUPPLY: &str = "VDD";

/// The stimulus table of a point, in source-insertion order.
fn sources(params: &WordParams) -> Vec<Source> {
    let row = |line, name: &str, node: &str, idle_high| Source {
        line,
        name: name.to_owned(),
        node: node.to_owned(),
        idle_high,
    };
    let mut table = vec![row(Line::Supply, SUPPLY, "vdd", true)];
    if params.arm() == WordArm::Proposed {
        table.extend([
            row(Line::Precharge, "VPCVB", "pcv_b", true),
            row(Line::PrechargeGnd, "VPCG", "pcg", false),
            row(Line::ReadEnable, "VREN", "ren", false),
            row(Line::ReadEnableB, "VRENB", "ren_b", true),
            row(Line::SelectB, "VSELB", "sel_b", true),
            row(Line::EqualizerP, "VP4B", "p4_b", true),
            row(Line::EqualizerN, "VN4", "n4", false),
            row(Line::Data(0), "VD0", "d0", false),
            row(Line::DataB(0), "VD0B", "d0b", true),
            row(Line::Data(1), "VD1", "d1", false),
            row(Line::DataB(1), "VD1B", "d1b", true),
        ]);
    } else {
        table.push(row(Line::Precharge, "VPCB", "pc_b", true));
        let tags: Vec<String> = (0..params.bits)
            .map(|i| params.bank_suffixes(i).0)
            .collect();
        for (i, t) in tags.iter().enumerate() {
            table.extend([
                row(
                    Line::Sense(i),
                    &format!("VSEN{t}"),
                    &format!("sen{t}"),
                    false,
                ),
                row(
                    Line::SenseB(i),
                    &format!("VSENB{t}"),
                    &format!("sen_b{t}"),
                    true,
                ),
            ]);
        }
        for (i, t) in tags.iter().enumerate() {
            table.extend([
                row(Line::Data(i), &format!("VD{t}"), &format!("d{t}"), false),
                row(Line::DataB(i), &format!("VDB{t}"), &format!("db{t}"), true),
            ]);
        }
    }
    table.extend([
        row(Line::WriteEnable, "VWEN", "wen", false),
        row(Line::WriteEnableB, "VWENB", "wen_b", true),
    ]);
    table
}

/// Complete stimulus set for one word simulation: a waveform for every
/// source of the point's stimulus table, in source order.
#[derive(Debug, Clone)]
pub struct WordStimulus {
    entries: Vec<(String, SourceWaveform)>,
}

impl WordStimulus {
    /// Drives each source with `drive(line)`, or holds it at its idle
    /// level where that is `None`.
    fn build(
        params: &WordParams,
        vdd: f64,
        drive: impl Fn(Line) -> Option<SourceWaveform>,
    ) -> Self {
        let entries = sources(params)
            .into_iter()
            .map(|s| {
                let idle = SourceWaveform::Dc(if s.idle_high { vdd } else { 0.0 });
                (s.name, drive(s.line).unwrap_or(idle))
            })
            .collect();
        Self { entries }
    }

    /// Everything inactive at the given supply: used for leakage
    /// operating points and reference builds.
    #[must_use]
    pub fn idle(params: &WordParams, vdd: f64) -> Self {
        Self::build(params, vdd, |_| None)
    }

    /// Restore stimulus: the idle set with the pre-charge and per-bit
    /// sense enables driven by `controls`.
    ///
    /// # Panics
    ///
    /// Panics for the proposed 2-bit point, whose restore is sequenced
    /// by [`ProposedRestoreControls`], and if `controls` does not carry
    /// one enable pair per bit.
    #[must_use]
    pub fn restore(params: &WordParams, controls: &WordRestoreControls, vdd: f64) -> Self {
        assert!(
            params.arm() != WordArm::Proposed,
            "the 2-bit optimized cell is sequenced by ProposedRestoreControls"
        );
        assert_eq!(controls.sen.len(), params.bits, "one sense enable per bit");
        Self::build(params, vdd, |line| match line {
            Line::Precharge => Some(controls.pc_b.clone()),
            Line::Sense(i) => Some(controls.sen[i].clone()),
            Line::SenseB(i) => Some(controls.sen_b[i].clone()),
            _ => None,
        })
    }

    /// The proposed 2-bit point's restore stimulus.
    fn proposed_restore(controls: &ProposedRestoreControls, vdd: f64) -> Self {
        Self::build(&WordParams::new(2), vdd, |line| match line {
            Line::Precharge => Some(controls.pcv_b.clone()),
            Line::PrechargeGnd => Some(controls.pcg.clone()),
            Line::ReadEnable => Some(controls.ren.clone()),
            Line::ReadEnableB => Some(controls.ren_b.clone()),
            Line::SelectB => Some(controls.sel_b.clone()),
            Line::EqualizerP => Some(controls.p4_b.clone()),
            Line::EqualizerN => Some(controls.n4.clone()),
            _ => None,
        })
    }

    /// Store stimulus: the idle set with the write enable pulsed, the
    /// outputs parked at GND where the point can, and the per-bit data
    /// lines at DC levels encoding `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != params.bits`.
    fn store(params: &WordParams, controls: &StoreControls, vdd: f64, data: &[bool]) -> Self {
        assert_eq!(data.len(), params.bits, "one data bit per stored bit");
        let level = |b: bool| SourceWaveform::Dc(if b { vdd } else { 0.0 });
        Self::build(params, vdd, |line| match line {
            Line::WriteEnable => Some(controls.wen.clone()),
            Line::WriteEnableB => Some(controls.wen_b.clone()),
            Line::PrechargeGnd => Some(controls.pcg.clone()),
            Line::Data(i) => Some(level(data[i])),
            Line::DataB(i) => Some(level(!data[i])),
            _ => None,
        })
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
}

/// Node names of the word circuit in interning order: the supply, the
/// sense outputs, the internal taps, then every control node in source
/// order. Node order fixes MNA indices, so this is part of the
/// bit-for-bit contract with the paper's hand-wired cells.
fn word_node_names(params: &WordParams) -> Vec<String> {
    let table = sources(params);
    let mut names = vec![table[0].node.clone()];
    names.extend(params.outputs().map(str::to_owned));
    names.extend(params.taps());
    names.extend(table[1..].iter().map(|s| s.node.clone()));
    names
}

fn resolve(ckt: &Circuit, name: &str) -> NodeId {
    ckt.find_node(name)
        .expect("word nodes are interned before device emission")
}

/// The node driven by the source on `line`.
fn line_node(ckt: &Circuit, table: &[Source], line: Line) -> NodeId {
    let source = table
        .iter()
        .find(|s| s.line == line)
        .expect("the point drives this line");
    resolve(ckt, &source.node)
}

/// Emits the proposed 2-bit latch's devices (paper Fig. 5) in the legacy
/// hand-wired order. Nodes must already be interned.
fn emit_proposed_devices(
    ckt: &mut Circuit,
    cfg: &LatchConfig,
    params: &WordParams,
    stored: &[bool],
) -> Result<(), SpiceError> {
    let tech = &cfg.tech;
    let s = &cfg.sizing;
    let gnd = Circuit::GROUND;
    let table = sources(params);
    let [q, qb] = params.outputs().map(|n| resolve(ckt, n));
    let [tl, tr, mt, nl, nr, m, a3, a4] =
        ["tl", "tr", "mt", "nl", "nr", "m", "a3", "a4"].map(|n| resolve(ckt, n));
    let [vdd, pcv_b, pcg, ren, ren_b, sel_b, p4_b, n4] = [
        Line::Supply,
        Line::Precharge,
        Line::PrechargeGnd,
        Line::ReadEnable,
        Line::ReadEnableB,
        Line::SelectB,
        Line::EqualizerP,
        Line::EqualizerN,
    ]
    .map(|line| line_node(ckt, &table, line));
    let [d0, d0b, d1, d1b, wen, wen_b] = [
        Line::Data(0),
        Line::DataB(0),
        Line::Data(1),
        Line::DataB(1),
        Line::WriteEnable,
        Line::WriteEnableB,
    ]
    .map(|line| line_node(ckt, &table, line));

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
    transmission_gate(ckt, "T1", nl, a3, ren, ren_b, tech, s.transmission)?;
    transmission_gate(ckt, "T2", nr, a4, ren, ren_b, tech, s.transmission)?;

    // Upper complementary pair (bit 1): tl —MTJ1— mt —MTJ2— tr.
    // Polarities chosen so the I1/I2 drive of D1 = 1 leaves MTJ1 = P,
    // which makes `q` the faster-rising (winning) output on the
    // upper-pair read. Lower pair (bit 0): a3 —MTJ3— m —MTJ4— a4.
    let pairs = params.mtj_pairs();
    let (state0, state1) = (MtjState::from_bit(stored[0]), MtjState::from_bit(stored[1]));
    let (sets_ap, sets_p) = (
        WritePolarity::PositiveSetsAntiParallel,
        WritePolarity::PositiveSetsParallel,
    );
    for (base, from, to, state, polarity) in [
        (&pairs[1].1, tl, mt, state1.toggled(), sets_ap),
        (&pairs[1].0, mt, tr, state1, sets_p),
        (&pairs[0].0, a3, m, state0, sets_ap),
        (&pairs[0].1, m, a4, state0.toggled(), sets_p),
    ] {
        let series = params.series_mtjs;
        add_mtj_chain(ckt, base, from, to, series, &cfg.mtj, state, polarity)?;
    }

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
        tristate_inverter(
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
    emit_output_load(ckt, cfg, q, qb)
}

/// Emits the banked word: the standard cell's PCSA core shared by `bits`
/// MTJ pairs, each behind its own transmission gates, footer and write
/// drivers. At one bit under unindexed names this is the standard 1-bit
/// latch (paper Fig. 2b) in its hand-wired order. Nodes must already be
/// interned.
fn emit_banked_devices(
    ckt: &mut Circuit,
    cfg: &LatchConfig,
    params: &WordParams,
    stored: &[bool],
) -> Result<(), SpiceError> {
    let tech = &cfg.tech;
    let s = &cfg.sizing;
    let gnd = Circuit::GROUND;
    let table = sources(params);
    let [q, qb] = params.outputs().map(|n| resolve(ckt, n));
    let (sl, sr) = (resolve(ckt, "sl"), resolve(ckt, "sr"));
    let [vdd, pc_b, wen, wen_b] = [
        Line::Supply,
        Line::Precharge,
        Line::WriteEnable,
        Line::WriteEnableB,
    ]
    .map(|line| line_node(ckt, &table, line));
    let taps = |ckt: &Circuit, i: usize| {
        let (_, s) = params.bank_suffixes(i);
        [format!("w1{s}"), format!("w2{s}"), format!("wm{s}")].map(|n| resolve(ckt, &n))
    };

    // Shared PCSA core: pre-charge pair + cross-coupled inverters.
    ckt.add_pmos("PCA", q, pc_b, vdd, tech, s.precharge)?;
    ckt.add_pmos("PCB2", qb, pc_b, vdd, tech, s.precharge)?;
    ckt.add_pmos("P1", q, qb, vdd, tech, s.cross_pmos)?;
    ckt.add_pmos("P2", qb, q, vdd, tech, s.cross_pmos)?;
    ckt.add_nmos("N1", q, qb, sl, tech, s.cross_nmos)?;
    ckt.add_nmos("N2", qb, q, sr, tech, s.cross_nmos)?;

    // Per-bit read branch: transmission gates off the shared taps, a
    // private sense-enable footer and the complementary MTJ chains.
    let pairs = params.mtj_pairs();
    for (i, &stored_bit) in stored.iter().enumerate() {
        let [w1, w2, wm] = taps(ckt, i);
        let sen = line_node(ckt, &table, Line::Sense(i));
        let sen_b = line_node(ckt, &table, Line::SenseB(i));
        let (t, _) = params.bank_suffixes(i);
        let gates = if params.arm() == WordArm::Standard {
            ["T1".to_owned(), "T2".to_owned()]
        } else {
            [format!("T{i}A"), format!("T{i}B")]
        };
        transmission_gate(ckt, &gates[0], sl, w1, sen, sen_b, tech, s.transmission)?;
        transmission_gate(ckt, &gates[1], sr, w2, sen, sen_b, tech, s.transmission)?;
        ckt.add_nmos(&format!("NEN{t}"), wm, sen, gnd, tech, s.sense_enable)?;
        let state = MtjState::from_bit(stored_bit);
        let (primary, complement) = &pairs[i];
        for (base, from, to, state, polarity) in [
            (
                primary,
                w1,
                wm,
                state,
                WritePolarity::PositiveSetsAntiParallel,
            ),
            (
                complement,
                wm,
                w2,
                state.toggled(),
                WritePolarity::PositiveSetsParallel,
            ),
        ] {
            let series = params.series_mtjs;
            add_mtj_chain(ckt, base, from, to, series, &cfg.mtj, state, polarity)?;
        }
    }

    // Per-bit write drivers, independent paths exactly as in the paper:
    // IA at w1 takes D̄, IB at w2 takes D, so D = 1 pushes current
    // w1 → wm → w2 and stores the primary chain AP.
    for i in 0..params.bits {
        let [w1, w2, _] = taps(ckt, i);
        let d = line_node(ckt, &table, Line::Data(i));
        let db = line_node(ckt, &table, Line::DataB(i));
        let (t, _) = params.bank_suffixes(i);
        for (name, input, output) in [(format!("IA{t}"), db, w1), (format!("IB{t}"), d, w2)] {
            tristate_inverter(
                ckt,
                &name,
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
    }
    emit_output_load(ckt, cfg, q, qb)
}

/// Output wiring load, with the complement's mismatch.
fn emit_output_load(
    ckt: &mut Circuit,
    cfg: &LatchConfig,
    q: NodeId,
    qb: NodeId,
) -> Result<(), SpiceError> {
    let s = &cfg.sizing;
    ckt.add_capacitor("CQ", q, Circuit::GROUND, s.output_load)?;
    ckt.add_capacitor(
        "CQB",
        qb,
        Circuit::GROUND,
        s.output_load * (1.0 + s.output_load_mismatch),
    )
}

fn emit_devices(
    ckt: &mut Circuit,
    params: &WordParams,
    cfg: &LatchConfig,
    stored: &[bool],
) -> Result<(), SpiceError> {
    if params.arm() == WordArm::Proposed {
        emit_proposed_devices(ckt, cfg, params, stored)
    } else {
        emit_banked_devices(ckt, cfg, params, stored)
    }
}

/// Builds the flat, fully-stimulated word circuit: nodes, one voltage
/// source per stimulus entry, then the cell devices.
///
/// For `bits = 1` and `bits = 2` (single MTJs) this reproduces the
/// paper's hand-wired standard and proposed latches **bit-for-bit** —
/// identical node interning order, source order and device order.
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
    for source in sources(params) {
        let node = resolve(&ckt, &source.node);
        ckt.add_voltage_source(&source.name, node, Circuit::GROUND, stim.wave(&source.name))?;
    }
    emit_devices(&mut ckt, params, config, stored)?;
    Ok(ckt)
}

/// The rail an evaluation's outputs were pre-charged to, which decides
/// the output whose edge times the sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rail {
    /// Pre-charged high: the losing output falls.
    Vdd,
    /// Pre-charged low: the winning output rises.
    Gnd,
}

/// A point's restore sequence: its stimulus, the evaluation windows
/// `(start, end, pre-charge rail)` in read order, and the simulated span.
struct RestoreSchedule {
    stimulus: WordStimulus,
    evals: Vec<(Time, Time, Rail)>,
    total: Time,
}

/// Outcome of restoring a word.
#[derive(Debug, Clone, PartialEq)]
pub struct WordRestoreOutcome {
    /// The recovered logic values, in read order.
    pub bits: Vec<bool>,
    /// Sense delay of each evaluation, measured from its own
    /// sense-enable edge to the deciding output crossing VDD/2.
    pub sense_delays: Vec<Time>,
    /// Total read delay: the sum of the sense delays (the paper's
    /// definition — sequential reads add up).
    pub read_delay: Time,
    /// Wall-clock span from the first evaluation's start to the last
    /// evaluation's end (includes intermediate pre-charge).
    pub(crate) sequence_duration: Time,
    /// Total active energy drawn from all rails *and* control drivers.
    pub energy: Energy,
    /// Energy drawn from the VDD supply alone — the paper's read-energy
    /// metric (control signals belong to the global power-down
    /// controller and are excluded there).
    pub supply_energy: Energy,
    /// Solver work spent on this transient.
    pub(crate) solver: spice::SolverStats,
}

/// Outcome of storing a word.
#[derive(Debug, Clone, PartialEq)]
pub struct WordStoreOutcome {
    /// The bits now held by the NV pairs.
    pub stored: Vec<bool>,
    /// Energy drawn from pulse start until the store *completed* (last
    /// MTJ reversal plus a small settling margin) — the paper's write
    /// energy. The drive pulse itself is sized for the worst corner, so
    /// energy over the full pulse is pessimistic; see `pulse_energy`.
    pub energy: Energy,
    /// Energy drawn over the entire drive pulse.
    pub(crate) pulse_energy: Energy,
    /// Time from the write-pulse start to the last MTJ reversal (zero if
    /// the data was already held).
    pub latency: Time,
    /// Number of MTJ reversals observed.
    pub switch_count: usize,
    /// Solver work spent on this transient.
    pub solver: spice::SolverStats,
}

/// Characterization harness for any [`WordParams`] point.
///
/// The circuit is built once and bound to a cached
/// [`SimulationSession`]; every later simulation retargets the source
/// waveforms and MTJ presets in place, reusing the session's solver
/// workspace. The cache is per-instance and never shared, so sweeps stay
/// trivially parallel with one word per thread.
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
    config: LatchConfig,
    /// The proposed cell's restore controller; other points have one.
    scheme: ControlScheme,
    session: RefCell<Option<SimulationSession>>,
}

impl Clone for NvWord {
    /// Clones parameters, configuration and scheme; the solver-session
    /// cache starts empty in the clone.
    fn clone(&self) -> Self {
        Self::with_scheme(self.params, self.config.clone(), self.scheme)
    }
}

impl NvWord {
    /// Creates a harness for the given design point.
    #[must_use]
    pub fn new(params: WordParams, config: LatchConfig) -> Self {
        Self::with_scheme(params, config, ControlScheme::default())
    }

    /// Creates a harness whose proposed-cell restore uses `scheme`.
    pub(crate) fn with_scheme(
        params: WordParams,
        config: LatchConfig,
        scheme: ControlScheme,
    ) -> Self {
        Self {
            params,
            config,
            scheme,
            session: RefCell::new(None),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub(crate) fn config(&self) -> &LatchConfig {
        &self.config
    }

    /// The proposed cell's restore controller.
    pub(crate) fn scheme(&self) -> ControlScheme {
        self.scheme
    }

    /// Cumulative solver work performed by the cached session (zero if
    /// nothing has been simulated yet).
    pub(crate) fn solver_stats(&self) -> spice::SolverStats {
        self.session
            .borrow()
            .as_ref()
            .map(SimulationSession::stats)
            .unwrap_or_default()
    }

    /// Read-path transistor count (excluding write drivers): 11 for the
    /// 1-bit cell, 16 for the 2-bit cell, `6 + 5n` for banked words.
    /// Counted on the cached session's circuit when there is one (the
    /// topology never changes between runs), else on a fresh idle build.
    pub(crate) fn read_path_transistors(&self) -> usize {
        let count = |ckt: &Circuit| {
            ckt.devices()
                .iter()
                .filter(|d| d.is_transistor() && !d.name().starts_with('I'))
                .count()
        };
        if let Some(session) = self.session.borrow().as_ref() {
            return count(session.circuit());
        }
        count(&self.idle_circuit().expect("reference build is valid"))
    }

    /// Total transistor count including write drivers.
    #[must_use]
    pub fn total_transistors(&self) -> usize {
        let ckt = self.idle_circuit().expect("reference build is valid");
        ckt.transistor_count()
    }

    fn idle_stimulus(&self) -> WordStimulus {
        WordStimulus::idle(&self.params, self.config.vdd())
    }

    /// The idle circuit of the leakage operating point.
    pub(crate) fn idle_circuit(&self) -> Result<Circuit, CellError> {
        let stored = vec![false; self.params.bits];
        word_circuit(&self.params, &self.config, &self.idle_stimulus(), &stored)
    }

    fn restore_schedule(&self) -> RestoreSchedule {
        let (timing, vdd) = (&self.config.timing, self.config.vdd());
        if self.params.arm() == WordArm::Proposed {
            // The lower pair (bit 0) discharges from the VDD pre-charge,
            // the upper pair (bit 1) charges from the GND pre-charge.
            let c = self.scheme.restore_controls(timing, vdd);
            return RestoreSchedule {
                stimulus: WordStimulus::proposed_restore(&c, vdd),
                evals: vec![
                    (c.eval0_start, c.eval0_end, Rail::Vdd),
                    (c.eval1_start, c.eval1_end, Rail::Gnd),
                ],
                total: c.total,
            };
        }
        let c = control::word_restore(timing, vdd, self.params.bits);
        RestoreSchedule {
            stimulus: WordStimulus::restore(&self.params, &c, vdd),
            evals: c.evals.iter().map(|&(s, e)| (s, e, Rail::Vdd)).collect(),
            total: c.total,
        }
    }

    /// The fully-stimulated restore circuit with the pairs preset to
    /// hold `stored`.
    pub(crate) fn restore_circuit(&self, stored: &[bool]) -> Result<Circuit, CellError> {
        let stimulus = self.restore_schedule().stimulus;
        word_circuit(&self.params, &self.config, &stimulus, stored)
    }

    /// The fully-stimulated store circuit and its control schedule.
    pub(crate) fn store_circuit(
        &self,
        data: &[bool],
        initial: &[bool],
    ) -> Result<(Circuit, StoreControls), CellError> {
        let (stimulus, controls) = self.store_stimulus(data);
        let ckt = word_circuit(&self.params, &self.config, &stimulus, initial)?;
        Ok((ckt, controls))
    }

    fn store_stimulus(&self, data: &[bool]) -> (WordStimulus, StoreControls) {
        let vdd = self.config.vdd();
        let controls = control::store(&self.config.timing, vdd);
        let stimulus = WordStimulus::store(&self.params, &controls, vdd, data);
        (stimulus, controls)
    }

    /// Runs the restore transient with the pairs preset to hold
    /// `stored`. The simulation cold-starts from 0 V on every node —
    /// restore happens at wake-up from a power-gated state.
    fn run_restore(
        &self,
        stored: &[bool],
    ) -> Result<(TransientResult, RestoreSchedule), CellError> {
        let _span = telemetry::span("cells.restore");
        let schedule = self.restore_schedule();
        let options = self
            .config
            .transient_options(analysis::StartCondition::Zero);
        let result = self.with_session(&schedule.stimulus, stored, |session| {
            Ok(session.transient_with_options(schedule.total, self.config.time_step, options)?)
        })?;
        Ok((result, schedule))
    }

    /// The raw waveforms of the restore of `stored`.
    pub(crate) fn restore_traces(&self, stored: &[bool]) -> Result<TransientResult, CellError> {
        Ok(self.run_restore(stored)?.0)
    }

    /// Restores the word with the MTJ pairs preset to hold `stored`,
    /// returning the recovered bits, sense delays and consumed energy.
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] on solver failure,
    /// [`CellError::SenseFailure`] if an evaluation does not resolve,
    /// and [`CellError::MeasurementFailure`] if no threshold crossing is
    /// found inside an evaluation window.
    ///
    /// # Panics
    ///
    /// Panics if `stored.len()` differs from the word's bit count.
    pub fn simulate_restore(&self, stored: &[bool]) -> Result<WordRestoreOutcome, CellError> {
        let (result, schedule) = self.run_restore(stored)?;
        let vdd = self.config.vdd();
        let [q, qb] = self.params.outputs();
        let (q, qb) = (result.node(q)?, result.node(qb)?);
        let mut bits = Vec::with_capacity(schedule.evals.len());
        let mut sense_delays = Vec::with_capacity(schedule.evals.len());
        let mut read_delay = Time::ZERO;
        for (i, &(start, end, rail)) in schedule.evals.iter().enumerate() {
            let (vq, vqb) = (q.value_at(end.seconds()), qb.value_at(end.seconds()));
            let bit = resolve_bit(vq, vqb, vdd).ok_or(CellError::SenseFailure {
                bit: i,
                q: vq,
                qb: vqb,
            })?;
            let (deciding, edge) = match rail {
                Rail::Vdd => (if bit { qb } else { q }, Edge::Falling),
                Rail::Gnd => (if bit { q } else { qb }, Edge::Rising),
            };
            let delay = sense_delay(
                deciding,
                vdd,
                edge,
                start,
                end,
                &format!("bit {i} sense delay"),
            )?;
            bits.push(bit);
            sense_delays.push(delay);
            read_delay += delay;
        }
        let first = schedule.evals.first().expect("at least one bit").0;
        let last = schedule.evals.last().expect("at least one bit").1;
        Ok(WordRestoreOutcome {
            bits,
            sense_delays,
            read_delay,
            sequence_duration: last - first,
            energy: result.total_source_energy(Time::ZERO, schedule.total),
            supply_energy: result.supply_energy(SUPPLY, Time::ZERO, schedule.total)?,
            solver: result.solver_stats(),
        })
    }

    /// Runs the store transient: the pairs start holding `initial` and
    /// the write drivers push `data` into all of them in parallel. Also
    /// returns the first pair whose chains do not end up holding its data
    /// bit complementarily.
    fn run_store(
        &self,
        data: &[bool],
        initial: &[bool],
    ) -> Result<(TransientResult, StoreControls, Option<usize>), CellError> {
        let _span = telemetry::span("cells.store");
        let (stimulus, controls) = self.store_stimulus(data);
        // Write dynamics are nanosecond-scale; a coarser nominal step
        // suffices to seed the controller.
        let step = self.config.time_step * 5.0;
        let options = self
            .config
            .transient_options(analysis::StartCondition::OperatingPoint);
        let series = self.params.series_mtjs;
        self.with_session(&stimulus, initial, |session| {
            let result = session.transient_with_options(controls.total, step, options)?;
            let ckt = session.circuit();
            let holds = |base: &str, want: MtjState| {
                mtj_chain_names(base, series)
                    .iter()
                    .all(|n| ckt.mtj_state(n).expect("MTJ exists") == want)
            };
            let failed = self
                .params
                .mtj_pairs()
                .iter()
                .zip(data)
                .position(|((p, c), &bit)| {
                    let want = MtjState::from_bit(bit);
                    !(holds(p, want) && holds(c, want.toggled()))
                });
            Ok((result, controls, failed))
        })
    }

    /// The raw waveforms of a store and its control schedule.
    pub(crate) fn store_traces(
        &self,
        data: &[bool],
        initial: &[bool],
    ) -> Result<(TransientResult, StoreControls), CellError> {
        let (result, controls, _) = self.run_store(data, initial)?;
        Ok((result, controls))
    }

    /// Stores `data` over an initial word of `initial`.
    ///
    /// # Errors
    ///
    /// [`CellError::Simulation`] on solver failure and
    /// [`CellError::StoreFailure`] if a pair does not end up holding its
    /// bit complementarily.
    ///
    /// # Panics
    ///
    /// Panics if `data` or `initial` length differs from the word's bit
    /// count.
    pub fn simulate_store(
        &self,
        data: &[bool],
        initial: &[bool],
    ) -> Result<WordStoreOutcome, CellError> {
        let (result, controls, failed) = self.run_store(data, initial)?;
        if let Some(bit) = failed {
            return Err(CellError::StoreFailure { bit });
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

    /// Static (leakage) power of the idle word: the total DC power drawn
    /// from all rails with every control inactive.
    ///
    /// # Errors
    ///
    /// Propagates [`CellError::Simulation`] if the operating point fails.
    pub fn leakage(&self) -> Result<units::Power, CellError> {
        let _span = telemetry::span("cells.leakage");
        let stimulus = self.idle_stimulus();
        let stored = vec![false; self.params.bits];
        let op = self.with_session(&stimulus, &stored, |session| Ok(session.op()?))?;
        // Sum v·(−i) over every source; controls at 0 V contribute 0.
        let mut watts = 0.0;
        for (name, wave) in &stimulus.entries {
            if let Some(i) = op.branch_current(name) {
                watts += wave.value_at(0.0) * -i;
            }
        }
        Ok(units::Power::from_watts(watts))
    }

    /// Table II-style characterization of this word: read metrics
    /// averaged over the point's representative stored patterns, write
    /// metrics from a store that flips every pair, leakage, and the
    /// read-path transistor count — all **per word** (reading/writing
    /// all `bits` bits once). The solver work is the delta incurred by
    /// this characterization, not the harness's lifetime total.
    ///
    /// # Errors
    ///
    /// Propagates [`CellError`] from the underlying simulations.
    pub fn characterize(&self) -> Result<CellMetrics, CellError> {
        let _span = telemetry::span("cells.characterize");
        let solver_before = self.solver_stats();
        let patterns = self.params.read_patterns();
        let mut energy = Energy::ZERO;
        let mut delay = Time::ZERO;
        for p in &patterns {
            let r = self.simulate_restore(p)?;
            energy += r.supply_energy;
            delay += r.read_delay;
        }
        let (data, initial) = self.params.store_pattern();
        let w = self.simulate_store(&data, &initial)?;
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

    /// Runs `f` against the cached [`SimulationSession`], first aiming
    /// the circuit at `stimulus` with the pairs preset to hold `stored`.
    ///
    /// The topology never changes between runs — only source waveforms
    /// and MTJ states do — so the first call builds the circuit and every
    /// later call retargets the existing session in place.
    fn with_session<T>(
        &self,
        stimulus: &WordStimulus,
        stored: &[bool],
        f: impl FnOnce(&mut SimulationSession) -> Result<T, CellError>,
    ) -> Result<T, CellError> {
        assert_eq!(stored.len(), self.params.bits, "one preset per stored bit");
        let mut slot = self.session.borrow_mut();
        let session = match slot.as_mut() {
            Some(session) => {
                telemetry::counter("cells.session_hit", 1);
                session
            }
            None => {
                telemetry::counter("cells.session_miss", 1);
                let ckt = word_circuit(&self.params, &self.config, stimulus, stored)?;
                slot.insert(SimulationSession::new(ckt).with_label(&self.params.session_label()))
            }
        };
        let ckt = session.circuit_mut();
        for (name, wave) in &stimulus.entries {
            ckt.set_source_waveform(name, wave.clone())?;
        }
        // `set_mtj_state` discards switching progress, fully rewinding
        // the previous run's writes.
        for ((primary, complement), &bit) in self.params.mtj_pairs().iter().zip(stored) {
            let state = MtjState::from_bit(bit);
            for (base, state) in [(primary, state), (complement, state.toggled())] {
                for name in mtj_chain_names(base, self.params.series_mtjs) {
                    ckt.set_mtj_state(&name, state)?;
                }
            }
        }
        f(session)
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
    fn flat_word_carries_its_nodes_and_devices() {
        let params = WordParams::new(2);
        let stim = WordStimulus::idle(&params, config().vdd());
        let ckt = word_circuit(&params, &config(), &stim, &[false, true]).expect("build");
        for node in ["vdd", "mtj_read", "wen_b", "tl"] {
            assert!(ckt.find_node(node).is_some(), "missing node {node}");
        }
        assert!(ckt.mtj_state("MTJ1").is_some());
        assert!(ckt.mtj_state("MTJ4").is_some());
        assert_eq!(ckt.transistor_count(), 32);
    }

    #[test]
    fn banked_word_counts_scale() {
        let params = WordParams::new(4);
        let stim = WordStimulus::idle(&params, config().vdd());
        let ckt = word_circuit(&params, &config(), &stim, &[false; 4]).expect("build");
        assert_eq!(ckt.transistor_count(), 58);
        assert!(ckt.find_node("w1_3").is_some());
        assert!(ckt.mtj_state("MTJA3").is_some());
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
