//! Golden of the measured Table III flow: every benchmark generated at
//! the 40k-gate cap, placed with the default options and merged at the
//! paper's threshold. Pinned per design: the generated netlist (a
//! digest of every instance's name, kind and nets), the placement's
//! half-perimeter wirelength bit for bit, and the merged-pair count;
//! then both Table III averages bit for bit.
//!
//! The two largest designs are pinned again at full size (b18 and b19
//! uncapped, the largest netlists the repository builds), and the DEF
//! text of two placed designs is pinned byte for byte by digest, which
//! covers every placed name and coordinate. The structural Verilog of
//! three netlists is pinned the same way: it is the one reader of net
//! names, which a generated netlist builds only on demand.
//!
//! `evaluate_measured` runs on per-thread buffers reused from design to
//! design; running it in other design orders on one thread must give
//! the same pairs, and the flow must build no name.
//!
//! Any change to the generator, placer or merge flow that moves one
//! placed coordinate or one pair shows up here.

use merge::{MergeOptions, Strategy};
use netlist::{benchmarks, CellLibrary, InstId, Netlist};
use nvff::system::{self, SystemCosts};
use place::def;
use place::placer::{self, PlacerOptions};

/// The combinational cap of the measured flow (`table3` without `--full`).
const MAX_GATES: usize = 40_000;

/// (design, merged pairs, HPWL bits, netlist digest) in Table III order.
const GOLDEN: [(&str, usize, u64, u64); 13] = [
    ("s344", 5, 0x3f50_c245_0974_72ee, 0x9432_8e39_9ec5_a13b),
    ("s838", 13, 0x3f72_9503_06f0_8a15, 0x4094_559a_c33d_f57c),
    ("s1423", 29, 0x3f7f_486f_b067_108a, 0x320f_366c_75f2_5ce3),
    ("s5378", 66, 0x3fb2_071e_5759_0259, 0xcbb2_46c6_09c5_0a99),
    ("s13207", 236, 0x3fd5_7881_c6ea_09cb, 0xbf77_86f6_b566_0673),
    ("s38584", 546, 0x3ff4_5d97_1f6b_d626, 0x34ec_bc62_f27e_fa1f),
    ("s35932", 697, 0x3ff0_9ac6_9550_33d4, 0x616b_7e28_b70e_6ddf),
    ("b14", 68, 0x3fda_3e28_84ae_7b10, 0x2647_fdf5_f86d_a29b),
    ("b15", 148, 0x3fd6_4896_71c6_ecb6, 0xe007_6f0c_36e1_4a3a),
    ("b17", 459, 0x4003_5366_cf97_d867, 0x3746_a958_5d71_1e15),
    ("b18", 1192, 0x400e_618f_7c8a_3f11, 0xb1c0_bc0c_9a4d_3cd4),
    ("b19", 2524, 0x4010_e6b5_b17d_3b06, 0x012d_facc_071b_1d18),
    ("or1200", 1120, 0x400d_78cc_fb1a_e8d5, 0xe235_17b9_1641_88de),
];

/// Mean area and energy improvements, bit for bit.
const AVERAGES: (u64, u64) = (0x3fd0_9066_3464_34b2, 0x3fc2_1e93_5418_6b1e);

/// (design, merged pairs, HPWL bits, netlist digest) at full size.
const UNCAPPED: [(&str, usize, u64, u64); 2] = [
    ("b18", 1032, 0x4030_6ff4_d681_2b99, 0xab99_8304_d7d7_d825),
    ("b19", 2086, 0x4047_aab5_63a4_94b6, 0x0631_ce65_ca22_d616),
];

/// (design, gate cap, FNV-1a of its structural Verilog).
const VERILOG_DIGESTS: [(&str, usize, u64); 3] = [
    ("s838", MAX_GATES, 0x9b86_d711_713b_c44e),
    ("or1200", MAX_GATES, 0x5a9a_e4af_8250_306e),
    ("s344", usize::MAX, 0xaf3c_caa5_315c_6f1d),
];

/// (design, FNV-1a of its DEF text) at the 40k-gate cap.
const DEF_DIGESTS: [(&str, u64); 2] = [
    ("s838", 0xf53b_4ce5_4c94_569d),
    ("or1200", 0x2052_6308_50bc_066b),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over the net count, then per instance its name, a 0xff
/// separator, its kind's name, its input net indices and its output
/// net index (`u64::MAX` for none), indices as little-endian u64.
fn digest(n: &Netlist) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &(n.net_count() as u64).to_le_bytes());
    for (idx, inst) in n.instances().iter().enumerate() {
        fnv1a(&mut h, n.instance_name(InstId::from_index(idx)).as_bytes());
        fnv1a(&mut h, &[0xff]);
        fnv1a(&mut h, inst.kind.to_string().as_bytes());
        for net in inst.inputs() {
            fnv1a(&mut h, &(net.0 as u64).to_le_bytes());
        }
        let output = inst.output.map_or(u64::MAX, |o| o.0 as u64);
        fnv1a(&mut h, &output.to_le_bytes());
    }
    h
}

#[test]
fn measured_table3_is_pinned_bit_for_bit() {
    let lib = CellLibrary::n40();
    let costs = SystemCosts::paper();
    let mut rows = Vec::new();
    for (spec, &(name, pairs, hpwl_bits, netlist_digest)) in
        benchmarks::Benchmark::ALL.iter().zip(&GOLDEN)
    {
        assert_eq!(spec.name, name);
        let n = benchmarks::generate_scaled(*spec, MAX_GATES);
        assert_eq!(digest(&n), netlist_digest, "{name}: generated netlist");
        let placed = placer::place(&n, &lib, &PlacerOptions::default());
        assert_eq!(
            placed.hpwl(&n, &lib).to_bits(),
            hpwl_bits,
            "{name}: placement HPWL {:e} m",
            placed.hpwl(&n, &lib)
        );
        let row = system::evaluate_measured(*spec, &costs, MAX_GATES);
        assert_eq!(row.merged_pairs, pairs, "{name}: merged pairs");
        rows.push(row);
    }
    let (area, energy) = system::average_improvements(&rows);
    assert_eq!(
        (area.to_bits(), energy.to_bits()),
        AVERAGES,
        "averages {area} / {energy}"
    );
}

#[test]
fn uncapped_b18_and_b19_are_pinned() {
    let lib = CellLibrary::n40();
    let options = MergeOptions {
        threshold: layout::cells::merge_threshold(&layout::DesignRules::n40()),
        strategy: Strategy::GreedyClosest,
    };
    for &(name, pairs, hpwl_bits, netlist_digest) in &UNCAPPED {
        let n = benchmarks::generate(benchmarks::by_name(name).expect("a Table III design"));
        let placed = placer::place(&n, &lib, &PlacerOptions::default());
        let hpwl = placed.hpwl(&n, &lib);
        let merged = merge::plan(&placed, &options).merged_pairs();
        assert_eq!(digest(&n), netlist_digest, "{name}: generated netlist");
        assert_eq!(
            hpwl.to_bits(),
            hpwl_bits,
            "{name}: placement HPWL {hpwl:e} m"
        );
        assert_eq!(merged, pairs, "{name}: merged pairs");
    }
}

#[test]
fn placed_def_text_is_pinned() {
    let lib = CellLibrary::n40();
    for &(name, def_digest) in &DEF_DIGESTS {
        let spec = benchmarks::by_name(name).expect("a Table III design");
        let n = benchmarks::generate_scaled(spec, MAX_GATES);
        let placed = placer::place(&n, &lib, &PlacerOptions::default());
        let text = def::write(&placed);
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, text.as_bytes());
        assert_eq!(h, def_digest, "{name}: DEF text ({} bytes)", text.len());
    }
}

#[test]
fn verilog_text_is_pinned() {
    for &(name, cap, verilog_digest) in &VERILOG_DIGESTS {
        let spec = benchmarks::by_name(name).expect("a Table III design");
        let text = netlist::verilog::write(&benchmarks::generate_scaled(spec, cap));
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, text.as_bytes());
        assert_eq!(
            h,
            verilog_digest,
            "{name}: Verilog text ({} bytes)",
            text.len()
        );
    }
}

/// The merged pairs `evaluate_measured` finds for design `k` (Table III
/// order) on this thread's flow buffers, whatever ran before.
fn measured_pairs(k: usize) -> usize {
    let spec = benchmarks::Benchmark::ALL[k];
    system::evaluate_measured(spec, &SystemCosts::paper(), MAX_GATES).merged_pairs
}

#[test]
fn reused_flow_buffers_give_the_pinned_pairs_in_any_order() {
    // Reverse order: every design after a larger one (b19 and or1200
    // first), so a buffer is refilled shorter than it was.
    for k in (0..GOLDEN.len()).rev() {
        assert_eq!(
            measured_pairs(k),
            GOLDEN[k].1,
            "{}: reverse order",
            GOLDEN[k].0
        );
    }
    // Largest and smallest interleaved: each refill swings between the
    // extremes of the buffers' sizes.
    let mut by_size: Vec<usize> = (0..GOLDEN.len()).collect();
    by_size.sort_by_key(|&k| {
        let spec = benchmarks::Benchmark::ALL[k];
        spec.flip_flops + benchmarks::generate_scaled(spec, MAX_GATES).instance_count()
    });
    let (mut lo, mut hi) = (0, by_size.len());
    while lo < hi {
        hi -= 1;
        for k in [by_size[hi], by_size[lo]] {
            assert_eq!(
                measured_pairs(k),
                GOLDEN[k].1,
                "{}: interleaved",
                GOLDEN[k].0
            );
        }
        lo += 1;
    }
}

#[test]
fn the_measured_flow_builds_no_names() {
    // The counter is per thread, so other tests cannot move it here.
    let before = netlist::names_built();
    for k in 0..GOLDEN.len() {
        measured_pairs(k);
    }
    assert_eq!(
        netlist::names_built(),
        before,
        "evaluate_measured built names"
    );
    let spec = benchmarks::by_name("s838").expect("a Table III design");
    let n = benchmarks::generate_scaled(spec, MAX_GATES);
    let placed = placer::place(&n, &CellLibrary::n40(), &PlacerOptions::default());
    assert_eq!(
        netlist::names_built(),
        before,
        "generate and place built names"
    );
    let _ = def::write(&placed);
    assert_eq!(
        netlist::names_built() - before,
        n.instance_count() as u64,
        "the DEF writer builds the instance names, and only those"
    );
}
