//! Bit pins of the cell family's characterization results.
//!
//! The standard latch, the proposed latch and the banked words are all
//! simulated by one harness (`cells::generator::NvWord`). These pins
//! hold its numbers to the last bit: the full 9-corner Table II
//! comparison, the per-word characterization of four family points at
//! the typical corner, and the typed store failure of a serial-MTJ word.
//! Every float is pinned by its IEEE-754 bit pattern and every solver
//! counter exactly, so any drift in circuit construction, stimulus,
//! retargeting or measurement order fails here.

use cells::{CellError, CellMetrics, CellVariant, Corner, LatchComparison, LatchConfig};

/// One metrics record as text: read energy, read delay, leakage, write
/// energy and write latency as hex bit patterns (SI units), the
/// read-path transistor count, then the solver counters in field order.
fn row(m: &CellMetrics) -> String {
    let s = m.solver;
    format!(
        "{:016x} {:016x} {:016x} {:016x} {:016x} {} | {} {} {} {} {} {} {} {} {} {}",
        m.read_energy.joules().to_bits(),
        m.read_delay.seconds().to_bits(),
        m.leakage.watts().to_bits(),
        m.write_energy.joules().to_bits(),
        m.write_latency.seconds().to_bits(),
        m.read_transistors,
        s.newton_iterations,
        s.lu_factorizations,
        s.accepted_steps,
        s.rejected_steps,
        s.step_halvings,
        s.pattern_reuses,
        s.symbolic_builds,
        s.repivots,
        s.lte_rejections,
        s.source_steps,
    )
}

/// Two standard 1-bit latches, per corner (Table II's baseline rows).
const STANDARD_PAIR: [(&str, &str); 9] = [
    ("SS/worst", "3d2e6bca52819abc 3de6addee3049947 3dd0a54a227786a2 3d5dab0cb5734248 3e273a98b2000672 22 | 1211 1211 341 13 0 1205 4 2 13 0"),
    ("SS/typical", "3d2e3af12ad774a9 3de4ee4cdc23870c 3dd0a54a23c8ee47 3d5a1d3b070d7214 3e234f8d1eea3024 22 | 1237 1237 346 15 0 1231 4 2 15 0"),
    ("SS/best", "3d2e131f8d182702 3de35003fd6453fa 3dd0a54a25870aed 3d578c63ca354008 3e206c300a07240a 22 | 1256 1256 348 13 0 1250 4 2 13 0"),
    ("TT/worst", "3d2eb1c9c8a25a70 3de37bd20be01f75 3de6f435156b5e14 3d5c103f3156cf50 3e2515e6107d4b20 22 | 1254 1254 368 13 0 1248 4 2 13 0"),
    ("TT/typical", "3d2e7bf5258e3eae 3de1f5a7bdffdaf5 3de6f4351a114cf1 3d5949919966c077 3e21cae901ea77eb 22 | 1254 1254 366 13 0 1248 4 2 13 0"),
    ("TT/best", "3d2e5003b8ac3e7e 3de0896df6c471cc 3de6f4351cd7b919 3d579a5816abf62d 3e1f292c16cf5150 22 | 1267 1267 361 13 0 1261 4 2 13 0"),
    ("FF/worst", "3d2ef6c5a7bacd61 3de0f5f8a7876f2f 3e040ce962c994d4 3d5a0d6133b49f19 3e233817b04affb3 22 | 1386 1386 411 19 0 1380 4 2 19 0"),
    ("FF/typical", "3d2ebd2ebb3be2d0 3ddf44d915614fc2 3e040ce9718701a9 3d5789ef0730d9a1 3e201df3b7b4facb 22 | 1418 1418 407 17 0 1412 4 2 17 0"),
    ("FF/best", "3d2e8e0bc9c8e054 3ddcc1e9e4a5cf46 3e040ce989532ab9 3d5657a331bf2dab 3e1c43a3d06289b0 22 | 1478 1478 428 23 0 1472 4 2 23 0"),
];

/// The proposed 2-bit latch, per corner.
const PROPOSED: [(&str, &str); 9] = [
    ("SS/worst", "3d2b451c9c881403 3df94f04437bf828 3dcbe93dbbc13829 3d5f0410a62d37de 3e27b7a1c89323ca 16 | 3549 3549 997 74 0 3541 6 2 74 0"),
    ("SS/typical", "3d2b340bc4c3aa16 3df75c8b071d8cb3 3dcbe93dbba9ae2b 3d5b2b9b3daf0020 3e238d3b62804142 16 | 3543 3543 996 69 0 3535 6 2 69 0"),
    ("SS/best", "3d2b22bd87ce1e45 3df593d6b5560788 3dcbe93db96136ae 3d5935e9da33e680 3e211e3f8bef4ab4 16 | 3617 3617 1023 83 0 3609 6 2 83 0"),
    ("TT/worst", "3d2bc13b635ace73 3df59f5e39766af1 3de6097019a855df 3d5c3205c62025b0 3e2506b2717eb50c 16 | 3802 3802 1061 84 0 3794 6 2 84 0"),
    ("TT/typical", "3d2b9cd8379d92ed 3df3edd67bc3fe6c 3de609701942b9c9 3d5990cc17234a4c 3e218726ca6ed73d 16 | 3879 3879 1079 101 0 3871 6 2 101 0"),
    ("TT/best", "3d2b7bdcad4484f0 3df25eeb093d5bd9 3de6097018e66b19 3d5862b1ecd8ef83 3e1f0e6b34692d69 16 | 3776 3776 1042 78 0 3768 6 2 78 0"),
    ("FF/worst", "3d2c23f51c3f37b6 3df2c303cd2896e8 3e040b1aefd0b437 3d5af9c467d4f4b7 3e2318a482f7bef1 16 | 3941 3941 1153 80 0 3933 6 2 80 0"),
    ("FF/typical", "3d2bf45178473348 3df149e7ad6336fe 3e040b1af0becf42 3d593adbd1d8338d 3e20ad8ef07cbf7b 16 | 4056 4056 1179 75 0 4048 6 2 75 0"),
    ("FF/best", "3d2bcab59510fdd2 3defd29122fe053a 3e040b1af12011d1 3d57e1ab8f1e6a85 3e1d67bd2c06de85 16 | 4085 4085 1182 89 0 4077 6 2 89 0"),
];

/// Per-word characterization of family points at the typical corner.
const WORDS: [(&str, &str); 4] = [
    ("standard", "3d1e7bf5258e3eae 3de1f5a7bdffdaf5 3dd6f4351a114cf1 3d4949919966c077 3e21cae901ea77eb 11 | 1254 1254 366 13 0 1248 4 2 13 0"),
    ("proposed", "3d2b9cd8379d92ed 3df3edd67bc3fe6c 3de609701942b9c9 3d5990cc17234a4c 3e218726ca6ed73d 16 | 3879 3879 1079 101 0 3871 6 2 101 0"),
    ("nv_word_3", "3d31f48a5a82d3fc 3dfb6d7ff23fb513 3dee7114a6f42a1f 3d62e47dccadcd3e 3e21b8f6c80fbd6f 21 | 3409 3409 1008 113 0 3402 5 2 113 0"),
    ("nv_word_4", "3d378b1ab9ed87f8 3e02734481fe192d 3df3da49123d2f94 3d692baddf6fe67e 3e21b567dcc1f7c0 26 | 4230 4230 1236 143 0 4223 5 2 143 0"),
];

fn assert_rows(design: &str, actual: &[(Corner, CellMetrics)], expected: &[(&str, &str)]) {
    assert_eq!(actual.len(), expected.len(), "{design}: corner count");
    for ((corner, m), (want_corner, want)) in actual.iter().zip(expected) {
        assert_eq!(corner.to_string(), *want_corner, "{design}: corner order");
        assert_eq!(row(m), *want, "{design} at {corner}");
    }
}

#[test]
fn table2_comparison_is_pinned_at_every_corner() {
    let c = LatchComparison::evaluate_with_jobs(&LatchConfig::default(), &Corner::all(), 1)
        .expect("Table II characterizes");
    assert_rows("standard pair", &c.standard, &STANDARD_PAIR);
    assert_rows("proposed", &c.proposed, &PROPOSED);
}

#[test]
fn family_points_characterize_to_pinned_bits() {
    for (name, want) in WORDS {
        let m = CellVariant::parse(name)
            .expect("variant parses")
            .instantiate(LatchConfig::default())
            .characterize()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(row(&m), want, "{name}");
    }
}

#[test]
fn serial_mtj_word_reports_its_failed_store() {
    // With two MTJs per branch the default write does not flip the
    // first pair; the store reports that pair as a typed failure.
    let result = CellVariant::parse("nv_word_1x2")
        .expect("variant parses")
        .instantiate(LatchConfig::default())
        .characterize();
    assert!(
        matches!(result, Err(CellError::StoreFailure { bit: 0 })),
        "{result:?}"
    );
}
