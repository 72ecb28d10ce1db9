//! Concrete layouts of the two NV latch cells and the paper's published
//! areas.
//!
//! Table II's transistor counts ("excluding write components") and the
//! paper's statement that write drivers overlap the master/slave
//! circuitry imply the published **NV component** areas cover the read
//! path only. The specs here therefore come in two variants; the
//! read-path-only variant is the Table II / Table III quantity.
//!
//! One calibration anchors the generator to the paper: the NV-component
//! **edge margin** (well ties, MTJ BEOL enclosure keep-out, PD control
//! landing) is chosen so the 1-bit component width equals the paper's
//! published 1.675 µm — the same number the paper uses as half of its
//! 3.35 µm neighbour-merge threshold, which makes the system-level flow
//! self-consistent with the cell level.

use units::{Area, Length};

use crate::geometry::CellLayout;
use crate::rules::DesignRules;
use crate::spec::{CellSpec, MtjSpec, Row, TransistorSpec};

/// The paper's 1-bit NV component width in µm, half its 3.35 µm merge
/// threshold.
const STANDARD_WIDTH_UM: f64 = 1.675;

/// Edge margin calibrated so the 1-bit read-path component is exactly
/// [`STANDARD_WIDTH_UM`] wide under the n40 rules (5 columns):
/// `(1.675 − 5 × 0.16) / 2`.
#[must_use]
pub(crate) fn nv_component_rules(base: &DesignRules) -> DesignRules {
    let mut rules = *base;
    let cols = 5.0;
    let margin = (STANDARD_WIDTH_UM - cols * base.poly_pitch.micro_meters()) / 2.0;
    rules.edge_margin = Length::from_micro_meters(margin);
    rules
}

fn nm(v: f64) -> Length {
    Length::from_nano_meters(v)
}

/// Spec of the standard 1-bit NV component (paper Fig. 2b read path),
/// optionally including the two tristate write drivers.
#[must_use]
pub(crate) fn standard_1bit_spec(include_write_drivers: bool) -> CellSpec {
    let mut s = CellSpec::new("NVLATCH1");
    let t = &mut s.transistors;
    // Read path (11 devices — Table II's per-bit count).
    t.push(TransistorSpec::new(
        "PCA",
        Row::P,
        "pc_b",
        "vdd",
        "q",
        nm(400.0),
    ));
    t.push(TransistorSpec::new(
        "PCB2",
        Row::P,
        "pc_b",
        "vdd",
        "qb",
        nm(400.0),
    ));
    t.push(TransistorSpec::new(
        "P1",
        Row::P,
        "qb",
        "vdd",
        "q",
        nm(400.0),
    ));
    t.push(TransistorSpec::new(
        "P2",
        Row::P,
        "q",
        "vdd",
        "qb",
        nm(400.0),
    ));
    t.push(TransistorSpec::new(
        "T1.MP",
        Row::P,
        "sen_b",
        "sl",
        "w1",
        nm(240.0),
    ));
    t.push(TransistorSpec::new(
        "T2.MP",
        Row::P,
        "sen_b",
        "sr",
        "w2",
        nm(240.0),
    ));
    t.push(TransistorSpec::new(
        "N1",
        Row::N,
        "qb",
        "sl",
        "q",
        nm(360.0),
    ));
    t.push(TransistorSpec::new(
        "N2",
        Row::N,
        "q",
        "sr",
        "qb",
        nm(360.0),
    ));
    t.push(TransistorSpec::new(
        "T1.MN",
        Row::N,
        "sen",
        "sl",
        "w1",
        nm(240.0),
    ));
    t.push(TransistorSpec::new(
        "T2.MN",
        Row::N,
        "sen",
        "sr",
        "w2",
        nm(240.0),
    ));
    t.push(TransistorSpec::new(
        "NEN",
        Row::N,
        "sen",
        "gnd",
        "wm",
        nm(480.0),
    ));
    if include_write_drivers {
        for (inv, input, out) in [("IA", "db", "w1"), ("IB", "d", "w2")] {
            let mid_p = format!("{inv}.mp");
            let mid_n = format!("{inv}.mn");
            t.push(TransistorSpec::new(
                &format!("{inv}.MPI"),
                Row::P,
                input,
                "vdd",
                &mid_p,
                nm(600.0),
            ));
            t.push(TransistorSpec::new(
                &format!("{inv}.MPE"),
                Row::P,
                "wen_b",
                &mid_p,
                out,
                nm(600.0),
            ));
            t.push(TransistorSpec::new(
                &format!("{inv}.MNE"),
                Row::N,
                "wen",
                &mid_n,
                out,
                nm(300.0),
            ));
            t.push(TransistorSpec::new(
                &format!("{inv}.MNI"),
                Row::N,
                input,
                "gnd",
                &mid_n,
                nm(300.0),
            ));
        }
    }
    s.mtjs.push(MtjSpec::new("MTJA", "w1", "wm"));
    s.mtjs.push(MtjSpec::new("MTJB", "wm", "w2"));
    s
}

/// Spec of the proposed 2-bit NV component (paper Fig. 5 read path),
/// optionally including the four tristate write drivers.
#[must_use]
pub(crate) fn proposed_2bit_spec(include_write_drivers: bool) -> CellSpec {
    let mut s = CellSpec::new("NVLATCH2");
    let t = &mut s.transistors;
    // Read path (16 devices — Table II's 2-bit count).
    t.push(TransistorSpec::new(
        "PCVA",
        Row::P,
        "pcv_b",
        "vdd",
        "q",
        nm(400.0),
    ));
    t.push(TransistorSpec::new(
        "PCVB2",
        Row::P,
        "pcv_b",
        "vdd",
        "qb",
        nm(400.0),
    ));
    t.push(TransistorSpec::new(
        "P1",
        Row::P,
        "qb",
        "tl",
        "q",
        nm(400.0),
    ));
    t.push(TransistorSpec::new(
        "P2",
        Row::P,
        "q",
        "tr",
        "qb",
        nm(400.0),
    ));
    t.push(TransistorSpec::new(
        "P3",
        Row::P,
        "sel_b",
        "vdd",
        "mt",
        nm(480.0),
    ));
    t.push(TransistorSpec::new(
        "P4",
        Row::P,
        "p4_b",
        "tr",
        "tl",
        nm(240.0),
    ));
    t.push(TransistorSpec::new(
        "T1.MP",
        Row::P,
        "ren_b",
        "nl",
        "a3",
        nm(240.0),
    ));
    t.push(TransistorSpec::new(
        "T2.MP",
        Row::P,
        "ren_b",
        "nr",
        "a4",
        nm(240.0),
    ));
    t.push(TransistorSpec::new(
        "PCGA",
        Row::N,
        "pcg",
        "gnd",
        "q",
        nm(400.0),
    ));
    t.push(TransistorSpec::new(
        "PCGB",
        Row::N,
        "pcg",
        "gnd",
        "qb",
        nm(400.0),
    ));
    t.push(TransistorSpec::new(
        "N1",
        Row::N,
        "qb",
        "nl",
        "q",
        nm(360.0),
    ));
    t.push(TransistorSpec::new(
        "N2",
        Row::N,
        "q",
        "nr",
        "qb",
        nm(360.0),
    ));
    t.push(TransistorSpec::new(
        "N3",
        Row::N,
        "ren",
        "gnd",
        "m",
        nm(480.0),
    ));
    t.push(TransistorSpec::new(
        "N4",
        Row::N,
        "n4",
        "nr",
        "nl",
        nm(240.0),
    ));
    t.push(TransistorSpec::new(
        "T1.MN",
        Row::N,
        "ren",
        "nl",
        "a3",
        nm(240.0),
    ));
    t.push(TransistorSpec::new(
        "T2.MN",
        Row::N,
        "ren",
        "nr",
        "a4",
        nm(240.0),
    ));
    if include_write_drivers {
        for (inv, input, out) in [
            ("I1", "d1", "tl"),
            ("I2", "d1b", "tr"),
            ("I3", "d0b", "a3"),
            ("I4", "d0", "a4"),
        ] {
            let mid_p = format!("{inv}.mp");
            let mid_n = format!("{inv}.mn");
            t.push(TransistorSpec::new(
                &format!("{inv}.MPI"),
                Row::P,
                input,
                "vdd",
                &mid_p,
                nm(600.0),
            ));
            t.push(TransistorSpec::new(
                &format!("{inv}.MPE"),
                Row::P,
                "wen_b",
                &mid_p,
                out,
                nm(600.0),
            ));
            t.push(TransistorSpec::new(
                &format!("{inv}.MNE"),
                Row::N,
                "wen",
                &mid_n,
                out,
                nm(300.0),
            ));
            t.push(TransistorSpec::new(
                &format!("{inv}.MNI"),
                Row::N,
                input,
                "gnd",
                &mid_n,
                nm(300.0),
            ));
        }
    }
    s.mtjs.push(MtjSpec::new("MTJ1", "tl", "mt"));
    s.mtjs.push(MtjSpec::new("MTJ2", "mt", "tr"));
    s.mtjs.push(MtjSpec::new("MTJ3", "a3", "m"));
    s.mtjs.push(MtjSpec::new("MTJ4", "m", "a4"));
    s
}

/// Spec of an n-bit banked NV word (the `cells::generator` banked arm):
/// the standard cell's shared PCSA core plus, per bit, two transmission
/// gates, a sense-enable footer and a complementary MTJ pair — `6 + 5n`
/// read-path transistors, `2n` MTJs, and 8 write-driver devices per bit
/// when included.
fn banked_word_spec(bits: usize, include_write_drivers: bool) -> CellSpec {
    let mut s = CellSpec::new(&format!("NVWORD{bits}"));
    let t = &mut s.transistors;
    // Shared PCSA core (6 devices).
    t.push(TransistorSpec::new(
        "PCA",
        Row::P,
        "pc_b",
        "vdd",
        "q",
        nm(400.0),
    ));
    t.push(TransistorSpec::new(
        "PCB2",
        Row::P,
        "pc_b",
        "vdd",
        "qb",
        nm(400.0),
    ));
    t.push(TransistorSpec::new(
        "P1",
        Row::P,
        "qb",
        "vdd",
        "q",
        nm(400.0),
    ));
    t.push(TransistorSpec::new(
        "P2",
        Row::P,
        "q",
        "vdd",
        "qb",
        nm(400.0),
    ));
    t.push(TransistorSpec::new(
        "N1",
        Row::N,
        "qb",
        "sl",
        "q",
        nm(360.0),
    ));
    t.push(TransistorSpec::new(
        "N2",
        Row::N,
        "q",
        "sr",
        "qb",
        nm(360.0),
    ));
    // Per-bit read branch (5 devices + MTJ pair).
    for i in 0..bits {
        let (w1, w2, wm) = (format!("w1_{i}"), format!("w2_{i}"), format!("wm_{i}"));
        let (sen, sen_b) = (format!("sen{i}"), format!("sen_b{i}"));
        t.push(TransistorSpec::new(
            &format!("T{i}A.MP"),
            Row::P,
            &sen_b,
            "sl",
            &w1,
            nm(240.0),
        ));
        t.push(TransistorSpec::new(
            &format!("T{i}B.MP"),
            Row::P,
            &sen_b,
            "sr",
            &w2,
            nm(240.0),
        ));
        t.push(TransistorSpec::new(
            &format!("T{i}A.MN"),
            Row::N,
            &sen,
            "sl",
            &w1,
            nm(240.0),
        ));
        t.push(TransistorSpec::new(
            &format!("T{i}B.MN"),
            Row::N,
            &sen,
            "sr",
            &w2,
            nm(240.0),
        ));
        t.push(TransistorSpec::new(
            &format!("NEN{i}"),
            Row::N,
            &sen,
            "gnd",
            &wm,
            nm(480.0),
        ));
        s.mtjs.push(MtjSpec::new(&format!("MTJA{i}"), &w1, &wm));
        s.mtjs.push(MtjSpec::new(&format!("MTJB{i}"), &wm, &w2));
    }
    if include_write_drivers {
        for i in 0..bits {
            for (inv, input, out) in [
                (format!("IA{i}"), format!("db{i}"), format!("w1_{i}")),
                (format!("IB{i}"), format!("d{i}"), format!("w2_{i}")),
            ] {
                let mid_p = format!("{inv}.mp");
                let mid_n = format!("{inv}.mn");
                t.push(TransistorSpec::new(
                    &format!("{inv}.MPI"),
                    Row::P,
                    &input,
                    "vdd",
                    &mid_p,
                    nm(600.0),
                ));
                t.push(TransistorSpec::new(
                    &format!("{inv}.MPE"),
                    Row::P,
                    "wen_b",
                    &mid_p,
                    &out,
                    nm(600.0),
                ));
                t.push(TransistorSpec::new(
                    &format!("{inv}.MNE"),
                    Row::N,
                    "wen",
                    &mid_n,
                    &out,
                    nm(300.0),
                ));
                t.push(TransistorSpec::new(
                    &format!("{inv}.MNI"),
                    Row::N,
                    &input,
                    "gnd",
                    &mid_n,
                    nm(300.0),
                ));
            }
        }
    }
    s
}

/// Spec of an n-bit NV word component, parametric in the bit count.
///
/// The family's legacy points return the hand-written specs (`bits = 1`
/// → [`standard_1bit_spec`], `bits = 2` → [`proposed_2bit_spec`]); other
/// widths return the banked generalization matching
/// `cells::generator`'s banked arm.
///
/// # Panics
///
/// Panics if `bits` is zero.
#[must_use]
pub(crate) fn word_spec(bits: usize, include_write_drivers: bool) -> CellSpec {
    assert!(bits > 0, "an NV word stores at least one bit");
    match bits {
        1 => standard_1bit_spec(include_write_drivers),
        2 => proposed_2bit_spec(include_write_drivers),
        _ => banked_word_spec(bits, include_write_drivers),
    }
}

/// Layout of an n-bit NV word component (read path, NV-calibrated
/// margins).
///
/// # Panics
///
/// Panics if `bits` is zero.
#[must_use]
pub(crate) fn word_layout(bits: usize, rules: &DesignRules) -> CellLayout {
    CellLayout::synthesize(&word_spec(bits, false), &nv_component_rules(rules))
}

/// NV-component area of an n-bit word — the Table II quantity,
/// generalized over the family.
///
/// # Panics
///
/// Panics if `bits` is zero.
#[must_use]
pub fn word_area(bits: usize, rules: &DesignRules) -> Area {
    word_layout(bits, rules).area()
}

/// Layout of the standard 1-bit NV component (read path, NV-calibrated
/// margins).
#[must_use]
pub fn standard_1bit_layout(rules: &DesignRules) -> CellLayout {
    CellLayout::synthesize(&standard_1bit_spec(false), &nv_component_rules(rules))
}

/// Layout of the proposed 2-bit NV component (read path, NV-calibrated
/// margins).
#[must_use]
pub fn proposed_2bit_layout(rules: &DesignRules) -> CellLayout {
    CellLayout::synthesize(&proposed_2bit_spec(false), &nv_component_rules(rules))
}

/// Area of two abutted standard 1-bit components (the Table II baseline
/// "two standard 1-bit latch" row: twice the width plus the minimum
/// spacing margin — one poly pitch between the cells).
#[must_use]
pub fn standard_pair_layout_area(rules: &DesignRules) -> Area {
    let one = standard_1bit_layout(rules);
    let spacing = rules.poly_pitch * 0.5;
    (one.width() * 2.0 + spacing) * one.height()
}

/// The neighbour-merge distance threshold derived from this generator's
/// own 1-bit component width (2× width, as the paper defines it).
#[must_use]
pub fn merge_threshold(rules: &DesignRules) -> Length {
    standard_1bit_layout(rules).width() * 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transistor_counts_match_table2() {
        assert_eq!(standard_1bit_spec(false).transistor_count(), 11);
        assert_eq!(proposed_2bit_spec(false).transistor_count(), 16);
        assert_eq!(standard_1bit_spec(true).transistor_count(), 19);
        assert_eq!(proposed_2bit_spec(true).transistor_count(), 32);
    }

    #[test]
    fn standard_width_matches_the_papers_implied_width() {
        let layout = standard_1bit_layout(&DesignRules::n40());
        let width = layout.width().micro_meters();
        assert!(
            (width - 1.675).abs() < 1e-9,
            "width = {width} µm (calibration anchor)"
        );
    }

    #[test]
    fn merge_threshold_matches_the_paper() {
        let t = merge_threshold(&DesignRules::n40());
        assert!((t.micro_meters() - 3.35).abs() < 1e-9, "{t}");
    }

    #[test]
    fn proposed_cell_is_smaller_than_the_pair() {
        let rules = DesignRules::n40();
        let pair = standard_pair_layout_area(&rules);
        let prop = proposed_2bit_layout(&rules).area();
        let saving = 1.0 - prop / pair;
        // Paper: 34 %. Shape requirement: a substantial (15–50 %) saving.
        assert!(
            (0.15..0.50).contains(&saving),
            "cell area saving = {:.1} % (pair {pair}, proposed {prop})",
            saving * 100.0
        );
    }

    #[test]
    fn generated_areas_are_near_the_published_ones() {
        let rules = DesignRules::n40();
        let pair = standard_pair_layout_area(&rules).square_micro_meters();
        let prop = proposed_2bit_layout(&rules).area().square_micro_meters();
        // Within 15 % of Table II's numbers.
        assert!((pair / 5.635 - 1.0).abs() < 0.15, "pair = {pair}");
        assert!((prop / 3.696 - 1.0).abs() < 0.15, "proposed = {prop}");
    }

    #[test]
    fn layouts_pass_the_geometry_check() {
        let rules = DesignRules::n40();
        for layout in [
            standard_1bit_layout(&rules),
            proposed_2bit_layout(&rules),
            CellLayout::synthesize(&proposed_2bit_spec(true), &nv_component_rules(&rules)),
        ] {
            assert!(layout.check().is_empty(), "{:?}", layout.check());
        }
    }

    #[test]
    fn mtj_pads_per_cell() {
        let rules = DesignRules::n40();
        assert_eq!(standard_1bit_layout(&rules).mtj_count(), 2);
        assert_eq!(proposed_2bit_layout(&rules).mtj_count(), 4);
    }

    #[test]
    fn write_drivers_enlarge_the_cell() {
        let rules = nv_component_rules(&DesignRules::n40());
        let without = CellLayout::synthesize(&proposed_2bit_spec(false), &rules);
        let with = CellLayout::synthesize(&proposed_2bit_spec(true), &rules);
        assert!(with.area() > without.area());
    }

    #[test]
    fn word_spec_reduces_to_the_legacy_specs() {
        for wd in [false, true] {
            assert_eq!(
                word_spec(1, wd).transistor_count(),
                standard_1bit_spec(wd).transistor_count()
            );
            assert_eq!(
                word_spec(2, wd).transistor_count(),
                proposed_2bit_spec(wd).transistor_count()
            );
        }
    }

    #[test]
    fn word_spec_counts_scale_with_bits() {
        for bits in [3, 4, 8] {
            assert_eq!(word_spec(bits, false).transistor_count(), 6 + 5 * bits);
            assert_eq!(word_spec(bits, true).transistor_count(), 6 + 13 * bits);
            assert_eq!(word_spec(bits, false).mtjs.len(), 2 * bits);
        }
    }

    #[test]
    fn word_layouts_pass_the_geometry_check_and_grow_sublinearly() {
        let rules = DesignRules::n40();
        let mut prev = word_area(1, &rules);
        for bits in [2, 4, 8] {
            let layout = word_layout(bits, &rules);
            assert!(layout.check().is_empty(), "{:?}", layout.check());
            let area = layout.area();
            assert!(area > prev, "{bits}-bit area {area} vs {prev}");
            // Sharing the sense amplifier keeps the word under `bits`
            // 1-bit components.
            assert!(
                area < word_area(1, &rules) * bits as f64,
                "{bits}-bit area {area}"
            );
            prev = area;
        }
    }
}
