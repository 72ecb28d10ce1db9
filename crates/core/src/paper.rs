//! Every number the paper publishes, as data.
//!
//! Used by tests (replay-mode verification) and the benchmark harness
//! (paper-vs-measured columns in EXPERIMENTS.md).

use units::{Area, Energy, Time};

/// One column triple of Table II (worst / typical / best).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Triple {
    /// Worst-corner value.
    pub worst: f64,
    /// Typical value.
    pub typical: f64,
    /// Best-corner value.
    pub best: f64,
}

/// The published Table II, in the paper's units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2 {
    /// Read energy of two standard 1-bit latches, fJ.
    pub standard_read_energy_fj: Table2Triple,
    /// Read energy of the proposed 2-bit latch, fJ.
    pub proposed_read_energy_fj: Table2Triple,
    /// Read delay of the standard design, ps.
    pub standard_read_delay_ps: Table2Triple,
    /// Read delay of the proposed design, ps.
    pub proposed_read_delay_ps: Table2Triple,
    /// Leakage of two standard cells, pW.
    pub standard_leakage_pw: Table2Triple,
    /// Leakage of the proposed cell, pW.
    pub proposed_leakage_pw: Table2Triple,
    /// Read-path transistors, standard pair.
    pub standard_transistors: usize,
    /// Read-path transistors, proposed.
    pub proposed_transistors: usize,
    /// Area of the standard pair, µm².
    pub standard_area_um2: f64,
    /// Area of the proposed cell, µm².
    pub proposed_area_um2: f64,
}

/// The published Table II.
#[must_use]
pub fn table2() -> Table2 {
    Table2 {
        standard_read_energy_fj: Table2Triple {
            worst: 6.348,
            typical: 5.650,
            best: 4.916,
        },
        proposed_read_energy_fj: Table2Triple {
            worst: 4.799,
            typical: 4.587,
            best: 4.327,
        },
        standard_read_delay_ps: Table2Triple {
            worst: 310.0,
            typical: 187.0,
            best: 127.0,
        },
        proposed_read_delay_ps: Table2Triple {
            worst: 600.0,
            typical: 360.0,
            best: 228.0,
        },
        standard_leakage_pw: Table2Triple {
            worst: 4998.0,
            typical: 1565.0,
            best: 424.0,
        },
        proposed_leakage_pw: Table2Triple {
            worst: 4960.0,
            typical: 1528.0,
            best: 394.0,
        },
        standard_transistors: 22,
        proposed_transistors: 16,
        standard_area_um2: 5.635,
        proposed_area_um2: 3.696,
    }
}

/// The paper's worst-case write figures (same for both designs — the
/// write paths are identical by construction).
#[must_use]
pub fn write_energy() -> Energy {
    Energy::from_femto_joules(104.0)
}

/// Worst-case write latency.
#[must_use]
pub fn write_latency() -> Time {
    Time::from_nano_seconds(2.0)
}

/// One published Table III row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Total flip-flops.
    pub total_ffs: usize,
    /// Number of 2-bit merges found.
    pub merged_pairs: usize,
    /// Baseline (all 1-bit) NV area, µm².
    pub(crate) baseline_area_um2: f64,
    /// Baseline read energy, fJ.
    pub(crate) baseline_energy_fj: f64,
    /// Merged NV area, µm².
    pub(crate) merged_area_um2: f64,
    /// Merged read energy, fJ.
    pub(crate) merged_energy_fj: f64,
    /// Published area improvement, fraction.
    pub area_improvement: f64,
    /// Published energy improvement, fraction.
    pub energy_improvement: f64,
}

/// The published Table III, all 13 rows.
#[must_use]
pub fn table3() -> Vec<Table3Row> {
    vec![
        Table3Row {
            name: "s344",
            total_ffs: 15,
            merged_pairs: 5,
            baseline_area_um2: 42.255,
            baseline_energy_fj: 42.375,
            merged_area_um2: 32.565,
            merged_energy_fj: 37.06,
            area_improvement: 0.2293,
            energy_improvement: 0.1254,
        },
        Table3Row {
            name: "s838",
            total_ffs: 32,
            merged_pairs: 12,
            baseline_area_um2: 90.144,
            baseline_energy_fj: 90.4,
            merged_area_um2: 66.888,
            merged_energy_fj: 77.644,
            area_improvement: 0.2580,
            energy_improvement: 0.1411,
        },
        Table3Row {
            name: "s1423",
            total_ffs: 74,
            merged_pairs: 23,
            baseline_area_um2: 208.458,
            baseline_energy_fj: 209.05,
            merged_area_um2: 163.884,
            merged_energy_fj: 184.601,
            area_improvement: 0.2138,
            energy_improvement: 0.1170,
        },
        Table3Row {
            name: "s5378",
            total_ffs: 176,
            merged_pairs: 64,
            baseline_area_um2: 495.792,
            baseline_energy_fj: 497.2,
            merged_area_um2: 371.76,
            merged_energy_fj: 429.168,
            area_improvement: 0.2502,
            energy_improvement: 0.1368,
        },
        Table3Row {
            name: "s13207",
            total_ffs: 627,
            merged_pairs: 259,
            baseline_area_um2: 1766.259,
            baseline_energy_fj: 1771.275,
            merged_area_um2: 1264.317,
            merged_energy_fj: 1495.958,
            area_improvement: 0.2842,
            energy_improvement: 0.1554,
        },
        Table3Row {
            name: "s38584",
            total_ffs: 1424,
            merged_pairs: 473,
            baseline_area_um2: 4011.408,
            baseline_energy_fj: 4022.8,
            merged_area_um2: 3094.734,
            merged_energy_fj: 3520.001,
            area_improvement: 0.2285,
            energy_improvement: 0.1250,
        },
        Table3Row {
            name: "s35932",
            total_ffs: 1728,
            merged_pairs: 472,
            baseline_area_um2: 4867.776,
            baseline_energy_fj: 4881.6,
            merged_area_um2: 3953.04,
            merged_energy_fj: 4379.864,
            area_improvement: 0.1879,
            energy_improvement: 0.1028,
        },
        Table3Row {
            name: "b14",
            total_ffs: 215,
            merged_pairs: 90,
            baseline_area_um2: 605.655,
            baseline_energy_fj: 607.375,
            merged_area_um2: 431.235,
            merged_energy_fj: 511.705,
            area_improvement: 0.2880,
            energy_improvement: 0.1575,
        },
        Table3Row {
            name: "b15",
            total_ffs: 416,
            merged_pairs: 189,
            baseline_area_um2: 1171.872,
            baseline_energy_fj: 1175.2,
            merged_area_um2: 805.59,
            merged_energy_fj: 974.293,
            area_improvement: 0.3126,
            energy_improvement: 0.1710,
        },
        Table3Row {
            name: "b17",
            total_ffs: 1317,
            merged_pairs: 542,
            baseline_area_um2: 3709.989,
            baseline_energy_fj: 3720.525,
            merged_area_um2: 2659.593,
            merged_energy_fj: 3144.379,
            area_improvement: 0.2831,
            energy_improvement: 0.1549,
        },
        Table3Row {
            name: "b18",
            total_ffs: 3020,
            merged_pairs: 1260,
            baseline_area_um2: 8507.34,
            baseline_energy_fj: 8531.5,
            merged_area_um2: 6065.46,
            merged_energy_fj: 7192.12,
            area_improvement: 0.2870,
            energy_improvement: 0.1570,
        },
        Table3Row {
            name: "b19",
            total_ffs: 6042,
            merged_pairs: 2530,
            baseline_area_um2: 17020.314,
            baseline_energy_fj: 17068.65,
            merged_area_um2: 12117.174,
            merged_energy_fj: 14379.26,
            area_improvement: 0.2881,
            energy_improvement: 0.1576,
        },
        Table3Row {
            name: "or1200",
            total_ffs: 2887,
            merged_pairs: 1269,
            baseline_area_um2: 8132.679,
            baseline_energy_fj: 8155.775,
            merged_area_um2: 5673.357,
            merged_energy_fj: 6806.828,
            area_improvement: 0.3024,
            energy_improvement: 0.1654,
        },
    ]
}

/// The per-cell constants Table III's arithmetic is built on (derived by
/// inverting the published rows; they match Table II's typical column:
/// the 1-bit area is the pair area halved and rounded to 2.817 µm², the
/// energies are the typical read energies per component).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PerCellConstants {
    /// Area of one 1-bit NV component.
    pub(crate) area_1bit: Area,
    /// Area of the 2-bit NV component.
    pub(crate) area_2bit: Area,
    /// Read energy of one 1-bit component.
    pub(crate) energy_1bit: Energy,
    /// Read energy of the 2-bit component (two bits).
    pub(crate) energy_2bit: Energy,
}

/// The paper's per-cell constants.
#[must_use]
pub(crate) fn per_cell_constants() -> PerCellConstants {
    PerCellConstants {
        area_1bit: Area::from_square_micro_meters(2.817),
        area_2bit: Area::from_square_micro_meters(3.696),
        energy_1bit: Energy::from_femto_joules(2.825),
        energy_2bit: Energy::from_femto_joules(4.587),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_rows_are_arithmetically_consistent() {
        // Every published row must follow from the per-cell constants —
        // the key consistency check behind the replay mode.
        let c = per_cell_constants();
        for row in table3() {
            let singles = row.total_ffs - 2 * row.merged_pairs;
            let base_area = row.total_ffs as f64 * c.area_1bit.square_micro_meters();
            let merged_area = row.merged_pairs as f64 * c.area_2bit.square_micro_meters()
                + singles as f64 * c.area_1bit.square_micro_meters();
            assert!(
                (base_area - row.baseline_area_um2).abs() < 0.02,
                "{}: base area {base_area} vs {}",
                row.name,
                row.baseline_area_um2
            );
            assert!(
                (merged_area - row.merged_area_um2).abs() < 0.05,
                "{}: merged area {merged_area} vs {}",
                row.name,
                row.merged_area_um2
            );
            let base_e = row.total_ffs as f64 * c.energy_1bit.femto_joules();
            let merged_e = row.merged_pairs as f64 * c.energy_2bit.femto_joules()
                + singles as f64 * c.energy_1bit.femto_joules();
            assert!(
                (base_e - row.baseline_energy_fj).abs() < 0.05,
                "{}",
                row.name
            );
            assert!(
                (merged_e - row.merged_energy_fj).abs() < 0.05,
                "{}",
                row.name
            );
        }
    }

    #[test]
    fn published_improvements_match_their_own_columns() {
        for row in table3() {
            let area_impr = 1.0 - row.merged_area_um2 / row.baseline_area_um2;
            let energy_impr = 1.0 - row.merged_energy_fj / row.baseline_energy_fj;
            assert!(
                (area_impr - row.area_improvement).abs() < 0.001,
                "{}",
                row.name
            );
            assert!(
                (energy_impr - row.energy_improvement).abs() < 0.001,
                "{}",
                row.name
            );
        }
    }

    #[test]
    fn averages_match_the_abstract() {
        let rows = table3();
        let avg_area: f64 =
            rows.iter().map(|r| r.area_improvement).sum::<f64>() / rows.len() as f64;
        let avg_energy: f64 =
            rows.iter().map(|r| r.energy_improvement).sum::<f64>() / rows.len() as f64;
        // "26 % and 14 % in average".
        assert!((avg_area - 0.26).abs() < 0.01, "avg area = {avg_area}");
        assert!(
            (avg_energy - 0.14).abs() < 0.01,
            "avg energy = {avg_energy}"
        );
    }

    #[test]
    fn table2_shape() {
        let t = table2();
        assert!(t.proposed_read_energy_fj.typical < t.standard_read_energy_fj.typical);
        assert!(t.proposed_read_delay_ps.typical > t.standard_read_delay_ps.typical);
        assert!(t.proposed_leakage_pw.typical < t.standard_leakage_pw.typical);
        assert_eq!(t.standard_transistors, 22);
        assert_eq!(t.proposed_transistors, 16);
        // Cell-level area saving ≈ 34 %.
        let saving = 1.0 - t.proposed_area_um2 / t.standard_area_um2;
        assert!((saving - 0.344).abs() < 0.01);
    }

    #[test]
    fn headline_write_figures() {
        assert!((write_energy().femto_joules() - 104.0).abs() < 1e-9);
        assert!((write_latency().nano_seconds() - 2.0).abs() < 1e-12);
    }
}
