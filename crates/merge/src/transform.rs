//! Applying a merge plan: rewriting the placed design with shared NV
//! components.

use place::PlacedDesign;

use crate::pairing::MergePlan;

/// A component of the transformed design.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MergedComponent {
    /// Instance name (merged pairs concatenate both names).
    pub(crate) name: String,
    /// Master: `NVDFF1` for an unmerged flip-flop with its own 1-bit
    /// shadow component, `NVDFF2` for a merged pair sharing the 2-bit
    /// component, or the original master for combinational cells.
    pub(crate) master: String,
    /// x in µm.
    pub(crate) x: f64,
    /// y in µm.
    pub(crate) y: f64,
    /// Number of storage bits backed by this component (0 for
    /// combinational cells).
    pub(crate) nv_bits: usize,
}

/// The design after NV-component substitution.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedDesign {
    name: String,
    components: Vec<MergedComponent>,
    merged_pairs: usize,
    single_ffs: usize,
}

impl MergedDesign {
    /// Design name.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// All components after substitution.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn components(&self) -> &[MergedComponent] {
        &self.components
    }

    /// Count of shared 2-bit NV components.
    #[must_use]
    pub fn merged_pairs(&self) -> usize {
        self.merged_pairs
    }

    /// Count of remaining 1-bit NV components.
    #[must_use]
    pub fn single_flip_flops(&self) -> usize {
        self.single_ffs
    }

    /// Total NV-backed bits (must equal the original flip-flop count).
    #[must_use]
    pub fn nv_bits(&self) -> usize {
        self.components.iter().map(|c| c.nv_bits).sum()
    }
}

/// Applies a merge plan to a placed design: every paired flip-flop
/// couple becomes one `NVDFF2` at the midpoint of the pair, every
/// remaining flip-flop an `NVDFF1` in place; other cells pass through.
///
/// # Panics
///
/// Panics if the plan was computed for a different design (flip-flop
/// names must resolve).
#[must_use]
pub fn apply(design: &PlacedDesign, plan: &MergePlan) -> MergedDesign {
    let mut components = Vec::with_capacity(design.cells().len());
    // Non-FF cells pass through.
    for cell in design.cells() {
        if !cell.kind.is_flip_flop() {
            components.push(MergedComponent {
                name: cell.name.clone(),
                master: cell.kind.to_string(),
                x: cell.x.micro_meters(),
                y: cell.y.micro_meters(),
                nv_bits: 0,
            });
        }
    }
    // Merged pairs.
    let points = plan.points();
    for pair in plan.pairs() {
        let a = &points[pair.a];
        let b = &points[pair.b];
        components.push(MergedComponent {
            name: format!("{}+{}", a.name, b.name),
            master: "NVDFF2".to_owned(),
            x: (a.x + b.x) / 2.0,
            y: (a.y + b.y) / 2.0,
            nv_bits: 2,
        });
    }
    // Stragglers keep 1-bit components.
    for idx in plan.unmerged_indices() {
        let p = &points[idx];
        components.push(MergedComponent {
            name: p.name.clone(),
            master: "NVDFF1".to_owned(),
            x: p.x,
            y: p.y,
            nv_bits: 1,
        });
    }
    // Sanity: the plan must cover the design's flip-flops.
    let ff_count = design.flip_flops().count();
    assert_eq!(
        plan.points().len(),
        ff_count,
        "merge plan was computed for a different design"
    );

    MergedDesign {
        name: design.name().to_owned(),
        components,
        merged_pairs: plan.merged_pairs(),
        single_ffs: plan.unmerged_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MergeOptions;
    use netlist::{benchmarks, CellLibrary};
    use place::placer::{self, PlacerOptions};

    fn merged_s344() -> (PlacedDesign, MergedDesign) {
        let n = benchmarks::generate(benchmarks::by_name("s344").unwrap());
        let placed = placer::place(&n, &CellLibrary::n40(), &PlacerOptions::default());
        let plan = crate::plan(&placed, &MergeOptions::default());
        let merged = apply(&placed, &plan);
        (placed, merged)
    }

    #[test]
    fn nv_bits_are_conserved() {
        let (placed, merged) = merged_s344();
        assert_eq!(merged.nv_bits(), placed.flip_flops().count());
        assert_eq!(
            merged.merged_pairs() * 2 + merged.single_flip_flops(),
            placed.flip_flops().count()
        );
    }

    #[test]
    fn combinational_cells_pass_through() {
        let (placed, merged) = merged_s344();
        let comb_in = placed
            .cells()
            .iter()
            .filter(|c| !c.kind.is_flip_flop())
            .count();
        let comb_out = merged
            .components()
            .iter()
            .filter(|c| c.nv_bits == 0)
            .count();
        assert_eq!(comb_in, comb_out);
        assert_eq!(merged.name(), "s344");
    }

    #[test]
    fn merged_components_sit_between_their_parents() {
        let (placed, merged) = merged_s344();
        let ffs: std::collections::HashMap<&str, (f64, f64)> = placed
            .flip_flops()
            .map(|c| (c.name.as_str(), (c.x.micro_meters(), c.y.micro_meters())))
            .collect();
        for comp in merged.components().iter().filter(|c| c.nv_bits == 2) {
            let (a, b) = comp.name.split_once('+').expect("pair name");
            let pa = ffs[a];
            let pb = ffs[b];
            assert!((comp.x - (pa.0 + pb.0) / 2.0).abs() < 1e-9);
            assert!((comp.y - (pa.1 + pb.1) / 2.0).abs() < 1e-9);
        }
    }
}
