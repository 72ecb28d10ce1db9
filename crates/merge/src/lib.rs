//! Neighbour flip-flop merging — the paper's DEF post-processing flow.
//!
//! After placement, flip-flops that lie closer than twice the width of
//! the 1-bit NV component (≤ 3.35 µm in the paper) can share one 2-bit
//! shadow latch without timing penalty. This crate reimplements the
//! "script executed over the DEF file":
//!
//! 1. [`candidates`](pairing::candidates) finds every flip-flop pair
//!    within the distance threshold (one query per flip-flop on a
//!    bucket grid that stores only occupied buckets, linear in design
//!    size);
//! 2. a pairing strategy ([`pairing::Strategy`]) selects a disjoint set
//!    of pairs — closest-first greedy (the baseline), or the
//!    degree-aware variant that prefers isolated flip-flops first and
//!    recovers more pairs in dense clusters;
//! 3. [`apply`](transform::apply) rewrites the placed design, replacing
//!    each merged pair with one `DFF2`+`NVLATCH2` site and attaching
//!    `NVLATCH1` to the rest.
//!
//! The resulting [`MergePlan`] carries the counts Table III consumes.
//!
//! # Examples
//!
//! ```
//! use netlist::{CellLibrary, benchmarks};
//! use place::{PlacerOptions, placer};
//! use merge::{pairing, MergeOptions};
//! use units::Length;
//!
//! let n = benchmarks::generate(benchmarks::by_name("s344").unwrap());
//! let placed = placer::place(&n, &CellLibrary::n40(), &PlacerOptions::default());
//! let plan = merge::plan(&placed, &MergeOptions::default());
//! assert!(plan.merged_pairs() > 0);
//! assert!(plan.merged_pairs() * 2 <= 15);
//! # let _ = pairing::Strategy::GreedyClosest;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pairing;
pub mod transform;

use place::PlacedDesign;
use units::Length;

use pairing::FlipFlopPoint;
pub use pairing::{MergePlan, Strategy};

/// Options of the merge flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeOptions {
    /// Distance threshold below which two flip-flops may share one
    /// 2-bit NV component. The paper's limit: twice the 1-bit component
    /// width, 3.35 µm.
    pub threshold: Length,
    /// Pairing strategy.
    pub strategy: Strategy,
}

impl Default for MergeOptions {
    fn default() -> Self {
        Self {
            threshold: Length::from_micro_meters(3.35),
            strategy: Strategy::GreedyClosest,
        }
    }
}

/// Runs the merge analysis over a placed design. Each point carries
/// its cell's index; the names stay in the design.
#[must_use]
pub fn plan(design: &PlacedDesign, options: &MergeOptions) -> MergePlan {
    let mut plan = MergePlan::default();
    plan_into(design, options, &mut plan);
    plan
}

/// [`plan`] into an existing plan, which is replaced; its point and
/// pair vectors keep their capacity, so a flow merging design after
/// design reuses them. The points are the design's flip-flops in cell
/// order, read at the indices the placer recorded.
pub fn plan_into(design: &PlacedDesign, options: &MergeOptions, out: &mut MergePlan) {
    let cells = design.cells();
    out.points.clear();
    out.points
        .extend(design.flip_flop_indices().iter().map(|&cell| {
            let c = &cells[cell];
            FlipFlopPoint {
                cell,
                x: c.x.micro_meters(),
                y: c.y.micro_meters(),
            }
        }));
    pairing::pair_points(out, options.threshold, options.strategy);
}

/// Runs the merge analysis over a parsed DEF design (the paper's
/// script-over-DEF interface). Each point carries its component's
/// index in [`DefDesign::cells`](place::def::DefDesign::cells).
#[must_use]
pub fn plan_from_def(def: &place::def::DefDesign, options: &MergeOptions) -> MergePlan {
    let points: Vec<FlipFlopPoint> = def
        .flip_flops()
        .map(|(cell, c)| FlipFlopPoint {
            cell,
            x: c.x.micro_meters(),
            y: c.y.micro_meters(),
        })
        .collect();
    pairing::pair(points, options.threshold, options.strategy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{benchmarks, CellLibrary};
    use place::{placer, PlacerOptions};

    #[test]
    fn a_reused_plan_matches_a_fresh_one() {
        let mut reused = MergePlan::default();
        for (name, strategy) in [
            ("s5378", Strategy::GreedyClosest),
            ("s344", Strategy::DegreeAware),
            ("s838", Strategy::GreedyClosest),
        ] {
            let n = benchmarks::generate(benchmarks::by_name(name).unwrap());
            let placed = placer::place(&n, &CellLibrary::n40(), &PlacerOptions::default());
            let options = MergeOptions {
                strategy,
                ..MergeOptions::default()
            };
            plan_into(&placed, &options, &mut reused);
            assert_eq!(reused, plan(&placed, &options), "{name}");
            assert_eq!(reused.total_flip_flops(), placed.flip_flops().count());
        }
    }
}
