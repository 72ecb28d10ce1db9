//! Placement statistics: flip-flop clustering.
//!
//! The merge flow's yield is entirely a function of how close placed
//! flip-flops end up to each other; these statistics make that
//! distribution observable (and explain per-benchmark merge-coverage
//! differences — see the fig9 report binary).

use crate::placer::PlacedDesign;
use crate::spatial::GridIndex;

/// Nearest-neighbour statistics of the placed flip-flops.
#[derive(Debug, Clone, PartialEq)]
pub struct FlipFlopStats {
    nn_distances_um: Vec<f64>,
}

impl FlipFlopStats {
    /// Computes nearest-neighbour distances (µm) for every flip-flop of
    /// a placed design.
    #[must_use]
    pub fn of(design: &PlacedDesign) -> Self {
        let points: Vec<(f64, f64)> = design
            .flip_flops()
            .map(|c| (c.x.micro_meters(), c.y.micro_meters()))
            .collect();
        if points.len() < 2 {
            return Self {
                nn_distances_um: Vec::new(),
            };
        }
        // Expand the search radius until every point has a neighbour.
        let mut radius = 5.0;
        let mut nn: Vec<f64> = Vec::with_capacity(points.len());
        'outer: loop {
            nn.clear();
            let index = GridIndex::new(&points, radius);
            for (i, &p) in points.iter().enumerate() {
                let near = index.within_radius(&points, p, radius);
                let best = near
                    .iter()
                    .filter(|&&j| j != i)
                    .map(|&j| {
                        let (x, y) = points[j];
                        ((x - p.0).powi(2) + (y - p.1).powi(2)).sqrt()
                    })
                    .fold(f64::INFINITY, f64::min);
                if best.is_infinite() {
                    radius *= 2.0;
                    continue 'outer;
                }
                nn.push(best);
            }
            break;
        }
        Self {
            nn_distances_um: nn,
        }
    }

    /// Number of flip-flops with a computed neighbour distance.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn count(&self) -> usize {
        self.nn_distances_um.len()
    }

    /// Fraction of flip-flops whose nearest neighbour lies within
    /// `threshold_um` — an upper bound on merge coverage.
    #[must_use]
    pub fn fraction_within(&self, threshold_um: f64) -> f64 {
        if self.nn_distances_um.is_empty() {
            return 0.0;
        }
        let hits = self
            .nn_distances_um
            .iter()
            .filter(|&&d| d <= threshold_um)
            .count();
        hits as f64 / self.nn_distances_um.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placer::{self, PlacerOptions};
    use netlist::{benchmarks, CellLibrary};

    fn placed(name: &str) -> PlacedDesign {
        let n = benchmarks::generate(benchmarks::by_name(name).expect("benchmark"));
        placer::place(&n, &CellLibrary::n40(), &PlacerOptions::default())
    }

    #[test]
    fn every_flip_flop_gets_a_neighbour_distance() {
        let design = placed("s344");
        let stats = FlipFlopStats::of(&design);
        assert_eq!(stats.count(), 15);
    }

    #[test]
    fn fraction_within_is_monotone_in_threshold() {
        let stats = FlipFlopStats::of(&placed("s838"));
        let f1 = stats.fraction_within(1.0);
        let f3 = stats.fraction_within(3.35);
        let f100 = stats.fraction_within(100.0);
        assert!(f1 <= f3);
        assert!(f3 <= f100);
        assert!((f100 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        let n = netlist::Netlist::new("empty");
        let design = placer::place(&n, &CellLibrary::n40(), &PlacerOptions::default());
        let stats = FlipFlopStats::of(&design);
        assert_eq!(stats.count(), 0);
        assert_eq!(stats.fraction_within(10.0), 0.0);
    }
}
