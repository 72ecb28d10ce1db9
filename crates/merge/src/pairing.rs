//! Candidate discovery and pairing strategies.

use core::fmt;

use place::GridIndex;
use units::Length;

/// A flip-flop location in micrometres (left-bottom corner, as DEF
/// records it — both cells of a pair have the same footprint so corner
/// distance and centre distance coincide).
#[derive(Debug, Clone, PartialEq)]
pub struct FlipFlopPoint {
    /// Instance name.
    pub name: String,
    /// x in µm.
    pub x: f64,
    /// y in µm.
    pub y: f64,
}

/// One merged pair.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedPair {
    /// First flip-flop (index into the analysis point list).
    pub a: usize,
    /// Second flip-flop.
    pub b: usize,
    /// Euclidean separation, µm.
    pub distance: f64,
}

/// Pairing strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// Sort candidate pairs by distance, take disjoint pairs closest
    /// first — the natural reading of the paper's script.
    #[default]
    GreedyClosest,
    /// Process flip-flops in ascending candidate-degree order, letting
    /// sparsely-connected flip-flops claim their only partner before
    /// dense clusters consume them. Recovers more pairs on clustered
    /// placements (the ablation of Section IV-C's merge step).
    DegreeAware,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::GreedyClosest => "greedy-closest",
            Self::DegreeAware => "degree-aware",
        })
    }
}

/// Result of the merge analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct MergePlan {
    points: Vec<FlipFlopPoint>,
    pairs: Vec<MergedPair>,
    threshold: Length,
    strategy: Strategy,
}

impl MergePlan {
    /// The analysed flip-flop locations.
    #[must_use]
    pub fn points(&self) -> &[FlipFlopPoint] {
        &self.points
    }

    /// The selected disjoint pairs.
    #[must_use]
    pub fn pairs(&self) -> &[MergedPair] {
        &self.pairs
    }

    /// Number of 2-bit merges (Table III column 3).
    #[must_use]
    pub fn merged_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Total flip-flops analysed.
    #[must_use]
    pub fn total_flip_flops(&self) -> usize {
        self.points.len()
    }

    /// Flip-flops left with a 1-bit component.
    #[must_use]
    pub fn unmerged_count(&self) -> usize {
        self.points.len() - 2 * self.pairs.len()
    }

    /// Fraction of flip-flops covered by 2-bit components.
    #[must_use]
    pub fn merge_fraction(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        2.0 * self.pairs.len() as f64 / self.points.len() as f64
    }

    /// The distance threshold used.
    #[must_use]
    pub fn threshold(&self) -> Length {
        self.threshold
    }

    /// Indices of flip-flops not covered by any pair.
    #[must_use]
    pub(crate) fn unmerged_indices(&self) -> Vec<usize> {
        let mut covered = vec![false; self.points.len()];
        for p in &self.pairs {
            covered[p.a] = true;
            covered[p.b] = true;
        }
        covered
            .iter()
            .enumerate()
            .filter(|(_, &c)| !c)
            .map(|(i, _)| i)
            .collect()
    }
}

/// All flip-flop pairs within `threshold`, with their distances.
#[must_use]
pub fn candidates(points: &[FlipFlopPoint], threshold: Length) -> Vec<MergedPair> {
    let t = threshold.micro_meters();
    let coords: Vec<(f64, f64)> = points.iter().map(|p| (p.x, p.y)).collect();
    if coords.is_empty() {
        return Vec::new();
    }
    let index = GridIndex::new(&coords, t.max(1e-3));
    let mut out = Vec::new();
    for (a, &(x, y)) in coords.iter().enumerate() {
        for b in index.within_radius(&coords, (x, y), t) {
            if b > a {
                let d = ((coords[b].0 - x).powi(2) + (coords[b].1 - y).powi(2)).sqrt();
                out.push(MergedPair { a, b, distance: d });
            }
        }
    }
    out
}

/// Selects a disjoint pair set from the candidate graph.
#[must_use]
pub fn pair(points: &[FlipFlopPoint], threshold: Length, strategy: Strategy) -> MergePlan {
    let mut cand = candidates(points, threshold);
    cand.sort_by(|p, q| p.distance.partial_cmp(&q.distance).expect("finite"));
    let pairs = match strategy {
        Strategy::GreedyClosest => greedy_closest(points.len(), &cand),
        Strategy::DegreeAware => degree_aware(points.len(), &cand),
    };
    MergePlan {
        points: points.to_vec(),
        pairs,
        threshold,
        strategy,
    }
}

fn greedy_closest(n: usize, sorted_candidates: &[MergedPair]) -> Vec<MergedPair> {
    let mut taken = vec![false; n];
    let mut out = Vec::new();
    for c in sorted_candidates {
        if !taken[c.a] && !taken[c.b] {
            taken[c.a] = true;
            taken[c.b] = true;
            out.push(c.clone());
        }
    }
    out
}

fn degree_aware(n: usize, sorted_candidates: &[MergedPair]) -> Vec<MergedPair> {
    // Adjacency with distances, candidates already distance-sorted.
    let mut adjacency: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for c in sorted_candidates {
        adjacency[c.a].push((c.b, c.distance));
        adjacency[c.b].push((c.a, c.distance));
    }
    // Visit vertices in ascending degree; each claims its nearest free
    // neighbour.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| adjacency[v].len());
    let mut taken = vec![false; n];
    let mut out = Vec::new();
    for v in order {
        if taken[v] {
            continue;
        }
        if let Some(&(u, distance)) = adjacency[v].iter().find(|&&(u, _)| !taken[u] && u != v) {
            taken[v] = true;
            taken[u] = true;
            out.push(MergedPair {
                a: v.min(u),
                b: v.max(u),
                distance,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(coords: &[(f64, f64)]) -> Vec<FlipFlopPoint> {
        coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| FlipFlopPoint {
                name: format!("FF{i}"),
                x,
                y,
            })
            .collect()
    }

    fn um(v: f64) -> Length {
        Length::from_micro_meters(v)
    }

    #[test]
    fn candidates_respect_the_threshold() {
        let pts = points(&[(0.0, 0.0), (2.0, 0.0), (10.0, 0.0)]);
        let c = candidates(&pts, um(3.0));
        assert_eq!(c.len(), 1);
        assert_eq!((c[0].a, c[0].b), (0, 1));
        assert!((c[0].distance - 2.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_takes_closest_first() {
        // Chain 0 -1- 1 -1.5- 2: greedy pairs (0,1), leaving 2 unmerged.
        let pts = points(&[(0.0, 0.0), (1.0, 0.0), (2.5, 0.0)]);
        let plan = pair(&pts, um(3.0), Strategy::GreedyClosest);
        assert_eq!(plan.merged_pairs(), 1);
        assert_eq!((plan.pairs()[0].a, plan.pairs()[0].b), (0, 1));
        assert_eq!(plan.unmerged_indices(), vec![2]);
        assert_eq!(plan.unmerged_count(), 1);
        assert!((plan.merge_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degree_aware_recovers_the_chain_end() {
        // Path 0—1—2—3 where greedy-closest on the middle edge would
        // strand both ends: 1-2 distance is smallest.
        let pts = points(&[(0.0, 0.0), (1.2, 0.0), (2.2, 0.0), (3.4, 0.0)]);
        let greedy = pair(&pts, um(1.3), Strategy::GreedyClosest);
        assert_eq!(greedy.merged_pairs(), 1); // takes (1,2), strands 0 and 3
        let aware = pair(&pts, um(1.3), Strategy::DegreeAware);
        assert_eq!(aware.merged_pairs(), 2); // (0,1) and (2,3)
    }

    #[test]
    fn pairs_are_disjoint() {
        // A dense 3×3 grid at 1 µm spacing with a 1.5 µm threshold.
        let mut coords = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                coords.push((f64::from(i), f64::from(j)));
            }
        }
        let pts = points(&coords);
        for strategy in [Strategy::GreedyClosest, Strategy::DegreeAware] {
            let plan = pair(&pts, um(1.5), strategy);
            let mut seen = std::collections::HashSet::new();
            for p in plan.pairs() {
                assert!(seen.insert(p.a), "{strategy}: {p:?}");
                assert!(seen.insert(p.b), "{strategy}: {p:?}");
                assert!(p.distance <= 1.5 + 1e-12);
            }
            // 9 points: at most 4 pairs.
            assert!(plan.merged_pairs() <= 4);
            assert!(plan.merged_pairs() >= 3, "{strategy}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let plan = pair(&[], um(3.35), Strategy::GreedyClosest);
        assert_eq!(plan.merged_pairs(), 0);
        assert_eq!(plan.merge_fraction(), 0.0);
        let plan = pair(&points(&[(0.0, 0.0)]), um(3.35), Strategy::GreedyClosest);
        assert_eq!(plan.merged_pairs(), 0);
        assert_eq!(plan.unmerged_count(), 1);
    }

    #[test]
    fn isolated_flip_flops_stay_unmerged() {
        let pts = points(&[(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)]);
        let plan = pair(&pts, um(3.35), Strategy::DegreeAware);
        assert_eq!(plan.merged_pairs(), 0);
        assert_eq!(plan.unmerged_count(), 3);
    }

    #[test]
    fn strategy_display() {
        assert_eq!(Strategy::GreedyClosest.to_string(), "greedy-closest");
        assert_eq!(Strategy::DegreeAware.to_string(), "degree-aware");
    }
}
