//! Candidate discovery and pairing strategies.

use core::fmt;

use place::GridIndex;
use units::Length;

/// A flip-flop location in micrometres (left-bottom corner, as DEF
/// records it — both cells of a pair have the same footprint so corner
/// distance and centre distance coincide), with the index of its cell
/// in the analysed design; the name stays with the design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlipFlopPoint {
    /// Index of the flip-flop's cell in its design
    /// ([`PlacedDesign::cells`](place::PlacedDesign::cells), or
    /// [`DefDesign::cells`](place::def::DefDesign::cells) for a parsed
    /// DEF).
    pub cell: usize,
    /// x in µm.
    pub x: f64,
    /// y in µm.
    pub y: f64,
}

/// One merged pair.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergePlan {
    pub(crate) points: Vec<FlipFlopPoint>,
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

/// All flip-flop pairs within `threshold` (inclusive), with their
/// distances, by `a` then `b` ascending.
#[must_use]
pub fn candidates(points: &[FlipFlopPoint], threshold: Length) -> Vec<MergedPair> {
    let mut out = Vec::new();
    candidates_into(points, threshold, &mut out);
    out
}

/// [`candidates`] into `out` (cleared first).
fn candidates_into(points: &[FlipFlopPoint], threshold: Length, out: &mut Vec<MergedPair>) {
    out.clear();
    let t = threshold.micro_meters();
    let coords: Vec<(f64, f64)> = points.iter().map(|p| (p.x, p.y)).collect();
    let index = GridIndex::new(&coords, t.max(1e-3));
    let mut near = Vec::new();
    for (a, &(x, y)) in coords.iter().enumerate() {
        index.within_radius_into(a, t, &mut near);
        for &b in near.iter().filter(|&&b| b > a) {
            let d = ((coords[b].0 - x).powi(2) + (coords[b].1 - y).powi(2)).sqrt();
            out.push(MergedPair { a, b, distance: d });
        }
    }
}

/// Selects a disjoint pair set from the candidate graph. The plan keeps
/// the points.
#[must_use]
pub fn pair(points: Vec<FlipFlopPoint>, threshold: Length, strategy: Strategy) -> MergePlan {
    let mut plan = MergePlan {
        points,
        ..MergePlan::default()
    };
    pair_points(&mut plan, threshold, strategy);
    plan
}

/// [`pair`] over the points `out` already holds, replacing its pairs.
/// The candidates are listed, sorted and (for the greedy strategy)
/// thinned in the pair vector itself, which keeps its capacity.
pub(crate) fn pair_points(out: &mut MergePlan, threshold: Length, strategy: Strategy) {
    let cand = &mut out.pairs;
    candidates_into(&out.points, threshold, cand);
    // Closest first, ties in candidate order (a stable sort). Candidate
    // distances are square roots of non-negative finite sums, never
    // -0.0 or NaN, and such values order like their IEEE-754 bits.
    cand.sort_by_key(|p| p.distance.to_bits());
    match strategy {
        Strategy::GreedyClosest => greedy_closest(out.points.len(), cand),
        Strategy::DegreeAware => *cand = degree_aware(out.points.len(), cand),
    }
    out.threshold = threshold;
    out.strategy = strategy;
}

/// Keeps, in order, each sorted candidate whose flip-flops are both
/// still free.
fn greedy_closest(n: usize, sorted_candidates: &mut Vec<MergedPair>) {
    let mut taken = vec![false; n];
    sorted_candidates.retain(|c| {
        let free = !taken[c.a] && !taken[c.b];
        if free {
            taken[c.a] = true;
            taken[c.b] = true;
        }
        free
    });
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
            .map(|(cell, &(x, y))| FlipFlopPoint { cell, x, y })
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

    /// `candidates` against a scan of every pair: the same pairs in
    /// `(a, b)` order with the same distance bits. The points sit on
    /// bucket borders (multiples of the threshold), pairs lie exactly
    /// at the threshold, coordinates go negative, two points coincide
    /// and one pair lies a metre from the rest.
    #[test]
    fn candidates_match_brute_force() {
        let mut coords = Vec::new();
        for i in -6..=6 {
            for j in -4..=4 {
                coords.push((f64::from(i) * 0.5, f64::from(j) * 1.5));
            }
        }
        coords.extend([
            (0.0, 0.0),
            (0.0, 0.0),
            (-0.9, -1.2),
            (1e6, -1e6),
            (1e6 + 1.5, -1e6),
        ]);
        let pts = points(&coords);
        for t in [1.5, 0.5, 3.35, 0.0] {
            let limit = t * t + 1e-18;
            let mut brute = Vec::new();
            for a in 0..coords.len() {
                for b in a + 1..coords.len() {
                    let d2 =
                        (coords[b].0 - coords[a].0).powi(2) + (coords[b].1 - coords[a].1).powi(2);
                    if d2 <= limit {
                        brute.push((a, b, d2.sqrt().to_bits()));
                    }
                }
            }
            let found: Vec<(usize, usize, u64)> = candidates(&pts, um(t))
                .iter()
                .map(|p| (p.a, p.b, p.distance.to_bits()))
                .collect();
            assert!(!found.is_empty(), "threshold {t}");
            assert_eq!(found, brute, "threshold {t}");
        }
    }

    #[test]
    fn greedy_takes_closest_first() {
        // Chain 0 -1- 1 -1.5- 2: greedy pairs (0,1), leaving 2 unmerged.
        let pts = points(&[(0.0, 0.0), (1.0, 0.0), (2.5, 0.0)]);
        let plan = pair(pts, um(3.0), Strategy::GreedyClosest);
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
        let greedy = pair(pts.clone(), um(1.3), Strategy::GreedyClosest);
        assert_eq!(greedy.merged_pairs(), 1); // takes (1,2), strands 0 and 3
        let aware = pair(pts, um(1.3), Strategy::DegreeAware);
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
            let plan = pair(pts.clone(), um(1.5), strategy);
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
        let plan = pair(Vec::new(), um(3.35), Strategy::GreedyClosest);
        assert_eq!(plan.merged_pairs(), 0);
        assert_eq!(plan.merge_fraction(), 0.0);
        let plan = pair(points(&[(0.0, 0.0)]), um(3.35), Strategy::GreedyClosest);
        assert_eq!(plan.merged_pairs(), 0);
        assert_eq!(plan.unmerged_count(), 1);
    }

    #[test]
    fn isolated_flip_flops_stay_unmerged() {
        let pts = points(&[(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)]);
        let plan = pair(pts, um(3.35), Strategy::DegreeAware);
        assert_eq!(plan.merged_pairs(), 0);
        assert_eq!(plan.unmerged_count(), 3);
    }

    #[test]
    fn strategy_display() {
        assert_eq!(Strategy::GreedyClosest.to_string(), "greedy-closest");
        assert_eq!(Strategy::DegreeAware.to_string(), "degree-aware");
    }
}
