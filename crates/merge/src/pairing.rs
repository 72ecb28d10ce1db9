//! Candidate discovery and pairing strategies.

use core::fmt;

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
/// distances, by `a` then `b` ascending. A NaN or negative threshold
/// finds nothing, and a point with a non-finite coordinate pairs with
/// nothing.
///
/// # Panics
///
/// Panics if the threshold is infinite, or if there are more than
/// `u32::MAX` points.
#[must_use]
pub fn candidates(points: &[FlipFlopPoint], threshold: Length) -> Vec<MergedPair> {
    let mut out = Vec::new();
    candidates_into(points, threshold, &mut out);
    out
}

/// [`candidates`] into `out` (cleared first), by one sweep over the
/// points sorted by `(y, x)`: each run of bit-equal `y` is a row, and
/// each point is tested against the points after it in its own row
/// while `Δx ≤ reach`, then against each later row while `Δy ≤ reach`,
/// from a per-row cursor that only moves right. `reach` bounds `|Δx|`
/// and `|Δy|` of every pair the exact test keeps, so the sweep only
/// narrows the pairs that test sees. A NaN coordinate compares false,
/// so it neither ends a scan nor moves a cursor: it costs extra tests,
/// never a pair. The placer's flip-flops arrive sorted, which makes the
/// sort one linear pass and the pairs come out in `(a, b)` order; other
/// input is re-sorted at the end.
fn candidates_into(points: &[FlipFlopPoint], threshold: Length, out: &mut Vec<MergedPair>) {
    out.clear();
    let t = threshold.micro_meters();
    if t.is_nan() || t < 0.0 {
        return;
    }
    assert!(t.is_finite(), "merge threshold {t} µm is not finite");
    let limit = t * t + 1e-18;
    // A kept pair has fl(Δx²) ≤ fl(Δx² + Δy²) ≤ limit, and so has
    // |Δx| ≤ reach, the correctly rounded root: the next double d above
    // it exceeds √limit by at least half its ulp u, so d² exceeds limit
    // by more than u·√limit, which is more than half an ulp of limit,
    // and fl(d²) > limit. The same holds for |Δy|.
    let reach = limit.sqrt();

    let count = u32::try_from(points.len()).expect("at most u32::MAX flip-flops");
    let mut order: Vec<u32> = (0..count).collect();
    order.sort_by(|&i, &j| {
        let (p, q) = (&points[i as usize], &points[j as usize]);
        p.y.total_cmp(&q.y).then(p.x.total_cmp(&q.x))
    });
    // The coordinates in sweep order.
    let xy: Vec<(f64, f64)> = order
        .iter()
        .map(|&i| (points[i as usize].x, points[i as usize].y))
        .collect();
    // Row starts in `xy`, closed by its length.
    let mut rows: Vec<usize> = (0..xy.len())
        .filter(|&k| k == 0 || xy[k].1.to_bits() != xy[k - 1].1.to_bits())
        .collect();
    rows.push(xy.len());

    // Tests point k against points from..to of a row, left to right,
    // until they lie more than `reach` to its right, and keeps the pairs
    // within the limit. A difference only changes sign when its operands
    // swap, so `d2` has the same bits whichever point has the lower
    // index.
    let mut scan = |k: usize, from: usize, to: usize| {
        let p = xy[k];
        for (j, q) in (from..to).zip(&xy[from..to]) {
            if q.0 - p.0 > reach {
                break;
            }
            let d2 = (q.0 - p.0).powi(2) + (q.1 - p.1).powi(2);
            if d2 <= limit {
                let (a, b) = (order[k] as usize, order[j] as usize);
                out.push(MergedPair {
                    a: a.min(b),
                    b: a.max(b),
                    distance: d2.sqrt(),
                });
            }
        }
    };
    let mut cursors: Vec<usize> = Vec::new();
    for (r, row) in rows.windows(2).enumerate() {
        let (start, end) = (row[0], row[1]);
        let y = xy[start].1;
        cursors.clear();
        cursors.extend(
            rows[r + 1..rows.len() - 1]
                .iter()
                .take_while(|&&s| xy[s].1 - y <= reach),
        );
        for k in start..end {
            scan(k, k + 1, end);
            let x = xy[k].0;
            for (cursor, &row_end) in cursors.iter_mut().zip(&rows[r + 2..]) {
                while *cursor < row_end && x - xy[*cursor].0 > reach {
                    *cursor += 1;
                }
                scan(k, *cursor, row_end);
            }
        }
    }
    if !order.is_sorted() {
        out.sort_unstable_by_key(|p| (p.a, p.b));
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

    /// `(a, b, distance bits)` of every candidate.
    fn found(coords: &[(f64, f64)], t: f64) -> Vec<(usize, usize, u64)> {
        candidates(&points(coords), um(t))
            .iter()
            .map(|p| (p.a, p.b, p.distance.to_bits()))
            .collect()
    }

    /// Every pair within `t` by a scan of all pairs, with the exact
    /// test and distance formula `candidates` promises.
    fn brute(coords: &[(f64, f64)], t: f64) -> Vec<(usize, usize, u64)> {
        let limit = t * t + 1e-18;
        let mut out = Vec::new();
        for a in 0..coords.len() {
            for b in a + 1..coords.len() {
                let d2 = (coords[b].0 - coords[a].0).powi(2) + (coords[b].1 - coords[a].1).powi(2);
                if d2 <= limit {
                    out.push((a, b, d2.sqrt().to_bits()));
                }
            }
        }
        out
    }

    /// `(a, b)` of every candidate.
    fn pair_ids(coords: &[(f64, f64)], t: f64) -> Vec<(usize, usize)> {
        found(coords, t).iter().map(|&(a, b, _)| (a, b)).collect()
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
    /// multiples of the threshold, pairs lie exactly at the threshold,
    /// rows lie two apart within the threshold, coordinates go
    /// negative, two points coincide and one pair lies a metre from the
    /// rest.
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
        for t in [1.5, 0.5, 3.35, 0.0] {
            let found = found(&coords, t);
            assert!(!found.is_empty(), "threshold {t}");
            assert_eq!(found, brute(&coords, t), "threshold {t}");
        }
    }

    /// Scattered integer points at a threshold spanning many rows.
    #[test]
    fn candidates_match_brute_force_on_scattered_points() {
        let coords: Vec<(f64, f64)> = (0..500)
            .map(|k| (f64::from((k * 37) % 101), f64::from((k * 61) % 97)))
            .collect();
        assert_eq!(found(&coords, 13.0), brute(&coords, 13.0));
    }

    /// One buffer reused across thresholds spanning a few rows: each
    /// call clears what the last left (and a stale pair put in first)
    /// and leaves exactly the brute-force pairs.
    #[test]
    fn a_reused_buffer_matches_brute_force_and_clears() {
        let coords: Vec<(f64, f64)> = (0..200)
            .map(|k| (f64::from((k * 13) % 37), f64::from((k * 7) % 29)))
            .collect();
        let pts = points(&coords);
        let mut out = vec![MergedPair {
            a: usize::MAX,
            b: usize::MAX,
            distance: f64::NAN,
        }];
        for t in [3.0, 1.0, 5.0, 0.0, 3.0] {
            candidates_into(&pts, um(t), &mut out);
            let got: Vec<_> = out
                .iter()
                .map(|p| (p.a, p.b, p.distance.to_bits()))
                .collect();
            assert_eq!(got, brute(&coords, t), "threshold {t}");
        }
    }

    /// Points a hair either side of multiples of the threshold, and on
    /// them, find their neighbours across those lines.
    #[test]
    fn candidates_cross_multiples_of_the_threshold() {
        let coords = [(0.9, 0.0), (1.1, 0.0), (5.0, 5.0)];
        assert_eq!(pair_ids(&coords, 0.5), vec![(0, 1)]);
        assert_eq!(found(&coords, 0.5), brute(&coords, 0.5));
    }

    #[test]
    fn the_threshold_is_inclusive() {
        assert_eq!(pair_ids(&[(0.0, 0.0), (2.0, 0.0)], 2.0), vec![(0, 1)]);
        // Exact 3-4-5 pairs: distance 5 = the threshold.
        let diagonal = [(-3.0, -4.0), (0.0, 0.0), (3.0, 4.0), (3.0, 4.0)];
        assert_eq!(
            pair_ids(&diagonal, 5.0),
            vec![(0, 1), (1, 2), (1, 3), (2, 3)]
        );
    }

    #[test]
    fn an_empty_set_has_no_candidates() {
        assert!(candidates(&[], um(3.35)).is_empty());
    }

    /// A grid on multiples of the threshold, with negative coordinates,
    /// duplicates and points a hair off the grid lines, at the
    /// threshold and at half of it.
    #[test]
    fn candidates_match_brute_force_on_negatives_and_duplicates() {
        let mut coords = Vec::new();
        for i in -4..=4 {
            for j in -3..=3 {
                coords.push((f64::from(i) * 2.5, f64::from(j) * 2.5));
            }
        }
        coords.extend([
            (0.0, 0.0),
            (0.0, 0.0),
            (-5.0, -5.0),
            (-2.0, -1.0),
            (1.0, 3.0),
            (-0.000_1, 7.5),
            (9.999_9, -7.5),
            (-10.0, -7.5),
        ]);
        for t in [2.5, 1.25] {
            assert_eq!(found(&coords, t), brute(&coords, t), "threshold {t}");
        }
    }

    /// A pair a metre apart from the rest (10⁶ µm, as a parsed DEF may
    /// hold) pairs only with its neighbour.
    #[test]
    fn far_apart_points_pair_only_with_their_neighbours() {
        let coords = [(0.0, 0.0), (1e6, -1e6), (1e6 + 1.0, -1e6), (-1e6, 1e6)];
        assert_eq!(pair_ids(&coords, 3.35), vec![(1, 2)]);
    }

    #[test]
    fn zero_negative_and_nan_thresholds() {
        let coords = [(0.0, 0.0), (0.0, 0.0), (1e-4, 0.0)];
        assert_eq!(pair_ids(&coords, 0.0), vec![(0, 1)]);
        assert!(pair_ids(&coords, -1.0).is_empty());
        assert!(pair_ids(&coords, -1e-4).is_empty());
        assert!(pair_ids(&coords, f64::NAN).is_empty());
        // At zero threshold, points a hair apart in x pair.
        assert_eq!(
            pair_ids(&[(1.0 - 1e-12, 0.0), (1.0, 0.0)], 0.0),
            vec![(0, 1)]
        );
        // And a hair apart in y, which puts them in different rows.
        let rows = [(0.0, 1e-12), (0.0, 0.0), (5.0, 0.0)];
        assert_eq!(found(&rows, 0.0), brute(&rows, 0.0));
        assert_eq!(pair_ids(&rows, 0.0), vec![(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn an_infinite_threshold_panics() {
        let _ = candidates(&points(&[(0.0, 0.0)]), um(f64::INFINITY));
    }

    /// A point with a NaN or infinite coordinate pairs with nothing, and
    /// its finite neighbours in the same row and the rows around it
    /// still pair with each other.
    #[test]
    fn non_finite_points_pair_with_nothing() {
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        let coords = [
            (-nan, 0.0),
            (0.0, 0.0),
            (nan, 0.0),
            (0.5, 0.0),
            (-inf, 1.0),
            (0.2, 1.0),
            (inf, 1.0),
            (0.0, nan),
            (0.0, -nan),
            (0.0, inf),
            (0.0, -inf),
            (inf, inf),
            (-nan, 2.0),
            (0.1, 2.0),
        ];
        let finite: Vec<usize> = (0..coords.len())
            .filter(|&i| coords[i].0.is_finite() && coords[i].1.is_finite())
            .collect();
        let only_finite: Vec<(f64, f64)> = finite.iter().map(|&i| coords[i]).collect();
        let expected: Vec<(usize, usize, u64)> = brute(&only_finite, 3.35)
            .into_iter()
            .map(|(a, b, d)| (finite[a], finite[b], d))
            .collect();
        assert_eq!(expected.len(), 6);
        assert_eq!(found(&coords, 3.35), expected);
    }

    /// The sweep's reach, the rounded root of the limit, bounds every
    /// offset the exact test keeps: the next double above the root
    /// squares to more than the limit. Checked at the thresholds the
    /// flow and its ablations use, around powers of two and over a
    /// spread of limits from 1e-18 to 1e12 µm².
    #[test]
    fn the_rounded_root_bounds_every_kept_offset() {
        let mut limits: Vec<f64> = [0.0, 0.5, 1.0, 1.5, 2.5, 3.0, 3.35, 3.4, 5.0, 13.0]
            .iter()
            .map(|t| t * t + 1e-18)
            .collect();
        for e in -60..40 {
            let p = 2f64.powi(e);
            limits.extend([p.next_down(), p, p.next_up()]);
        }
        let mut state = 7;
        for _ in 0..100_000 {
            let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            limits.push(10f64.powf(-18.0 + 30.0 * u));
        }
        for limit in limits {
            let above = limit.sqrt().next_up();
            assert!(above * above > limit, "limit {limit:e}");
        }
    }

    /// SplitMix64, for a reproducible shuffle.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A placed design's flip-flops, listed reversed and shuffled, give
    /// the same pairs under the new indices, in `(a, b)` order, with the
    /// same distance bits.
    #[test]
    fn permuted_points_give_the_permuted_pairs() {
        use netlist::{benchmarks, CellLibrary};
        use place::{placer, PlacerOptions};

        let n = benchmarks::generate(benchmarks::by_name("s38584").unwrap());
        let placed = placer::place(&n, &CellLibrary::n40(), &PlacerOptions::default());
        let sorted: Vec<FlipFlopPoint> =
            crate::plan(&placed, &crate::MergeOptions::default()).points;
        let t = um(3.35);
        let reference = candidates(&sorted, t);
        assert!(reference.len() > 500, "{} candidates", reference.len());

        let reversed: Vec<usize> = (0..sorted.len()).rev().collect();
        let mut shuffled: Vec<usize> = (0..sorted.len()).collect();
        let mut state = 0x5eed;
        for i in (1..shuffled.len()).rev() {
            let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        for (name, order) in [("reversed", reversed), ("shuffled", shuffled)] {
            // Point k of the permuted list is point order[k] of the sorted one.
            let permuted: Vec<FlipFlopPoint> = order.iter().map(|&i| sorted[i]).collect();
            let mut new_index = vec![0; order.len()];
            for (k, &i) in order.iter().enumerate() {
                new_index[i] = k;
            }
            let mut expected: Vec<(usize, usize, u64)> = reference
                .iter()
                .map(|p| {
                    let (a, b) = (new_index[p.a], new_index[p.b]);
                    (a.min(b), a.max(b), p.distance.to_bits())
                })
                .collect();
            expected.sort_unstable();
            let got: Vec<(usize, usize, u64)> = candidates(&permuted, t)
                .iter()
                .map(|p| (p.a, p.b, p.distance.to_bits()))
                .collect();
            assert_eq!(got, expected, "{name}");
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
