//! Bucket-grid spatial index for radius queries over placed cells.

/// A bucket grid over a point set: build once, then ask which points
/// lie within a radius (at most the bucket size) of a point of the set.
///
/// Only occupied buckets are stored, so memory is linear in the point
/// count whatever the coordinates span: two points a metre apart take
/// two buckets, not the billions a dense grid over their span would.
/// The points are sorted into buckets by bucket row, then column, then
/// index. While building, one merge pass per pair of adjacent occupied
/// rows gives every bucket its *windows*: for the row below, its own
/// row and the row above, the run of sorted entries whose column lies
/// within one of its own. The runs are contiguous because the sort
/// keeps a row's buckets in column order. A query reads the three runs
/// of its point's bucket — offset arithmetic, no search and no hashing.
///
/// # Examples
///
/// ```
/// use place::GridIndex;
///
/// let points = vec![(0.0, 0.0), (1.0, 0.0), (10.0, 10.0)];
/// let index = GridIndex::new(&points, 2.0);
/// let mut near_origin = Vec::new();
/// index.within_radius_into(0, 1.5, &mut near_origin);
/// assert_eq!(near_origin, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex<'a> {
    points: &'a [(f64, f64)],
    cell_size: f64,
    /// Point indices in bucket order.
    entries: Vec<u32>,
    /// Bucket of every point.
    bucket_of: Vec<u32>,
    /// Per bucket, the entry runs of its column window (its column ± 1)
    /// in the row below, its own row and the row above; an empty run
    /// where that row has no bucket in the window.
    windows: Vec<[(u32, u32); 3]>,
}

impl<'a> GridIndex<'a> {
    /// Builds an index over `points` with the given bucket size (the
    /// largest radius a query may ask for).
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not positive and finite, or if there
    /// are more than `u32::MAX` points.
    #[must_use]
    pub fn new(points: &'a [(f64, f64)], cell_size: f64) -> Self {
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "cell size must be positive and finite"
        );
        let count = u32::try_from(points.len()).expect("at most u32::MAX points");
        let mut keyed: Vec<(i64, i64, u32)> = points
            .iter()
            .zip(0..count)
            .map(|(&(x, y), idx)| {
                let (row, col) = key(x, y, cell_size);
                (row, col, idx)
            })
            .collect();
        keyed.sort_unstable();

        // Occupied buckets: their keys and first entries.
        let mut entries = Vec::with_capacity(keyed.len());
        let mut bucket_of = vec![0u32; keyed.len()];
        let mut keys: Vec<(i64, i64)> = Vec::new();
        let mut starts: Vec<u32> = Vec::new();
        for (&(row, col, idx), at) in keyed.iter().zip(0u32..) {
            if keys.last() != Some(&(row, col)) {
                keys.push((row, col));
                starts.push(at);
            }
            bucket_of[idx as usize] = (keys.len() - 1) as u32;
            entries.push(idx);
        }
        starts.push(count);
        drop(keyed);

        // Occupied rows, as runs of buckets.
        let mut rows: Vec<(i64, usize, usize)> = Vec::new();
        for (b, &(row, _)) in keys.iter().enumerate() {
            match rows.last_mut() {
                Some(last) if last.0 == row => last.2 = b + 1,
                _ => rows.push((row, b, b + 1)),
            }
        }

        // Each row against the occupied row below, itself and the one
        // above: two cursors walk the neighbour row's columns once.
        let mut windows = vec![[(0u32, 0u32); 3]; keys.len()];
        for (k, &(row, first, end)) in rows.iter().enumerate() {
            let below = k
                .checked_sub(1)
                .filter(|&j| rows[j].0 == row.saturating_sub(1));
            let above =
                Some(k + 1).filter(|&j| j < rows.len() && rows[j].0 == row.saturating_add(1));
            for (slot, neighbour) in [below, Some(k), above].into_iter().enumerate() {
                let Some(j) = neighbour else { continue };
                let (_, lo_start, n_end) = rows[j];
                let (mut lo, mut hi) = (lo_start, lo_start);
                for b in first..end {
                    let col = keys[b].1;
                    while lo < n_end && keys[lo].1 < col.saturating_sub(1) {
                        lo += 1;
                    }
                    hi = hi.max(lo);
                    while hi < n_end && keys[hi].1 <= col.saturating_add(1) {
                        hi += 1;
                    }
                    windows[b][slot] = (starts[lo], starts[hi]);
                }
            }
        }
        Self {
            points,
            cell_size,
            entries,
            bucket_of,
            windows,
        }
    }

    /// Writes into `out` (cleared first) the indices of all points
    /// within Euclidean `radius` of point `i` (inclusive, `i` itself
    /// among them), in ascending index order. A scan over many points
    /// reuses one buffer. A negative or NaN radius finds nothing.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a point of the index or `radius` exceeds
    /// the bucket size.
    pub fn within_radius_into(&self, i: usize, radius: f64, out: &mut Vec<usize>) {
        out.clear();
        assert!(
            radius.is_nan() || radius <= self.cell_size,
            "radius {radius} exceeds the bucket size {}",
            self.cell_size
        );
        if radius.is_nan() || radius < 0.0 {
            return;
        }
        let (cx, cy) = self.points[i];
        let limit = radius * radius + 1e-18;
        for (start, end) in self.windows[self.bucket_of[i] as usize] {
            for &idx in &self.entries[start as usize..end as usize] {
                let (x, y) = self.points[idx as usize];
                if (x - cx).powi(2) + (y - cy).powi(2) <= limit {
                    out.push(idx as usize);
                }
            }
        }
        out.sort_unstable();
    }

    /// Number of occupied buckets.
    #[cfg(test)]
    fn bucket_count(&self) -> usize {
        self.windows.len()
    }
}

/// The `(row, column)` bucket of a point.
fn key(x: f64, y: f64, cell_size: f64) -> (i64, i64) {
    (
        (y / cell_size).floor() as i64,
        (x / cell_size).floor() as i64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn near(index: &GridIndex<'_>, i: usize, r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        index.within_radius_into(i, r, &mut out);
        out
    }

    /// Every point within `r` of point `i` by a scan of the whole set.
    fn brute(points: &[(f64, f64)], i: usize, r: f64) -> Vec<usize> {
        let (cx, cy) = points[i];
        (0..points.len())
            .filter(|&j| {
                let (x, y) = points[j];
                (x - cx).powi(2) + (y - cy).powi(2) <= r * r + 1e-18
            })
            .collect()
    }

    #[test]
    fn finds_neighbours_across_bucket_borders() {
        let points = vec![(0.9, 0.0), (1.1, 0.0), (5.0, 5.0)];
        let index = GridIndex::new(&points, 1.0);
        assert_eq!(near(&index, 0, 0.5), vec![0, 1]);
        assert_eq!(near(&index, 1, 0.5), vec![0, 1]);
        assert_eq!(near(&index, 2, 0.5), vec![2]);
    }

    #[test]
    fn radius_is_inclusive() {
        let points = vec![(0.0, 0.0), (2.0, 0.0)];
        let index = GridIndex::new(&points, 2.0);
        assert_eq!(near(&index, 0, 2.0), vec![0, 1]);
    }

    #[test]
    fn empty_set() {
        let points: Vec<(f64, f64)> = Vec::new();
        let index = GridIndex::new(&points, 1.0);
        assert_eq!(index.bucket_count(), 0);
    }

    #[test]
    fn matches_brute_force() {
        // Deterministic pseudo-random points.
        let points: Vec<(f64, f64)> = (0..500)
            .map(|k| {
                let x = f64::from((k * 37) % 101);
                let y = f64::from((k * 61) % 97);
                (x, y)
            })
            .collect();
        let index = GridIndex::new(&points, 13.0);
        for i in (0..points.len()).step_by(7) {
            assert_eq!(near(&index, i, 13.0), brute(&points, i, 13.0), "point {i}");
        }
    }

    #[test]
    fn buffered_query_matches_and_clears() {
        let points: Vec<(f64, f64)> = (0..200)
            .map(|k| (f64::from((k * 13) % 37), f64::from((k * 7) % 29)))
            .collect();
        let index = GridIndex::new(&points, 3.0);
        let mut buf = vec![usize::MAX];
        for i in 0..50 {
            index.within_radius_into(i, 3.0, &mut buf);
            assert_eq!(buf, brute(&points, i, 3.0));
        }
    }

    /// Points on bucket borders, pairs exactly at the radius (along an
    /// axis and on a 3-4-5 diagonal), negative coordinates and
    /// duplicates, at radius = bucket size and at a radius below it.
    #[test]
    fn matches_brute_force_on_borders_negatives_and_duplicates() {
        let mut points = Vec::new();
        for i in -4..=4 {
            for j in -3..=3 {
                points.push((f64::from(i) * 2.5, f64::from(j) * 2.5));
            }
        }
        points.extend([
            (0.0, 0.0),
            (0.0, 0.0),
            (-5.0, -5.0),
            (-2.0, -1.0),
            (1.0, 3.0),
            (-0.000_1, 7.5),
            (9.999_9, -7.5),
            (-10.0, -7.5),
        ]);
        for &radius in &[2.5, 1.25] {
            let index = GridIndex::new(&points, 2.5);
            for i in 0..points.len() {
                assert_eq!(
                    near(&index, i, radius),
                    brute(&points, i, radius),
                    "point {i} at radius {radius}"
                );
            }
        }
        // Exact 3-4-5 pair: distance 5 = the radius.
        let diagonal = vec![(-3.0, -4.0), (0.0, 0.0), (3.0, 4.0), (3.0, 4.0)];
        let index = GridIndex::new(&diagonal, 5.0);
        assert_eq!(near(&index, 1, 5.0), vec![0, 1, 2, 3]);
        assert_eq!(near(&index, 0, 5.0), vec![0, 1]);
        assert_eq!(near(&index, 2, 5.0), vec![1, 2, 3]);
    }

    /// A pair a metre apart (10⁶ µm, as a parsed DEF may hold) takes
    /// two buckets, not one per bucket of the span between them.
    #[test]
    fn far_apart_points_take_one_bucket_each() {
        let points = vec![(0.0, 0.0), (1e6, -1e6), (1e6 + 1.0, -1e6), (-1e6, 1e6)];
        let index = GridIndex::new(&points, 3.35);
        assert_eq!(index.bucket_count(), 3);
        assert_eq!(near(&index, 0, 3.35), vec![0]);
        assert_eq!(near(&index, 1, 3.35), vec![1, 2]);
        assert_eq!(near(&index, 3, 3.35), vec![3]);
    }

    #[test]
    fn zero_and_negative_radii() {
        let points = vec![(0.0, 0.0), (0.0, 0.0), (1e-4, 0.0)];
        let index = GridIndex::new(&points, 1e-3);
        assert_eq!(near(&index, 0, 0.0), vec![0, 1]);
        assert!(near(&index, 0, -1.0).is_empty());
        // A negative radius smaller in size than a bucket.
        assert!(near(&index, 0, -1e-4).is_empty());
        assert!(near(&index, 0, f64::NAN).is_empty());
        // At zero radius, points a hair apart across a bucket border.
        let straddling = vec![(1.0 - 1e-12, 0.0), (1.0, 0.0)];
        let index = GridIndex::new(&straddling, 1.0);
        assert_eq!(near(&index, 0, 0.0), vec![0, 1]);
        assert_eq!(near(&index, 1, 0.0), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "exceeds the bucket size")]
    fn radius_past_the_bucket_size_panics() {
        let points = vec![(0.0, 0.0)];
        let _ = near(&GridIndex::new(&points, 1.0), 0, 1.5);
    }

    #[test]
    #[should_panic(expected = "cell size")]
    fn zero_cell_size_panics() {
        let _ = GridIndex::new(&[], 0.0);
    }
}
