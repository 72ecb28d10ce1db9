//! Grid-bucketed spatial index for radius queries over placed cells.

/// A uniform-grid point index: build once, query neighbourhoods in
/// expected O(1) per point.
///
/// The buckets are one array of `(bucket, point index)` entries sorted
/// by bucket row, then bucket column, then index; a query reads one
/// contiguous run per bucket row it covers, found by binary search.
///
/// # Examples
///
/// ```
/// use place::GridIndex;
///
/// let points = vec![(0.0, 0.0), (1.0, 0.0), (10.0, 10.0)];
/// let index = GridIndex::new(&points, 2.0);
/// let mut near_origin = Vec::new();
/// index.within_radius_into(&points, (0.0, 0.0), 1.5, &mut near_origin);
/// assert_eq!(near_origin, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell_size: f64,
    entries: Vec<((i64, i64), usize)>,
}

impl GridIndex {
    /// Builds an index over `points` with the given bucket size (pick
    /// roughly the query radius).
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not positive and finite.
    #[must_use]
    pub fn new(points: &[(f64, f64)], cell_size: f64) -> Self {
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "cell size must be positive and finite"
        );
        let mut entries: Vec<((i64, i64), usize)> = points
            .iter()
            .enumerate()
            .map(|(idx, &(x, y))| (Self::key(x, y, cell_size), idx))
            .collect();
        entries.sort_unstable();
        Self { cell_size, entries }
    }

    /// The `(row, column)` bucket of a point.
    fn key(x: f64, y: f64, cell_size: f64) -> (i64, i64) {
        (
            (y / cell_size).floor() as i64,
            (x / cell_size).floor() as i64,
        )
    }

    /// Writes into `out` (cleared first) the indices of all points
    /// within Euclidean `radius` of `center` (inclusive), in ascending
    /// index order. The centre point itself is included if it is in
    /// the point set. A scan over many centres reuses one buffer.
    pub fn within_radius_into(
        &self,
        points: &[(f64, f64)],
        center: (f64, f64),
        radius: f64,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        let reach = (radius / self.cell_size).ceil() as i64;
        let (row, col) = Self::key(center.0, center.1, self.cell_size);
        for r in row - reach..=row + reach {
            let start = self.entries.partition_point(|&(k, _)| k < (r, col - reach));
            let last = (r, col + reach);
            for &(_, idx) in self.entries[start..]
                .iter()
                .take_while(|&&(k, _)| k <= last)
            {
                let (x, y) = points[idx];
                let d2 = (x - center.0).powi(2) + (y - center.1).powi(2);
                if d2 <= radius * radius + 1e-18 {
                    out.push(idx);
                }
            }
        }
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn near(index: &GridIndex, points: &[(f64, f64)], center: (f64, f64), r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        index.within_radius_into(points, center, r, &mut out);
        out
    }

    #[test]
    fn finds_neighbours_across_bucket_borders() {
        let points = vec![(0.9, 0.0), (1.1, 0.0), (5.0, 5.0)];
        let index = GridIndex::new(&points, 1.0);
        assert_eq!(near(&index, &points, (1.0, 0.0), 0.5), vec![0, 1]);
    }

    #[test]
    fn radius_is_inclusive() {
        let points = vec![(0.0, 0.0), (2.0, 0.0)];
        let index = GridIndex::new(&points, 1.0);
        assert_eq!(near(&index, &points, (0.0, 0.0), 2.0), vec![0, 1]);
    }

    #[test]
    fn empty_set() {
        let points: Vec<(f64, f64)> = Vec::new();
        let index = GridIndex::new(&points, 1.0);
        assert!(near(&index, &points, (0.0, 0.0), 10.0).is_empty());
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
        let index = GridIndex::new(&points, 7.0);
        let center = (50.0, 50.0);
        let radius = 13.0;
        let mut brute: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, &(x, y))| {
                (x - center.0).powi(2) + (y - center.1).powi(2) <= radius * radius
            })
            .map(|(i, _)| i)
            .collect();
        brute.sort_unstable();
        assert_eq!(near(&index, &points, center, radius), brute);
    }

    #[test]
    fn buffered_query_matches_and_clears() {
        let points: Vec<(f64, f64)> = (0..200)
            .map(|k| (f64::from((k * 13) % 37), f64::from((k * 7) % 29)))
            .collect();
        let index = GridIndex::new(&points, 2.0);
        let mut buf = vec![usize::MAX];
        for &(cx, cy) in points.iter().take(50) {
            index.within_radius_into(&points, (cx, cy), 3.0, &mut buf);
            let brute: Vec<usize> = (0..points.len())
                .filter(|&i| (points[i].0 - cx).powi(2) + (points[i].1 - cy).powi(2) <= 9.0)
                .collect();
            assert_eq!(buf, brute);
        }
    }

    #[test]
    #[should_panic(expected = "cell size")]
    fn zero_cell_size_panics() {
        let _ = GridIndex::new(&[], 0.0);
    }
}
