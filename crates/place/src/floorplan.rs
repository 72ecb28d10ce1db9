//! Die and row planning.

use netlist::{CellLibrary, Netlist};
use units::Length;

/// A row-based floorplan: a near-square die of uniform-height rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    rows: usize,
    sites_per_row: usize,
    site_width: Length,
    row_height: Length,
}

impl Floorplan {
    /// Plans a floorplan for `netlist` at the given `utilization`
    /// (fraction of row capacity occupied by cells; EDA defaults sit
    /// around 0.7).
    ///
    /// The row count is chosen so the die is as square as possible.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < utilization ≤ 1`.
    #[must_use]
    pub(crate) fn plan(netlist: &Netlist, library: &CellLibrary, utilization: f64) -> Self {
        assert!(
            utilization > 0.0 && utilization <= 1.0,
            "utilization must be in (0, 1], got {utilization}"
        );
        let total_sites: usize = netlist
            .instances()
            .iter()
            .map(|i| library.sites(i.kind))
            .sum();
        let capacity = ((total_sites.max(1)) as f64 / utilization).ceil();
        // Square die: rows · row_height ≈ sites_per_row · site_width
        // with capacity = rows · sites_per_row.
        let aspect = library.row_height().meters() / library.site_width().meters();
        let rows = (capacity / aspect).sqrt().ceil().max(1.0) as usize;
        let sites_per_row = (capacity / rows as f64).ceil() as usize;
        Self {
            rows,
            sites_per_row,
            site_width: library.site_width(),
            row_height: library.row_height(),
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Sites per row.
    #[must_use]
    pub(crate) fn sites_per_row(&self) -> usize {
        self.sites_per_row
    }

    /// Die width.
    #[must_use]
    pub fn die_width(&self) -> Length {
        self.site_width * self.sites_per_row as f64
    }

    /// Die height.
    #[must_use]
    pub fn die_height(&self) -> Length {
        self.row_height * self.rows as f64
    }

    /// Site width.
    #[must_use]
    pub(crate) fn site_width(&self) -> Length {
        self.site_width
    }

    /// Row height.
    #[must_use]
    pub fn row_height(&self) -> Length {
        self.row_height
    }

    /// The y coordinate of a row's bottom edge.
    ///
    /// # Panics
    ///
    /// Panics if `row ≥ rows()`.
    #[must_use]
    pub(crate) fn row_y(&self, row: usize) -> Length {
        assert!(row < self.rows, "row {row} out of range");
        self.row_height * row as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::benchmarks;

    #[test]
    fn die_is_roughly_square() {
        let n = benchmarks::generate(benchmarks::by_name("s5378").unwrap());
        let fp = Floorplan::plan(&n, &CellLibrary::n40(), 0.7);
        let ratio = fp.die_width().meters() / fp.die_height().meters();
        assert!((0.5..2.0).contains(&ratio), "aspect = {ratio}");
    }

    #[test]
    fn capacity_covers_cells_at_utilization() {
        let lib = CellLibrary::n40();
        let n = benchmarks::generate(benchmarks::by_name("s344").unwrap());
        let fp = Floorplan::plan(&n, &lib, 0.7);
        let total_sites: usize = n.instances().iter().map(|i| lib.sites(i.kind)).sum();
        assert!(fp.rows() * fp.sites_per_row() >= total_sites);
    }

    #[test]
    fn row_y_is_linear() {
        let n = benchmarks::generate(benchmarks::by_name("s344").unwrap());
        let fp = Floorplan::plan(&n, &CellLibrary::n40(), 0.7);
        assert_eq!(fp.row_y(0), units::Length::from_meters(0.0));
        if fp.rows() > 2 {
            let dy = fp.row_y(2) - fp.row_y(1);
            assert!((dy.meters() - fp.row_height().meters()).abs() < 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn zero_utilization_panics() {
        let n = Netlist::new("x");
        let _ = Floorplan::plan(&n, &CellLibrary::n40(), 0.0);
    }
}
