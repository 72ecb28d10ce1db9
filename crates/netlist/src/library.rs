//! Standard-cell footprints for the placement substrate.

use units::Length;

use crate::ir::CellKind;

/// Physical footprint of one cell kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellFootprint {
    /// Cell width.
    pub width: Length,
    /// Cell height (uniform row height).
    pub(crate) height: Length,
}

impl CellFootprint {
    /// Footprint area.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn area(&self) -> units::Area {
        self.width * self.height
    }
}

/// A 40 nm-class standard-cell library: uniform 1.68 µm row height
/// (12 tracks × 140 nm, matching the [`layout`] crate's rules) and
/// per-kind widths in multiples of the 160 nm poly pitch.
///
/// [`layout`]: https://docs.rs/layout
#[derive(Debug, Clone, PartialEq)]
pub struct CellLibrary {
    row_height: Length,
    site_width: Length,
}

impl CellLibrary {
    /// The 40 nm library used throughout the reproduction.
    #[must_use]
    pub fn n40() -> Self {
        Self {
            row_height: Length::from_nano_meters(1680.0),
            site_width: Length::from_nano_meters(160.0),
        }
    }

    /// Uniform row (cell) height.
    #[must_use]
    pub fn row_height(&self) -> Length {
        self.row_height
    }

    /// Placement site width (one poly pitch).
    #[must_use]
    pub fn site_width(&self) -> Length {
        self.site_width
    }

    /// Width of a cell kind in placement sites.
    #[must_use]
    pub fn sites(&self, kind: CellKind) -> usize {
        match kind {
            CellKind::Input | CellKind::Output => 0,
            CellKind::Inv | CellKind::Buf => 2,
            CellKind::Nand2 | CellKind::Nor2 => 3,
            CellKind::And2 | CellKind::Or2 => 4,
            CellKind::Xor2 => 6,
            // A D flip-flop is the big cell of the library.
            CellKind::Dff => 12,
        }
    }

    /// Footprint of a cell kind.
    #[must_use]
    pub fn footprint(&self, kind: CellKind) -> CellFootprint {
        CellFootprint {
            width: self.site_width * self.sites(kind) as f64,
            height: self.row_height,
        }
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        Self::n40()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::Area;

    #[test]
    fn row_height_matches_the_layout_rules() {
        let lib = CellLibrary::n40();
        assert!((lib.row_height().micro_meters() - 1.68).abs() < 1e-12);
        assert!((lib.site_width().nano_meters() - 160.0).abs() < 1e-9);
    }

    #[test]
    fn ports_are_zero_area() {
        let lib = CellLibrary::n40();
        assert_eq!(lib.sites(CellKind::Input), 0);
        assert_eq!(lib.footprint(CellKind::Output).area(), Area::ZERO);
    }

    #[test]
    fn dff_is_the_largest_cell() {
        let lib = CellLibrary::n40();
        for kind in CellKind::PLACEABLE {
            assert!(lib.sites(kind) <= lib.sites(CellKind::Dff));
        }
        // 12 sites × 160 nm × 1.68 µm ≈ 3.2 µm².
        let a = lib.footprint(CellKind::Dff).area().square_micro_meters();
        assert!((a - 12.0 * 0.16 * 1.68).abs() < 1e-9);
    }
}
