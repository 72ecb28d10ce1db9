//! Design rules of the target process, reduced to the handful of
//! quantities a track-based cell generator needs.

use units::Length;

/// Standard-cell design rules.
///
/// The defaults ([`DesignRules::n40`]) describe a 40 nm-class process:
/// 160 nm contacted poly pitch, 140 nm metal track pitch and a 12-track
/// cell, matching the paper's layout setup ("12 tracks, which uses up to
/// M2").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignRules {
    /// Contacted poly pitch — the width of one transistor column.
    pub(crate) poly_pitch: Length,
    /// Routing track pitch (M1/M2).
    pub(crate) track_pitch: Length,
    /// Cell height in routing tracks.
    pub(crate) cell_height_tracks: usize,
    /// Per-side cell edge margin (boundary half-spacing + well tie).
    pub(crate) edge_margin: Length,
    /// Extra columns inserted at a diffusion break between chains
    /// (0 on processes that allow single-dummy-gate abutment).
    pub(crate) break_columns: usize,
    /// Maximum device width that may share a folded column with another
    /// equally narrow device in the same row.
    pub(crate) fold_width_limit: Length,
    /// Diameter budget of one MTJ landing pad in the BEOL (the MTJ pillar
    /// plus its enclosure); MTJs consume no front-end area but bound how
    /// many fit above a cell.
    pub(crate) mtj_pad: Length,
}

impl DesignRules {
    /// 40 nm-class rules used throughout the reproduction.
    #[must_use]
    pub fn n40() -> Self {
        Self {
            poly_pitch: Length::from_nano_meters(160.0),
            track_pitch: Length::from_nano_meters(140.0),
            cell_height_tracks: 12,
            edge_margin: Length::from_nano_meters(40.0),
            break_columns: 0,
            fold_width_limit: Length::from_nano_meters(300.0),
            mtj_pad: Length::from_nano_meters(120.0),
        }
    }

    /// Cell height: tracks × track pitch.
    #[must_use]
    pub(crate) fn cell_height(&self) -> Length {
        self.track_pitch * self.cell_height_tracks as f64
    }

    /// Cell width for a given number of transistor columns.
    #[must_use]
    pub(crate) fn cell_width(&self, columns: usize) -> Length {
        self.poly_pitch * columns as f64 + self.edge_margin * 2.0
    }
}

impl Default for DesignRules {
    fn default() -> Self {
        Self::n40()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n40_cell_height_is_12_tracks() {
        let r = DesignRules::n40();
        assert_eq!(r.cell_height_tracks, 12);
        assert!((r.cell_height().micro_meters() - 1.68).abs() < 1e-9);
    }

    #[test]
    fn width_scales_with_columns() {
        let r = DesignRules::n40();
        let w10 = r.cell_width(10);
        let w16 = r.cell_width(16);
        assert!((w10.micro_meters() - 1.68).abs() < 1e-9);
        assert!(w16 > w10);
        assert!(((w16 - w10).micro_meters() - 6.0 * 0.16).abs() < 1e-9);
    }
}
