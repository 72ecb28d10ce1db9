//! Cell synthesis: from a [`CellSpec`] and [`DesignRules`] to placed
//! geometry with an area.

use units::{Area, Length};

use crate::chain::{chain_row, RowPlan};
use crate::rules::DesignRules;
use crate::spec::{CellSpec, Row};

/// Mask layers used by the generator (a deliberately small set — enough
/// for a recognizable 12-track cell plot up to M2, like the paper's
/// Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Layer {
    /// Cell boundary.
    Outline,
    /// N-well under the PMOS row.
    Nwell,
    /// PMOS diffusion.
    Pdiff,
    /// NMOS diffusion.
    Ndiff,
    /// Polysilicon gates.
    Poly,
    /// Metal 1 (rails and straps).
    Metal1,
    /// Metal 2 (control routing).
    Metal2,
    /// MTJ pillar landing pads in the BEOL.
    Mtj,
}

/// An axis-aligned rectangle in micrometres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Rect {
    /// Layer this rectangle belongs to.
    pub(crate) layer: Layer,
    /// Left edge, µm.
    pub(crate) x: f64,
    /// Bottom edge, µm.
    pub(crate) y: f64,
    /// Width, µm.
    pub(crate) w: f64,
    /// Height, µm.
    pub(crate) h: f64,
}

/// Where one transistor landed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Placement {
    /// Instance name.
    pub(crate) name: String,
    /// Row.
    pub(crate) row: Row,
    /// Column index (0-based, left to right).
    pub(crate) column: usize,
}

/// A synthesized cell layout.
#[derive(Debug, Clone, PartialEq)]
pub struct CellLayout {
    name: String,
    width: Length,
    height: Length,
    rects: Vec<Rect>,
    placements: Vec<Placement>,
    p_plan: RowPlan,
    n_plan: RowPlan,
    mtj_count: usize,
}

impl CellLayout {
    /// Synthesizes the layout of `spec` under `rules`: chains both rows,
    /// sizes the cell to the wider row, and emits the geometry.
    #[must_use]
    pub(crate) fn synthesize(spec: &CellSpec, rules: &DesignRules) -> Self {
        let p_row: Vec<_> = spec.row(Row::P).into_iter().cloned().collect();
        let n_row: Vec<_> = spec.row(Row::N).into_iter().cloned().collect();
        let p_plan = chain_row(&p_row, rules);
        let n_plan = chain_row(&n_row, rules);
        let columns = p_plan.columns.max(n_plan.columns).max(1);
        let width = rules.cell_width(columns);
        let height = rules.cell_height();

        let wu = width.micro_meters();
        let hu = height.micro_meters();
        let pitch = rules.poly_pitch.micro_meters();
        let edge = rules.edge_margin.micro_meters();
        let rail = rules.track_pitch.micro_meters();

        let mut rects = vec![
            Rect {
                layer: Layer::Outline,
                x: 0.0,
                y: 0.0,
                w: wu,
                h: hu,
            },
            // Rails: VDD on top, GND on bottom, one track each.
            Rect {
                layer: Layer::Metal1,
                x: 0.0,
                y: hu - rail,
                w: wu,
                h: rail,
            },
            Rect {
                layer: Layer::Metal1,
                x: 0.0,
                y: 0.0,
                w: wu,
                h: rail,
            },
            // N-well covers the upper half.
            Rect {
                layer: Layer::Nwell,
                x: 0.0,
                y: hu * 0.5,
                w: wu,
                h: hu * 0.5,
            },
        ];

        // Diffusion strips sized to the occupied columns of each row.
        let p_cols = p_plan.columns.max(1);
        let n_cols = n_plan.columns.max(1);
        let diff_h = hu * 0.22;
        if !p_row.is_empty() {
            rects.push(Rect {
                layer: Layer::Pdiff,
                x: edge,
                y: hu * 0.60,
                w: pitch * p_cols as f64,
                h: diff_h,
            });
        }
        if !n_row.is_empty() {
            rects.push(Rect {
                layer: Layer::Ndiff,
                x: edge,
                y: hu * 0.18,
                w: pitch * n_cols as f64,
                h: diff_h,
            });
        }
        // Poly columns across both rows.
        for c in 0..columns {
            rects.push(Rect {
                layer: Layer::Poly,
                x: edge + pitch * (c as f64 + 0.35),
                y: hu * 0.12,
                w: pitch * 0.3,
                h: hu * 0.76,
            });
        }
        // A couple of M2 control straps (horizontal), as in the 12-track
        // template.
        for k in [4.0, 7.0] {
            rects.push(Rect {
                layer: Layer::Metal2,
                x: 0.05,
                y: rail * k,
                w: wu - 0.1,
                h: rail * 0.5,
            });
        }
        // MTJ pads spread along the top half (they live above the
        // transistors and consume no extra cell width as long as they
        // fit; the generator asserts they do).
        let pad = rules.mtj_pad.micro_meters();
        let n_mtj = spec.mtjs.len();
        for (k, _mtj) in spec.mtjs.iter().enumerate() {
            let slot = wu / (n_mtj as f64 + 1.0);
            rects.push(Rect {
                layer: Layer::Mtj,
                x: slot * (k as f64 + 1.0) - pad / 2.0,
                y: hu * 0.5 - pad / 2.0,
                w: pad,
                h: pad,
            });
        }

        // Record placements: walk the chains column by column.
        let mut placements = Vec::new();
        for (plan, row_devs, row) in [(&p_plan, &p_row, Row::P), (&n_plan, &n_row, Row::N)] {
            let mut col = 0usize;
            for chain in &plan.chains {
                for placed in &chain.devices {
                    placements.push(Placement {
                        name: row_devs[placed.index].name.clone(),
                        row,
                        column: col,
                    });
                    col += 1;
                }
                col += rules.break_columns;
            }
        }

        Self {
            name: spec.name.clone(),
            width,
            height,
            rects,
            placements,
            p_plan,
            n_plan,
            mtj_count: n_mtj,
        }
    }

    /// Cell name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Cell width.
    #[must_use]
    pub fn width(&self) -> Length {
        self.width
    }

    /// Cell height.
    #[must_use]
    pub fn height(&self) -> Length {
        self.height
    }

    /// Cell area (width × height).
    #[must_use]
    pub fn area(&self) -> Area {
        self.width * self.height
    }

    /// The generated geometry.
    #[must_use]
    pub(crate) fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Where each transistor landed.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Chaining result of the PMOS row.
    #[must_use]
    pub fn p_plan(&self) -> &RowPlan {
        &self.p_plan
    }

    /// Chaining result of the NMOS row.
    #[must_use]
    pub fn n_plan(&self) -> &RowPlan {
        &self.n_plan
    }

    /// Number of MTJ pads placed.
    #[must_use]
    pub fn mtj_count(&self) -> usize {
        self.mtj_count
    }

    /// Lightweight design-rule sanity check: geometry within the
    /// outline, MTJ pads non-overlapping, rails present.
    #[must_use]
    pub fn check(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let wu = self.width.micro_meters();
        let hu = self.height.micro_meters();
        for r in &self.rects {
            if r.x < -1e-9 || r.y < -1e-9 || r.x + r.w > wu + 1e-9 || r.y + r.h > hu + 1e-9 {
                violations.push(format!(
                    "{:?} rect at ({:.3},{:.3}) size ({:.3}×{:.3}) escapes the outline",
                    r.layer, r.x, r.y, r.w, r.h
                ));
            }
        }
        let mtjs: Vec<&Rect> = self
            .rects
            .iter()
            .filter(|r| r.layer == Layer::Mtj)
            .collect();
        for (i, a) in mtjs.iter().enumerate() {
            for b in mtjs.iter().skip(i + 1) {
                let overlap_x = a.x < b.x + b.w && b.x < a.x + a.w;
                let overlap_y = a.y < b.y + b.h && b.y < a.y + a.h;
                if overlap_x && overlap_y {
                    violations.push("overlapping MTJ pads".to_owned());
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MtjSpec, TransistorSpec};

    fn inverter_spec() -> CellSpec {
        let mut spec = CellSpec::new("inv");
        spec.transistors.push(TransistorSpec::new(
            "MP",
            Row::P,
            "a",
            "vdd",
            "y",
            Length::from_nano_meters(400.0),
        ));
        spec.transistors.push(TransistorSpec::new(
            "MN",
            Row::N,
            "a",
            "gnd",
            "y",
            Length::from_nano_meters(200.0),
        ));
        spec
    }

    #[test]
    fn inverter_is_one_column() {
        let layout = CellLayout::synthesize(&inverter_spec(), &DesignRules::n40());
        assert_eq!(layout.p_plan().columns, 1);
        assert_eq!(layout.n_plan().columns.max(1), 1);
        let expected_w = DesignRules::n40().cell_width(1);
        assert_eq!(layout.width(), expected_w);
        assert!(layout.check().is_empty(), "{:?}", layout.check());
        assert_eq!(layout.placements().len(), 2);
        assert_eq!(layout.name(), "inv");
    }

    #[test]
    fn area_is_width_times_height() {
        let layout = CellLayout::synthesize(&inverter_spec(), &DesignRules::n40());
        let a = layout.area().square_micro_meters();
        let expect = layout.width().micro_meters() * layout.height().micro_meters();
        assert!((a - expect).abs() < 1e-12);
    }

    #[test]
    fn mtj_pads_render_without_overlap() {
        let mut spec = inverter_spec();
        for k in 0..4 {
            spec.mtjs.push(MtjSpec::new(&format!("X{k}"), "a", "b"));
        }
        // Wider cell so four pads fit.
        for k in 0..6 {
            spec.transistors.push(TransistorSpec::new(
                &format!("MF{k}"),
                Row::P,
                &format!("g{k}"),
                &format!("s{k}"),
                &format!("d{k}"),
                Length::from_nano_meters(400.0),
            ));
        }
        let layout = CellLayout::synthesize(&spec, &DesignRules::n40());
        assert_eq!(layout.mtj_count(), 4);
        assert!(layout.check().is_empty(), "{:?}", layout.check());
    }

    #[test]
    fn empty_cell_has_minimum_width() {
        let layout = CellLayout::synthesize(&CellSpec::new("empty"), &DesignRules::n40());
        assert_eq!(layout.width(), DesignRules::n40().cell_width(1));
        assert!(layout.placements().is_empty());
    }
}
