//! LEF (Library Exchange Format) abstract views of the generated cells
//! — the form a place-and-route tool consumes: cell size, site, and pin
//! shapes, without the full mask geometry.

use std::fmt::Write as _;

use crate::geometry::{CellLayout, Layer, Rect};

/// Pin description attached to a LEF macro.
#[derive(Debug, Clone, PartialEq)]
pub struct LefPin {
    /// Pin name.
    pub(crate) name: String,
    /// Direction: `INPUT`, `OUTPUT` or `INOUT`.
    pub(crate) direction: &'static str,
    /// Use class: `SIGNAL`, `POWER` or `GROUND`.
    pub(crate) use_class: &'static str,
}

impl LefPin {
    /// A signal input pin.
    #[must_use]
    pub fn input(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            direction: "INPUT",
            use_class: "SIGNAL",
        }
    }

    /// A signal output pin.
    #[must_use]
    pub fn output(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            direction: "OUTPUT",
            use_class: "SIGNAL",
        }
    }
}

/// Writes one LEF `MACRO` for a synthesized cell.
///
/// Pins are given simple one-track port rectangles spread along the
/// cell; the rails reuse the layout's Metal1 rail geometry.
///
/// # Examples
///
/// ```
/// use layout::{DesignRules, cells, lef};
///
/// let layout = cells::proposed_2bit_layout(&DesignRules::n40());
/// let pins = [lef::LefPin::input("D0"), lef::LefPin::output("Q0")];
/// let text = lef::write_macro(&layout, "CoreSite", &pins);
/// assert!(text.contains("MACRO NVLATCH2"));
/// assert!(text.contains("PIN D0"));
/// ```
#[must_use]
pub fn write_macro(layout: &CellLayout, site: &str, pins: &[LefPin]) -> String {
    let mut out = String::new();
    let w = layout.width().micro_meters();
    let h = layout.height().micro_meters();
    let _ = writeln!(out, "MACRO {}", layout.name());
    let _ = writeln!(out, "  CLASS CORE ;");
    let _ = writeln!(out, "  ORIGIN 0 0 ;");
    let _ = writeln!(out, "  SIZE {w:.4} BY {h:.4} ;");
    let _ = writeln!(out, "  SYMMETRY X Y ;");
    let _ = writeln!(out, "  SITE {site} ;");

    // Rails from the layout's Metal1 geometry.
    let rails: Vec<&Rect> = layout
        .rects()
        .iter()
        .filter(|r| r.layer == Layer::Metal1)
        .collect();
    for (name, rail) in ["VDD", "VSS"].iter().zip(rails.iter()) {
        let _ = writeln!(out, "  PIN {name}");
        let _ = writeln!(out, "    DIRECTION INOUT ;");
        let _ = writeln!(
            out,
            "    USE {} ;",
            if *name == "VDD" { "POWER" } else { "GROUND" }
        );
        let _ = writeln!(out, "    PORT");
        let _ = writeln!(
            out,
            "      LAYER metal1 ;\n      RECT {:.4} {:.4} {:.4} {:.4} ;",
            rail.x,
            rail.y,
            rail.x + rail.w,
            rail.y + rail.h
        );
        let _ = writeln!(out, "    END");
        let _ = writeln!(out, "  END {name}");
    }

    // Signal pins: one-track M2 landing pads spread along the cell.
    let pad = 0.07;
    for (k, pin) in pins.iter().enumerate() {
        let cx = w * (k as f64 + 1.0) / (pins.len() as f64 + 1.0);
        let cy = h * 0.5;
        let _ = writeln!(out, "  PIN {}", pin.name);
        let _ = writeln!(out, "    DIRECTION {} ;", pin.direction);
        let _ = writeln!(out, "    USE {} ;", pin.use_class);
        let _ = writeln!(out, "    PORT");
        let _ = writeln!(
            out,
            "      LAYER metal2 ;\n      RECT {:.4} {:.4} {:.4} {:.4} ;",
            cx - pad,
            cy - pad,
            cx + pad,
            cy + pad
        );
        let _ = writeln!(out, "    END");
        let _ = writeln!(out, "  END {}", pin.name);
    }
    let _ = writeln!(out, "END {}", layout.name());
    out
}

/// Writes a small LEF library: header, the core site, and the two NV
/// component macros with their natural pin lists.
#[must_use]
pub fn write_nv_library(rules: &crate::rules::DesignRules) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "VERSION 5.8 ;");
    let _ = writeln!(out, "BUSBITCHARS \"[]\" ;");
    let _ = writeln!(out, "DIVIDERCHAR \"/\" ;");
    let _ = writeln!(
        out,
        "SITE CoreSite\n  CLASS CORE ;\n  SIZE {:.4} BY {:.4} ;\nEND CoreSite",
        rules.poly_pitch.micro_meters(),
        rules.cell_height().micro_meters()
    );

    let single = crate::cells::standard_1bit_layout(rules);
    let pins_1 = [
        LefPin::input("D"),
        LefPin::output("Q"),
        LefPin::input("PD"),
        LefPin::input("CLK"),
    ];
    out.push_str(&write_macro(&single, "CoreSite", &pins_1));

    let shared = crate::cells::proposed_2bit_layout(rules);
    let pins_2 = [
        LefPin::input("D0"),
        LefPin::input("D1"),
        LefPin::output("Q0"),
        LefPin::output("Q1"),
        LefPin::input("PD"),
        LefPin::input("CLK"),
    ];
    out.push_str(&write_macro(&shared, "CoreSite", &pins_2));
    let _ = writeln!(out, "END LIBRARY");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells;
    use crate::rules::DesignRules;

    #[test]
    fn macro_has_size_site_and_rails() {
        let layout = cells::standard_1bit_layout(&DesignRules::n40());
        let text = write_macro(&layout, "CoreSite", &[LefPin::input("D")]);
        assert!(text.contains("MACRO NVLATCH1"));
        assert!(text.contains("SIZE 1.6750 BY 1.6800 ;"));
        assert!(text.contains("SITE CoreSite ;"));
        assert!(text.contains("PIN VDD"));
        assert!(text.contains("USE GROUND ;"));
        assert!(text.contains("END NVLATCH1"));
    }

    #[test]
    fn pins_land_inside_the_cell() {
        let layout = cells::proposed_2bit_layout(&DesignRules::n40());
        let pins = [
            LefPin::input("D0"),
            LefPin::input("D1"),
            LefPin::output("Q0"),
        ];
        let text = write_macro(&layout, "CoreSite", &pins);
        let w = layout.width().micro_meters();
        for line in text.lines().filter(|l| l.trim_start().starts_with("RECT")) {
            let nums: Vec<f64> = line
                .split_whitespace()
                .filter_map(|t| t.trim_end_matches(';').parse().ok())
                .collect();
            assert_eq!(nums.len(), 4, "{line}");
            assert!(nums[0] >= -1e-9 && nums[2] <= w + 1e-9, "{line}");
        }
    }

    #[test]
    fn library_contains_both_macros_and_the_site() {
        let text = write_nv_library(&DesignRules::n40());
        assert!(text.starts_with("VERSION 5.8 ;"));
        assert!(text.contains("SITE CoreSite"));
        assert!(text.contains("MACRO NVLATCH1"));
        assert!(text.contains("MACRO NVLATCH2"));
        assert!(text.contains("PIN D1"));
        assert!(text.trim_end().ends_with("END LIBRARY"));
    }

    #[test]
    fn pin_constructors() {
        assert_eq!(LefPin::input("A").direction, "INPUT");
        assert_eq!(LefPin::output("Y").direction, "OUTPUT");
    }
}
