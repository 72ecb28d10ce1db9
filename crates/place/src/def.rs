//! Design Exchange Format (DEF) writer and reader — the interchange the
//! paper's merge script operates on ("identification of such neighbor
//! flip-flops in the layout is done using a script, that is executed
//! over the DEF file").
//!
//! The subset covers what the flow needs: header, die area, rows, and
//! placed components. Coordinates follow DEF convention (integer
//! database units, 1000 per micron).

use core::fmt;
use std::error::Error;

use units::Length;

use crate::placer::PlacedDesign;

/// Database units per micron.
const DBU_PER_MICRON: f64 = 1000.0;

/// Serializes a placed design to DEF text.
///
/// # Examples
///
/// ```
/// use netlist::{CellLibrary, benchmarks};
/// use place::{PlacerOptions, placer, def};
///
/// let n = benchmarks::generate(benchmarks::by_name("s344").unwrap());
/// let placed = placer::place(&n, &CellLibrary::n40(), &PlacerOptions::default());
/// let text = def::write(&placed);
/// let parsed = def::parse(&text)?;
/// assert_eq!(parsed.cells().len(), placed.cells().len());
/// # Ok::<(), place::def::ParseDefError>(())
/// ```
#[must_use]
pub fn write(design: &PlacedDesign) -> String {
    use std::fmt::Write as _;
    let fp = design.floorplan();
    let to_dbu = |l: Length| (l.micro_meters() * DBU_PER_MICRON).round() as i64;

    let mut out = String::new();
    let _ = writeln!(out, "VERSION 5.8 ;");
    let _ = writeln!(out, "DESIGN {} ;", design.name());
    let _ = writeln!(out, "UNITS DISTANCE MICRONS {DBU_PER_MICRON} ;");
    let _ = writeln!(
        out,
        "DIEAREA ( 0 0 ) ( {} {} ) ;",
        to_dbu(fp.die_width()),
        to_dbu(fp.die_height())
    );
    for row in 0..fp.rows() {
        let _ = writeln!(
            out,
            "ROW core_row_{row} CoreSite 0 {} N DO {} BY 1 STEP {} 0 ;",
            to_dbu(fp.row_y(row)),
            fp.sites_per_row(),
            to_dbu(fp.site_width()),
        );
    }
    let _ = writeln!(out, "COMPONENTS {} ;", design.cells().len());
    for (name, cell) in design.named_cells() {
        let _ = writeln!(
            out,
            "- {} {} + PLACED ( {} {} ) N ;",
            name,
            cell.kind,
            to_dbu(cell.x),
            to_dbu(cell.y)
        );
    }
    let _ = writeln!(out, "END COMPONENTS");
    let _ = writeln!(out, "END DESIGN");
    out
}

/// A component read back from DEF.
#[derive(Debug, Clone, PartialEq)]
pub struct DefComponent {
    /// Instance name.
    pub name: String,
    /// Cell master name (e.g. `DFF`).
    pub(crate) master: String,
    /// Left edge.
    pub x: Length,
    /// Bottom edge.
    pub y: Length,
}

impl DefComponent {
    /// `true` if the master is the flip-flop cell.
    #[must_use]
    pub(crate) fn is_flip_flop(&self) -> bool {
        self.master == "DFF"
    }
}

/// A parsed DEF file (the subset the merge flow consumes).
#[derive(Debug, Clone, PartialEq)]
pub struct DefDesign {
    name: String,
    die_width: Length,
    die_height: Length,
    components: Vec<DefComponent>,
}

impl DefDesign {
    /// Design name.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Die width.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn die_width(&self) -> Length {
        self.die_width
    }

    /// All placed components.
    #[must_use]
    pub fn cells(&self) -> &[DefComponent] {
        &self.components
    }

    /// The placed flip-flops, each with its index in [`Self::cells`].
    pub fn flip_flops(&self) -> impl Iterator<Item = (usize, &DefComponent)> {
        self.components
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_flip_flop())
    }
}

/// Error produced by [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDefError {
    line: usize,
    what: String,
}

impl fmt::Display for ParseDefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DEF parse error at line {}: {}", self.line, self.what)
    }
}

impl Error for ParseDefError {}

/// Parses the DEF subset produced by [`write()`](write()) (and tolerant of extra
/// whitespace).
///
/// # Errors
///
/// Returns [`ParseDefError`] on malformed component or die-area lines,
/// or when mandatory sections are missing.
pub fn parse(text: &str) -> Result<DefDesign, ParseDefError> {
    let mut name = None;
    let mut die = None;
    let mut components = Vec::new();
    let mut in_components = false;
    let from_dbu = |raw: &str, line: usize| -> Result<Length, ParseDefError> {
        let what = match raw.parse::<f64>() {
            Ok(v) if v.is_finite() => return Ok(Length::from_micro_meters(v / DBU_PER_MICRON)),
            Ok(_) => format!("non-finite coordinate {raw}"),
            Err(_) => format!("bad coordinate {raw}"),
        };
        Err(ParseDefError { line, what })
    };

    for (lineno, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.is_empty() {
            continue;
        }
        match tokens[0] {
            "DESIGN" if tokens.len() >= 2 && name.is_none() => {
                name = Some(tokens[1].to_owned());
            }
            "DIEAREA" => {
                // DIEAREA ( 0 0 ) ( W H ) ;
                let numbers: Vec<&str> = tokens
                    .iter()
                    .filter(|t| t.chars().all(|c| c.is_ascii_digit()))
                    .copied()
                    .collect();
                if numbers.len() < 4 {
                    return Err(ParseDefError {
                        line: lineno + 1,
                        what: "DIEAREA needs four coordinates".into(),
                    });
                }
                die = Some((
                    from_dbu(numbers[2], lineno + 1)?,
                    from_dbu(numbers[3], lineno + 1)?,
                ));
            }
            "COMPONENTS" => in_components = true,
            "END" if tokens.get(1) == Some(&"COMPONENTS") => in_components = false,
            "-" if in_components => {
                // - name master + PLACED ( x y ) N ;
                if tokens.len() < 9 {
                    return Err(ParseDefError {
                        line: lineno + 1,
                        what: "short component line".into(),
                    });
                }
                let missing = || ParseDefError {
                    line: lineno + 1,
                    what: "missing coordinates".into(),
                };
                let open = tokens.iter().position(|&t| t == "(").ok_or_else(missing)?;
                let (Some(x), Some(y)) = (tokens.get(open + 1), tokens.get(open + 2)) else {
                    return Err(missing());
                };
                components.push(DefComponent {
                    name: tokens[1].to_owned(),
                    master: tokens[2].to_owned(),
                    x: from_dbu(x, lineno + 1)?,
                    y: from_dbu(y, lineno + 1)?,
                });
            }
            _ => {}
        }
    }

    let name = name.ok_or(ParseDefError {
        line: 0,
        what: "missing DESIGN".into(),
    })?;
    let (die_width, die_height) = die.ok_or(ParseDefError {
        line: 0,
        what: "missing DIEAREA".into(),
    })?;
    Ok(DefDesign {
        name,
        die_width,
        die_height,
        components,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placer::{self, PlacerOptions};
    use netlist::{benchmarks, CellLibrary};

    fn placed() -> PlacedDesign {
        let n = benchmarks::generate(benchmarks::by_name("s344").unwrap());
        placer::place(&n, &CellLibrary::n40(), &PlacerOptions::default())
    }

    #[test]
    fn round_trip_preserves_everything_relevant() {
        let design = placed();
        let text = write(&design);
        let parsed = parse(&text).expect("parse");
        assert_eq!(parsed.name(), "s344");
        assert_eq!(parsed.cells().len(), design.cells().len());
        assert_eq!(parsed.flip_flops().count(), design.flip_flops().count());
        // Coordinates survive to DBU precision (1 nm).
        for ((name, a), b) in design.named_cells().zip(parsed.cells()) {
            assert_eq!(name, b.name);
            assert!((a.x.meters() - b.x.meters()).abs() < 1e-9);
            assert!((a.y.meters() - b.y.meters()).abs() < 1e-9);
        }
        assert!(
            (parsed.die_width().meters() - design.floorplan().die_width().meters()).abs() < 1e-9
        );
    }

    #[test]
    fn def_text_has_the_expected_sections() {
        let text = write(&placed());
        assert!(text.contains("VERSION 5.8 ;"));
        assert!(text.contains("DESIGN s344 ;"));
        assert!(text.contains("DIEAREA"));
        assert!(text.contains("COMPONENTS"));
        assert!(text.contains("END COMPONENTS"));
        assert!(text.contains("DFF + PLACED"));
    }

    #[test]
    fn parse_rejects_missing_sections() {
        assert!(parse("VERSION 5.8 ;").is_err());
        let err = parse("DESIGN x ;").unwrap_err();
        assert!(err.to_string().contains("DIEAREA"));
    }

    #[test]
    fn parse_rejects_malformed_components() {
        for (component, needle) in [
            ("- a DFF ;", "short component line"),
            ("- a DFF + PLACED + FIXED N ; (", "missing coordinates"),
            ("- a DFF + PLACED + FIXED N ( 5", "missing coordinates"),
            ("- a DFF + PLACED ( NaN inf ) N ;", "non-finite coordinate"),
            ("- a DFF + PLACED ( 10 -inf ) N ;", "non-finite coordinate"),
        ] {
            let text = format!(
                "DESIGN x ;\nDIEAREA ( 0 0 ) ( 100 100 ) ;\nCOMPONENTS 1 ;\n{component}\nEND COMPONENTS\n"
            );
            let err = parse(&text).expect_err(component);
            assert!(err.to_string().contains(needle), "{component}: {err}");
            assert!(err.to_string().contains("line 4"), "{component}: {err}");
        }
    }
}
