//! Cell description input to the layout generator.

use units::Length;

/// Which diffusion row a transistor occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Row {
    /// PMOS row (upper, in the n-well).
    P,
    /// NMOS row (lower).
    N,
}

/// One transistor of a cell: connectivity by net name plus drawn width.
#[derive(Debug, Clone, PartialEq)]
pub struct TransistorSpec {
    /// Instance name.
    pub(crate) name: String,
    /// Row assignment.
    pub(crate) row: Row,
    /// Gate net.
    pub(crate) gate: String,
    /// Source net.
    pub(crate) source: String,
    /// Drain net.
    pub(crate) drain: String,
    /// Drawn channel width.
    pub(crate) width: Length,
}

impl TransistorSpec {
    /// Convenience constructor.
    #[must_use]
    pub fn new(name: &str, row: Row, gate: &str, source: &str, drain: &str, width: Length) -> Self {
        Self {
            name: name.to_owned(),
            row,
            gate: gate.to_owned(),
            source: source.to_owned(),
            drain: drain.to_owned(),
            width,
        }
    }
}

/// One MTJ pillar in the back-end-of-line above the cell.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MtjSpec {
    /// Instance name.
    pub(crate) name: String,
    /// Bottom-electrode net.
    pub(crate) bottom: String,
    /// Top-electrode net.
    pub(crate) top: String,
}

impl MtjSpec {
    /// Convenience constructor.
    #[must_use]
    pub(crate) fn new(name: &str, bottom: &str, top: &str) -> Self {
        Self {
            name: name.to_owned(),
            bottom: bottom.to_owned(),
            top: top.to_owned(),
        }
    }
}

/// A complete cell description.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CellSpec {
    /// Cell name.
    pub(crate) name: String,
    /// The transistors.
    pub(crate) transistors: Vec<TransistorSpec>,
    /// The MTJ pillars.
    pub(crate) mtjs: Vec<MtjSpec>,
}

impl CellSpec {
    /// Creates an empty cell spec.
    #[must_use]
    pub(crate) fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            transistors: Vec::new(),
            mtjs: Vec::new(),
        }
    }

    /// The transistors of one row, preserving declaration order.
    #[must_use]
    pub(crate) fn row(&self, row: Row) -> Vec<&TransistorSpec> {
        self.transistors.iter().filter(|t| t.row == row).collect()
    }

    /// Total transistor count.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn transistor_count(&self) -> usize {
        self.transistors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_filter_by_polarity() {
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
        assert_eq!(spec.transistor_count(), 2);
        assert_eq!(spec.row(Row::P).len(), 1);
        assert_eq!(spec.row(Row::N)[0].name, "MN");
    }
}
