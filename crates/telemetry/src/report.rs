//! Machine-readable run reports for the bench binaries' `--json` mode.
//!
//! A [`RunReport`] collects named sections (one per table/benchmark),
//! each holding scalar metrics the caller converts itself (keeping this
//! crate free of upstream types like `SolverStats`), and embeds the
//! registry [`Snapshot`](crate::Snapshot) — wall-clock, span tree,
//! counters and histograms — at write time. The output is a single
//! JSON document, parseable by this crate's own [`crate::json`] reader,
//! which is what `scripts/ci.sh` uses to validate it offline.

use std::io::Write as _;
use std::path::Path;

use crate::json::JsonValue;
use crate::registry::Snapshot;

/// A scalar metric value inside a report section.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Integer-valued metric (counters, iteration totals).
    Int(i64),
    /// Real-valued metric (times, energies, voltages).
    Float(f64),
    /// Free-form text (pass/fail verdicts, corner names).
    Str(String),
}

impl From<u64> for Metric {
    fn from(v: u64) -> Self {
        Metric::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<i64> for Metric {
    fn from(v: i64) -> Self {
        Metric::Int(v)
    }
}

impl From<f64> for Metric {
    fn from(v: f64) -> Self {
        Metric::Float(v)
    }
}

impl From<&str> for Metric {
    fn from(v: &str) -> Self {
        Metric::Str(v.to_owned())
    }
}

impl From<String> for Metric {
    fn from(v: String) -> Self {
        Metric::Str(v)
    }
}

impl Metric {
    fn to_json(&self) -> JsonValue {
        match self {
            Metric::Int(v) => JsonValue::Int(*v),
            Metric::Float(v) => JsonValue::Float(*v),
            Metric::Str(v) => JsonValue::Str(v.clone()),
        }
    }
}

/// One named section of a run report (typically one table or bench).
#[derive(Debug, Clone, Default)]
pub struct Section {
    name: String,
    metrics: Vec<(String, Metric)>,
}

impl Section {
    /// Creates an empty section.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Section {
            name: name.to_owned(),
            metrics: Vec::new(),
        }
    }

    /// Adds one metric (builder style).
    #[must_use]
    pub fn metric(mut self, name: &str, value: impl Into<Metric>) -> Self {
        self.metrics.push((name.to_owned(), value.into()));
        self
    }

    /// Adds one metric in place.
    pub fn push(&mut self, name: &str, value: impl Into<Metric>) {
        self.metrics.push((name.to_owned(), value.into()));
    }
}

/// A run report: tool identity, sections, and the telemetry snapshot.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    tool: String,
    sections: Vec<Section>,
}

impl RunReport {
    /// Creates an empty report for the named tool (e.g. `"report"`,
    /// `"table2"`).
    #[must_use]
    pub fn new(tool: &str) -> Self {
        RunReport {
            tool: tool.to_owned(),
            sections: Vec::new(),
        }
    }

    /// Appends a finished section.
    pub fn add(&mut self, section: Section) {
        self.sections.push(section);
    }

    /// Renders the report with the given snapshot embedded.
    #[must_use]
    pub(crate) fn to_json(&self, snap: &Snapshot) -> JsonValue {
        let sections: Vec<JsonValue> = self
            .sections
            .iter()
            .map(|s| {
                JsonValue::object(vec![
                    ("name".into(), JsonValue::Str(s.name.clone())),
                    (
                        "metrics".into(),
                        JsonValue::Object(
                            s.metrics
                                .iter()
                                .map(|(k, v)| (k.clone(), v.to_json()))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let spans: Vec<JsonValue> = snap
            .spans
            .iter()
            .map(|s| {
                JsonValue::object(vec![
                    ("path".into(), JsonValue::Str(s.path.clone())),
                    (
                        "count".into(),
                        JsonValue::Int(i64::try_from(s.count).unwrap_or(i64::MAX)),
                    ),
                    ("total_s".into(), JsonValue::Float(s.total_s)),
                    ("min_s".into(), JsonValue::Float(s.min_s)),
                    ("max_s".into(), JsonValue::Float(s.max_s)),
                ])
            })
            .collect();
        let counters = JsonValue::Object(
            snap.counters
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        JsonValue::Int(i64::try_from(*v).unwrap_or(i64::MAX)),
                    )
                })
                .collect(),
        );
        let histograms = JsonValue::Object(
            snap.histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.to_json()))
                .collect(),
        );
        JsonValue::object(vec![
            ("schema".into(), JsonValue::Str("nvff-run-report/1".into())),
            ("tool".into(), JsonValue::Str(self.tool.clone())),
            ("wall_s".into(), JsonValue::Float(snap.wall_s)),
            ("sections".into(), JsonValue::Array(sections)),
            ("spans".into(), JsonValue::Array(spans)),
            ("counters".into(), counters),
            ("histograms".into(), histograms),
        ])
    }

    /// Writes the report (pretty-printed lightly: one top-level object,
    /// newline-terminated) to `path`, via a temp file in the same
    /// directory plus an atomic rename — an interrupted run leaves the
    /// previous report intact instead of a truncated document.
    ///
    /// # Errors
    /// Propagates file-system errors from creating, writing or renaming
    /// the file.
    pub fn write(&self, path: &Path, snap: &Snapshot) -> std::io::Result<()> {
        let mut doc = self.to_json(snap).to_json();
        doc.push('\n');
        let tmp = path.with_extension("tmp");
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(doc.as_bytes())?;
        }
        std::fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    #[test]
    fn report_round_trips_through_own_parser() {
        let mut report = RunReport::new("table2");
        report.add(
            Section::new("table2.tt_25c")
                .metric("wall_s", 1.25)
                .metric("newton_iterations", 42u64)
                .metric("corner", "tt_25c"),
        );
        let snap = Snapshot::default();
        let text = report.to_json(&snap).to_json();
        let parsed = JsonValue::parse(&text).expect("self-generated report parses");
        assert_eq!(
            parsed.get("schema").and_then(JsonValue::as_str),
            Some("nvff-run-report/1")
        );
        assert_eq!(
            parsed.get("tool").and_then(JsonValue::as_str),
            Some("table2")
        );
        let sections = parsed
            .get("sections")
            .and_then(JsonValue::as_array)
            .expect("sections array");
        assert_eq!(sections.len(), 1);
        let metrics = sections[0].get("metrics").expect("metrics object");
        assert_eq!(
            metrics.get("newton_iterations").and_then(JsonValue::as_i64),
            Some(42)
        );
        assert_eq!(
            metrics.get("wall_s").and_then(JsonValue::as_f64),
            Some(1.25)
        );
    }
}
