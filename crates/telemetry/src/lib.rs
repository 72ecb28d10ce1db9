//! Zero-dependency observability for the spintronic-ff workspace.
//!
//! The crate provides four primitives —
//!
//! - **spans** ([`span`]): RAII wall-clock scopes with per-thread
//!   nesting, aggregated by slash-joined path;
//! - **counters** ([`counter`]): named monotonic `u64` totals;
//! - **histograms** ([`histogram`], [`Histogram`]): fixed log-bucket
//!   distributions for quantities spanning many decades (transient step
//!   sizes, Newton updates, solve times);
//! - **stopwatches** ([`stopwatch`]): scope timers feeding a histogram,
//!   for high-count timings where span bookkeeping would be
//!   disproportionate —
//!
//! and two sinks selected by the `NVFF_TRACE` environment variable or
//! the [`init`] builder API:
//!
//! - `NVFF_TRACE=summary` prints a human-readable aggregate table to
//!   stderr when the program calls [`finish`];
//! - `NVFF_TRACE=jsonl:<path>` streams one JSON event per closed span
//!   to `<path>` (plus counter/histogram/run records at [`finish`]);
//! - `NVFF_TRACE=chrome:<path>` writes a Chrome Trace Event Format
//!   document — per-thread span tracks, finalized at [`finish`] — that
//!   opens directly in Perfetto or `chrome://tracing`.
//!
//! Independently of tracing, [`flight`] keeps a lock-free ring of the
//! most recent solver events (Newton deltas, recovery-ladder rungs,
//! LTE rejections) and dumps a JSON post-mortem when an analysis fails,
//! if `NVFF_POSTMORTEM=<dir>` (or [`flight::set_postmortem_dir`]) is
//! configured.
//!
//! Everything is hand-rolled on `std` alone — the build is offline, so
//! serde/tracing are not available; [`json`] is the crate's own writer
//! and recursive-descent parser, also used by `scripts/ci.sh` to
//! validate bench `--json` reports.
//!
//! # Disabled path
//!
//! Instrumentation is compiled in unconditionally and gated at run
//! time: every entry point first checks [`enabled`], a single relaxed
//! atomic load. When tracing is off, no clock is read, no lock taken,
//! and **no heap allocation performed** — the `spice` crate's
//! counting-allocator test pins this. The first [`enabled`] call lazily
//! applies `NVFF_TRACE`, so instrumented libraries need no setup; hot
//! loops should still hoist the check (`if telemetry::enabled() { … }`)
//! around per-iteration instrumentation.
//!
//! # Example
//!
//! ```
//! telemetry::init(telemetry::TraceMode::Collect);
//! {
//!     let _run = telemetry::span("demo");
//!     let _phase = telemetry::span("phase");
//!     telemetry::counter("demo.items", 3);
//!     telemetry::histogram("demo.dt_s", 2.5e-12);
//! }
//! let snap = telemetry::snapshot();
//! assert!(snap.spans.iter().any(|s| s.path == "demo/phase"));
//! ```

pub mod flight;
mod hist;
pub mod json;
mod registry;
mod report;
mod span;

pub use hist::Histogram;
pub use json::JsonValue;
pub use registry::{
    counter, enabled, ensure_collecting, finish, histogram, init, init_from_env, reset_for_tests,
    set_thread_label, snapshot, worker_label, Snapshot, TraceMode,
};
pub use report::{RunReport, Section};
pub use span::{span, stopwatch};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::render_summary;

    // The registry is process-global, so tests that reconfigure it
    // serialize on this lock to stay correct under the multi-threaded
    // test harness.
    static REGISTRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn spans_counters_and_histograms_aggregate_into_a_snapshot() {
        let _guard = REGISTRY_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        reset_for_tests();
        init(TraceMode::Collect);
        assert!(enabled());

        {
            let _root = span("root");
            for _ in 0..3 {
                let _child = span("child");
                counter("widgets", 2);
                histogram("dt_s", 1e-12);
            }
        }

        let snap = snapshot();
        let root = snap.spans.iter().find(|s| s.path == "root").expect("root");
        assert_eq!(root.count, 1);
        assert_eq!(root.depth(), 0);
        let child = snap
            .spans
            .iter()
            .find(|s| s.path == "root/child")
            .expect("child");
        assert_eq!(child.count, 3);
        assert_eq!(child.depth(), 1);
        assert_eq!(child.name(), "child");
        // Children nest inside the root, so the root's total dominates.
        assert!(root.total_s >= child.total_s);
        assert_eq!(
            snap.counters,
            vec![("widgets".to_owned(), 6)],
            "counter sums deltas"
        );
        let (name, h) = &snap.histograms[0];
        assert_eq!(name, "dt_s");
        assert_eq!(h.count(), 3);

        // Summary rendering mentions every aggregate by name.
        let text = render_summary(&snap);
        assert!(text.contains("root"), "{text}");
        assert!(text.contains("widgets"), "{text}");
        assert!(text.contains("dt_s"), "{text}");

        // finish() returns the same aggregates and is idempotent in
        // Collect mode (nothing printed, nothing cleared).
        let again = finish();
        assert_eq!(again.counters, snap.counters);

        // Disabling returns the hot path to inert guards.
        init(TraceMode::Off);
        assert!(!enabled());
        {
            let _ignored = span("ignored");
            counter("ignored", 1);
        }
        assert_eq!(snapshot().counters, snap.counters);
        reset_for_tests();
    }

    #[test]
    fn trace_mode_parsing_matches_the_documented_grammar() {
        // Exercised via the pure parser to avoid mutating process env.
        assert_eq!(TraceMode::default(), TraceMode::Off);
        let jsonl = TraceMode::Jsonl("trace.jsonl".into());
        assert_ne!(jsonl, TraceMode::Summary);
    }

    #[test]
    fn jsonl_sink_streams_parseable_events() {
        let dir = std::env::temp_dir().join(format!("nvff-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trace.jsonl");

        let _guard = REGISTRY_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        reset_for_tests();
        init(TraceMode::Jsonl(path.clone()));
        {
            let _root = span("jsonl_root");
            let _leaf = span("leaf");
            counter("jsonl.events", 1);
            histogram("jsonl.dt_s", 3e-9);
        }
        finish();
        init(TraceMode::Off);

        let text = std::fs::read_to_string(&path).expect("trace file");
        let mut span_events = 0;
        let mut saw_counter = false;
        let mut saw_histogram = false;
        let mut saw_run = false;
        for line in text.lines() {
            let event = JsonValue::parse(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
            match event.get("type").and_then(JsonValue::as_str) {
                Some("span") => {
                    span_events += 1;
                    assert!(event.get("dur_s").and_then(JsonValue::as_f64).is_some());
                }
                Some("counter") => saw_counter = true,
                Some("histogram") => saw_histogram = true,
                Some("run") => saw_run = true,
                other => panic!("unexpected event type {other:?} in {line}"),
            }
        }
        assert!(span_events >= 2, "expected both spans, got {span_events}");
        assert!(saw_counter && saw_histogram && saw_run, "{text}");
        let _ = std::fs::remove_dir_all(&dir);
        reset_for_tests();
    }
}
