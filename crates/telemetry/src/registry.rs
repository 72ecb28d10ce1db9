//! The process-global telemetry registry.
//!
//! Hot-path calls (`span`, `counter`, `histogram`) first load one
//! relaxed atomic; when tracing is disabled they return before touching
//! any lock, thread-local, clock or allocation — the disabled path is
//! a load and a branch, cheap enough to leave compiled into the solver
//! core (pinned by the `alloc_discipline` test in the `spice` crate).
//!
//! When enabled, everything funnels into one mutex-guarded [`Inner`]:
//! span aggregates keyed by slash-joined path, named counters, named
//! histograms, thread labels, and an optional streaming sink — JSONL
//! (one event per line) or a Chrome Trace Event Format document.
//! Contention is irrelevant at the rates involved (one lock per
//! *analysis*-scale event, not per Newton iteration).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::hist::Histogram;
use crate::json::JsonValue;

/// Where telemetry events go.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Tracing disabled: hot-path calls are a single atomic load.
    #[default]
    Off,
    /// Aggregate in memory only (for programmatic [`snapshot`]
    /// consumers like the bench `--json` reports); nothing is printed.
    Collect,
    /// Aggregate and print a human-readable summary to stderr on
    /// [`finish`].
    Summary,
    /// Aggregate, and stream one JSON event per closed span to the file
    /// (plus counter/histogram/run events on [`finish`]).
    Jsonl(PathBuf),
    /// Aggregate, and write a Chrome Trace Event Format document to the
    /// file: one complete (`"ph":"X"`) event per closed span on its
    /// thread's track, thread-name metadata and counter samples at
    /// [`finish`]. The file opens directly in Perfetto /
    /// `chrome://tracing`.
    Chrome(PathBuf),
}

impl TraceMode {
    /// Parses the `NVFF_TRACE` environment variable:
    /// `summary`, `jsonl:<path>`, `chrome:<path>`, `collect`, and
    /// `off`/`0`/unset. Unrecognized values disable tracing with a
    /// warning on stderr.
    #[must_use]
    pub(crate) fn from_env() -> Self {
        match std::env::var("NVFF_TRACE") {
            Err(_) => TraceMode::Off,
            Ok(raw) => {
                let v = raw.trim();
                if v.is_empty() || v == "off" || v == "0" {
                    TraceMode::Off
                } else if v == "summary" {
                    TraceMode::Summary
                } else if v == "collect" {
                    TraceMode::Collect
                } else if let Some(path) = v.strip_prefix("jsonl:") {
                    TraceMode::Jsonl(PathBuf::from(path))
                } else if let Some(path) = v.strip_prefix("chrome:") {
                    TraceMode::Chrome(PathBuf::from(path))
                } else {
                    eprintln!(
                        "telemetry: unrecognized NVFF_TRACE value {v:?} \
                         (expected off | collect | summary | jsonl:<path> | chrome:<path>); \
                         tracing disabled"
                    );
                    TraceMode::Off
                }
            }
        }
    }
}

/// Tri-state for the fast enabled check: 0 = uninitialized, 1 =
/// disabled, 2 = enabled.
static STATE: AtomicU8 = AtomicU8::new(0);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);
static REGISTRY: OnceLock<Registry> = OnceLock::new();

pub(crate) struct Registry {
    pub(crate) epoch: Instant,
    inner: Mutex<Inner>,
}

/// Active streaming output, if any.
#[derive(Default)]
enum Sink {
    #[default]
    None,
    /// One JSON object per line.
    Jsonl(BufWriter<File>),
    /// One Chrome Trace Event Format document (`{"traceEvents":[…]}`),
    /// finalized (array and object closed) by [`finish`] or when a new
    /// mode is installed.
    Chrome(ChromeSink),
}

struct ChromeSink {
    w: BufWriter<File>,
    /// Events written so far — the first event omits the separator.
    events: u64,
}

impl ChromeSink {
    fn open(path: &PathBuf) -> Option<ChromeSink> {
        match File::create(path) {
            Ok(f) => {
                let mut w = BufWriter::new(f);
                if w.write_all(b"{\"traceEvents\":[\n").is_err() {
                    eprintln!(
                        "telemetry: cannot write chrome trace header to {}; trace disabled",
                        path.display()
                    );
                    return None;
                }
                Some(ChromeSink { w, events: 0 })
            }
            Err(e) => {
                eprintln!(
                    "telemetry: cannot open {} for chrome trace output ({e}); \
                     falling back to in-memory collection",
                    path.display()
                );
                None
            }
        }
    }

    fn write_event(&mut self, event: &JsonValue) -> std::io::Result<()> {
        if self.events > 0 {
            self.w.write_all(b",\n")?;
        }
        self.w.write_all(event.to_json().as_bytes())?;
        self.events += 1;
        Ok(())
    }

    /// Closes the trace document so the file on disk is complete JSON.
    fn close(mut self) {
        let _ = self.w.write_all(b"\n]}\n");
        let _ = self.w.flush();
    }
}

#[derive(Default)]
struct Inner {
    mode: TraceMode,
    sink: Sink,
    spans: BTreeMap<String, SpanAgg>,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    /// Human names for telemetry thread ids (chrome `thread_name`
    /// metadata; sweep workers register as `worker/<k>`).
    thread_labels: BTreeMap<u64, String>,
}

#[derive(Debug, Clone, Copy, Default)]
struct SpanAgg {
    count: u64,
    total_s: f64,
    min_s: f64,
    max_s: f64,
}

impl Registry {
    fn global() -> &'static Registry {
        REGISTRY.get_or_init(|| Registry {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Installs a trace mode, replacing any previous one (a previous JSONL
/// writer is flushed, a previous chrome trace is finalized so the file
/// is complete JSON). Aggregated data is kept — switching from
/// [`TraceMode::Collect`] to [`TraceMode::Summary`] mid-run keeps
/// earlier observations.
pub fn init(mode: TraceMode) {
    let registry = Registry::global();
    let mut inner = registry.lock();
    match std::mem::take(&mut inner.sink) {
        Sink::Jsonl(mut w) => {
            let _ = w.flush();
        }
        Sink::Chrome(c) => c.close(),
        Sink::None => {}
    }
    inner.sink = match &mode {
        TraceMode::Jsonl(path) => match File::create(path) {
            Ok(f) => Sink::Jsonl(BufWriter::new(f)),
            Err(e) => {
                eprintln!(
                    "telemetry: cannot open {} for JSONL output ({e}); \
                     falling back to in-memory collection",
                    path.display()
                );
                Sink::None
            }
        },
        TraceMode::Chrome(path) => ChromeSink::open(path).map_or(Sink::None, Sink::Chrome),
        _ => Sink::None,
    };
    let enabled = mode != TraceMode::Off;
    inner.mode = mode;
    drop(inner);
    STATE.store(if enabled { 2 } else { 1 }, Ordering::Release);
}

/// Installs the mode named by the `NVFF_TRACE` environment variable
/// (see `TraceMode::from_env`).
pub fn init_from_env() {
    init(TraceMode::from_env());
}

/// Upgrades tracing to in-memory collection if it is currently off,
/// without downgrading an explicitly configured mode. Used by tools
/// that need a [`snapshot`] (bench `--json` reports) regardless of the
/// user's `NVFF_TRACE`.
pub fn ensure_collecting() {
    if !enabled() {
        init(TraceMode::Collect);
    }
}

/// Whether tracing is enabled. The first call lazily applies
/// `NVFF_TRACE`, so instrumented libraries need no explicit setup call;
/// afterwards this is one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            init_from_env();
            STATE.load(Ordering::Relaxed) == 2
        }
    }
}

/// Adds `delta` to the named counter. No-op (one atomic load) when
/// tracing is disabled.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut inner = Registry::global().lock();
    *inner.counters.entry(name).or_insert(0) += delta;
}

/// Records `value` into the named log-bucket histogram. No-op (one
/// atomic load) when tracing is disabled.
#[inline]
pub fn histogram(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    let mut inner = Registry::global().lock();
    inner.histograms.entry(name).or_default().record(value);
}

/// Monotonic seconds since the registry epoch (first telemetry touch).
pub(crate) fn now_s() -> f64 {
    Registry::global().epoch.elapsed().as_secs_f64()
}

pub(crate) fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

std::thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's telemetry thread id (lazily assigned, dense
/// from 1). Shared by JSONL span events, chrome trace `tid`s and the
/// flight recorder, so the three streams correlate.
pub(crate) fn current_thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

/// Labels the calling thread in trace output — chrome traces name the
/// thread's track, `thread_name` metadata is emitted at [`finish`].
/// No-op (one atomic load) when tracing is disabled.
pub fn set_thread_label(label: &str) {
    if !enabled() {
        return;
    }
    let tid = current_thread_id();
    let mut inner = Registry::global().lock();
    inner.thread_labels.insert(tid, label.to_owned());
}

/// A leaked, cached `worker/<k>` label for sweep worker `k` — span
/// names must be `&'static str`, and worker counts are small and
/// bounded, so interning the handful of labels once is cheaper and
/// simpler than threading owned strings through the span API.
#[must_use]
pub fn worker_label(k: usize) -> &'static str {
    static LABELS: Mutex<BTreeMap<usize, &'static str>> = Mutex::new(BTreeMap::new());
    let mut labels = LABELS.lock().unwrap_or_else(PoisonError::into_inner);
    labels
        .entry(k)
        .or_insert_with(|| Box::leak(format!("worker/{k}").into_boxed_str()))
}

/// Records a closed span: aggregates under `path` and, in JSONL mode,
/// streams one event line.
pub(crate) fn record_span(
    name: &'static str,
    path: &str,
    id: u64,
    parent: Option<u64>,
    t_start_s: f64,
    dur_s: f64,
) {
    let registry = Registry::global();
    let mut inner = registry.lock();
    let agg = inner.spans.entry(path.to_owned()).or_insert(SpanAgg {
        count: 0,
        total_s: 0.0,
        min_s: f64::INFINITY,
        max_s: 0.0,
    });
    agg.count += 1;
    agg.total_s += dur_s;
    agg.min_s = agg.min_s.min(dur_s);
    agg.max_s = agg.max_s.max(dur_s);
    match &inner.sink {
        Sink::Jsonl(_) => {
            let event = JsonValue::object(vec![
                ("type".into(), JsonValue::Str("span".into())),
                ("name".into(), JsonValue::Str(name.into())),
                ("path".into(), JsonValue::Str(path.to_owned())),
                ("id".into(), JsonValue::Int(i64::try_from(id).unwrap_or(0))),
                (
                    "parent".into(),
                    parent.map_or(JsonValue::Null, |p| {
                        JsonValue::Int(i64::try_from(p).unwrap_or(0))
                    }),
                ),
                (
                    "thread".into(),
                    JsonValue::Int(i64::try_from(current_thread_id()).unwrap_or(0)),
                ),
                ("t_start_s".into(), JsonValue::Float(t_start_s)),
                ("dur_s".into(), JsonValue::Float(dur_s)),
            ]);
            write_event(&mut inner, &event);
        }
        Sink::Chrome(_) => {
            let event = chrome_complete_event(name, path, t_start_s, dur_s);
            write_event(&mut inner, &event);
        }
        Sink::None => {}
    }
}

/// A Chrome Trace Event Format complete event (`"ph":"X"`, times in
/// microseconds since the registry epoch) for one closed span.
fn chrome_complete_event(name: &'static str, path: &str, t_start_s: f64, dur_s: f64) -> JsonValue {
    JsonValue::object(vec![
        ("name".into(), JsonValue::Str(name.into())),
        ("cat".into(), JsonValue::Str("nvff".into())),
        ("ph".into(), JsonValue::Str("X".into())),
        ("ts".into(), JsonValue::Float(t_start_s * 1e6)),
        ("dur".into(), JsonValue::Float(dur_s * 1e6)),
        ("pid".into(), JsonValue::Int(i64::from(std::process::id()))),
        (
            "tid".into(),
            JsonValue::Int(i64::try_from(current_thread_id()).unwrap_or(0)),
        ),
        (
            "args".into(),
            JsonValue::object(vec![("path".into(), JsonValue::Str(path.to_owned()))]),
        ),
    ])
}

fn write_event(inner: &mut Inner, event: &JsonValue) {
    let failed = match &mut inner.sink {
        Sink::Jsonl(w) => {
            let mut line = event.to_json();
            line.push('\n');
            w.write_all(line.as_bytes()).is_err()
        }
        Sink::Chrome(c) => c.write_event(event).is_err(),
        Sink::None => false,
    };
    if failed {
        inner.sink = Sink::None;
        eprintln!("telemetry: trace write failed; disabling the stream");
    }
}

/// One aggregated span path in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Slash-joined path from the root span (e.g. `report/table2/
    /// spice.transient`).
    pub path: String,
    /// Number of times this path closed.
    pub count: u64,
    /// Total seconds across all closures.
    pub total_s: f64,
    /// Shortest single closure.
    pub(crate) min_s: f64,
    /// Longest single closure.
    pub(crate) max_s: f64,
}

impl SpanStat {
    /// Nesting depth (number of ancestors).
    #[must_use]
    pub(crate) fn depth(&self) -> usize {
        self.path.matches('/').count()
    }

    /// The span's own name (last path segment).
    #[must_use]
    pub(crate) fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// A point-in-time copy of everything the registry has aggregated.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Seconds since the registry epoch.
    pub wall_s: f64,
    /// Span aggregates, sorted by path (parents sort before children).
    pub spans: Vec<SpanStat>,
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Named histograms, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

/// Copies out the aggregated spans, counters and histograms. Returns an
/// empty snapshot when tracing was never enabled.
#[must_use]
pub fn snapshot() -> Snapshot {
    let registry = Registry::global();
    let inner = registry.lock();
    Snapshot {
        wall_s: registry.epoch.elapsed().as_secs_f64(),
        spans: inner
            .spans
            .iter()
            .map(|(path, a)| SpanStat {
                path: path.clone(),
                count: a.count,
                total_s: a.total_s,
                min_s: if a.min_s.is_finite() { a.min_s } else { 0.0 },
                max_s: a.max_s,
            })
            .collect(),
        counters: inner
            .counters
            .iter()
            .map(|(&k, &v)| (k.to_owned(), v))
            .collect(),
        histograms: inner
            .histograms
            .iter()
            .map(|(&k, h)| (k.to_owned(), h.clone()))
            .collect(),
    }
}

/// Flushes the sinks: in JSONL mode, appends one `counter` event per
/// counter, one `histogram` event per histogram and a final `run`
/// event, then flushes the file; in summary mode, prints the aggregate
/// tables to stderr. Collection continues afterwards, so `finish` may
/// be called again (events emitted at each call reflect cumulative
/// totals). Returns the same data as [`snapshot`].
pub fn finish() -> Snapshot {
    let snap = snapshot();
    let registry = Registry::global();
    let mut inner = registry.lock();
    match &inner.sink {
        Sink::Jsonl(_) => {
            for (name, value) in &snap.counters {
                let event = JsonValue::object(vec![
                    ("type".into(), JsonValue::Str("counter".into())),
                    ("name".into(), JsonValue::Str(name.clone())),
                    (
                        "value".into(),
                        JsonValue::Int(i64::try_from(*value).unwrap_or(i64::MAX)),
                    ),
                ]);
                write_event(&mut inner, &event);
            }
            for (name, hist) in &snap.histograms {
                let mut fields = vec![
                    ("type".into(), JsonValue::Str("histogram".into())),
                    ("name".into(), JsonValue::Str(name.clone())),
                ];
                if let JsonValue::Object(h) = hist.to_json() {
                    fields.extend(h);
                }
                write_event(&mut inner, &JsonValue::Object(fields));
            }
            let event = JsonValue::object(vec![
                ("type".into(), JsonValue::Str("run".into())),
                ("wall_s".into(), JsonValue::Float(snap.wall_s)),
            ]);
            write_event(&mut inner, &event);
            if let Sink::Jsonl(w) = &mut inner.sink {
                let _ = w.flush();
            }
        }
        Sink::Chrome(_) => {
            let pid = i64::from(std::process::id());
            // Name the process and every labeled thread, then sample
            // each counter once so Perfetto shows the totals, then
            // close the document — a chrome trace must be complete
            // JSON, so the sink retires at the first finish().
            let mut metadata = vec![JsonValue::object(vec![
                ("name".into(), JsonValue::Str("process_name".into())),
                ("ph".into(), JsonValue::Str("M".into())),
                ("pid".into(), JsonValue::Int(pid)),
                (
                    "args".into(),
                    JsonValue::object(vec![("name".into(), JsonValue::Str("nvff".into()))]),
                ),
            ])];
            for (&tid, label) in &inner.thread_labels {
                metadata.push(JsonValue::object(vec![
                    ("name".into(), JsonValue::Str("thread_name".into())),
                    ("ph".into(), JsonValue::Str("M".into())),
                    ("pid".into(), JsonValue::Int(pid)),
                    (
                        "tid".into(),
                        JsonValue::Int(i64::try_from(tid).unwrap_or(0)),
                    ),
                    (
                        "args".into(),
                        JsonValue::object(vec![("name".into(), JsonValue::Str(label.clone()))]),
                    ),
                ]));
            }
            for (name, value) in &snap.counters {
                metadata.push(JsonValue::object(vec![
                    ("name".into(), JsonValue::Str(name.clone())),
                    ("ph".into(), JsonValue::Str("C".into())),
                    ("ts".into(), JsonValue::Float(snap.wall_s * 1e6)),
                    ("pid".into(), JsonValue::Int(pid)),
                    (
                        "args".into(),
                        JsonValue::object(vec![(
                            "value".into(),
                            JsonValue::Int(i64::try_from(*value).unwrap_or(i64::MAX)),
                        )]),
                    ),
                ]));
            }
            for event in &metadata {
                write_event(&mut inner, event);
            }
            if let Sink::Chrome(c) = std::mem::take(&mut inner.sink) {
                c.close();
            }
        }
        Sink::None => {}
    }
    let is_summary = inner.mode == TraceMode::Summary;
    drop(inner);
    if is_summary {
        eprint!("{}", render_summary(&snap));
    }
    snap
}

/// Renders the human-readable end-of-run summary.
#[must_use]
pub(crate) fn render_summary(snap: &Snapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "== telemetry summary ({:.3} s wall) ==", snap.wall_s);
    if !snap.spans.is_empty() {
        let _ = writeln!(
            out,
            "{:<52} {:>8} {:>12} {:>12}",
            "span", "count", "total", "mean"
        );
        for s in &snap.spans {
            let label = format!("{}{}", "  ".repeat(s.depth()), s.name());
            let _ = writeln!(
                out,
                "{:<52} {:>8} {:>12} {:>12}",
                truncate(&label, 52),
                s.count,
                fmt_seconds(s.total_s),
                fmt_seconds(s.total_s / s.count.max(1) as f64),
            );
        }
    }
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "-- counters --");
        for (name, value) in &snap.counters {
            let _ = writeln!(out, "{name:<52} {value:>12}");
        }
    }
    if !snap.histograms.is_empty() {
        let _ = writeln!(out, "-- histograms --");
        for (name, h) in &snap.histograms {
            let _ = writeln!(
                out,
                "{name:<40} n {:>9}  mean {:>10}  p50 {:>10}  max {:>10}",
                h.count(),
                fmt_value(h.mean()),
                fmt_value(h.quantile(0.5).unwrap_or(0.0)),
                fmt_value(h.max().unwrap_or(0.0)),
            );
        }
    }
    out
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_owned()
    } else {
        let cut: String = s.chars().take(n - 1).collect();
        format!("{cut}…")
    }
}

fn fmt_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} µs", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if (1e-2..1e4).contains(&v.abs()) {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

/// Test-only hard reset: drops all aggregates and returns to the
/// uninitialized state. Not part of the supported API surface (events
/// from other threads may interleave); exists so the crate's own tests
/// can exercise init transitions.
#[doc(hidden)]
pub fn reset_for_tests() {
    let registry = Registry::global();
    let mut inner = registry.lock();
    *inner = Inner::default();
    drop(inner);
    STATE.store(0, Ordering::Release);
}
