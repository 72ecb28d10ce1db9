//! The solver flight recorder: a lock-free ring buffer of recent
//! solver events, dumped as a JSON post-mortem when an analysis dies.
//!
//! Aggregate counters say *that* a Newton loop diverged; they cannot
//! say what the last hundred iterations looked like on the way down.
//! This module keeps a fixed-capacity ring of the most recent
//! `FlightEvent`s — Newton update magnitudes, gmin/source-stepping
//! ladder rungs, LTE rejections, re-pivots — written by the `spice`
//! solver hot loops and read only when something goes wrong.
//!
//! # Recording discipline
//!
//! [`record`] is called from inside the Newton iteration, so it obeys
//! the same contract as every other telemetry entry point: when the
//! recorder is inactive ([`active`] is false) it returns after one
//! atomic load, touching no lock, clock or allocation. When active, a
//! write is a `fetch_add` slot claim plus four relaxed/release atomic
//! stores — no allocation, no lock, safe from any number of threads.
//! Torn reads (a writer lapping the ring mid-read) are detected by a
//! sequence-number protocol and dropped by the reader rather than
//! surfacing garbage.
//!
//! The recorder is active when telemetry is enabled
//! ([`crate::enabled`]) **or** a post-mortem directory is configured —
//! via `NVFF_POSTMORTEM=<dir>` or [`set_postmortem_dir`] — so
//! production runs can fly with tracing off and still leave a black box
//! behind on failure.
//!
//! # Post-mortems
//!
//! [`dump`] serializes a [`Postmortem`] — circuit label, analysis,
//! error text, the caller's open span path, solver stats and the ring
//! contents — to `<dir>/postmortem-<circuit>-<pid>-<n>.json` (written
//! atomically: temp file + rename). The `spice` session layer calls it
//! whenever `NonConvergence` or `SingularMatrix` surfaces to a caller.
//! The document parses with this crate's own [`crate::json`] reader;
//! schema tag [`POSTMORTEM_SCHEMA`].

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

use crate::json::JsonValue;
use crate::registry;

/// Number of events the ring retains (the post-mortem window).
pub const CAPACITY: usize = 256;

/// Schema tag of the post-mortem dump format.
pub const POSTMORTEM_SCHEMA: &str = "nvff-postmortem/1";

/// What kind of solver event a ring entry records. The `value` payload
/// of each `FlightEvent` is kind-specific (documented per variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// One Newton iteration; value = largest damped update |Δx| [V].
    NewtonDelta = 0,
    /// One rung of the gmin recovery ladder; value = gmin [S].
    GminRung = 1,
    /// One rung of the source-stepping ladder; value = source scale.
    SourceRung = 2,
    /// A converged transient step rejected by the LTE controller;
    /// value = error ratio (estimated LTE over tolerance).
    LteReject = 3,
    /// An accepted transient step; value = dt [s].
    StepAccept = 4,
    /// A transient step halved after Newton non-convergence;
    /// value = the dt that failed [s].
    StepHalve = 5,
    /// The sparse engine re-pivoted after pivot decay; value = LU
    /// nonzeros after the re-pivot.
    Repivot = 6,
    /// A symbolic factorization was (re)built; value = LU nonzeros.
    SymbolicBuild = 7,
    /// A factorization failed outright; the analysis is about to
    /// surface `SingularMatrix`. Value = 0.
    SingularMatrix = 8,
    /// A Newton loop exhausted its iteration budget; value = the
    /// iteration limit that was hit.
    NonConvergence = 9,
}

impl EventKind {
    fn from_u8(raw: u8) -> Option<Self> {
        Some(match raw {
            0 => Self::NewtonDelta,
            1 => Self::GminRung,
            2 => Self::SourceRung,
            3 => Self::LteReject,
            4 => Self::StepAccept,
            5 => Self::StepHalve,
            6 => Self::Repivot,
            7 => Self::SymbolicBuild,
            8 => Self::SingularMatrix,
            9 => Self::NonConvergence,
            _ => return None,
        })
    }

    /// Stable lower-snake name used in dumps.
    #[must_use]
    pub(crate) fn name(self) -> &'static str {
        match self {
            Self::NewtonDelta => "newton_delta",
            Self::GminRung => "gmin_rung",
            Self::SourceRung => "source_rung",
            Self::LteReject => "lte_reject",
            Self::StepAccept => "step_accept",
            Self::StepHalve => "step_halve",
            Self::Repivot => "repivot",
            Self::SymbolicBuild => "symbolic_build",
            Self::SingularMatrix => "singular_matrix",
            Self::NonConvergence => "non_convergence",
        }
    }
}

/// One recovered ring entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FlightEvent {
    /// Global event number (0-based, monotone across threads).
    pub(crate) seq: u64,
    /// What happened.
    pub(crate) kind: EventKind,
    /// Telemetry thread id of the recording thread (matches the `tid`
    /// of the chrome trace and the `thread` of JSONL span events).
    pub(crate) thread: u64,
    /// Simulated time of the event [s] (0 outside transient).
    pub(crate) t_sim_s: f64,
    /// Kind-specific payload (see [`EventKind`]).
    pub(crate) value: f64,
}

/// One ring slot. The sequence protocol makes writes detectable by
/// readers without locks or `unsafe`: a writer first invalidates the
/// slot (`seq = 0`), stores the payload, then publishes `seq = n + 1`
/// with release ordering; a reader accepts the payload only if the
/// sequence read before and after the payload agree, are nonzero, and
/// belong to this slot index.
struct Slot {
    seq: AtomicU64,
    meta: AtomicU64,
    t: AtomicU64,
    v: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SLOT: Slot = Slot {
    seq: AtomicU64::new(0),
    meta: AtomicU64::new(0),
    t: AtomicU64::new(0),
    v: AtomicU64::new(0),
};

static RING: [Slot; CAPACITY] = [EMPTY_SLOT; CAPACITY];
/// Next global sequence number to claim.
static HEAD: AtomicU64 = AtomicU64::new(0);
/// Post-mortem configuration tri-state: 0 = unchecked, 1 = no dump
/// directory, 2 = directory configured (held in `POSTMORTEM_DIR`).
static POSTMORTEM_STATE: AtomicU8 = AtomicU8::new(0);
static POSTMORTEM_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
/// Dump file disambiguator within one process.
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Whether the recorder accepts events: telemetry is enabled or a
/// post-mortem directory is configured. One or two relaxed atomic
/// loads on the hot path; the first call lazily reads
/// `NVFF_POSTMORTEM`. Hot loops should hoist this check like they do
/// [`crate::enabled`].
#[inline]
#[must_use]
pub fn active() -> bool {
    registry::enabled() || postmortem_configured()
}

#[inline]
fn postmortem_configured() -> bool {
    match POSTMORTEM_STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            init_postmortem_from_env();
            POSTMORTEM_STATE.load(Ordering::Relaxed) == 2
        }
    }
}

fn init_postmortem_from_env() {
    let dir = match std::env::var("NVFF_POSTMORTEM") {
        Ok(raw) if !raw.trim().is_empty() => Some(PathBuf::from(raw.trim())),
        _ => None,
    };
    set_postmortem_dir(dir);
}

/// Configures (or clears) the post-mortem dump directory, overriding
/// whatever `NVFF_POSTMORTEM` said. A configured directory activates
/// the recorder even with tracing off.
pub fn set_postmortem_dir(dir: Option<PathBuf>) {
    let mut guard = POSTMORTEM_DIR
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let state = if dir.is_some() { 2 } else { 1 };
    *guard = dir;
    drop(guard);
    POSTMORTEM_STATE.store(state, Ordering::Release);
}

/// The configured post-mortem directory, if any.
#[must_use]
pub(crate) fn postmortem_dir() -> Option<PathBuf> {
    if !postmortem_configured() {
        return None;
    }
    POSTMORTEM_DIR
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Records one event into the ring. No-op (one or two atomic loads)
/// when the recorder is inactive; never allocates, never locks.
#[inline]
pub fn record(kind: EventKind, t_sim_s: f64, value: f64) {
    if !active() {
        return;
    }
    record_always(kind, t_sim_s, value);
}

/// The unconditional write path — split out so hot loops that already
/// hoisted [`active`] skip the re-check.
#[inline]
pub fn record_always(kind: EventKind, t_sim_s: f64, value: f64) {
    let n = HEAD.fetch_add(1, Ordering::Relaxed);
    let slot = &RING[(n as usize) % CAPACITY];
    // Invalidate, store payload, publish. Release on the final store
    // orders the payload before the new sequence number.
    slot.seq.store(0, Ordering::Release);
    let meta = u64::from(kind as u8) | (registry::current_thread_id() << 8);
    slot.meta.store(meta, Ordering::Relaxed);
    slot.t.store(t_sim_s.to_bits(), Ordering::Relaxed);
    slot.v.store(value.to_bits(), Ordering::Relaxed);
    slot.seq.store(n + 1, Ordering::Release);
}

/// Copies out the ring, oldest first. Slots mid-write (or lapped while
/// being read) are skipped, so the result may briefly hold fewer than
/// [`CAPACITY`] events even on a saturated ring.
#[must_use]
pub(crate) fn recent() -> Vec<FlightEvent> {
    let mut events = Vec::with_capacity(CAPACITY);
    for (i, slot) in RING.iter().enumerate() {
        let seq_before = slot.seq.load(Ordering::Acquire);
        if seq_before == 0 {
            continue;
        }
        let meta = slot.meta.load(Ordering::Relaxed);
        let t = slot.t.load(Ordering::Relaxed);
        let v = slot.v.load(Ordering::Relaxed);
        let seq_after = slot.seq.load(Ordering::Acquire);
        if seq_before != seq_after || ((seq_before - 1) as usize) % CAPACITY != i {
            continue; // torn read: a writer got here mid-copy
        }
        let Some(kind) = EventKind::from_u8((meta & 0xff) as u8) else {
            continue;
        };
        events.push(FlightEvent {
            seq: seq_before - 1,
            kind,
            thread: meta >> 8,
            t_sim_s: f64::from_bits(t),
            value: f64::from_bits(v),
        });
    }
    events.sort_by_key(|e| e.seq);
    events
}

/// Total events recorded since process start (monotone; exceeds
/// [`CAPACITY`] once the ring has wrapped).
#[must_use]
pub fn events_recorded() -> u64 {
    HEAD.load(Ordering::Relaxed)
}

/// Everything a post-mortem dump needs from the failing analysis.
/// The solver side assembles this from plain borrows so the telemetry
/// crate stays ignorant of `spice` types.
#[derive(Debug, Clone, Copy)]
pub struct Postmortem<'a> {
    /// Circuit label (the session's [`label`](`crate`), e.g.
    /// `proposed_2bit`).
    pub circuit: &'a str,
    /// Analysis that failed (`op`, `dc`, `tran`).
    pub analysis: &'a str,
    /// Human-readable error text.
    pub error: &'a str,
    /// Simulated time at failure [s].
    pub time_s: f64,
    /// Solver work counters at failure, as name/value pairs.
    pub stats: &'a [(&'static str, u64)],
}

impl Postmortem<'_> {
    fn json_document(&self, events: &[FlightEvent]) -> JsonValue {
        let events_json: Vec<JsonValue> = events
            .iter()
            .map(|e| {
                JsonValue::object(vec![
                    (
                        "seq".into(),
                        JsonValue::Int(i64::try_from(e.seq).unwrap_or(i64::MAX)),
                    ),
                    ("kind".into(), JsonValue::Str(e.kind.name().into())),
                    (
                        "thread".into(),
                        JsonValue::Int(i64::try_from(e.thread).unwrap_or(0)),
                    ),
                    ("t_sim_s".into(), JsonValue::Float(e.t_sim_s)),
                    ("value".into(), JsonValue::Float(e.value)),
                ])
            })
            .collect();
        let stats = JsonValue::Object(
            self.stats
                .iter()
                .map(|&(k, v)| {
                    (
                        k.to_owned(),
                        JsonValue::Int(i64::try_from(v).unwrap_or(i64::MAX)),
                    )
                })
                .collect(),
        );
        JsonValue::object(vec![
            ("schema".into(), JsonValue::Str(POSTMORTEM_SCHEMA.into())),
            ("circuit".into(), JsonValue::Str(self.circuit.into())),
            ("analysis".into(), JsonValue::Str(self.analysis.into())),
            ("error".into(), JsonValue::Str(self.error.into())),
            ("time_s".into(), JsonValue::Float(self.time_s)),
            (
                "span_path".into(),
                crate::span::current_path().map_or(JsonValue::Null, JsonValue::Str),
            ),
            (
                "thread".into(),
                JsonValue::Int(i64::try_from(registry::current_thread_id()).unwrap_or(0)),
            ),
            ("stats".into(), stats),
            (
                "events_recorded".into(),
                JsonValue::Int(i64::try_from(events_recorded()).unwrap_or(i64::MAX)),
            ),
            ("events".into(), JsonValue::Array(events_json)),
        ])
    }
}

/// Keeps dump file names shell- and filesystem-safe whatever the
/// circuit label holds.
fn sanitize_file_stem(s: &str) -> String {
    let mut out: String = s
        .chars()
        .take(48)
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() {
        out.push_str("circuit");
    }
    out
}

/// Writes a post-mortem JSON for `p` into the configured directory
/// (creating it if needed), returning the path written. `None` when no
/// directory is configured or the write failed (a post-mortem must
/// never turn a solver error into a crash — failures are reported on
/// stderr and swallowed).
pub fn dump(p: &Postmortem<'_>) -> Option<PathBuf> {
    let dir = postmortem_dir()?;
    let events = recent();
    let mut doc = p.json_document(&events).to_json();
    doc.push('\n');
    let n = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = format!(
        "postmortem-{}-{}-{n}.json",
        sanitize_file_stem(p.circuit),
        std::process::id()
    );
    let path = dir.join(name);
    match write_atomic(&dir, &path, &doc) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!(
                "telemetry: cannot write post-mortem {} ({e}); dump dropped",
                path.display()
            );
            None
        }
    }
}

fn write_atomic(dir: &Path, path: &Path, contents: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Test-only reset: clears the ring and returns the post-mortem
/// configuration to the unchecked state. Racy against concurrent
/// writers by design (same caveat as `registry::reset_for_tests`).
#[doc(hidden)]
pub fn reset_for_tests() {
    for slot in &RING {
        slot.seq.store(0, Ordering::Release);
    }
    HEAD.store(0, Ordering::Release);
    set_postmortem_dir(None);
    POSTMORTEM_STATE.store(0, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Flight state is process-global; serialize the tests that reset it.
    static FLIGHT_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn ring_keeps_the_most_recent_capacity_events_in_order() {
        let _guard = FLIGHT_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        reset_for_tests();
        set_postmortem_dir(Some(std::env::temp_dir()));
        for i in 0..(CAPACITY as u64 + 50) {
            record(EventKind::NewtonDelta, i as f64 * 1e-12, i as f64);
        }
        let events = recent();
        assert_eq!(events.len(), CAPACITY);
        // Oldest surviving event is the one that wrapped in.
        assert_eq!(events[0].seq, 50);
        assert!(events.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        assert_eq!(
            events.last().expect("nonempty").value,
            (CAPACITY + 49) as f64
        );
        reset_for_tests();
    }

    #[test]
    fn inactive_recorder_drops_events() {
        let _guard = FLIGHT_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        reset_for_tests();
        set_postmortem_dir(None);
        if !crate::enabled() {
            record(EventKind::GminRung, 0.0, 1e-2);
            assert_eq!(events_recorded(), 0);
            assert!(recent().is_empty());
        }
        reset_for_tests();
    }

    #[test]
    fn dump_writes_a_parseable_postmortem() {
        let _guard = FLIGHT_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        reset_for_tests();
        let dir = std::env::temp_dir().join(format!("nvff-flight-{}", std::process::id()));
        set_postmortem_dir(Some(dir.clone()));
        for i in 0..80 {
            record(EventKind::NewtonDelta, 1e-9, f64::from(i));
        }
        record(EventKind::NonConvergence, 1e-9, 200.0);
        let pm = Postmortem {
            circuit: "unit test/latch",
            analysis: "tran",
            error: "newton iteration did not converge",
            time_s: 1e-9,
            stats: &[("newton_iterations", 81), ("accepted_steps", 0)],
        };
        let path = dump(&pm).expect("dump path");
        let text = std::fs::read_to_string(&path).expect("dump file");
        let doc = JsonValue::parse(&text).expect("dump parses");
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(POSTMORTEM_SCHEMA)
        );
        assert_eq!(
            doc.get("circuit").and_then(JsonValue::as_str),
            Some("unit test/latch")
        );
        let events = doc
            .get("events")
            .and_then(JsonValue::as_array)
            .expect("events");
        assert_eq!(events.len(), 81);
        assert_eq!(
            events
                .last()
                .and_then(|e| e.get("kind"))
                .and_then(JsonValue::as_str),
            Some("non_convergence")
        );
        assert_eq!(
            doc.get("stats")
                .and_then(|s| s.get("newton_iterations"))
                .and_then(JsonValue::as_i64),
            Some(81)
        );
        // File names stay safe for hostile labels.
        assert!(path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf8 name")
            .starts_with("postmortem-unit_test_latch-"));
        let _ = std::fs::remove_dir_all(&dir);
        reset_for_tests();
    }

    #[test]
    fn event_kind_names_round_trip() {
        for raw in 0u8..=9 {
            let kind = EventKind::from_u8(raw).expect("valid kind");
            assert_eq!(kind as u8, raw);
            assert!(!kind.name().is_empty());
        }
        assert_eq!(EventKind::from_u8(10), None);
    }
}
