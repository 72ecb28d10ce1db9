//! Scoped spans and stopwatches.
//!
//! A [`Span`] is an RAII guard: creating one pushes a frame onto a
//! thread-local stack (so nested spans know their parent and full
//! path), dropping it records the elapsed wall-clock time into the
//! registry and, in JSONL mode, streams one event. When tracing is
//! disabled the constructor returns an inert guard without touching the
//! clock, the thread-local or the allocator.
//!
//! Parentage is per-thread: spans opened on worker threads (e.g. the
//! per-corner scoped threads in `cells::metrics`) start a fresh path on
//! that thread rather than attaching to a span on the spawning thread.

use std::cell::RefCell;
use std::time::Instant;

use crate::registry;

std::thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

struct Frame {
    id: u64,
    path: String,
}

/// An open span; closes (records) on drop.
#[must_use = "a span measures the scope it is bound to; binding it to _ drops it immediately"]
pub struct Span {
    live: Option<Live>,
}

struct Live {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    start: Instant,
    start_s: f64,
}

impl Span {
    /// Opens a span named `name` under the innermost open span on this
    /// thread (or as a root span if there is none). Inert when tracing
    /// is disabled.
    pub(crate) fn enter(name: &'static str) -> Span {
        if !registry::enabled() {
            return Span { live: None };
        }
        let id = registry::next_span_id();
        let parent = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let (parent, path) = match stack.last() {
                Some(top) => (Some(top.id), format!("{}/{name}", top.path)),
                None => (None, name.to_owned()),
            };
            stack.push(Frame { id, path });
            parent
        });
        Span {
            live: Some(Live {
                name,
                id,
                parent,
                start: Instant::now(),
                start_s: registry::now_s(),
            }),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let dur_s = live.start.elapsed().as_secs_f64();
        let path = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Pop up to and including our own frame. Out-of-order drops
            // cannot happen with RAII scoping, but a leaked span must
            // not wedge the stack, so search rather than assume.
            match stack.iter().rposition(|f| f.id == live.id) {
                Some(pos) => {
                    let frame = stack.swap_remove(pos);
                    stack.truncate(pos);
                    frame.path
                }
                None => live.name.to_owned(),
            }
        });
        registry::record_span(live.name, &path, live.id, live.parent, live.start_s, dur_s);
    }
}

/// Opens a span (see `Span::enter`).
pub fn span(name: &'static str) -> Span {
    Span::enter(name)
}

/// The slash-joined path of the innermost open span on this thread
/// (`None` outside any span, or when tracing is disabled — inert spans
/// never push a frame). Post-mortem dumps use this to record *where*
/// in the run a solver failure surfaced.
#[must_use]
pub(crate) fn current_path() -> Option<String> {
    STACK.with(|stack| stack.borrow().last().map(|f| f.path.clone()))
}

/// A timer that records its elapsed seconds into a named histogram on
/// drop. Unlike a span it has no identity or nesting — use it for
/// high-count timings (per-LU-solve) where span bookkeeping would be
/// disproportionate.
#[must_use = "a stopwatch measures the scope it is bound to; binding it to _ drops it immediately"]
pub struct Stopwatch {
    live: Option<(&'static str, Instant)>,
}

impl Stopwatch {
    /// Starts a stopwatch feeding the named histogram. Inert when
    /// tracing is disabled (the clock is not read).
    pub(crate) fn start(histogram: &'static str) -> Stopwatch {
        Stopwatch {
            live: registry::enabled().then(|| (histogram, Instant::now())),
        }
    }
}

impl Drop for Stopwatch {
    fn drop(&mut self) {
        if let Some((name, start)) = self.live.take() {
            registry::histogram(name, start.elapsed().as_secs_f64());
        }
    }
}

/// Starts a stopwatch (see `Stopwatch::start`).
pub fn stopwatch(histogram: &'static str) -> Stopwatch {
    Stopwatch::start(histogram)
}
