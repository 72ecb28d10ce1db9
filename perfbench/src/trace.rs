//! In-memory span recorder for the traced run.
//!
//! Spans are taken from this benchmark's own code around each call into
//! a library layer's public API; nothing inside the library is
//! instrumented. Each span records its name, start, end, parent and the
//! op it belongs to. Spans stay in memory until [`Tracer::write_jsonl`]
//! at exit, so recording costs two clock reads and a push.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, `layer.call` (root spans are named `op`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Op the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Name of the root span of every traced op.
pub const OP: &str = "op";

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recorder whose clock starts at `origin` (shared by the threads
    /// of one run so their spans line up).
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Runs op `op` as a root [`OP`] span; returns its result and its
    /// duration in seconds.
    pub fn op<T>(&mut self, op: u64, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        assert!(self.stack.is_empty(), "ops do not nest");
        self.op = op;
        let index = self.spans.len();
        let out = self.span(OP, f);
        (out, self.spans[index].seconds())
    }

    /// Moves `other`'s spans into this recorder (other threads' spans).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Durations, in seconds, of every span named `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Self time of every span: its duration minus its children's.
    #[must_use]
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.seconds();
            }
        }
        own
    }

    /// Per traced op, the share of the root span's time covered by the
    /// self time of the layer spans below it. What is left is untimed
    /// glue in the benchmark's own loop.
    #[must_use]
    pub fn coverage(&self) -> Vec<f64> {
        let own = self.self_times();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == OP && s.parent.is_none())
            .map(|(i, root)| {
                let total = root.seconds();
                if total > 0.0 {
                    1.0 - own[i] / total
                } else {
                    1.0
                }
            })
            .collect()
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_times();
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                text,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"op":{},"self_ns":{}}}"#,
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                (own[i] * 1e9).round().max(0.0) as u64,
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut tr = Tracer::new(Instant::now());
        let ((), total) = tr.op(7, |tr| {
            tr.span("a.outer", |tr| {
                tr.span("b.inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let spans = &tr.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, OP);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(total >= 0.002);
        let own = tr.self_times();
        let sum: f64 = own.iter().sum();
        assert!((sum - total).abs() < 1e-9, "self times partition the op");
        let coverage = tr.coverage();
        assert_eq!(coverage.len(), 1);
        assert!(coverage[0] > 0.5 && coverage[0] <= 1.0);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.op(1, |tr| tr.span("x.y", |_| ()));
        let mut b = Tracer::new(origin);
        b.op(2, |tr| tr.span("x.z", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.coverage().len(), 2);
    }
}
