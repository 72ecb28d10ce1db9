//! The closed loop shared by the sequential workloads, and the metric
//! records every workload reports.

use std::time::{Duration, Instant};

use crate::calib;
use crate::stats;
use crate::trace::Tracer;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` for end-to-end and
    /// per-layer metrics.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric record.
    #[must_use]
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// A workload whose op runs to completion on the calling thread.
pub trait OpWorkload {
    /// Calibration job whose instruction mix resembles the op's.
    const KERNEL: calib::Kernel = calib::Kernel::Dense;
    /// One op's output.
    type Out;
    /// Runs op `index` through the library's public entry point.
    fn run(&mut self, index: u64) -> Self::Out;
    /// Runs op `index` as the same library calls split at layer
    /// boundaries, each inside a span.
    fn run_traced(&mut self, index: u64, tr: &mut Tracer) -> Self::Out;
    /// Checks an op's output; also records the deterministic quantities
    /// [`OpWorkload::detail`] and [`OpWorkload::per_layer`] report.
    ///
    /// # Errors
    ///
    /// Why the output is wrong.
    fn check(&mut self, out: &Self::Out) -> Result<(), String>;
    /// Per-layer calls outside any op (run once after each traced op).
    fn probe(&mut self, _tr: &mut Tracer) {}
    /// Workload-specific results beyond the shared end-to-end metrics.
    fn detail(&self) -> Vec<Metric>;
    /// Per-layer metrics from the recorded spans and checked outputs.
    fn per_layer(&self, tr: &Tracer) -> Vec<Metric>;
}

/// Attempted and failed ops, with the first failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted, the warm-up op included.
    pub attempted: u64,
    /// Ops whose output failed its check.
    pub failed: u64,
    /// The first few failure messages.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Records one op's check result; returns whether it passed.
    pub fn record(&mut self, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(reason) => {
                self.failed += 1;
                if self.reasons.len() < 5 {
                    self.reasons.push(reason);
                }
                false
            }
        }
    }
}

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Op accounting.
    pub tally: Tally,
    /// Shared end-to-end metrics (untraced run) or per-layer metrics
    /// (traced run).
    pub metrics: Vec<Metric>,
    /// Workload-specific results printed beside the shared metrics.
    pub detail: Vec<Metric>,
    /// Spans of the traced run.
    pub tracer: Option<Tracer>,
}

/// Timings of the untraced closed loop.
#[derive(Debug, Default)]
pub struct LoopTimes {
    /// Per-op host seconds; a failed op is `INFINITY`.
    pub op_s: Vec<f64>,
    /// The same, scaled to the reference machine speed
    /// ([`calib::Kernel::normalize`]) by the calibration runs around each
    /// op.
    pub norm_s: Vec<f64>,
    /// Calibration kernel seconds, one before each op and one after the
    /// last.
    pub cal_s: Vec<f64>,
    /// Ops that passed their check.
    pub completed: u64,
}

impl LoopTimes {
    /// The shared end-to-end timing metrics (normalized); the raw host
    /// figures and the tail percentile go to `detail`.
    #[must_use]
    pub fn metrics(&self, detail: &mut Vec<Metric>) -> Vec<Metric> {
        if let Some((p, v)) = stats::tail_percentile(&self.norm_s) {
            detail.push(Metric::new(&format!("op_p{p}_s"), v, "s"));
        }
        let busy = |times: &[f64]| times.iter().filter(|t| t.is_finite()).sum::<f64>();
        detail.extend([
            Metric::new("ops", self.op_s.len() as f64, "count"),
            Metric::new("raw_op_p50_s", stats::median(&self.op_s), "s"),
            Metric::new(
                "raw_ops_per_s",
                self.completed as f64 / busy(&self.op_s),
                "1/s",
            ),
            Metric::new("cal_p50_s", stats::median(&self.cal_s), "s"),
        ]);
        vec![
            Metric::new(
                "ops_per_s",
                self.completed as f64 / busy(&self.norm_s),
                "1/s",
            ),
            Metric::new("op_p50_s", stats::median(&self.norm_s), "s"),
        ]
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Calibration runs within this many seconds of an op (and at least the
/// ones just before and after it) set its speed: short ops see the
/// median of several runs, long ops their two neighbours.
const CAL_WINDOW_S: f64 = 0.25;

/// Runs the untraced closed loop: one warm-up op (checked, not timed),
/// then ops back to back, each followed by a calibration run, until
/// `seconds` have passed.
pub fn closed_loop<W: OpWorkload>(w: &mut W, seconds: f64, tally: &mut Tally) -> LoopTimes {
    let warm = w.run(0);
    let result = w.check(&warm);
    tally.record(result);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut times = LoopTimes::default();
    // (op start, op end, passed) and calibration (at, seconds), all in
    // seconds since `start`.
    let mut ops = Vec::new();
    let mut cal_at = vec![0.0];
    times.cal_s.push(W::KERNEL.sample());
    let mut index = 1;
    while start.elapsed() < budget {
        let t0 = start.elapsed().as_secs_f64();
        let (out, dt) = timed(|| w.run(index));
        cal_at.push(start.elapsed().as_secs_f64());
        times.cal_s.push(W::KERNEL.sample());
        let result = w.check(&out);
        let passed = tally.record(result);
        ops.push((t0, t0 + dt, passed));
        times.op_s.push(if passed { dt } else { f64::INFINITY });
        times.completed += u64::from(passed);
        index += 1;
    }
    for (i, &(t0, t1, passed)) in ops.iter().enumerate() {
        // Calibration run i precedes op i and run i + 1 follows it.
        let near: Vec<f64> = cal_at
            .iter()
            .zip(&times.cal_s)
            .enumerate()
            .filter(|&(k, (&at, _))| {
                k == i || k == i + 1 || (at >= t0 - CAL_WINDOW_S && at <= t1 + CAL_WINDOW_S)
            })
            .map(|(_, (_, &c))| c)
            .collect();
        let norm = W::KERNEL.normalize(t1 - t0, stats::median(&near));
        times.norm_s.push(if passed { norm } else { f64::INFINITY });
    }
    times
}

/// Runs the traced closed loop: untraced and traced ops alternate for
/// `seconds`, so both see the same machine state; every traced op is
/// followed by the workload's probes. Returns the per-layer metrics,
/// tracing overhead and span coverage included.
pub fn traced_loop<W: OpWorkload>(
    w: &mut W,
    seconds: f64,
    tally: &mut Tally,
) -> (Vec<Metric>, Tracer) {
    let warm = w.run(0);
    let result = w.check(&warm);
    tally.record(result);
    let mut tr = Tracer::new(Instant::now());
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut index = 1;
    while start.elapsed() < budget || traced.is_empty() {
        if index % 2 == 1 {
            let (out, dt) = timed(|| w.run(index));
            let result = w.check(&out);
            plain.push(if tally.record(result) {
                dt
            } else {
                f64::INFINITY
            });
        } else {
            let (out, dt) = tr.op(index, |tr| w.run_traced(index, tr));
            let result = w.check(&out);
            traced.push(if tally.record(result) {
                dt
            } else {
                f64::INFINITY
            });
            w.probe(&mut tr);
        }
        index += 1;
    }
    let mut metrics = w.per_layer(&tr);
    metrics.push(overhead(&traced, &plain));
    metrics.push(Metric::new(
        "telemetry.coverage_frac",
        stats::median(&tr.coverage()),
        "frac",
    ));
    (metrics, tr)
}

/// Tracing overhead: traced op median over untraced op median, minus 1.
#[must_use]
pub fn overhead(traced: &[f64], plain: &[f64]) -> Metric {
    Metric::new(
        "telemetry.overhead_frac",
        stats::median(traced) / stats::median(plain) - 1.0,
        "frac",
    )
}
