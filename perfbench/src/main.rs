//! End-to-end and per-layer benchmark of the spintronic-ff library.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop on one compute thread that calls the
//! library crates' public functions and checks every op's output. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics of
//! [`END_TO_END`] with `--trace 0`, the per-layer metrics of
//! [`PER_LAYER`] with `--trace 1`. The line before it carries the
//! workload-specific results (`detail`). A traced run also writes its
//! spans to `perfbench/out/`.

mod calib;
mod harness;
mod serve_mix;
mod shmoo;
mod stats;
mod table2;
mod table3;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::{closed_loop, traced_loop, Metric, OpWorkload, Outcome, Tally};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["table2_full", "wer_shmoo", "table3_measured", "serve_mix"];

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports, with their units. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("spice.transient_s", "s"),
    ("spice.us_per_newton", "us"),
    ("spice.newton_per_step", "ratio"),
    ("spice.lu_per_step", "ratio"),
    ("spice.step_accept_frac", "frac"),
    ("spice.newton_iterations", "count"),
    ("spice.lu_factorizations", "count"),
    ("spice.accepted_steps", "count"),
    ("spice.rejected_steps", "count"),
    ("cells.characterize_proposed_s", "s"),
    ("cells.characterize_standard_s", "s"),
    ("cells.word_characterize_standard_s", "s"),
    ("cells.word_characterize_proposed_s", "s"),
    ("cells.word_characterize_nv_word_2_s", "s"),
    ("cells.word_characterize_nv_word_4_s", "s"),
    ("mtj.tilt_search_s", "s"),
    ("mtj.tail_point_s", "s"),
    ("mtj.is_samples_per_s", "1/s"),
    ("mtj.brute_trials_per_s", "1/s"),
    ("mtj.contribution_ess_frac", "frac"),
    ("netlist.generate_s", "s"),
    ("place.place_s", "s"),
    ("merge.plan_s", "s"),
    ("netlist.gates", "count"),
    ("place.cells", "count"),
    ("merge.candidates", "count"),
    ("merge.merged_pairs", "count"),
    ("merge.pair_frac", "frac"),
    ("serve.parse_s", "s"),
    ("serve.canonical_s", "s"),
    ("serve.handle_hit_s", "s"),
    ("serve.handle_miss_s", "s"),
    ("serve.http_overhead_s", "s"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("telemetry.overhead_frac", "frac"),
    ("telemetry.coverage_frac", "frac"),
];

/// Timed batches of set-ups; `setup_s` is the median over batches.
const SETUP_REPEATS: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Environment variables that change what the library computes or turn
/// its telemetry on. A run measures the defaults, so any of them being
/// set is refused rather than silently measured.
fn pinned_environment_violations() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("NVFF_"))
        .collect()
}

/// Least wall time one timed batch of set-ups should take, seconds.
const SETUP_BATCH_S: f64 = 2e-3;

/// Set-up time: host seconds per build and the same normalized to the
/// reference machine speed.
struct SetupTime {
    raw_s: f64,
    norm_s: f64,
}

/// Builds the workload in `SETUP_REPEATS` timed batches and returns one
/// instance with the median over batches of the time per build. A
/// set-up shorter than [`SETUP_BATCH_S`] is timed as a batch of
/// build-and-drop cycles filling it, so it is not measured at timer
/// resolution; a longer one is timed build by build, dropped outside
/// the timed interval. Each batch is scaled to the reference speed by
/// the calibration runs either side of it.
fn setup<T>(kernel: calib::Kernel, make: impl Fn() -> T) -> (T, SetupTime) {
    let t0 = Instant::now();
    let mut last = make();
    let once = t0.elapsed().as_secs_f64();
    let batch = ((SETUP_BATCH_S / once.max(1e-9)) as usize).clamp(1, 1_000_000);
    let mut cal_before = kernel.sample();
    let mut raw = Vec::with_capacity(SETUP_REPEATS);
    let mut norm = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        drop(last);
        let t0 = Instant::now();
        for _ in 1..batch {
            drop(std::hint::black_box(make()));
        }
        last = make();
        let per_build = t0.elapsed().as_secs_f64() / batch as f64;
        let cal_after = kernel.sample();
        raw.push(per_build);
        norm.push(kernel.normalize(per_build, 0.5 * (cal_before + cal_after)));
        cal_before = cal_after;
    }
    let time = SetupTime {
        raw_s: stats::median(&raw),
        norm_s: stats::median(&norm),
    };
    (last, time)
}

fn run_ops<W: OpWorkload>(make: impl Fn() -> W, args: &Args) -> Outcome {
    let (mut w, setup_s) = setup(W::KERNEL, make);
    let mut tally = Tally::default();
    if args.trace {
        let (metrics, tracer) = traced_loop(&mut w, args.seconds, &mut tally);
        return Outcome {
            tally,
            metrics,
            detail: w.detail(),
            tracer: Some(tracer),
        };
    }
    let times = closed_loop(&mut w, args.seconds, &mut tally);
    let mut detail = w.detail();
    detail.push(Metric::new("raw_setup_s", setup_s.raw_s, "s"));
    let mut metrics = vec![Metric::new("setup_s", setup_s.norm_s, "s")];
    metrics.extend(times.metrics(&mut detail));
    Outcome {
        tally,
        metrics,
        detail,
        tracer: None,
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// JSON number for a measured value (non-finite values become `null`).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Orders `measured` as `names` lists them; a name the workload did not
/// measure reads 0 in the unit `names` gives it.
fn select(measured: &[Metric], names: &[(&str, &'static str)]) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit))
        })
        .collect()
}

fn trace_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-seed{seed}.jsonl"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let violations = pinned_environment_violations();
    if !violations.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; the benchmark measures library defaults",
            violations.join(", ")
        );
        return ExitCode::from(2);
    }

    let mut outcome = match args.workload.as_str() {
        "table2_full" => run_ops(|| table2::Table2::new(args.seed), &args),
        "wer_shmoo" => run_ops(|| shmoo::Shmoo::new(args.seed), &args),
        "table3_measured" => run_ops(|| table3::Table3::new(args.seed), &args),
        _ => serve_mix::run(args.seed, args.seconds, args.trace),
    };

    let names: &[(&str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Some(tr) = &outcome.tracer {
        let path = trace_path(&args.workload, args.seed);
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    } else {
        outcome
            .metrics
            .push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
    }
    let metrics = select(&outcome.metrics, names);
    let tally = &outcome.tally;
    for reason in &tally.reasons {
        eprintln!("perfbench: failed op: {reason}");
    }
    let reasons: Vec<String> = tally
        .reasons
        .iter()
        .map(|r| telemetry::json::JsonValue::Str(r.clone()).to_json())
        .collect();
    println!(
        r#"{{"detail": {{"workload": "{}", "seed": {}, "trace": {}, "seconds": {}, "nproc": {}, "metrics": {}, "failures": [{}]}}}}"#,
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.seconds,
        std::thread::available_parallelism().map_or(0, usize::from),
        metrics_json(&outcome.detail),
        reasons.join(", "),
    );
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        metrics_json(&metrics),
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::JsonValue;

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonValue::as_str).expect(f).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = JsonValue::parse(&text).expect("valid JSON");
        let own = |names: &[(&str, &str)]| -> Vec<(String, String)> {
            names
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn unmeasured_layers_read_zero_in_list_order() {
        let measured = [Metric::new("serve.hits", 3.0, "count")];
        let got = select(&measured, &PER_LAYER);
        assert_eq!(got.len(), PER_LAYER.len());
        assert_eq!(got[0], Metric::new("spice.transient_s", 0.0, "s"));
        assert!(got.iter().any(|m| m.name == "serve.hits" && m.value == 3.0));
    }
}
