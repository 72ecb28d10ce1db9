//! Rare-event shmoo driver: the WER-vs-pulse-width-vs-σ(Isw)(-vs-T)
//! surface from the importance-sampled tail engine.
//!
//! Usage: `shmoo [--quick] [--jobs <N>] [--lanes <L>] [--json <path>]`.
//!
//! Default mode runs the full surface (deepest point: typical-die WER
//! 1e-11, i.e. population WER ≤ 1e-9 at ≤ 1e4 samples/point) plus the
//! shallow-regime brute-force cross-check, prints the table and — with
//! `--json` — writes the run report whose `rare_event` section backs
//! the committed `BENCH_report.json` baseline. `--quick` shrinks the
//! surface to the two headline points. The process exits nonzero when
//! the brute-force cross-check falls outside the IS confidence interval.

use nvff_bench::shmoo;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    telemetry::init_from_env();
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    let mut opts = if quick {
        shmoo::ShmooOptions::quick()
    } else {
        shmoo::ShmooOptions::default()
    };
    opts.jobs = nvff_bench::jobs_from_args();
    opts.lanes = nvff_bench::lanes_from_args();

    let json_path = nvff_bench::json_path_from_args();
    if json_path.is_some() {
        telemetry::ensure_collecting();
    }
    let mut run = telemetry::RunReport::new("shmoo");
    let span = telemetry::span("shmoo");
    let report = shmoo::run(&opts);
    drop(span);
    print!("{}", report.markdown());
    if !report.crosscheck.agrees {
        return Err("brute-force cross-check fell outside the IS confidence interval".into());
    }
    run.add(report.section());
    let snap = telemetry::finish();
    if let Some(path) = json_path {
        run.write(&path, &snap)?;
        println!("run report written to {}", path.display());
    }
    Ok(())
}
