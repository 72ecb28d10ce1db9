//! Regenerates **Table III** — system-level area and read energy for the
//! 13 benchmarks, all flip-flops backed by 1-bit NV components versus
//! the merged 2-bit flow.
//!
//! Two modes are always printed:
//!
//! * **replay** — the paper's published merge counts with the paper's
//!   per-cell costs: reproduces every published number exactly (the
//!   arithmetic verification);
//! * **measured** — this repository's full flow: synthetic benchmark →
//!   placement → neighbour-pair merge, rolled up with the same costs so
//!   the merge quality is the only difference.
//!
//! Usage: `table3 [--full] [--own-costs]`. `--full` synthesizes the
//! complete combinational clouds (slower for b18/b19); the default caps
//! them at 40 k gates, which does not change flip-flop clustering
//! statistics materially. `--own-costs` uses this repository's measured
//! cell costs instead of the paper's constants.
//!
//! `NVFF_TRACE=summary` prints the span table on exit: each measured
//! design's `nvff.benchmark` span splits into `netlist.generate`,
//! `place.place` and `merge.plan`. Two counters follow:
//! `netlist.names_built` (generated names the run built, 0 because the
//! flow reads none) and `process.minor_faults` (the run's minor page
//! faults from `/proc/self/stat`, left out where that file is absent).

use netlist::benchmarks::Benchmark;
use nvff::paper;
use nvff::system::{self, EvaluationMode, SystemCosts};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    telemetry::init_from_env();
    let full = std::env::args().any(|a| a == "--full");
    let own_costs = std::env::args().any(|a| a == "--own-costs");
    let max_gates = if full { usize::MAX } else { 40_000 };

    let costs = if own_costs {
        eprintln!("characterizing cells for measured costs...");
        SystemCosts::measured()?
    } else {
        SystemCosts::paper()
    };
    println!(
        "per-cell costs: area {:.3}/{:.3} µm², read energy {:.3}/{:.3} fJ ({})",
        costs.area_1bit.square_micro_meters(),
        costs.area_2bit.square_micro_meters(),
        costs.energy_1bit.femto_joules(),
        costs.energy_2bit.femto_joules(),
        if own_costs {
            "measured"
        } else {
            "paper Table II typical"
        },
    );

    println!("\nTABLE III (replay: paper merge counts)");
    let replay = system::table3(&costs, EvaluationMode::Replay);
    for row in &replay {
        println!("{row}");
    }
    let (area, energy) = system::average_improvements(&replay);
    println!(
        "average improvement: area {:.2} % (paper 26 %), energy {:.2} % (paper 14 %)",
        area * 100.0,
        energy * 100.0
    );

    println!("\nTABLE III (measured: this repository's place-and-merge flow)");
    let mut measured = Vec::new();
    for spec in Benchmark::ALL {
        eprintln!("  placing and merging {}...", spec.name);
        let row = system::evaluate_measured(spec, &costs, max_gates);
        println!("{row}");
        measured.push(row);
    }
    let (area_m, energy_m) = system::average_improvements(&measured);
    println!(
        "average improvement: area {:.2} %, energy {:.2} %",
        area_m * 100.0,
        energy_m * 100.0
    );

    println!("\nmerge-count comparison (measured vs paper):");
    for (row, published) in measured.iter().zip(paper::table3()) {
        println!(
            "  {:<8} measured pairs {:>5} ({:>5.1} % of FFs)   paper {:>5} ({:>5.1} %)",
            row.name,
            row.merged_pairs,
            row.merge_fraction() * 100.0,
            published.merged_pairs,
            2.0 * published.merged_pairs as f64 / published.total_ffs as f64 * 100.0,
        );
    }
    telemetry::counter("netlist.names_built", netlist::names_built());
    if let Some(faults) = minor_faults() {
        telemetry::counter("process.minor_faults", faults);
    }
    telemetry::finish();
    Ok(())
}

/// This process's minor page faults so far: field 10 (`minflt`) of
/// `/proc/self/stat`, or `None` where that file is absent.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2, the command name, is parenthesized and may hold spaces;
    // field 3 is the first after its closing parenthesis.
    let (_, fields) = stat.rsplit_once(')')?;
    fields.split_whitespace().nth(7)?.parse().ok()
}
