//! Cell-family scaling bench: characterizes the generator's n-bit NV
//! word across word widths and reports area / read-energy scaling
//! against an n × 1-bit baseline.
//!
//! Usage: `family [--quick] [--json <path>] [--serve <addr>]`. Default
//! sweeps n ∈ {1, 2, 4, 8}; `--quick` stops at n = 4 (the CI smoke
//! configuration). With `--json`, emits a machine-readable run report
//! whose `family` section carries the per-width metrics. `--serve`
//! exposes the live registry at `http://<addr>/metrics` while the
//! characterizations run (companion flags: `--serve-addr-file` writes
//! the bound address, `--serve-linger <secs>` keeps serving after the
//! run for a final scrape).

use std::fmt::Write as _;
use std::time::Instant;

use cells::{LatchConfig, NvWord, WordParams};
use layout::DesignRules;
use nvff_bench::push_solver_stats;
use telemetry::Section;

/// Per-width measurement row.
struct FamilyPoint {
    bits: usize,
    metrics: cells::CellMetrics,
    area_um2: f64,
    total_transistors: usize,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    telemetry::init_from_env();
    let json_path = nvff_bench::json_path_from_args();
    if json_path.is_some() {
        telemetry::ensure_collecting();
    }
    let metrics_server = nvff_bench::serve_from_args();
    let quick = std::env::args().any(|a| a == "--quick");
    let widths: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };

    let mut run = telemetry::RunReport::new("family");
    let root_span = telemetry::span("family");
    let start = Instant::now();

    let config = LatchConfig::default();
    let rules = DesignRules::n40();
    let mut points = Vec::new();
    for &bits in widths {
        eprintln!("characterizing {bits}-bit word...");
        let _span = telemetry::span(match bits {
            1 => "family.n1",
            2 => "family.n2",
            4 => "family.n4",
            _ => "family.n8",
        });
        let word = NvWord::new(WordParams::new(bits), config.clone());
        let metrics = word.characterize()?;
        points.push(FamilyPoint {
            bits,
            area_um2: layout::cells::word_area(bits, &rules).square_micro_meters(),
            total_transistors: word.total_transistors(),
            metrics,
        });
    }

    // n × 1-bit baseline: the cost of keeping every flip-flop on its
    // own 1-bit NV component (read delay stays a single evaluation, so
    // it is compared per word, not per bit).
    let base = &points[0];
    let mut md = String::new();
    let _ = writeln!(md, "# NV word family scaling\n");
    let _ = writeln!(
        md,
        "| n | read energy (fJ) | read delay (ps) | write energy (fJ) | \
         leakage (pW) | area (um^2) | transistors | area / (n x 1-bit) | \
         read energy / (n x 1-bit) |"
    );
    let _ = writeln!(md, "|--:|--:|--:|--:|--:|--:|--:|--:|--:|");

    let mut section = Section::new("family");
    for p in &points {
        let n = p.bits as f64;
        let area_ratio = p.area_um2 / (n * base.area_um2);
        let energy_ratio = p.metrics.read_energy.joules() / (n * base.metrics.read_energy.joules());
        let _ = writeln!(
            md,
            "| {} | {:.2} | {:.1} | {:.2} | {:.1} | {:.2} | {} | {:.3} | {:.3} |",
            p.bits,
            p.metrics.read_energy.joules() * 1e15,
            p.metrics.read_delay.seconds() * 1e12,
            p.metrics.write_energy.joules() * 1e15,
            p.metrics.leakage.watts() * 1e12,
            p.area_um2,
            p.total_transistors,
            area_ratio,
            energy_ratio,
        );
        let prefix = format!("n{}.", p.bits);
        section.push(
            &format!("{prefix}read_energy_fj"),
            p.metrics.read_energy.joules() * 1e15,
        );
        section.push(
            &format!("{prefix}read_delay_ps"),
            p.metrics.read_delay.seconds() * 1e12,
        );
        section.push(
            &format!("{prefix}write_energy_fj"),
            p.metrics.write_energy.joules() * 1e15,
        );
        section.push(
            &format!("{prefix}write_latency_ns"),
            p.metrics.write_latency.seconds() * 1e9,
        );
        section.push(
            &format!("{prefix}leakage_pw"),
            p.metrics.leakage.watts() * 1e12,
        );
        section.push(&format!("{prefix}area_um2"), p.area_um2);
        section.push(
            &format!("{prefix}read_transistors"),
            p.metrics.read_transistors as f64,
        );
        section.push(
            &format!("{prefix}total_transistors"),
            p.total_transistors as f64,
        );
        section.push(&format!("{prefix}area_ratio_vs_1bit"), area_ratio);
        section.push(&format!("{prefix}read_energy_ratio_vs_1bit"), energy_ratio);
        push_solver_stats(&mut section, &prefix, p.metrics.solver);
    }
    section.push("widths", points.len() as f64);
    section.push("wall_s", start.elapsed().as_secs_f64());
    run.add(section);

    println!("{md}");

    drop(root_span);
    let snap = telemetry::finish();
    if let Some(path) = json_path {
        run.write(&path, &snap)?;
        eprintln!("wrote {}", path.display());
    }
    if let Some(guard) = metrics_server {
        guard.finish();
    }
    Ok(())
}
