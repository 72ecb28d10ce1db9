//! The full SoC flow on one benchmark: synthesize → place → find
//! neighbour flip-flops → replace with shared 2-bit NV components →
//! report the system-level area/energy gains (a single Table III row,
//! end to end).
//!
//! ```text
//! cargo run --release --example soc_power_gating [benchmark]
//! ```

use merge::MergeOptions;
use netlist::{benchmarks, verilog, CellLibrary};
use place::def;
use place::placer::{self, PlacerOptions};
use spintronic_ff::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "s5378".into());
    let spec = benchmarks::by_name(&name)
        .ok_or_else(|| format!("unknown benchmark {name} (try s344..b19, or1200)"))?;

    // 1. Synthesize the synthetic benchmark netlist.
    let netlist = benchmarks::generate_scaled(spec, 40_000);
    println!(
        "{}: {} instances, {} flip-flops, {} nets",
        spec.name,
        netlist.instance_count(),
        netlist.flip_flop_count(),
        netlist.net_count()
    );
    let verilog_lines = verilog::write(&netlist).lines().count();
    println!("  (structural verilog: {verilog_lines} lines)");

    // 2. Place.
    let lib = CellLibrary::n40();
    let placed = placer::place(&netlist, &lib, &PlacerOptions::default());
    println!(
        "placed: die {:.1} × {:.1} µm, {} rows, HPWL {:.1} µm",
        placed.floorplan().die_width().micro_meters(),
        placed.floorplan().die_height().micro_meters(),
        placed.floorplan().rows(),
        placed.hpwl(&netlist, &lib) * 1e6,
    );

    // 3. The merge script over the DEF view (as the paper does it).
    let def_text = def::write(&placed);
    let parsed = def::parse(&def_text)?;
    let plan = merge::plan_from_def(&parsed, &MergeOptions::default());
    println!(
        "merge: {} of {} flip-flops paired ({:.1} % coverage) within {}",
        2 * plan.merged_pairs(),
        plan.total_flip_flops(),
        plan.merge_fraction() * 100.0,
        plan.threshold(),
    );

    // 4. Roll up the NV-component costs.
    let costs = SystemCosts::paper();
    let row = nvff::system::roll_up(spec.name, spec.flip_flops, plan.merged_pairs(), &costs);
    println!("\n{row}");
    println!(
        "paper found {} pairs on the real {} netlist",
        spec.paper_merged_pairs, spec.name
    );

    // 5. What the NV backup buys at the system level: gate the whole
    //    logic block whenever it idles longer than the break-even time.
    let leakage_per_ff = Power::from_pico_watts(1565.0 / 2.0);
    let model = PowerGatingModel::new(
        leakage_per_ff * spec.flip_flops as f64,
        Energy::from_femto_joules(104.0) * spec.flip_flops as f64,
        row.merged_energy,
    );
    println!(
        "\npower gating the whole block: break-even idle {} \
         (store {} + restore {}), leakage while on {}",
        model.break_even_idle(),
        model.store_energy(),
        model.restore_energy(),
        model.leakage(),
    );
    Ok(())
}
