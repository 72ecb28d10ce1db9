//! Corner and Monte-Carlo analysis of the proposed 2-bit latch: the
//! Table II methodology plus a variation study of the MTJ read window.
//!
//! ```text
//! cargo run --release --example corner_analysis
//! ```

use cells::metrics;
use mtj::{montecarlo, MtjParams, VariationModel};
use spintronic_ff::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Diagonal corner sweep --------------------------------------
    println!("corner sweep (slow / typical / fast):");
    for corner in [Corner::slow(), Corner::typical(), Corner::fast()] {
        let config = LatchConfig::default().at_corner(corner);
        let std_m = metrics::characterize_standard_pair(&config)?;
        let prop_m = metrics::characterize_proposed(&config)?;
        println!(
            "  {corner:<12} standard: E {} d {} leak {} | proposed: E {} d {} leak {}",
            std_m.read_energy,
            std_m.read_delay,
            std_m.leakage,
            prop_m.read_energy,
            prop_m.read_delay,
            prop_m.leakage,
        );
    }

    // ---- Monte-Carlo on the MTJ read window -------------------------
    let nominal = MtjParams::date2018();
    let variation = VariationModel::default();
    let (windows, _) = montecarlo::run(&nominal, &variation, 2000, 42, 0, |sample| {
        (sample.params.resistance_antiparallel() - sample.params.resistance_parallel()).kilo_ohms()
    });
    let stats = montecarlo::Statistics::from_values(&windows);
    println!(
        "\nMTJ read window (Rap − Rp) over {} samples: mean {:.2} kΩ, σ {:.2} kΩ, \
         range {:.2}–{:.2} kΩ",
        stats.count(),
        stats.mean(),
        stats.std_dev(),
        stats.min(),
        stats.max()
    );
    let yield_4k = montecarlo::yield_fraction(&windows, |w| w > 4.0);
    println!("yield (window > 4 kΩ): {:.2} %", yield_4k * 100.0);

    // ---- Restore correctness across sampled devices -----------------
    println!("\nrestore correctness over 20 sampled MTJ parameter sets:");
    let mut failures = 0;
    for (k, sample) in montecarlo::run(&nominal, &variation, 20, 7, 0, |s| s.params.clone())
        .0
        .into_iter()
        .enumerate()
    {
        let config = LatchConfig {
            mtj: sample,
            ..LatchConfig::default()
        };
        let latch = ProposedLatch::new(config);
        let ok = latch
            .simulate_restore([true, false])
            .map(|r| r.bits == [true, false])
            .unwrap_or(false);
        if !ok {
            failures += 1;
            println!("  sample {k}: RESTORE FAILED");
        }
    }
    println!("  {} / 20 samples restored correctly", 20 - failures);
    Ok(())
}
