//! Robustness report — the analyses behind the paper's "reliable
//! back-up and restore" claims, quantified:
//!
//! * read-margin vs. TMR sweep and the minimum resolvable TMR;
//! * read-disturb check (no MTJ may flip during a restore);
//! * write-error-rate vs. pulse width, with the pulse for a 10⁻⁹ WER,
//!   cross-checked by a parallel Monte-Carlo campaign;
//! * retention and latch function across temperature.
//!
//! Usage: `margins [--jobs <N>] [--lanes <L>] [--checkpoint <path>]`.
//! `--jobs` sets the Monte-Carlo worker count (`0`/absent = auto, `1` =
//! serial); `--lanes` sets the SIMD lane count of the batched WER
//! kernel (`0`/absent = auto, `1` = the scalar reference kernel);
//! `--checkpoint` persists completed WER grid points to the given file,
//! so an interrupted campaign resumes — bit-identically — where it
//! stopped. Printed figures are identical for every mode.

use cells::{margin, LatchConfig, ProposedLatch};
use mtj::{wer, MtjParams, SwitchingModel, ThermalModel};
use units::{Current, Temperature, Time};

/// Extracts the `--checkpoint <path>` argument, if present.
fn checkpoint_path_from_args() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--checkpoint" {
            return args.next().map(std::path::PathBuf::from);
        }
        if let Some(path) = a.strip_prefix("--checkpoint=") {
            return Some(std::path::PathBuf::from(path));
        }
    }
    None
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = LatchConfig::default();

    // ---- Read margin vs TMR -----------------------------------------
    println!("READ MARGIN vs TMR (proposed 2-bit latch, pattern [1,0])");
    let tmrs = [1.2, 0.9, 0.6, 0.4, 0.25, 0.15, 0.08];
    for point in margin::sweep_tmr(&base, &tmrs)? {
        println!(
            "  TMR {:>5.0} %: lower {:>5.1} %  upper {:>5.1} %  resolved {}",
            point.tmr * 100.0,
            point.margins.lower * 100.0,
            point.margins.upper * 100.0,
            if point.resolved { "yes" } else { "NO" },
        );
    }
    let min_tmr = margin::minimum_resolvable_tmr(&base, 0.02)?;
    println!(
        "  minimum resolvable TMR ≈ {:.0} % — {:.1}× below Table I's 120 %\n  \
         (noise-free solver: a silicon sense amp adds offset, so real margins\n  \
         need the ±3σ corner headroom Table II budgets)\n",
        min_tmr * 100.0,
        1.2 / min_tmr
    );

    // ---- Read disturb ------------------------------------------------
    println!("READ DISTURB (restores must never flip an MTJ)");
    let latch = ProposedLatch::new(base.clone());
    let mut disturbs = 0;
    for pattern in [[false, false], [false, true], [true, false], [true, true]] {
        let (result, _) = latch.restore_traces(pattern)?;
        disturbs += result.mtj_events().len();
    }
    println!(
        "  4 restore patterns, {} MTJ reversal events — {}\n",
        disturbs,
        if disturbs == 0 {
            "disturb-free"
        } else {
            "DISTURB DETECTED"
        },
    );

    // ---- Write error rate ---------------------------------------------
    println!("WRITE ERROR RATE vs PULSE (series-path drive ≈ 63 µA)");
    let nominal = MtjParams::date2018();
    let model = SwitchingModel::new(&nominal);
    let drive = Current::from_micro_amps(63.0);
    let pulses: Vec<Time> = [2.0, 3.0, 5.0, 8.0, 12.0, 20.0]
        .iter()
        .map(|&ns| Time::from_nano_seconds(ns))
        .collect();
    for point in wer::sweep(&model, drive, &pulses) {
        println!(
            "  pulse {:>6}: single WER {:>9.2e}   pair WER {:>9.2e}",
            point.pulse.to_string(),
            point.single,
            point.pair,
        );
    }
    println!(
        "  pulse for WER 1e-9: {} (store happens once per power-down — cheap insurance)\n",
        wer::pulse_for_wer(&model, drive, 1e-9)
    );

    // ---- Monte-Carlo WER cross-check ----------------------------------
    // Empirical failure counts over the same (current, pulse) grid,
    // fanned out over a sweep pool. Counter-based per-point seeding
    // makes the counts identical for every --jobs value, and identical
    // again when resumed from a --checkpoint file.
    let jobs = nvff_bench::jobs_from_args();
    let lanes = nvff_bench::lanes_from_args();
    let trials = 2000;
    let mc_seed = 2018u64;
    let points: Vec<(Current, Time)> = pulses[..4].iter().map(|&p| (drive, p)).collect();
    println!("MONTE-CARLO WER CROSS-CHECK ({trials} stochastic writes per pulse)");
    let failures: Vec<u64> = if let Some(path) = checkpoint_path_from_args() {
        let description = format!(
            "margins-wer drive={drive} pulses={} trials={trials} seed={mc_seed}",
            points.len()
        );
        let grid = sweep::Grid::with_seed(points.clone(), mc_seed);
        let policy = sweep::CheckpointPolicy::new(&path, sweep::fingerprint(&description));
        let opts = sweep::SweepOptions {
            jobs,
            span_label: "margins.wer_point",
            ..sweep::SweepOptions::default()
        };
        let outcome = sweep::run_checkpointed(
            &grid,
            &opts,
            &policy,
            |_| (),
            |(), ctx, &(current, pulse)| {
                mtj::lanes::count_write_failures_batched(
                    &nominal, current, pulse, trials, ctx.seed, lanes,
                ) as u64
            },
            None,
        )?;
        eprintln!(
            "checkpoint {}: {} of {} points restored",
            path.display(),
            outcome.summary.resumed,
            outcome.summary.points
        );
        outcome.results
    } else {
        let opts = wer::WerGridOptions {
            trials,
            seed: mc_seed,
            jobs,
            lanes,
        };
        let (estimates, _) = wer::monte_carlo_wer_grid(&nominal, &points, &opts);
        estimates.iter().map(|e| e.failures as u64).collect()
    };
    for (&(_, pulse), &fails) in points.iter().zip(&failures) {
        let empirical = fails as f64 / trials as f64;
        let analytic = wer::write_error_rate(&model, drive, pulse);
        println!(
            "  pulse {:>6}: empirical {:>9.2e} ({fails:>4} failures)   analytic {:>9.2e}",
            pulse.to_string(),
            empirical,
            analytic,
        );
    }
    println!();

    // ---- Temperature ---------------------------------------------------
    println!("TEMPERATURE (Table I fixes 27 °C; first-order extension)");
    let thermal = ThermalModel::default();
    for celsius in [-40.0, 27.0, 85.0, 125.0] {
        let t = Temperature::from_celsius(celsius);
        let params = thermal.at_temperature(&nominal, t);
        let mut config = base.clone();
        config.mtj = params.clone();
        let ok = ProposedLatch::new(config)
            .simulate_restore([true, false])
            .map(|r| r.bits == [true, false])
            .unwrap_or(false);
        println!(
            "  {:>7}: TMR {:>5.0} %  Ic {:>7}  retention {:>12}  restore {}",
            t.to_string(),
            params.tmr_zero_bias() * 100.0,
            params.critical_current().to_string(),
            params.retention_time().to_string(),
            if ok { "ok" } else { "FAILS" },
        );
    }
    Ok(())
}
