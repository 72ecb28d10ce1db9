//! Robustness report — the analyses behind the paper's "reliable
//! back-up and restore" claims, quantified:
//!
//! * read-margin vs. TMR sweep and the minimum resolvable TMR;
//! * read-disturb check (no MTJ may flip during a restore);
//! * write-error-rate vs. pulse width, with the pulse for a 10⁻⁹ WER,
//!   cross-checked by a parallel Monte-Carlo campaign: the
//!   variation-aware brute force of `mtj::rare` at zero variation;
//! * retention and latch function across temperature.
//!
//! Usage: `margins [--jobs <N>]`. `--jobs` sets the Monte-Carlo worker
//! count (`0`/absent = auto, `1` = serial); the printed figures are
//! identical for every value.

use cells::{margin, LatchConfig, ProposedLatch};
use mtj::rare::{self, TailEnv};
use mtj::wer::{self, WerEstimate};
use mtj::{MtjParams, SwitchingModel, ThermalModel, VariationModel};
use units::{Current, Temperature, Time};

/// Series-path write drive of the WER sections, µA.
const DRIVE_MICRO_AMPS: f64 = 63.0;

/// Pulse widths of the WER sweep, ns; the cross-check runs the first
/// four.
const PULSES_NS: [f64; 6] = [2.0, 3.0, 5.0, 8.0, 12.0, 20.0];

/// Stochastic writes per cross-check pulse.
const TRIALS: usize = 2000;

/// Failure counts of [`TRIALS`] stochastic writes of the nominal device
/// at each of the first four sweep pulses, over `jobs` workers. The
/// writes run on the variation-aware brute force with every σ at zero,
/// so each trial steps the nominal device's switch probability; the
/// counts are identical for every `jobs` value.
fn wer_cross_check(
    nominal: &MtjParams,
    jobs: usize,
) -> Result<Vec<WerEstimate>, Box<dyn std::error::Error>> {
    let env = TailEnv::new(
        nominal,
        VariationModel::new(0.0, 0.0, 0.0)?,
        Current::from_micro_amps(DRIVE_MICRO_AMPS),
    );
    let pulses: Vec<Time> = PULSES_NS[..4]
        .iter()
        .map(|&ns| Time::from_nano_seconds(ns))
        .collect();
    Ok(rare::varied_wer_grid(&env, &pulses, TRIALS, 2018, jobs).0)
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
    let drive = Current::from_micro_amps(DRIVE_MICRO_AMPS);
    let pulses: Vec<Time> = PULSES_NS
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
    // Empirical failure counts at the first four pulses, fanned out
    // over a sweep pool. Counter-based per-point seeding makes the
    // counts identical for every --jobs value.
    println!("MONTE-CARLO WER CROSS-CHECK ({TRIALS} stochastic writes per pulse)");
    for estimate in wer_cross_check(&nominal, nvff_bench::jobs_from_args())? {
        let analytic = wer::write_error_rate(&model, drive, estimate.pulse);
        println!(
            "  pulse {:>6}: empirical {:>9.2e} ({:>4} failures)   analytic {:>9.2e}",
            estimate.pulse.to_string(),
            estimate.wer(),
            estimate.failures,
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Each of the cross-check's four counts has a 99 % Wilson interval
    /// that contains the closed-form WER at its pulse: the count passes
    /// a two-sided score test against the closed form at the 1 % level.
    #[test]
    fn cross_check_counts_agree_with_the_closed_form() {
        let nominal = MtjParams::date2018();
        let model = SwitchingModel::new(&nominal);
        let estimates = wer_cross_check(&nominal, 1).expect("zero σ is valid");
        // At 2,000 writes the intervals are too wide to see a 3 % drive
        // error or the default variation, so the counts are pinned too.
        let failures: Vec<usize> = estimates.iter().map(|e| e.failures).collect();
        assert_eq!(failures, [893, 605, 310, 70]);
        for estimate in estimates {
            assert_eq!(estimate.trials, TRIALS);
            let analytic = wer::write_error_rate(&model, estimate.current, estimate.pulse);
            let ci = estimate.confidence_interval(0.99);
            assert!(
                ci.contains(analytic),
                "pulse {}: {} failures, 99 % interval [{}, {}] misses {analytic}",
                estimate.pulse,
                estimate.failures,
                ci.lo,
                ci.hi
            );
        }
    }
}
