//! Integration of the extension modules (beyond the paper's headline
//! experiments): thermal MTJ behaviour inside the latch, read-disturb
//! freedom of the restore and the store pulse's margins.

use cells::{LatchConfig, ProposedLatch};
use mtj::ThermalModel;
use units::Temperature;

/// The proposed latch still stores and restores correctly with the MTJ
/// parameters re-evaluated at 85 °C (industrial hot corner) — reduced
/// TMR and critical current, but the margins hold.
#[test]
fn latch_works_at_85_celsius() {
    let hot_mtj = ThermalModel::default()
        .at_temperature(&mtj::MtjParams::date2018(), Temperature::from_celsius(85.0));
    let config = LatchConfig {
        mtj: hot_mtj,
        ..LatchConfig::default()
    };
    let latch = ProposedLatch::new(config);

    let store = latch
        .simulate_store([true, false], [false, true])
        .expect("hot store");
    assert_eq!(store.stored, [true, false]);
    // Hot devices switch *faster* (lower Ic).
    assert!(store.latency.nano_seconds() < 2.5);

    let restore = latch.simulate_restore([true, false]).expect("hot restore");
    assert_eq!(restore.bits, [true, false]);
}

/// Restores are read-disturb-free: the small sense currents must never
/// reverse an MTJ (the transient engine records every reversal, so an
/// empty event list is a strong statement).
#[test]
fn restores_never_disturb_the_stored_state() {
    let latch = ProposedLatch::new(LatchConfig::default());
    for pattern in [[true, false], [false, true]] {
        let (result, _) = latch.restore_traces(pattern).expect("traces");
        assert!(
            result.mtj_events().is_empty(),
            "read disturb during restore of {pattern:?}: {:?}",
            result.mtj_events()
        );
    }
}

/// The default 5 ns store pulse leaves a deterministic-model margin of
/// more than 2× the worst-corner switching time, and the WER model
/// quantifies the stochastic margin.
#[test]
fn store_pulse_margins() {
    use cells::Corner;
    use mtj::{wer, SwitchingModel};

    // Deterministic: worst-corner store completes inside the pulse.
    let config = LatchConfig::default().at_corner(Corner::slow());
    let latch = ProposedLatch::new(config.clone());
    let out = latch
        .simulate_store([true, false], [false, true])
        .expect("worst-corner store");
    assert!(out.latency < config.timing.write_pulse);

    // Stochastic: the analytic WER at the nominal drive and pulse.
    let nominal = mtj::MtjParams::date2018();
    let model = SwitchingModel::new(&nominal);
    // The actual series-path drive is ~63 µA (two MTJs + driver Ron).
    let drive = units::Current::from_micro_amps(63.0);
    let at_pulse = wer::write_error_rate(&model, drive, config.timing.write_pulse);
    let at_double = wer::write_error_rate(&model, drive, config.timing.write_pulse * 2.0);
    assert!(at_double < at_pulse);
    // And the pulse needed for a 1e-9 WER is still microseconds-free.
    let safe = wer::pulse_for_wer(&model, drive, 1e-9);
    assert!(safe.nano_seconds() < 100.0, "{safe}");
}
