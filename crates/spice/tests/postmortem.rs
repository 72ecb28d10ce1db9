//! End-to-end flight-recorder post-mortem: a forced non-convergent
//! transient must leave a parseable JSON dump holding the last ≥64
//! solver events, the open span path and the session's work counters.

use spice::{Circuit, SimulationSession, SourceWaveform, Technology, TransientOptions};
use telemetry::JsonValue;
use units::{Capacitance, Length, Time, Voltage};

/// The MOSFET inverter fixture: nonlinear enough that Newton needs more
/// than one iteration per step around the input edge, so capping the
/// iteration budget at 1 with no step halving is guaranteed to surface
/// `NonConvergence`.
fn inverter() -> Circuit {
    let tech = Technology::tsmc40lp();
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_voltage_source(
        "VDD",
        vdd,
        Circuit::GROUND,
        SourceWaveform::dc(Voltage::from_volts(1.1)),
    )
    .expect("VDD");
    ckt.add_voltage_source(
        "VIN",
        vin,
        Circuit::GROUND,
        SourceWaveform::Pulse {
            v0: 0.0,
            v1: 1.1,
            delay: 100e-12,
            rise: 50e-12,
            fall: 50e-12,
            width: 1e-9,
        },
    )
    .expect("VIN");
    ckt.add_pmos("MP", out, vin, vdd, &tech, Length::from_nano_meters(400.0))
        .expect("MP");
    ckt.add_nmos(
        "MN",
        out,
        vin,
        Circuit::GROUND,
        &tech,
        Length::from_nano_meters(200.0),
    )
    .expect("MN");
    ckt.add_capacitor(
        "CL",
        out,
        Circuit::GROUND,
        Capacitance::from_femto_farads(5.0),
    )
    .expect("CL");
    ckt
}

#[test]
fn forced_nonconvergence_dumps_a_postmortem() {
    let dir = std::env::temp_dir().join(format!("nvff-postmortem-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    telemetry::flight::set_postmortem_dir(Some(dir.clone()));
    telemetry::init(telemetry::TraceMode::Collect);
    let _run = telemetry::span("postmortem_test");

    let mut session = SimulationSession::new(inverter()).with_label("inverter_corner");
    assert_eq!(session.label(), "inverter_corner");
    let stop = Time::from_nano_seconds(2.0);
    let step = Time::from_pico_seconds(10.0);

    // A healthy run first: fills the flight ring with the recent-history
    // window (hundreds of Newton deltas and step accepts) a real
    // failure would have behind it.
    session.transient(stop, step).expect("healthy transient");
    assert!(
        telemetry::flight::events_recorded() >= 64,
        "warm-up should have filled the ring, got {}",
        telemetry::flight::events_recorded()
    );

    // Then the forced corner: one Newton iteration, no halving.
    let strangled = TransientOptions {
        max_newton_iterations: 1,
        max_step_halvings: 0,
        ..TransientOptions::fixed()
    };
    let counters_before = postmortem_counter();
    let err = session
        .transient_with_options(stop, step, strangled)
        .expect_err("1-iteration budget must not converge");
    let msg = err.to_string();
    assert!(msg.contains("converge"), "unexpected error: {msg}");
    assert_eq!(
        postmortem_counter(),
        counters_before + 1,
        "exactly one post-mortem per surfaced failure"
    );

    // Find and validate the dump.
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("dump dir exists")
        .filter_map(Result::ok)
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("postmortem-") && n.ends_with(".json"))
        })
        .collect();
    assert_eq!(dumps.len(), 1, "expected one dump, got {dumps:?}");
    let text = std::fs::read_to_string(dumps[0].path()).expect("dump readable");
    let doc = JsonValue::parse(&text).expect("dump parses with the telemetry parser");

    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some(telemetry::flight::POSTMORTEM_SCHEMA)
    );
    assert_eq!(
        doc.get("circuit").and_then(JsonValue::as_str),
        Some("inverter_corner")
    );
    assert_eq!(
        doc.get("analysis").and_then(JsonValue::as_str),
        Some("tran")
    );
    assert_eq!(
        doc.get("span_path").and_then(JsonValue::as_str),
        Some("postmortem_test"),
        "the open span's path must land in the dump"
    );
    assert!(doc
        .get("error")
        .and_then(JsonValue::as_str)
        .is_some_and(|e| e.contains("converge")));

    // The recent-history window: at least 64 events, the acceptance
    // floor, ending in the non-convergence that surfaced.
    let events = doc
        .get("events")
        .and_then(JsonValue::as_array)
        .expect("events array");
    assert!(events.len() >= 64, "only {} events in dump", events.len());
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("kind").and_then(JsonValue::as_str))
        .collect();
    assert!(kinds.contains(&"newton_delta"), "{kinds:?}");
    assert_eq!(kinds.last(), Some(&"non_convergence"), "{kinds:?}");

    // Solver stats ride along, reflecting real cumulative work.
    let stats = doc.get("stats").expect("stats object");
    let newton = stats
        .get("newton_iterations")
        .and_then(JsonValue::as_i64)
        .expect("newton_iterations stat");
    assert!(newton >= 64, "implausible iteration count {newton}");
    for key in [
        "lu_factorizations",
        "accepted_steps",
        "rejected_steps",
        "step_halvings",
        "pattern_reuses",
        "symbolic_builds",
        "repivots",
        "lte_rejections",
        "source_steps",
    ] {
        assert!(stats.get(key).is_some(), "missing stat {key}");
    }

    drop(_run);
    let _ = std::fs::remove_dir_all(&dir);
    telemetry::flight::set_postmortem_dir(None);
    telemetry::init(telemetry::TraceMode::Off);
}

fn postmortem_counter() -> u64 {
    telemetry::snapshot()
        .counters
        .iter()
        .find(|(name, _)| name == "spice.postmortems")
        .map_or(0, |&(_, v)| v)
}
