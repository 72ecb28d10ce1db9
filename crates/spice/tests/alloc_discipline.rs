//! Allocation discipline of the session engine.
//!
//! The workspace-reuse rearchitecture promises that a warmed-up
//! [`SimulationSession`] performs no per-Newton-iteration and no
//! per-time-step allocation: the MNA matrix, RHS, iterate vectors, LU
//! scratch and capacitor histories are all reused, and the old per-step
//! `caps.clone()` is gone. This test pins that down with a counting
//! global allocator: the allocations of a warmed-up run must be bounded
//! by result-recording (which grows amortized), not by solver work.
//! The allocator counts only the allocations of the thread that runs
//! the measured call, inside the measured window, so the test harness's
//! own threads cannot land in a count.
//!
//! The spice *library* forbids `unsafe`; this integration test is a
//! separate crate, and the allocator shim below is the one place unsafe
//! is warranted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use spice::{Circuit, SimulationSession, SourceWaveform, Technology, TransientOptions};
use units::{Capacitance, Length, Time, Voltage};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the measuring thread for the measured window only. A
    /// const-initialised `Cell` needs no lazy set-up and no destructor,
    /// so reading it inside the allocator never allocates.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if MEASURING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and counts the allocations it makes on this thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    MEASURING.set(true);
    f();
    MEASURING.set(false);
    ALLOCS.load(Ordering::Relaxed) - before
}

/// A nonlinear fixture with MOSFET junction capacitors: the circuit the
/// old engine cloned its flattened capacitor list for on every step.
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

// One test function only: the counter is shared, so two tests measuring
// at once would add into each other's windows.
#[test]
fn warmed_up_session_does_not_allocate_per_iteration_or_per_step() {
    let mut session = SimulationSession::new(inverter());
    let stop = Time::from_nano_seconds(2.0);
    let step = Time::from_pico_seconds(10.0);

    // Warm up: first run sizes every buffer (including the recorder's
    // initial vectors) and settles lazy one-time allocations. The first
    // telemetry::enabled() call inside the solver also applies
    // NVFF_TRACE here (std::env::var allocates), so the measured
    // sections below see only the steady-state atomic-load path.
    session.transient(stop, step).expect("warm-up transient");
    session.op().expect("warm-up op");
    assert!(
        !telemetry::enabled(),
        "this test must run with tracing disabled (unset NVFF_TRACE)"
    );

    // Telemetry disabled path: spans, counters, histograms,
    // stopwatches and flight-recorder hooks must be pure no-ops on the
    // heap — the observability layer is compiled into the solver hot
    // loop unconditionally, so a single stray allocation here would tax
    // every Newton iteration. The first flight::active() call reads
    // NVFF_POSTMORTEM (std::env::var allocates), so warm it up first
    // like telemetry::enabled() above.
    assert!(
        !telemetry::flight::active(),
        "this test must run without a post-mortem directory (unset NVFF_POSTMORTEM)"
    );
    let telemetry_allocs = count_allocs(|| {
        for _ in 0..1000 {
            let _span = telemetry::span("alloc_test.span");
            telemetry::counter("alloc_test.counter", 1);
            telemetry::histogram("alloc_test.hist", 1e-12);
            let _watch = telemetry::stopwatch("alloc_test.watch");
            telemetry::flight::record(telemetry::flight::EventKind::NewtonDelta, 1e-9, 1e-6);
        }
    });
    assert_eq!(
        telemetry_allocs, 0,
        "disabled telemetry hot path allocated {telemetry_allocs} times in 5000 calls"
    );

    // Operating point: the gmin ladder performs dozens of Newton
    // iterations. The only allocations allowed are the returned
    // OpResult's vectors and branch-name strings — a handful, far fewer
    // than one per iteration.
    session.reset_stats();
    let op_allocs = count_allocs(|| {
        session.op().expect("measured op");
    });
    let op_stats = session.stats();
    assert!(
        op_stats.newton_iterations >= 20,
        "expected a real gmin ladder, got {} iterations",
        op_stats.newton_iterations
    );
    assert!(
        op_allocs < op_stats.newton_iterations,
        "op allocated {op_allocs} times over {} Newton iterations — \
         the solver core must not allocate per iteration",
        op_stats.newton_iterations,
    );
    assert!(
        op_allocs <= 16,
        "op allocated {op_allocs} times; only the OpResult assembly may allocate"
    );

    // Transient, fixed grid: result recording grows amortized (doubling
    // vectors per trace), so the budget is logarithmic in samples per
    // trace — far below one allocation per accepted step, and
    // incompatible with any per-step capacitor-list clone.
    session.reset_stats();
    let transient_allocs = count_allocs(|| {
        session
            .transient_with_options(stop, step, TransientOptions::fixed())
            .expect("measured fixed transient");
    });
    let tr_stats = session.stats();
    assert!(
        tr_stats.accepted_steps >= 150,
        "expected a real transient, got {} steps",
        tr_stats.accepted_steps
    );
    assert!(
        transient_allocs < tr_stats.accepted_steps / 2,
        "transient allocated {transient_allocs} times over {} accepted steps \
         ({} Newton iterations) — per-step cloning or per-iteration \
         allocation has crept back in",
        tr_stats.accepted_steps,
        tr_stats.newton_iterations,
    );

    // Transient, adaptive LTE control: the predictor history
    // (`x_prev`/`x_prev2`/`x_prev3`) lives in preallocated workspace
    // buffers rotated by pointer swap, so the controller must not add a
    // single per-step or per-rejection allocation over the fixed-grid
    // engine.
    session.reset_stats();
    let adaptive_allocs = count_allocs(|| {
        session
            .transient_with_options(stop, step, TransientOptions::adaptive())
            .expect("measured adaptive transient");
    });
    let ad_stats = session.stats();
    assert!(
        ad_stats.accepted_steps >= 40,
        "expected a real adaptive transient, got {} steps",
        ad_stats.accepted_steps
    );
    // Relative bound: the run shares the recorder's fixed base cost
    // (fresh trace vectors per analysis) with the fixed-grid run above,
    // and records *fewer* samples — so any excess over the fixed run's
    // count is per-step controller allocation.
    assert!(
        adaptive_allocs <= transient_allocs,
        "adaptive transient allocated {adaptive_allocs} times vs {transient_allocs} \
         for the fixed grid over {} accepted steps ({} LTE rejections) — the \
         step controller must run in the preallocated history buffers",
        ad_stats.accepted_steps,
        ad_stats.lte_rejections,
    );
}
