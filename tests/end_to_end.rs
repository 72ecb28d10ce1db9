//! Cross-crate integration: the full vertical slice from a circuit-level
//! store, through non-volatile retention, to a correct circuit-level
//! restore — and the full horizontal system flow from netlist to
//! Table III row.

use cells::{LatchConfig, ProposedLatch, StandardLatch};
use merge::MergeOptions;
use netlist::{benchmarks, CellLibrary};
use nvff::system::{self, SystemCosts};
use place::def;
use place::placer::{self, PlacerOptions};

/// Store and restore are inverse operations at the circuit level: what
/// the store phase writes into the MTJs, a fresh restore reads back —
/// the non-volatility contract across a simulated power cycle.
#[test]
fn store_then_restore_round_trips_through_the_mtjs() {
    let latch = ProposedLatch::new(LatchConfig::default());
    for data in [[false, false], [false, true], [true, false], [true, true]] {
        // Store against the worst-case previous content.
        let initial = [!data[0], !data[1]];
        let store = latch.simulate_store(data, initial).expect("store");
        assert_eq!(store.stored, data);

        // The power-down interval: the CMOS state is gone; only the MTJ
        // states survive. A fresh restore simulation preconditions its
        // devices with exactly those states.
        let restore = latch.simulate_restore(data).expect("restore");
        assert_eq!(
            restore.bits, data,
            "pattern {data:?} lost across power cycle"
        );
    }
}

#[test]
fn standard_latch_round_trips_too() {
    let latch = StandardLatch::new(LatchConfig::default());
    for bit in [false, true] {
        let store = latch.simulate_store([bit], [!bit]).expect("store");
        assert_eq!(store.stored, [bit]);
        let restore = latch.simulate_restore([bit]).expect("restore");
        assert_eq!(restore.bits, [bit]);
    }
}

/// The full system flow — synthesize, place, write DEF, parse DEF, merge,
/// roll up — agrees with the in-memory path at every step.
#[test]
fn def_and_in_memory_flows_agree() {
    let spec = benchmarks::by_name("s1423").expect("benchmark");
    let netlist = benchmarks::generate(spec);
    let lib = CellLibrary::n40();
    let placed = placer::place(&netlist, &lib, &PlacerOptions::default());

    let plan_memory = merge::plan(&placed, &MergeOptions::default());
    let def_text = def::write(&placed);
    let parsed = def::parse(&def_text).expect("parse DEF");
    let plan_def = merge::plan_from_def(&parsed, &MergeOptions::default());

    // DEF quantizes coordinates to 1 nm database units, so a pair whose
    // separation sits exactly on the threshold may flip sides — allow a
    // one-pair discrepancy, nothing more.
    let diff = plan_memory.merged_pairs().abs_diff(plan_def.merged_pairs());
    assert!(
        diff <= 1,
        "in-memory {} vs DEF {}",
        plan_memory.merged_pairs(),
        plan_def.merged_pairs()
    );
    assert_eq!(plan_memory.total_flip_flops(), plan_def.total_flip_flops());
    assert_eq!(plan_def.total_flip_flops(), spec.flip_flops);
}

/// The merged design conserves NV storage: every original flip-flop bit
/// is backed exactly once after substitution.
#[test]
fn substitution_conserves_storage() {
    let spec = benchmarks::by_name("s838").expect("benchmark");
    let netlist = benchmarks::generate(spec);
    let lib = CellLibrary::n40();
    let placed = placer::place(&netlist, &lib, &PlacerOptions::default());
    let plan = merge::plan(&placed, &MergeOptions::default());
    let merged = merge::transform::apply(&placed, &plan);
    assert_eq!(merged.nv_bits(), spec.flip_flops);
    assert_eq!(
        merged.merged_pairs() * 2 + merged.single_flip_flops(),
        spec.flip_flops
    );
}

/// The measured system flow always improves on the all-1-bit baseline
/// whenever at least one pair merges, and never degrades it.
#[test]
fn measured_rows_never_degrade_the_baseline() {
    let costs = SystemCosts::paper();
    for spec in &benchmarks::Benchmark::ALL[..6] {
        let row = system::evaluate_measured(*spec, &costs, 10_000);
        assert!(row.merged_area <= row.baseline_area, "{}", spec.name);
        assert!(row.merged_energy <= row.baseline_energy, "{}", spec.name);
        if row.merged_pairs > 0 {
            assert!(row.area_improvement() > 0.0, "{}", spec.name);
            assert!(row.energy_improvement() > 0.0, "{}", spec.name);
        }
    }
}

/// Behavioral and circuit models agree on the restore outcome.
#[test]
fn behavioral_model_matches_circuit_restore() {
    use nvff::MultiBitNvFlipFlop;
    let latch = ProposedLatch::new(LatchConfig::default());
    for data in [[true, true], [false, true]] {
        // Behavioral path.
        let mut pair = MultiBitNvFlipFlop::new();
        pair.capture(0, data[0]).expect("capture");
        pair.capture(1, data[1]).expect("capture");
        pair.power_down().expect("pd");
        pair.power_up().expect("pu");
        let behavioral = [pair.q(0).expect("q0"), pair.q(1).expect("q1")];
        // Circuit path.
        let circuit = latch.simulate_restore(data).expect("restore").bits;
        assert_eq!(circuit, behavioral);
    }
}
