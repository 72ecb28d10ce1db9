//! The system-level evaluation (Table III): NV area and read energy per
//! benchmark, with and without 2-bit merging.

use core::fmt;
use std::cell::RefCell;

use merge::{MergeOptions, MergePlan, Strategy};
use netlist::{benchmarks, BenchmarkSpec, CellLibrary, Netlist};
use place::placer::{self, PlaceBuffers, PlacedDesign, PlacerOptions};
use units::{Area, Energy};

use crate::paper;

/// Per-component costs that drive the Table III arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemCosts {
    /// Area of one 1-bit NV component.
    pub area_1bit: Area,
    /// Area of one 2-bit NV component.
    pub area_2bit: Area,
    /// Restore (read) energy of one 1-bit component.
    pub energy_1bit: Energy,
    /// Restore energy of one 2-bit component (both bits).
    pub energy_2bit: Energy,
}

impl SystemCosts {
    /// The paper's per-cell constants (Table II typical column) —
    /// replaying Table III with these reproduces it exactly.
    #[must_use]
    pub fn paper() -> Self {
        let c = paper::per_cell_constants();
        Self {
            area_1bit: c.area_1bit,
            area_2bit: c.area_2bit,
            energy_1bit: c.energy_1bit,
            energy_2bit: c.energy_2bit,
        }
    }

    /// Costs measured by this repository's own substrate: layout areas
    /// from the procedural generator and typical-corner read energies
    /// from the circuit simulation.
    ///
    /// # Errors
    ///
    /// Propagates [`cells::CellError`] from the characterization runs.
    pub fn measured() -> Result<Self, cells::CellError> {
        let _span = telemetry::span("nvff.costs_measured");
        let rules = layout::DesignRules::n40();
        let config = cells::LatchConfig::default();
        let std_metrics = cells::metrics::characterize_standard_pair(&config)?;
        let prop_metrics = cells::metrics::characterize_proposed(&config)?;
        Ok(Self {
            area_1bit: layout::cells::standard_1bit_layout(&rules).area(),
            area_2bit: layout::cells::proposed_2bit_layout(&rules).area(),
            energy_1bit: std_metrics.read_energy * 0.5,
            energy_2bit: prop_metrics.read_energy,
        })
    }
}

/// How a benchmark row is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvaluationMode {
    /// Use the paper's published merge counts (verifies the arithmetic).
    Replay,
    /// Run the full synthesize → place → merge flow, with the
    /// combinational cloud capped at the given gate count
    /// (`usize::MAX` = full size).
    Measured {
        /// Cap on synthesized combinational gates.
        max_gates: usize,
    },
}

/// One Table III row.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkResult {
    /// Benchmark name.
    pub name: String,
    /// Total flip-flops.
    pub(crate) total_ffs: usize,
    /// 2-bit merges found (or replayed).
    pub merged_pairs: usize,
    /// NV area with only 1-bit components.
    pub baseline_area: Area,
    /// NV restore energy with only 1-bit components.
    pub baseline_energy: Energy,
    /// NV area after merging.
    pub merged_area: Area,
    /// NV restore energy after merging.
    pub merged_energy: Energy,
}

impl BenchmarkResult {
    /// Area improvement fraction.
    #[must_use]
    pub fn area_improvement(&self) -> f64 {
        1.0 - self.merged_area / self.baseline_area
    }

    /// Energy improvement fraction.
    #[must_use]
    pub fn energy_improvement(&self) -> f64 {
        1.0 - self.merged_energy / self.baseline_energy
    }

    /// Fraction of flip-flops covered by 2-bit components.
    #[must_use]
    pub fn merge_fraction(&self) -> f64 {
        2.0 * self.merged_pairs as f64 / self.total_ffs as f64
    }
}

impl fmt::Display for BenchmarkResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<8} ffs {:>5} pairs {:>5} | area {:>10.3} → {:>10.3} µm² ({:>5.2} %) | \
             energy {:>10.3} → {:>10.3} fJ ({:>5.2} %)",
            self.name,
            self.total_ffs,
            self.merged_pairs,
            self.baseline_area.square_micro_meters(),
            self.merged_area.square_micro_meters(),
            self.area_improvement() * 100.0,
            self.baseline_energy.femto_joules(),
            self.merged_energy.femto_joules(),
            self.energy_improvement() * 100.0,
        )
    }
}

/// Computes one row from a flip-flop count and a merge count.
#[must_use]
pub fn roll_up(
    name: &str,
    total_ffs: usize,
    merged_pairs: usize,
    costs: &SystemCosts,
) -> BenchmarkResult {
    let singles = total_ffs - 2 * merged_pairs;
    BenchmarkResult {
        name: name.to_owned(),
        total_ffs,
        merged_pairs,
        baseline_area: costs.area_1bit * total_ffs as f64,
        baseline_energy: costs.energy_1bit * total_ffs as f64,
        merged_area: costs.area_2bit * merged_pairs as f64 + costs.area_1bit * singles as f64,
        merged_energy: costs.energy_2bit * merged_pairs as f64 + costs.energy_1bit * singles as f64,
    }
}

/// Replays a benchmark row with the paper's published merge count.
#[must_use]
pub fn evaluate_replay(spec: BenchmarkSpec, costs: &SystemCosts) -> BenchmarkResult {
    roll_up(spec.name, spec.flip_flops, spec.paper_merged_pairs, costs)
}

/// The measured flow's working set, kept per thread from one design to
/// the next: refilling these buffers instead of freeing them keeps the
/// memory of the largest design mapped, so later designs fault no
/// pages in.
#[derive(Default)]
struct FlowBuffers {
    netlist: Netlist,
    place: PlaceBuffers,
    placed: PlacedDesign,
    plan: MergePlan,
}

thread_local! {
    static FLOW: RefCell<FlowBuffers> = RefCell::new(FlowBuffers::default());
}

/// Runs the full measured flow for one benchmark: synthesize the
/// synthetic netlist, place it, find neighbour flip-flops, roll up.
/// Each layer runs in its own telemetry span (`netlist.generate`,
/// `place.place`, `merge.plan`) under `nvff.benchmark`, on the calling
/// thread's flow buffers. No name is built: the flow reads only
/// counts and positions.
#[must_use]
pub fn evaluate_measured(
    spec: BenchmarkSpec,
    costs: &SystemCosts,
    max_gates: usize,
) -> BenchmarkResult {
    let _span = telemetry::span("nvff.benchmark");
    let options = MergeOptions {
        threshold: layout::cells::merge_threshold(&layout::DesignRules::n40()),
        strategy: Strategy::GreedyClosest,
    };
    let merged_pairs = FLOW.with_borrow_mut(|flow| {
        {
            let _span = telemetry::span("netlist.generate");
            benchmarks::generate_scaled_into(spec, max_gates, &mut flow.netlist);
        }
        {
            let _span = telemetry::span("place.place");
            placer::place_into(
                &flow.netlist,
                &CellLibrary::n40(),
                &PlacerOptions::default(),
                &mut flow.place,
                &mut flow.placed,
            );
        }
        let _span = telemetry::span("merge.plan");
        merge::plan_into(&flow.placed, &options, &mut flow.plan);
        flow.plan.merged_pairs()
    });
    roll_up(spec.name, spec.flip_flops, merged_pairs, costs)
}

/// Evaluates all 13 benchmarks.
#[must_use]
pub fn table3(costs: &SystemCosts, mode: EvaluationMode) -> Vec<BenchmarkResult> {
    let _span = telemetry::span("nvff.table3");
    benchmarks::Benchmark::ALL
        .iter()
        .map(|&spec| match mode {
            EvaluationMode::Replay => evaluate_replay(spec, costs),
            EvaluationMode::Measured { max_gates } => evaluate_measured(spec, costs, max_gates),
        })
        .collect()
}

/// Mean area and energy improvements over a row set (the paper's "26 %
/// and 14 % in average" headline).
#[must_use]
pub fn average_improvements(rows: &[BenchmarkResult]) -> (f64, f64) {
    if rows.is_empty() {
        return (0.0, 0.0);
    }
    let n = rows.len() as f64;
    (
        rows.iter()
            .map(BenchmarkResult::area_improvement)
            .sum::<f64>()
            / n,
        rows.iter()
            .map(BenchmarkResult::energy_improvement)
            .sum::<f64>()
            / n,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_reproduces_every_table3_row() {
        let costs = SystemCosts::paper();
        for published in paper::table3() {
            let spec = benchmarks::by_name(published.name).expect("spec");
            let row = evaluate_replay(spec, &costs);
            assert!(
                (row.baseline_area.square_micro_meters() - published.baseline_area_um2).abs()
                    < 0.02,
                "{}: baseline area",
                published.name
            );
            assert!(
                (row.merged_area.square_micro_meters() - published.merged_area_um2).abs() < 0.05,
                "{}: merged area {} vs {}",
                published.name,
                row.merged_area.square_micro_meters(),
                published.merged_area_um2
            );
            assert!(
                (row.merged_energy.femto_joules() - published.merged_energy_fj).abs() < 0.05,
                "{}: merged energy",
                published.name
            );
            assert!(
                (row.area_improvement() - published.area_improvement).abs() < 0.002,
                "{}: area improvement",
                published.name
            );
            assert!(
                (row.energy_improvement() - published.energy_improvement).abs() < 0.002,
                "{}: energy improvement",
                published.name
            );
        }
    }

    #[test]
    fn replay_averages_match_the_abstract() {
        let rows = table3(&SystemCosts::paper(), EvaluationMode::Replay);
        let (area, energy) = average_improvements(&rows);
        assert!((area - 0.26).abs() < 0.01, "area avg = {area}");
        assert!((energy - 0.14).abs() < 0.01, "energy avg = {energy}");
    }

    #[test]
    fn measured_flow_finds_merges_on_a_small_benchmark() {
        let spec = benchmarks::by_name("s344").expect("spec");
        let row = evaluate_measured(spec, &SystemCosts::paper(), usize::MAX);
        assert_eq!(row.total_ffs, 15);
        assert!(row.merged_pairs >= 2, "pairs = {}", row.merged_pairs);
        assert!(row.merged_pairs <= 7);
        assert!(row.area_improvement() > 0.0);
        assert!(row.energy_improvement() > 0.0);
    }

    #[test]
    fn improvement_grows_with_merge_count() {
        let costs = SystemCosts::paper();
        let few = roll_up("x", 100, 10, &costs);
        let many = roll_up("x", 100, 40, &costs);
        assert!(many.area_improvement() > few.area_improvement());
        assert!(many.energy_improvement() > few.energy_improvement());
        assert!((many.merge_fraction() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn zero_merges_is_the_baseline() {
        let row = roll_up("x", 50, 0, &SystemCosts::paper());
        assert_eq!(row.baseline_area, row.merged_area);
        assert_eq!(row.area_improvement(), 0.0);
    }

    #[test]
    fn display_is_informative() {
        let row = roll_up("s344", 15, 5, &SystemCosts::paper());
        let text = row.to_string();
        assert!(text.contains("s344"));
        assert!(text.contains("32.565"));
    }

    #[test]
    fn average_improvements_of_empty_is_zero() {
        assert_eq!(average_improvements(&[]), (0.0, 0.0));
    }
}
