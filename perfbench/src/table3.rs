//! `table3_measured`: the paper's Table III by the measured flow —
//! synthesize, place and merge all 13 benchmarks, then roll up.

use merge::{MergeOptions, Strategy};
use netlist::{Benchmark, CellLibrary};
use nvff::system::{self, BenchmarkResult, SystemCosts};
use place::placer::{self, PlacerOptions};

use crate::harness::{Metric, OpWorkload};
use crate::stats::median;
use crate::trace::Tracer;

/// Cap on each synthesized combinational cloud.
pub const MAX_GATES: usize = 40_000;
/// Merged pairs over all 13 designs on this flow.
const EXPECTED_PAIRS: usize = 7103;
/// Mean area and energy improvements on this flow, bit for bit.
const EXPECTED_AVERAGES: (f64, f64) = (0.258_813_429_988_388_97, 0.141_558_090_269_278_96);

/// One op's rows and their averages.
pub struct Table3Out {
    rows: Vec<BenchmarkResult>,
    averages: (f64, f64),
}

/// Checks the merged-pair total and the averages.
pub fn check(out: &Table3Out) -> Result<(), String> {
    if out.rows.len() != Benchmark::ALL.len() {
        return Err(format!("{} rows", out.rows.len()));
    }
    let pairs: usize = out.rows.iter().map(|r| r.merged_pairs).sum();
    if pairs != EXPECTED_PAIRS {
        return Err(format!("{pairs} merged pairs, expected {EXPECTED_PAIRS}"));
    }
    if out.averages != EXPECTED_AVERAGES {
        return Err(format!(
            "averages {:?}, expected {EXPECTED_AVERAGES:?}",
            out.averages
        ));
    }
    Ok(())
}

/// Mean absolute relative deviation of the per-design area and energy
/// improvements from the published Table III.
pub fn paper_err(rows: &[BenchmarkResult]) -> f64 {
    let published = nvff::paper::table3();
    let mut sum = 0.0;
    let mut n = 0.0;
    for row in rows {
        let p = published
            .iter()
            .find(|p| p.name == row.name)
            .expect("every benchmark is in the paper's table");
        sum += (row.area_improvement() / p.area_improvement - 1.0).abs();
        sum += (row.energy_improvement() / p.energy_improvement - 1.0).abs();
        n += 2.0;
    }
    sum / n
}

/// The workload; the generator is seeded by design name, so the seed
/// changes nothing.
pub struct Table3 {
    costs: SystemCosts,
    library: CellLibrary,
    merge: MergeOptions,
    paper_err: f64,
    /// Netlist instances, placed cells, merged pairs and flip-flops of
    /// the last traced op.
    counts: [f64; 4],
    /// Merge plans of the last traced op, per design.
    plans: Vec<merge::MergePlan>,
    candidates: f64,
}

impl Table3 {
    /// Builds the cost model, cell library and merge options.
    #[must_use]
    pub fn new(_seed: u64) -> Self {
        Self {
            costs: SystemCosts::paper(),
            library: CellLibrary::n40(),
            merge: MergeOptions {
                threshold: layout::cells::merge_threshold(&layout::DesignRules::n40()),
                strategy: Strategy::GreedyClosest,
            },
            paper_err: f64::NAN,
            counts: [0.0; 4],
            plans: Vec::new(),
            candidates: 0.0,
        }
    }
}

impl OpWorkload for Table3 {
    type Out = Table3Out;

    fn run(&mut self, _index: u64) -> Table3Out {
        let rows: Vec<BenchmarkResult> = Benchmark::ALL
            .iter()
            .map(|&spec| system::evaluate_measured(spec, &self.costs, MAX_GATES))
            .collect();
        let averages = system::average_improvements(&rows);
        Table3Out { rows, averages }
    }

    /// `evaluate_measured` split into its three layer calls. Per-op
    /// counts are taken here too (outside the spans).
    fn run_traced(&mut self, _index: u64, tr: &mut Tracer) -> Table3Out {
        let mut counts = [0.0; 4];
        let mut rows = Vec::with_capacity(Benchmark::ALL.len());
        for &spec in &Benchmark::ALL {
            let netlist = tr.span("netlist.generate", |_| {
                netlist::benchmarks::generate_scaled(spec, MAX_GATES)
            });
            let placed = tr.span("place.place", |_| {
                placer::place(&netlist, &self.library, &PlacerOptions::default())
            });
            let plan = tr.span("merge.plan", |_| merge::plan(&placed, &self.merge));
            rows.push(tr.span("nvff.roll_up", |_| {
                system::roll_up(spec.name, spec.flip_flops, plan.merged_pairs(), &self.costs)
            }));
            counts[0] += netlist.instance_count() as f64;
            counts[1] += placed.cells().len() as f64;
            counts[2] += plan.merged_pairs() as f64;
            counts[3] += plan.total_flip_flops() as f64;
            // Freeing a layer's structures is that layer's time too.
            tr.span("place.drop", |_| drop(placed));
            tr.span("netlist.drop", |_| drop(netlist));
            self.plans.push(plan);
        }
        self.counts = counts;
        let averages = tr.span("nvff.average_improvements", |_| {
            system::average_improvements(&rows)
        });
        Table3Out { rows, averages }
    }

    fn check(&mut self, out: &Table3Out) -> Result<(), String> {
        check(out)?;
        self.paper_err = paper_err(&out.rows);
        Ok(())
    }

    /// Every flip-flop pair within the merge threshold: the candidate
    /// set the greedy pairing chooses from, counted outside the op.
    fn probe(&mut self, tr: &mut Tracer) {
        let threshold = self.merge.threshold;
        let plans = std::mem::take(&mut self.plans);
        self.candidates = tr.span("merge.candidates", |_| {
            plans
                .iter()
                .map(|p| merge::pairing::candidates(p.points(), threshold).len())
                .sum::<usize>() as f64
        });
    }

    fn detail(&self) -> Vec<Metric> {
        vec![Metric::new("paper_err", self.paper_err, "frac")]
    }

    fn per_layer(&self, tr: &Tracer) -> Vec<Metric> {
        // Per-design spans summed per op: the layer's share of one op.
        let per_op = |name: &str| {
            let designs = Benchmark::ALL.len();
            let d = tr.durations(name);
            let sums: Vec<f64> = d.chunks(designs).map(|c| c.iter().sum()).collect();
            median(&sums)
        };
        vec![
            Metric::new("netlist.generate_s", per_op("netlist.generate"), "s"),
            Metric::new("place.place_s", per_op("place.place"), "s"),
            Metric::new("merge.plan_s", per_op("merge.plan"), "s"),
            Metric::new("netlist.gates", self.counts[0], "count"),
            Metric::new("place.cells", self.counts[1], "count"),
            Metric::new("merge.candidates", self.candidates, "count"),
            Metric::new("merge.merged_pairs", self.counts[2], "count"),
            Metric::new(
                "merge.pair_frac",
                2.0 * self.counts[2] / self.counts[3],
                "frac",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_check_passes_on_this_build_and_fires_on_corruption() {
        let mut w = Table3::new(0);
        let out = w.run(0);
        assert_eq!(check(&out), Ok(()));
        let mut tr = Tracer::new(std::time::Instant::now());
        let (traced, _) = tr.op(0, |tr| w.run_traced(0, tr));
        assert_eq!(traced.rows, out.rows);
        assert_eq!(w.counts[2], EXPECTED_PAIRS as f64);
        w.probe(&mut tr);
        assert!(w.candidates >= w.counts[2]);

        let mut bad = w.run(0);
        bad.rows[3].merged_pairs -= 1;
        assert!(check(&bad).expect_err("pairs").contains("merged pairs"));
        let mut bad = w.run(0);
        bad.averages.1 += 1e-12;
        assert!(check(&bad).expect_err("averages").contains("averages"));
    }
}
