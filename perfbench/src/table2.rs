//! `table2_full`: the paper's Table II, both designs over the 3×3 corner
//! grid with fresh latches and solver sessions each op.

use cells::metrics::{characterize_proposed_with, characterize_standard_pair_with};
use cells::{CellMetrics, Corner, CornerEnvelope, LatchConfig, ProposedLatch, StandardLatch};
use spice::analysis::StartCondition;
use spice::{SimulationSession, SolverStats};

use crate::harness::{Metric, OpWorkload};
use crate::trace::Tracer;

/// Per-corner metrics of both designs, in corner order.
pub struct Table2Out {
    standard: Vec<(Corner, CellMetrics)>,
    proposed: Vec<(Corner, CellMetrics)>,
}

/// Relative tolerance of the envelope check. Loose enough for a solver
/// change that keeps the adaptive-transient accuracy targets, tight
/// enough to catch a wrong answer.
pub const REL_TOL: f64 = 0.01;

/// Envelope quantities checked, in [`REFERENCE`] row order.
const QUANTITIES: [&str; 5] = [
    "read_energy_fj",
    "read_delay_ps",
    "leakage_pw",
    "write_energy_fj",
    "write_latency_ns",
];

fn quantity(m: &CellMetrics, index: usize) -> f64 {
    match index {
        0 => m.read_energy.femto_joules(),
        1 => m.read_delay.pico_seconds(),
        2 => m.leakage.pico_watts(),
        3 => m.write_energy.femto_joules(),
        _ => m.write_latency.nano_seconds(),
    }
}

/// Reference envelopes `[worst, typical, best]` of this reproduction's
/// own simulation (not the paper's published values), per design and
/// per [`QUANTITIES`] entry: `[standard pair rows..., proposed rows...]`.
const REFERENCE: [[f64; 3]; 10] = [
    [55.003030537140425, 54.150833846853274, 53.4233993618108],
    [165.01276864799215, 130.67322137519747, 104.61908523690401],
    [583.5445620822393, 167.01185954899745, 60.556566666013794],
    [421.6099493789295, 359.3552537199764, 317.50366101918723],
    [2.7041989897195435, 2.0713333403807734, 1.6451940378923495],
    [49.9874965189119, 49.04996269306982, 48.20269429073403],
    [368.28945751085655, 290.0059045039825, 231.5393584294046],
    [583.3391299277496, 160.3393064456196, 50.769991363559164],
    [440.76215097983044, 363.30922870421364, 339.3768684173445],
    [2.761058552447495, 2.040520269646672, 1.7116096735313817],
];

fn envelope(rows: &[(Corner, CellMetrics)], index: usize) -> CornerEnvelope {
    let values: Vec<(Corner, f64)> = rows.iter().map(|(c, m)| (*c, quantity(m, index))).collect();
    CornerEnvelope::from_corner_values(&values)
}

fn triple(e: CornerEnvelope) -> [f64; 3] {
    [e.worst, e.typical, e.best]
}

/// Checks one op's envelopes against [`REFERENCE`] and the Table II
/// read-path transistor counts.
pub fn check(out: &Table2Out) -> Result<(), String> {
    for (design, rows, transistors) in [
        ("standard", &out.standard, 22),
        ("proposed", &out.proposed, 16),
    ] {
        if rows.len() != 9 {
            return Err(format!("{design}: {} corners, expected 9", rows.len()));
        }
        if let Some((c, m)) = rows.iter().find(|(_, m)| m.read_transistors != transistors) {
            return Err(format!(
                "{design} at {c}: {} read transistors, expected {transistors}",
                m.read_transistors
            ));
        }
    }
    for (row, reference) in REFERENCE.iter().enumerate() {
        let (design, rows) = if row < QUANTITIES.len() {
            ("standard", &out.standard)
        } else {
            ("proposed", &out.proposed)
        };
        let name = QUANTITIES[row % QUANTITIES.len()];
        let got = triple(envelope(rows, row % QUANTITIES.len()));
        for (label, (g, r)) in ["worst", "typical", "best"]
            .iter()
            .zip(got.iter().zip(reference))
        {
            let within = (g - r).abs() <= REL_TOL * r.abs();
            if !within {
                return Err(format!(
                    "{design} {name} {label}: {g} vs reference {r} (tolerance {REL_TOL})"
                ));
            }
        }
    }
    Ok(())
}

/// Mean absolute relative deviation from the published Table II read
/// energy, read delay and leakage triples of both designs.
pub fn paper_err(out: &Table2Out) -> f64 {
    let p = nvff::paper::table2();
    let published = [
        (&out.standard, 0, p.standard_read_energy_fj),
        (&out.standard, 1, p.standard_read_delay_ps),
        (&out.standard, 2, p.standard_leakage_pw),
        (&out.proposed, 0, p.proposed_read_energy_fj),
        (&out.proposed, 1, p.proposed_read_delay_ps),
        (&out.proposed, 2, p.proposed_leakage_pw),
    ];
    let mut sum = 0.0;
    let mut n = 0.0;
    for (rows, index, t) in published {
        let got = triple(envelope(rows, index));
        for (g, r) in got.iter().zip([t.worst, t.typical, t.best]) {
            sum += (g / r - 1.0).abs();
            n += 1.0;
        }
    }
    sum / n
}

fn solver_total(out: &Table2Out) -> SolverStats {
    out.standard
        .iter()
        .chain(&out.proposed)
        .fold(SolverStats::default(), |acc, (_, m)| acc + m.solver)
}

/// One proposed-latch restore driven straight through the spice session
/// API: the spice layer timed on its own, outside any op.
pub fn spice_probe(tr: &mut Tracer) -> SolverStats {
    let config = LatchConfig::default();
    let latch = ProposedLatch::new(config.clone());
    let (circuit, controls) = latch
        .restore_circuit([true, false])
        .expect("the default restore circuit builds");
    let mut session = SimulationSession::new(circuit);
    let options = config.transient_options(StartCondition::Zero);
    let result = tr.span("spice.transient", |_| {
        session.transient_with_options(controls.total, config.time_step, options)
    });
    result
        .expect("the default restore converges")
        .solver_stats()
}

/// Per-layer spice metrics: the probe's wall time per Newton iteration
/// and the step-level ratios of `stats` (the op's own solver work).
pub fn spice_metrics(tr: &Tracer, probe: SolverStats, stats: SolverStats) -> Vec<Metric> {
    let transient_s = crate::stats::median(&tr.durations("spice.transient"));
    let steps = stats.accepted_steps.max(1) as f64;
    vec![
        Metric::new("spice.transient_s", transient_s, "s"),
        Metric::new(
            "spice.us_per_newton",
            transient_s * 1e6 / probe.newton_iterations.max(1) as f64,
            "us",
        ),
        Metric::new(
            "spice.newton_per_step",
            stats.newton_iterations as f64 / steps,
            "ratio",
        ),
        Metric::new(
            "spice.lu_per_step",
            stats.lu_factorizations as f64 / steps,
            "ratio",
        ),
        Metric::new(
            "spice.step_accept_frac",
            stats.accepted_steps as f64
                / (stats.accepted_steps + stats.rejected_steps).max(1) as f64,
            "frac",
        ),
        Metric::new(
            "spice.newton_iterations",
            stats.newton_iterations as f64,
            "count",
        ),
        Metric::new(
            "spice.lu_factorizations",
            stats.lu_factorizations as f64,
            "count",
        ),
        Metric::new("spice.accepted_steps", stats.accepted_steps as f64, "count"),
        Metric::new("spice.rejected_steps", stats.rejected_steps as f64, "count"),
    ]
}

/// The workload: the default configuration over [`Corner::all`].
pub struct Table2 {
    base: LatchConfig,
    corners: Vec<Corner>,
    paper_err: f64,
    stats: SolverStats,
    probe: SolverStats,
}

impl Table2 {
    /// Builds the inputs. The corner grid is the paper's; the seed
    /// changes nothing.
    #[must_use]
    pub fn new(_seed: u64) -> Self {
        Self {
            base: LatchConfig::default(),
            corners: Corner::all(),
            paper_err: f64::NAN,
            stats: SolverStats::default(),
            probe: SolverStats::default(),
        }
    }
}

impl OpWorkload for Table2 {
    type Out = Result<Table2Out, cells::CellError>;

    fn run(&mut self, _index: u64) -> Self::Out {
        let c = cells::LatchComparison::evaluate_with_jobs(&self.base, &self.corners, 1)?;
        Ok(Table2Out {
            standard: c.standard,
            proposed: c.proposed,
        })
    }

    fn run_traced(&mut self, _index: u64, tr: &mut Tracer) -> Self::Out {
        let mut out = Table2Out {
            standard: Vec::with_capacity(self.corners.len()),
            proposed: Vec::with_capacity(self.corners.len()),
        };
        for &corner in &self.corners {
            let (standard, proposed) = tr.span("cells.latch_new", |_| {
                let config = self.base.at_corner(corner);
                (
                    StandardLatch::new(config.clone()),
                    ProposedLatch::new(config),
                )
            });
            let s = tr.span("cells.characterize_standard", |_| {
                characterize_standard_pair_with(&standard)
            })?;
            let p = tr.span("cells.characterize_proposed", |_| {
                characterize_proposed_with(&proposed)
            })?;
            out.standard.push((corner, s));
            out.proposed.push((corner, p));
        }
        Ok(out)
    }

    fn check(&mut self, out: &Self::Out) -> Result<(), String> {
        let out = out.as_ref().map_err(ToString::to_string)?;
        check(out)?;
        self.paper_err = paper_err(out);
        self.stats = solver_total(out);
        Ok(())
    }

    fn probe(&mut self, tr: &mut Tracer) {
        self.probe = spice_probe(tr);
    }

    fn detail(&self) -> Vec<Metric> {
        vec![Metric::new("paper_err", self.paper_err, "frac")]
    }

    fn per_layer(&self, tr: &Tracer) -> Vec<Metric> {
        let mut m = spice_metrics(tr, self.probe, self.stats);
        for (name, span) in [
            (
                "cells.characterize_proposed_s",
                "cells.characterize_proposed",
            ),
            (
                "cells.characterize_standard_s",
                "cells.characterize_standard",
            ),
        ] {
            m.push(Metric::new(
                name,
                crate::stats::median(&tr.durations(span)),
                "s",
            ));
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Prints [`REFERENCE`] from this build, to refresh it after an
    /// intended change to the simulated results.
    #[test]
    #[ignore = "prints the reference table"]
    fn print_reference() {
        let out = reference_out();
        for rows in [&out.standard, &out.proposed] {
            for index in 0..QUANTITIES.len() {
                println!("    {:?},", triple(envelope(rows, index)));
            }
        }
    }

    fn reference_out() -> Table2Out {
        match Table2::new(0).run(0) {
            Ok(out) => out,
            Err(e) => panic!("table2 op failed: {e}"),
        }
    }

    #[test]
    fn the_check_passes_on_this_build_and_fires_on_corruption() {
        let mut out = reference_out();
        assert_eq!(check(&out), Ok(()));
        let err = paper_err(&out);
        assert!(err > 0.0 && err.is_finite(), "paper_err = {err}");

        // A 5 % shift in one corner's proposed read energy moves an envelope.
        let worst = out
            .proposed
            .iter()
            .map(|(_, m)| m.read_energy.femto_joules())
            .fold(f64::MIN, f64::max);
        let slot = out
            .proposed
            .iter_mut()
            .find(|(_, m)| m.read_energy.femto_joules() == worst)
            .expect("worst corner");
        slot.1.read_energy = slot.1.read_energy * 1.05;
        let message = check(&out).expect_err("corrupted energy must fail");
        assert!(
            message.contains("proposed read_energy_fj worst"),
            "{message}"
        );

        // A wrong transistor count fails too.
        let mut out = reference_out();
        out.standard[0].1.read_transistors = 21;
        assert!(check(&out).is_err());
    }
}
