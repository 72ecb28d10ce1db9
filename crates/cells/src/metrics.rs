//! Circuit-metric extraction: the quantities of the paper's Table II
//! (read energy, read delay, leakage, transistor count) plus write
//! energy/latency, evaluated per corner and summarized as
//! worst/typical/best envelopes over the full corner grid.

use spice::measure::Edge;
use spice::result::Trace;
use units::{Energy, Power, Time};

use crate::config::{Corner, LatchConfig};
use crate::error::CellError;
use crate::proposed::ProposedLatch;
use crate::standard::StandardLatch;

/// Resolves a complementary output pair to a logic value, or `None` if
/// the outputs have not separated to valid levels (sense failure).
#[must_use]
pub fn resolve_bit(q: f64, qb: f64, vdd: f64) -> Option<bool> {
    let hi = 0.7 * vdd;
    let lo = 0.3 * vdd;
    if q > hi && qb < lo {
        Some(true)
    } else if q < lo && qb > hi {
        Some(false)
    } else {
        None
    }
}

/// Measures a sense delay: the first crossing of `vdd/2` by the deciding
/// output after the evaluation starts.
///
/// # Errors
///
/// [`CellError::MeasurementFailure`] if no crossing lies inside the
/// evaluation window.
pub fn sense_delay(
    deciding: Trace<'_>,
    vdd: f64,
    edge: Edge,
    eval_start: Time,
    eval_end: Time,
    what: &str,
) -> Result<Time, CellError> {
    let cross = deciding
        .first_crossing(vdd / 2.0, edge, eval_start)
        .filter(|&t| t <= eval_end)
        .ok_or_else(|| CellError::MeasurementFailure { what: what.into() })?;
    Ok(cross - eval_start)
}

/// Extracts write energy (to completion and over the full pulse) and
/// latency from a store transient.
pub(crate) fn store_energies(
    result: &spice::TransientResult,
    controls: &crate::control::StoreControls,
) -> (Energy, Energy, Time) {
    let last_event = result
        .mtj_events()
        .iter()
        .map(|e| e.time)
        .fold(Time::ZERO, Time::max);
    let latency = (last_event - controls.write_start).max(Time::ZERO);
    let pulse_energy = result.total_source_energy(Time::ZERO, controls.total);
    let energy = if result.mtj_events().is_empty() {
        Energy::ZERO
    } else {
        // Completion margin: one tenth of the elapsed write time.
        let until = last_event + latency * 0.1;
        result.total_source_energy(controls.write_start, until)
    };
    (energy, pulse_energy, latency)
}

/// The per-design circuit metrics reported by Table II, normalized to a
/// two-bit storage granule (the paper doubles the single-bit standard
/// cell for a fair comparison).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMetrics {
    /// Active energy of reading two bits.
    pub read_energy: Energy,
    /// Read delay (sum of sense delays over the two bits).
    pub read_delay: Time,
    /// Static power of the idle cell(s).
    pub leakage: Power,
    /// Write energy for storing two bits (worst-case data pattern: all
    /// four MTJs flip).
    pub write_energy: Energy,
    /// Write latency (last reversal).
    pub write_latency: Time,
    /// Read-path transistor count (Table II excludes write components).
    pub read_transistors: usize,
    /// Total solver work spent characterizing the cell at this corner.
    pub solver: spice::SolverStats,
}

/// Characterizes two standard 1-bit latches at a corner (the Table II
/// baseline): single-cell metrics are measured and doubled, except the
/// delay, which is a single sense evaluation.
///
/// Read metrics are averaged over both stored-bit values.
///
/// # Errors
///
/// Propagates any [`CellError`] from the underlying simulations.
pub fn characterize_standard_pair(config: &LatchConfig) -> Result<CellMetrics, CellError> {
    characterize_standard_pair_with(&StandardLatch::new(config.clone()))
}

/// [`characterize_standard_pair`] against a caller-owned latch, so a
/// worker sweeping many corners can reuse its latches (and their cached
/// solver sessions). The reported solver work is the **delta** incurred
/// by this characterization, not the latch's lifetime total — reuse
/// would otherwise double-count.
///
/// # Errors
///
/// Propagates any [`CellError`] from the underlying simulations.
pub fn characterize_standard_pair_with(latch: &StandardLatch) -> Result<CellMetrics, CellError> {
    let cell = latch.word().characterize()?;
    // Two cells side by side: twice the energy, leakage and devices,
    // one sense delay (they read in parallel).
    Ok(CellMetrics {
        read_energy: cell.read_energy * 2.0,
        leakage: cell.leakage * 2.0,
        write_energy: cell.write_energy * 2.0,
        read_transistors: cell.read_transistors * 2,
        ..cell
    })
}

/// Characterizes the proposed 2-bit latch at a corner. Read metrics are
/// averaged over all four stored patterns.
///
/// # Errors
///
/// Propagates any [`CellError`] from the underlying simulations.
pub fn characterize_proposed(config: &LatchConfig) -> Result<CellMetrics, CellError> {
    characterize_proposed_with(&ProposedLatch::new(config.clone()))
}

/// [`characterize_proposed`] against a caller-owned latch; like
/// [`characterize_standard_pair_with`], reports the solver-work delta of
/// this characterization only.
///
/// # Errors
///
/// Propagates any [`CellError`] from the underlying simulations.
pub fn characterize_proposed_with(latch: &ProposedLatch) -> Result<CellMetrics, CellError> {
    latch.word().characterize()
}

/// Worst/typical/best envelope of one scalar metric over the corner grid
/// (the paper's Table II column structure).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerEnvelope {
    /// Largest (least favourable) value observed over all corners.
    pub worst: f64,
    /// Value at the all-typical corner.
    pub typical: f64,
    /// Smallest (most favourable) value observed.
    pub best: f64,
}

impl CornerEnvelope {
    /// Builds an envelope from per-corner values paired with their
    /// corners.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains no typical corner.
    #[must_use]
    pub fn from_corner_values(values: &[(Corner, f64)]) -> Self {
        assert!(!values.is_empty(), "no corner values");
        let typical = values
            .iter()
            .find(|(c, _)| *c == Corner::typical())
            .map(|&(_, v)| v)
            .expect("corner grid must include the typical corner");
        let worst = values.iter().map(|&(_, v)| v).fold(f64::MIN, f64::max);
        let best = values.iter().map(|&(_, v)| v).fold(f64::MAX, f64::min);
        Self {
            worst,
            typical,
            best,
        }
    }
}

/// A worker's lazily-built latches for one corner: both designs share
/// the corner's configuration, and each latch keeps its cached solver
/// session alive for the whole sweep.
struct CornerLatches {
    standard: StandardLatch,
    proposed: ProposedLatch,
}

/// The full Table II comparison: both designs characterized over the
/// corner grid, with per-metric envelopes.
#[derive(Debug, Clone, PartialEq)]
pub struct LatchComparison {
    /// Per-corner metrics of two standard 1-bit cells.
    pub standard: Vec<(Corner, CellMetrics)>,
    /// Per-corner metrics of the proposed 2-bit cell.
    pub proposed: Vec<(Corner, CellMetrics)>,
    /// Worker/wall-clock accounting of the corner sweep.
    pub parallel: sweep::RunSummary,
}

impl LatchComparison {
    /// Runs both designs over the given corners (typically
    /// [`Corner::all`]) using one worker per hardware thread. Corners
    /// are independent, so they fan out over a [`sweep`] pool; results
    /// are identical for every worker count.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CellError`] encountered (in corner order).
    pub fn evaluate(base: &LatchConfig, corners: &[Corner]) -> Result<Self, CellError> {
        Self::evaluate_with_jobs(base, corners, 0)
    }

    /// [`LatchComparison::evaluate`] with an explicit worker count
    /// (`0` = auto, `1` = serial on the calling thread).
    ///
    /// Each worker owns a [`sweep::LazyPool`] of per-corner latches, so
    /// the solver sessions built for a corner stay cached on the worker
    /// that built them; the metrics carry per-characterization solver
    /// deltas and are unaffected by the reuse.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CellError`] encountered (in corner order).
    pub fn evaluate_with_jobs(
        base: &LatchConfig,
        corners: &[Corner],
        jobs: usize,
    ) -> Result<Self, CellError> {
        let grid = sweep::Grid::new(corners.to_vec());
        let opts = sweep::SweepOptions {
            jobs,
            span_label: "cells.corner",
            ..sweep::SweepOptions::default()
        };
        let outcome = sweep::run_with_state(
            &grid,
            &opts,
            |_worker| sweep::LazyPool::<Corner, CornerLatches>::new(),
            |pool, _ctx, &corner| {
                let latches = pool.get_or_build(corner, || {
                    let cfg = base.at_corner(corner);
                    CornerLatches {
                        standard: StandardLatch::new(cfg.clone()),
                        proposed: ProposedLatch::new(cfg),
                    }
                });
                let std_m = characterize_standard_pair_with(&latches.standard)?;
                let prop_m = characterize_proposed_with(&latches.proposed)?;
                Ok::<_, CellError>((std_m, prop_m))
            },
            None,
        );
        let mut standard = Vec::with_capacity(corners.len());
        let mut proposed = Vec::with_capacity(corners.len());
        for (&corner, result) in corners.iter().zip(outcome.results) {
            let (std_m, prop_m) = result?;
            standard.push((corner, std_m));
            proposed.push((corner, prop_m));
        }
        Ok(Self {
            standard,
            proposed,
            parallel: outcome.summary,
        })
    }

    /// Envelope of a metric over the standard design's corners.
    #[must_use]
    pub fn standard_envelope(&self, metric: impl Fn(&CellMetrics) -> f64) -> CornerEnvelope {
        let v: Vec<(Corner, f64)> = self.standard.iter().map(|(c, m)| (*c, metric(m))).collect();
        CornerEnvelope::from_corner_values(&v)
    }

    /// Envelope of a metric over the proposed design's corners.
    #[must_use]
    pub fn proposed_envelope(&self, metric: impl Fn(&CellMetrics) -> f64) -> CornerEnvelope {
        let v: Vec<(Corner, f64)> = self.proposed.iter().map(|(c, m)| (*c, metric(m))).collect();
        CornerEnvelope::from_corner_values(&v)
    }

    /// Typical-corner read-energy improvement of the proposed design,
    /// as a fraction (the paper reports ≈ 19 %).
    ///
    /// # Panics
    ///
    /// Panics if the typical corner was not evaluated.
    #[must_use]
    pub fn read_energy_improvement(&self) -> f64 {
        let s = self
            .standard
            .iter()
            .find(|(c, _)| *c == Corner::typical())
            .expect("typical corner evaluated")
            .1
            .read_energy;
        let p = self
            .proposed
            .iter()
            .find(|(c, _)| *c == Corner::typical())
            .expect("typical corner evaluated")
            .1
            .read_energy;
        1.0 - p / s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_bit_levels() {
        assert_eq!(resolve_bit(1.05, 0.02, 1.1), Some(true));
        assert_eq!(resolve_bit(0.02, 1.05, 1.1), Some(false));
        assert_eq!(resolve_bit(0.6, 0.5, 1.1), None); // unresolved
        assert_eq!(resolve_bit(1.05, 1.0, 1.1), None); // both high
    }

    #[test]
    fn envelope_extracts_extremes_and_typical() {
        let values = vec![
            (Corner::slow(), 5.0),
            (Corner::typical(), 3.0),
            (Corner::fast(), 2.0),
        ];
        let e = CornerEnvelope::from_corner_values(&values);
        assert_eq!(e.worst, 5.0);
        assert_eq!(e.typical, 3.0);
        assert_eq!(e.best, 2.0);
    }

    #[test]
    #[should_panic(expected = "typical corner")]
    fn envelope_requires_typical() {
        let _ = CornerEnvelope::from_corner_values(&[(Corner::slow(), 1.0)]);
    }

    #[test]
    fn typical_corner_comparison_shows_paper_trends() {
        let base = LatchConfig::default();
        let std_m = characterize_standard_pair(&base).expect("standard");
        let prop_m = characterize_proposed(&base).expect("proposed");

        // Transistor counts are exact (Table II).
        assert_eq!(std_m.read_transistors, 22);
        assert_eq!(prop_m.read_transistors, 16);

        // Proposed reads two bits for less energy than two standard cells.
        assert!(
            prop_m.read_energy < std_m.read_energy,
            "proposed {} vs standard {}",
            prop_m.read_energy,
            std_m.read_energy
        );

        // Sequential read: proposed delay is roughly twice the standard.
        let ratio = prop_m.read_delay / std_m.read_delay;
        assert!((1.3..3.2).contains(&ratio), "delay ratio = {ratio}");

        // Leakage: proposed at or below the standard pair.
        assert!(prop_m.leakage.watts() <= std_m.leakage.watts() * 1.05);

        // Write paths are identical: energy within 2×, latency ≈ equal.
        let w_ratio = prop_m.write_energy / std_m.write_energy;
        assert!((0.5..1.5).contains(&w_ratio), "write ratio = {w_ratio}");
    }
}
