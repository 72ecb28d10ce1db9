//! Sense-margin analysis: how much TMR the read actually needs.
//!
//! The sense amplifier discriminates the complementary MTJ pair's
//! resistances; as TMR shrinks (bias, temperature, process tails) the
//! output separation collapses and the restore eventually fails. This
//! module measures the margin — the output separation at the sampling
//! instant — and finds the minimum TMR at which the proposed 2-bit
//! latch still resolves both bits, quantifying the robustness headroom
//! behind the paper's ±3σ corner methodology.

use mtj::MtjParams;

use crate::config::LatchConfig;
use crate::error::CellError;
use crate::proposed::ProposedLatch;

/// Output separation of both reads, as fractions of VDD at each
/// evaluation's sampling instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadMargins {
    /// Lower-pair (bit 0) separation, 0‥1.
    pub lower: f64,
    /// Upper-pair (bit 1) separation, 0‥1.
    pub upper: f64,
}

impl ReadMargins {
    /// The smaller of the two margins.
    #[must_use]
    pub fn worst(&self) -> f64 {
        self.lower.min(self.upper)
    }
}

/// Measures the read margins of a proposed latch restoring `stored`.
///
/// # Errors
///
/// [`CellError::Simulation`] on solver failure (an unresolved read is
/// *not* an error here — it shows up as a small margin).
pub fn read_margins(latch: &ProposedLatch, stored: [bool; 2]) -> Result<ReadMargins, CellError> {
    let (result, controls) = latch.restore_traces(stored)?;
    let vdd = latch.config().vdd();
    let q = result.node("mtj_read")?;
    let qb = result.node("mtj_read_b")?;
    let sep = |t: f64| (q.value_at(t) - qb.value_at(t)).abs() / vdd;
    Ok(ReadMargins {
        lower: sep(controls.eval0_end.seconds()),
        upper: sep(controls.eval1_end.seconds()),
    })
}

/// One point of a TMR sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginPoint {
    /// Zero-bias TMR used (fraction, 1.2 = 120 %).
    pub tmr: f64,
    /// Measured margins.
    pub margins: ReadMargins,
    /// Whether both bits resolved to valid complementary levels.
    pub resolved: bool,
}

/// Builds a latch configuration with the given zero-bias TMR (other MTJ
/// parameters nominal).
fn config_with_tmr(base: &LatchConfig, tmr: f64) -> Result<LatchConfig, CellError> {
    let mtj = MtjParams::builder()
        .tmr_zero_bias(tmr)
        .build()
        .map_err(|e| CellError::MeasurementFailure {
            what: format!("TMR {tmr}: {e}"),
        })?;
    let mut config = base.clone();
    config.mtj = mtj;
    Ok(config)
}

/// Sweeps the read margin over zero-bias TMR values.
///
/// # Errors
///
/// [`CellError`] from configuration or simulation failures.
pub fn sweep_tmr(base: &LatchConfig, tmrs: &[f64]) -> Result<Vec<MarginPoint>, CellError> {
    let mut out = Vec::with_capacity(tmrs.len());
    for &tmr in tmrs {
        let config = config_with_tmr(base, tmr)?;
        let latch = ProposedLatch::new(config);
        let margins = read_margins(&latch, [true, false])?;
        let resolved = latch
            .simulate_restore([true, false])
            .map(|r| r.bits == [true, false])
            .unwrap_or(false);
        out.push(MarginPoint {
            tmr,
            margins,
            resolved,
        });
    }
    Ok(out)
}

/// Finds (by bisection) the smallest zero-bias TMR at which the restore
/// of the pattern `[1, 0]` still resolves, to the given absolute
/// tolerance.
///
/// # Errors
///
/// [`CellError`] from the underlying simulations, or
/// [`CellError::MeasurementFailure`] if even the bracket top fails.
pub fn minimum_resolvable_tmr(base: &LatchConfig, tolerance: f64) -> Result<f64, CellError> {
    let resolves = |tmr: f64| -> Result<bool, CellError> {
        let config = config_with_tmr(base, tmr)?;
        Ok(ProposedLatch::new(config)
            .simulate_restore([true, false])
            .map(|r| r.bits == [true, false])
            .unwrap_or(false))
    };
    let mut hi = base.mtj.tmr_zero_bias();
    if !resolves(hi)? {
        return Err(CellError::MeasurementFailure {
            what: format!("restore fails even at nominal TMR {hi}"),
        });
    }
    let mut lo = 0.01;
    if resolves(lo)? {
        return Ok(lo);
    }
    while hi - lo > tolerance {
        let mid = 0.5 * (lo + hi);
        if resolves(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_margins_are_wide() {
        let latch = ProposedLatch::new(LatchConfig::default());
        let m = read_margins(&latch, [true, false]).expect("margins");
        assert!(m.lower > 0.9, "lower margin {}", m.lower);
        assert!(m.upper > 0.9, "upper margin {}", m.upper);
        assert!(m.worst() <= m.lower && m.worst() <= m.upper);
    }

    #[test]
    fn margin_shrinks_with_tmr() {
        let base = LatchConfig::default();
        let points = sweep_tmr(&base, &[1.2, 0.5, 0.15]).expect("sweep");
        assert_eq!(points.len(), 3);
        assert!(points[0].resolved);
        // Monotone-ish: the smallest TMR has the worst margin.
        assert!(
            points[2].margins.worst() <= points[0].margins.worst() + 0.02,
            "{points:?}"
        );
    }

    #[test]
    fn mismatch_raises_the_minimum_resolvable_tmr() {
        let symmetric = LatchConfig::default();
        let mut offset = symmetric.clone();
        offset.sizing.output_load_mismatch = 0.10;
        let min_sym = minimum_resolvable_tmr(&symmetric, 0.05).expect("symmetric");
        // NOTE: config_with_tmr rebuilds the MTJ but keeps sizing, so
        // carry the mismatch through a custom sweep here.
        let resolves = |tmr: f64| -> bool {
            let mut config = offset.clone();
            config.mtj = MtjParams::builder()
                .tmr_zero_bias(tmr)
                .build()
                .expect("valid tmr");
            ProposedLatch::new(config)
                .simulate_restore([true, false])
                .map(|r| r.bits == [true, false])
                .unwrap_or(false)
        };
        // The mismatched amplifier fails somewhere the symmetric one
        // still resolved.
        let mut lo = 0.01;
        let min_offset = if resolves(lo) {
            lo
        } else {
            let mut hi = 1.2;
            while hi - lo > 0.05 {
                let mid = 0.5 * (lo + hi);
                if resolves(mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            hi
        };
        assert!(
            min_offset >= min_sym,
            "offset amp min TMR {min_offset} < symmetric {min_sym}"
        );
        // A 10 % load skew demands real TMR (not the noise-free 1 %).
        assert!(min_offset > 0.05, "min TMR with offset = {min_offset}");
    }

    #[test]
    fn minimum_tmr_is_well_below_nominal() {
        let base = LatchConfig::default();
        let min_tmr = minimum_resolvable_tmr(&base, 0.05).expect("bisection");
        // The design must tolerate far less than the nominal 120 %.
        assert!(
            min_tmr < 0.6,
            "minimum resolvable TMR = {:.0} %",
            min_tmr * 100.0
        );
        assert!(min_tmr >= 0.01);
    }
}
