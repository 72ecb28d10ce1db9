//! All-region EKV-style MOSFET compact model.
//!
//! The simulator needs a transistor model that is (a) smooth in all
//! operating regions so Newton converges on regenerative circuits like
//! sense amplifiers, and (b) first-order accurate for the three quantities
//! Table II depends on: saturation current (read delay), gate/junction
//! charge (read energy) and subthreshold current (leakage). The simplified
//! EKV formulation delivers all three with six parameters:
//!
//! ```text
//! Id = Is · (F(u_f) − F(u_r)) · (1 + λ·v_ds)
//! Is = 2·n·β·v_t²,  β = k'·W/L
//! u_f = (v_p)/v_t,  u_r = (v_p − v_ds)/v_t,  v_p = (v_gs − V_th)/n
//! F(u) = ln(1 + e^{u/2})²
//! ```
//!
//! which reduces to the square law in strong inversion/saturation and to
//! the exponential subthreshold law below threshold, with no region
//! boundaries. Drain–source symmetry (`v_ds < 0`) and PMOS polarity are
//! handled by terminal reflection.
//!
//! [`Technology::tsmc40lp`] provides parameters calibrated to public
//! 40 nm low-power CMOS characteristics, with SS/TT/FF corners
//! ([`CmosCorner`]) implemented as threshold-voltage and gain shifts —
//! the dominant first-order corner effects on both delay and leakage.

use core::fmt;

/// Thermal voltage kT/q at the paper's fixed 27 °C operating point.
pub(crate) const THERMAL_VOLTAGE: f64 = 0.025_852;

/// Channel polarity of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum MosfetKind {
    /// N-channel device (conducts with positive `v_gs`).
    Nmos,
    /// P-channel device (conducts with negative `v_gs`).
    Pmos,
}

impl fmt::Display for MosfetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Nmos => "nmos",
            Self::Pmos => "pmos",
        })
    }
}

/// Compact-model parameters for one device polarity.
///
/// All voltages are magnitudes (the PMOS threshold is stored positive);
/// polarity is handled by [`MosfetModel::evaluate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetModel {
    /// Channel polarity.
    pub(crate) kind: MosfetKind,
    /// Threshold voltage magnitude, volts.
    pub vth: f64,
    /// Process transconductance `k' = µ·C_ox`, A/V².
    pub(crate) kp: f64,
    /// Subthreshold slope factor `n` (≈ 1.3–1.5 for a 40 nm LP process).
    pub(crate) n_slope: f64,
    /// Channel-length modulation, 1/V.
    pub(crate) lambda: f64,
    /// Gate-oxide capacitance per area, F/m².
    pub(crate) cox_per_area: f64,
    /// Gate-drain/source overlap capacitance per width, F/m.
    pub(crate) cov_per_width: f64,
    /// Junction (drain/source to bulk) capacitance per width, F/m.
    pub(crate) cj_per_width: f64,
}

/// Evaluated large-signal operating point of a device: the channel
/// current and its derivatives w.r.t. the three terminal voltages,
/// exactly what the Newton stamp needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MosfetOperatingPoint {
    /// Channel current flowing drain → source, amperes.
    pub(crate) id: f64,
    /// `∂id/∂v_g`.
    pub(crate) di_dvg: f64,
    /// `∂id/∂v_d`.
    pub(crate) di_dvd: f64,
    /// `∂id/∂v_s`.
    pub(crate) di_dvs: f64,
}

impl MosfetModel {
    /// Evaluates the channel current and derivatives at absolute terminal
    /// voltages `(vg, vd, vs)` for a device of aspect ratio `w/l`.
    ///
    /// The returned current is the drain→source channel current with its
    /// true sign; PMOS devices therefore return negative `id` when
    /// conducting in their normal orientation (current flows source →
    /// drain).
    #[must_use]
    pub(crate) fn evaluate(
        &self,
        vg: f64,
        vd: f64,
        vs: f64,
        w: f64,
        l: f64,
    ) -> MosfetOperatingPoint {
        match self.kind {
            MosfetKind::Nmos => self.evaluate_nmos_oriented(vg, vd, vs, w, l),
            MosfetKind::Pmos => {
                // A PMOS is an NMOS with every terminal voltage reflected:
                // Isd = f(v_sg, v_sd). Channel current d→s is −Isd.
                let p = self.evaluate_nmos_oriented(-vg, -vd, -vs, w, l);
                MosfetOperatingPoint {
                    id: -p.id,
                    di_dvg: p.di_dvg,
                    di_dvd: p.di_dvd,
                    di_dvs: p.di_dvs,
                }
            }
        }
    }

    /// NMOS-oriented evaluation with drain–source symmetry handling.
    fn evaluate_nmos_oriented(
        &self,
        vg: f64,
        vd: f64,
        vs: f64,
        w: f64,
        l: f64,
    ) -> MosfetOperatingPoint {
        if vd >= vs {
            let (id, gm, gds) = self.ids_forward(vg - vs, vd - vs, w, l);
            MosfetOperatingPoint {
                id,
                di_dvg: gm,
                di_dvd: gds,
                di_dvs: -gm - gds,
            }
        } else {
            // Swap drain and source: Id(vg,vd,vs) = −f(vg−vd, vs−vd).
            let (id, gm, gds) = self.ids_forward(vg - vd, vs - vd, w, l);
            MosfetOperatingPoint {
                id: -id,
                di_dvg: -gm,
                di_dvd: gm + gds,
                di_dvs: -gds,
            }
        }
    }

    /// Source-referenced current for `v_ds ≥ 0`: returns `(id, gm, gds)`.
    fn ids_forward(&self, vgs: f64, vds: f64, w: f64, l: f64) -> (f64, f64, f64) {
        let vt = THERMAL_VOLTAGE;
        let n = self.n_slope;
        let beta = self.kp * w / l;
        let is = 2.0 * n * beta * vt * vt;
        let vp = (vgs - self.vth) / n;
        let uf = vp / vt;
        let ur = (vp - vds) / vt;
        let (ff, dff) = big_f(uf);
        let (fr, dfr) = big_f(ur);
        let clm = 1.0 + self.lambda * vds;
        let id = is * (ff - fr) * clm;
        let gm = is * clm * (dff - dfr) / (n * vt);
        let gds = is * clm * dfr / vt + is * self.lambda * (ff - fr);
        (id, gm, gds)
    }

    /// Total gate–source (= gate–drain) capacitance for a `w × l` device:
    /// half the channel oxide capacitance plus the overlap term.
    #[must_use]
    pub(crate) fn cgs(&self, w: f64, l: f64) -> f64 {
        0.5 * self.cox_per_area * w * l + self.cov_per_width * w
    }

    /// Drain (= source) junction capacitance to ground for width `w`.
    #[must_use]
    pub(crate) fn cjunction(&self, w: f64) -> f64 {
        self.cj_per_width * w
    }
}

/// `F(u) = softplus(u/2)²` and its derivative `F'(u) = softplus(u/2) ·
/// sigmoid(u/2)`, computed overflow-safely.
fn big_f(u: f64) -> (f64, f64) {
    let x = 0.5 * u;
    let (sp, sg) = if x > 30.0 {
        (x, 1.0)
    } else if x < -30.0 {
        let e = x.exp();
        (e, e)
    } else {
        let e = x.exp();
        ((1.0 + e).ln(), e / (1.0 + e))
    };
    (sp * sp, sp * sg)
}

/// A CMOS process corner.
///
/// Corners shift the threshold voltage and the process transconductance in
/// the slow/fast direction; subthreshold leakage responds exponentially to
/// the V_th shift, which reproduces the order-of-magnitude leakage spread
/// of Table II's worst/typical/best columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CmosCorner {
    /// Slow-slow: +ΔV_th, −10 % gain. Lowest leakage, slowest switching.
    SlowSlow,
    /// Typical-typical: nominal parameters.
    #[default]
    TypicalTypical,
    /// Fast-fast: −ΔV_th, +10 % gain. Highest leakage, fastest switching.
    FastFast,
}

impl CmosCorner {
    /// All corners in SS → TT → FF order.
    pub const ALL: [Self; 3] = [Self::SlowSlow, Self::TypicalTypical, Self::FastFast];

    /// Signed threshold shift in volts and gain multiplier.
    #[must_use]
    pub(crate) fn shifts(self) -> (f64, f64) {
        match self {
            Self::SlowSlow => (0.045, 0.9),
            Self::TypicalTypical => (0.0, 1.0),
            Self::FastFast => (-0.045, 1.1),
        }
    }
}

impl fmt::Display for CmosCorner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::SlowSlow => "SS",
            Self::TypicalTypical => "TT",
            Self::FastFast => "FF",
        })
    }
}

/// A CMOS technology: device models for both polarities plus the supply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Technology {
    /// N-channel model.
    pub nmos: MosfetModel,
    /// P-channel model.
    pub(crate) pmos: MosfetModel,
    /// Nominal supply voltage, volts.
    pub vdd: f64,
    /// Minimum drawn channel length, metres.
    pub(crate) l_min: f64,
}

impl Technology {
    /// 40 nm low-power CMOS calibrated to public characteristics of the
    /// process the paper simulates with (V_th ≈ ±0.46 V, LP-oxide gate
    /// stack, 1.1 V supply).
    #[must_use]
    pub fn tsmc40lp() -> Self {
        Self {
            nmos: MosfetModel {
                kind: MosfetKind::Nmos,
                vth: 0.42,
                kp: 320e-6,
                n_slope: 1.35,
                lambda: 0.12,
                cox_per_area: 0.018,    // 18 fF/µm² (LP oxide)
                cov_per_width: 0.25e-9, // 0.25 fF/µm
                cj_per_width: 0.25e-9,  // 0.25 fF/µm (raised S/D)
            },
            pmos: MosfetModel {
                kind: MosfetKind::Pmos,
                vth: 0.43,
                kp: 140e-6,
                n_slope: 1.38,
                lambda: 0.14,
                cox_per_area: 0.018,
                cov_per_width: 0.25e-9,
                cj_per_width: 0.25e-9,
            },
            vdd: 1.1,
            l_min: 40e-9,
        }
    }

    /// The technology shifted to a process corner.
    #[must_use]
    pub fn at_corner(&self, corner: CmosCorner) -> Self {
        let (dvth, kmul) = corner.shifts();
        let mut t = *self;
        t.nmos.vth += dvth;
        t.nmos.kp *= kmul;
        t.pmos.vth += dvth;
        t.pmos.kp *= kmul;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::tsmc40lp()
    }

    const W: f64 = 200e-9;
    const L: f64 = 40e-9;

    #[test]
    fn nmos_off_when_gate_low() {
        let m = tech().nmos;
        let op = m.evaluate(0.0, 1.1, 0.0, W, L);
        // Subthreshold leakage: picoamp scale, far below µA drive.
        assert!(op.id > 0.0);
        assert!(op.id < 1e-9, "ioff = {}", op.id);
    }

    #[test]
    fn nmos_drives_when_gate_high() {
        let m = tech().nmos;
        let op = m.evaluate(1.1, 1.1, 0.0, W, L);
        // Saturation drive: tens to hundreds of µA for W/L = 5.
        assert!(op.id > 50e-6 && op.id < 1e-3, "ion = {}", op.id);
    }

    #[test]
    fn on_off_ratio_is_large() {
        let m = tech().nmos;
        let ion = m.evaluate(1.1, 1.1, 0.0, W, L).id;
        let ioff = m.evaluate(0.0, 1.1, 0.0, W, L).id;
        assert!(ion / ioff > 1e5, "ratio = {}", ion / ioff);
    }

    #[test]
    fn pmos_mirrors_nmos_behaviour() {
        let m = tech().pmos;
        // PMOS with source at VDD, gate at 0: strongly on, current flows
        // source→drain, i.e. channel d→s current is negative.
        let on = m.evaluate(0.0, 0.0, 1.1, W, L);
        assert!(on.id < -20e-6, "id = {}", on.id);
        // Gate at VDD: off.
        let off = m.evaluate(1.1, 0.0, 1.1, W, L);
        assert!(off.id.abs() < 1e-9);
    }

    #[test]
    fn zero_vds_means_zero_current() {
        let m = tech().nmos;
        let op = m.evaluate(1.1, 0.5, 0.5, W, L);
        assert!(op.id.abs() < 1e-12);
    }

    #[test]
    fn current_is_antisymmetric_in_vds() {
        let m = tech().nmos;
        let fwd = m.evaluate(0.9, 0.3, 0.1, W, L);
        let rev = m.evaluate(0.9 - 0.0, 0.1, 0.3, W, L);
        // Same |vds| and mirrored terminals, but vgs differs between the
        // two orientations for a grounded-bulk EKV model referenced to the
        // source; exact antisymmetry holds when vg is reflected too.
        assert!(fwd.id > 0.0 && rev.id < 0.0);
    }

    #[test]
    fn reverse_conduction_matches_swapped_terminals() {
        // Id(vg, vd, vs) with vd < vs must equal −Id(vg, vs, vd).
        let m = tech().nmos;
        let a = m.evaluate(1.0, 0.2, 0.7, W, L);
        let b = m.evaluate(1.0, 0.7, 0.2, W, L);
        assert!((a.id + b.id).abs() < 1e-12 * b.id.abs().max(1e-12));
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let m = tech().nmos;
        let (vg, vd, vs) = (0.8, 0.4, 0.1);
        let h = 1e-7;
        let base = m.evaluate(vg, vd, vs, W, L);
        let dg = (m.evaluate(vg + h, vd, vs, W, L).id - base.id) / h;
        let dd = (m.evaluate(vg, vd + h, vs, W, L).id - base.id) / h;
        let ds = (m.evaluate(vg, vd, vs + h, W, L).id - base.id) / h;
        assert!((dg - base.di_dvg).abs() / dg.abs().max(1e-12) < 1e-4);
        assert!((dd - base.di_dvd).abs() / dd.abs().max(1e-12) < 1e-4);
        assert!((ds - base.di_dvs).abs() / ds.abs().max(1e-12) < 1e-4);
    }

    #[test]
    fn pmos_derivatives_match_finite_differences() {
        let m = tech().pmos;
        let (vg, vd, vs) = (0.3, 0.5, 1.1);
        let h = 1e-7;
        let base = m.evaluate(vg, vd, vs, W, L);
        let dg = (m.evaluate(vg + h, vd, vs, W, L).id - base.id) / h;
        let dd = (m.evaluate(vg, vd + h, vs, W, L).id - base.id) / h;
        let ds = (m.evaluate(vg, vd, vs + h, W, L).id - base.id) / h;
        assert!((dg - base.di_dvg).abs() / dg.abs().max(1e-12) < 1e-4);
        assert!((dd - base.di_dvd).abs() / dd.abs().max(1e-12) < 1e-4);
        assert!((ds - base.di_dvs).abs() / ds.abs().max(1e-12) < 1e-4);
    }

    #[test]
    fn current_is_continuous_across_vds_zero() {
        let m = tech().nmos;
        let a = m.evaluate(0.9, 1e-9, 0.0, W, L);
        let b = m.evaluate(0.9, -1e-9, 0.0, W, L);
        assert!((a.id - b.id).abs() < 1e-9);
    }

    #[test]
    fn subthreshold_slope_is_exponential() {
        let m = tech().nmos;
        let i1 = m.evaluate(0.10, 1.1, 0.0, W, L).id;
        let i2 = m.evaluate(0.20, 1.1, 0.0, W, L).id;
        // 100 mV of gate drive in subthreshold: expect e^{0.1/(n·vt)} ≈ 17×.
        let expected = (0.1 / (m.n_slope * THERMAL_VOLTAGE)).exp();
        let ratio = i2 / i1;
        assert!((ratio / expected - 1.0).abs() < 0.1, "ratio = {ratio}");
    }

    #[test]
    fn corners_order_leakage_and_drive() {
        let t = tech();
        let leak = |c: CmosCorner| t.at_corner(c).nmos.evaluate(0.0, 1.1, 0.0, W, L).id;
        let drive = |c: CmosCorner| t.at_corner(c).nmos.evaluate(1.1, 1.1, 0.0, W, L).id;
        assert!(leak(CmosCorner::FastFast) > leak(CmosCorner::TypicalTypical));
        assert!(leak(CmosCorner::TypicalTypical) > leak(CmosCorner::SlowSlow));
        assert!(drive(CmosCorner::FastFast) > drive(CmosCorner::SlowSlow));
        // Leakage corner spread is roughly an order of magnitude.
        let spread = leak(CmosCorner::FastFast) / leak(CmosCorner::SlowSlow);
        assert!(spread > 5.0 && spread < 50.0, "spread = {spread}");
    }

    #[test]
    fn capacitances_scale_with_geometry() {
        let m = tech().nmos;
        assert!(m.cgs(2.0 * W, L) > m.cgs(W, L));
        assert!((m.cgs(2.0 * W, L) / m.cgs(W, L) - 2.0).abs() < 1e-9);
        assert!(m.cjunction(W) > 0.0);
        // Sub-femtofarad for a minimum device — sanity of magnitude.
        assert!(m.cgs(W, L) < 1e-15);
    }

    #[test]
    fn display_names() {
        assert_eq!(MosfetKind::Nmos.to_string(), "nmos");
        assert_eq!(CmosCorner::SlowSlow.to_string(), "SS");
        assert_eq!(CmosCorner::ALL.len(), 3);
    }
}
