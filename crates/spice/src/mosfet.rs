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
//! # The evaluation kernel
//!
//! One `#[inline(always)]` function evaluates a device from its
//! [`KernelParams`] (polarity, `V_th`, `n`, `Is`, `λ`) and terminal
//! voltages. It has no `if` branches, only selects: the PMOS reflection
//! multiplies by the polarity sign, and the drain/source swap for
//! `v_ds < 0` picks operands. It calls no libm function, and the model's
//! divisions by `n·v_t` and `v_t` are multiplications by reciprocals,
//! which leaves seven divisions per device. With
//! `x = u/2`, `F(u) = softplus(x)²` and `F'(u) = softplus(x)·sigmoid(x)`,
//! where `softplus(x) = max(x, 0) + log1p(e^{−|x|})` and `sigmoid(x)` is
//! `1/(1 + e^{−|x|})` for `x ≥ 0` and `e^{−|x|}/(1 + e^{−|x|})` below.
//! The two primitives come from [`units::math`], shared with the
//! Monte-Carlo kernels in `mtj`:
//!
//! * `e^y` ([`units::math::exp`], here always at `y ≤ 0`) by Cody–Waite
//!   reduction `y = k·ln2 + r`, `|r| ≤ ln2/2`, and the classic degree-5
//!   rational remainder, with `2^k` applied as two normal factors so
//!   subnormal results round once;
//! * `log1p(e)` for `e ∈ [0, 1]` ([`units::math::ln_1p_unit`]) as
//!   `2·atanh(s)`, `s = f/(2 + f)`, with a degree-7 minimax polynomial
//!   in `s²`, after folding `e > √2 − 1` to `ln 2 + log1p((e − 1)/2)`.
//!
//! Each is within 1 ulp. Softplus and sigmoid are within 1e-15
//! relative of an independent libm reference over `x ∈ [−1500, 1500]`
//! (one step of the subnormal grid where the result is subnormal), and
//! `±∞` and NaN give the limits and NaN. The formula this replaced
//! computed `ln(1 + e^x)` directly for `|x| ≤ 30`, where `1 + e^x`
//! rounds away the low bits of `e^x`: its relative error reached 6e-10
//! at `u = −31` and grew to 1.2e-3 at the `u = −60` cutoff. Those terms
//! sit far below the conducting current beside them: the Table II text
//! did not move, and leakage operating points moved by at most 3e-9
//! relative.
//!
//! [`MosfetModel::evaluate`] runs the kernel on one device (the dense
//! oracle and the reference assembler call it); [`MosfetBatch`] runs it
//! over structure-of-arrays chunks of [`LANES`] devices, which the
//! autovectorizer turns into SIMD. Both call the same function on the
//! same IEEE operations without contraction, so they agree bit for bit
//! on every target.
//!
//! [`Technology::tsmc40lp`] provides parameters calibrated to public
//! 40 nm low-power CMOS characteristics, with SS/TT/FF corners
//! ([`CmosCorner`]) implemented as threshold-voltage and gain shifts —
//! the dominant first-order corner effects on both delay and leakage.

use core::fmt;

use units::math::{exp, ln_1p_unit, select};

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

/// Everything the evaluation kernel needs of one device besides its
/// terminal voltages: the model and geometry folded into five numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct KernelParams {
    /// `+1` for NMOS, `−1` for PMOS: the factor that reflects a PMOS's
    /// terminal voltages and current into NMOS orientation.
    pol: f64,
    /// Threshold voltage magnitude, volts.
    vth: f64,
    /// Subthreshold slope factor.
    n: f64,
    /// Specific current `Is = 2·n·(k'·W/L)·v_t²`, amperes.
    is: f64,
    /// Channel-length modulation, 1/V.
    lambda: f64,
}

impl MosfetModel {
    /// The kernel constants of a `w × l` device of this model.
    #[must_use]
    pub(crate) fn kernel_params(&self, w: f64, l: f64) -> KernelParams {
        let vt = THERMAL_VOLTAGE;
        let n = self.n_slope;
        let beta = self.kp * w / l;
        KernelParams {
            pol: match self.kind {
                MosfetKind::Nmos => 1.0,
                MosfetKind::Pmos => -1.0,
            },
            vth: self.vth,
            n,
            is: 2.0 * n * beta * vt * vt,
            lambda: self.lambda,
        }
    }

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
        kernel(self.kernel_params(w, l), vg, vd, vs)
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

/// Devices per [`MosfetBatch`] chunk: one 512-bit vector of `f64`.
const LANES: usize = 8;

/// [`KernelParams`] of [`LANES`] devices, one array per constant.
#[derive(Debug, Clone, Copy)]
struct ParamLanes {
    pol: [f64; LANES],
    vth: [f64; LANES],
    n: [f64; LANES],
    is: [f64; LANES],
    lambda: [f64; LANES],
}

impl ParamLanes {
    /// Every lane a zero-current NMOS, so padding lanes compute finite
    /// values that nobody reads.
    const PADDING: Self = Self {
        pol: [1.0; LANES],
        vth: [0.0; LANES],
        n: [1.0; LANES],
        is: [0.0; LANES],
        lambda: [0.0; LANES],
    };

    fn get(&self, j: usize) -> KernelParams {
        KernelParams {
            pol: self.pol[j],
            vth: self.vth[j],
            n: self.n[j],
            is: self.is[j],
            lambda: self.lambda[j],
        }
    }

    fn set(&mut self, j: usize, p: KernelParams) {
        self.pol[j] = p.pol;
        self.vth[j] = p.vth;
        self.n[j] = p.n;
        self.is[j] = p.is;
        self.lambda[j] = p.lambda;
    }
}

/// The kernel constants of a list of devices in chunks of [`LANES`],
/// the last chunk padded, evaluated chunk by chunk.
#[derive(Debug, Default)]
pub(crate) struct MosfetBatch {
    chunks: Vec<ParamLanes>,
    len: usize,
}

impl MosfetBatch {
    /// Appends the next device.
    pub(crate) fn push(&mut self, p: KernelParams) {
        let j = self.len % LANES;
        if j == 0 {
            self.chunks.push(ParamLanes::PADDING);
        }
        self.chunks
            .last_mut()
            .expect("a chunk was pushed for lane 0")
            .set(j, p);
        self.len += 1;
    }

    /// Evaluates every device, a chunk at a time: gathers each live
    /// lane's `[vg, vd, vs]` from `bias(k)`, runs the kernel on all
    /// [`LANES`] lanes at once, then hands device `k` its voltages and
    /// operating point through `sink(k, v, op)`, in device order.
    #[inline]
    pub(crate) fn evaluate(
        &self,
        mut bias: impl FnMut(usize) -> [f64; 3],
        mut sink: impl FnMut(usize, [f64; 3], MosfetOperatingPoint),
    ) {
        for (c, params) in self.chunks.iter().enumerate() {
            let first = c * LANES;
            let live = (self.len - first).min(LANES);
            let (mut vg, mut vd, mut vs) = ([0.0; LANES], [0.0; LANES], [0.0; LANES]);
            for j in 0..live {
                [vg[j], vd[j], vs[j]] = bias(first + j);
            }
            let mut ops = [[0.0; LANES]; 4];
            for j in 0..LANES {
                let op = kernel(params.get(j), vg[j], vd[j], vs[j]);
                ops[0][j] = op.id;
                ops[1][j] = op.di_dvg;
                ops[2][j] = op.di_dvd;
                ops[3][j] = op.di_dvs;
            }
            for j in 0..live {
                let op = MosfetOperatingPoint {
                    id: ops[0][j],
                    di_dvg: ops[1][j],
                    di_dvd: ops[2][j],
                    di_dvs: ops[3][j],
                };
                sink(first + j, [vg[j], vd[j], vs[j]], op);
            }
        }
    }
}

/// The device evaluation kernel: drain→source channel current and its
/// terminal derivatives at absolute voltages `(vg, vd, vs)`.
#[inline(always)]
fn kernel(p: KernelParams, vg: f64, vd: f64, vs: f64) -> MosfetOperatingPoint {
    // A PMOS is an NMOS with every terminal voltage reflected; its
    // channel current d→s is the reflected device's, negated.
    let (vg, vd, vs) = (p.pol * vg, p.pol * vd, p.pol * vs);
    // Reference the source-side terminal so v_ds ≥ 0: for vd < vs the
    // drain and source swap roles and Id(vg, vd, vs) = −f(vg − vd, vs − vd).
    let fwd = vd >= vs;
    let src = select(fwd, vs, vd);
    let vgs = vg - src;
    let vds = select(fwd, vd, vs) - src;

    // Multiplying by reciprocals keeps all but one division (per
    // device, off the dependency chain) out of the model arithmetic.
    const INV_VT: f64 = 1.0 / THERMAL_VOLTAGE;
    let inv_nvt = 1.0 / (p.n * THERMAL_VOLTAGE);
    let uf = (vgs - p.vth) * inv_nvt;
    let ur = uf - vds * INV_VT;
    // F(u) = softplus(u/2)², F'(u) = softplus(u/2)·sigmoid(u/2).
    let (spf, sgf) = softplus_sigmoid(0.5 * uf);
    let (spr, sgr) = softplus_sigmoid(0.5 * ur);
    let (ff, dff) = (spf * spf, spf * sgf);
    let (fr, dfr) = (spr * spr, spr * sgr);
    let clm = 1.0 + p.lambda * vds;
    let id = p.is * (ff - fr) * clm;
    let gm = p.is * clm * (dff - dfr) * inv_nvt;
    let gds = p.is * clm * dfr * INV_VT + p.is * p.lambda * (ff - fr);

    // Back to the caller's terminals: forward (id, gm, gds, −gm − gds),
    // swapped (−id, −gm, gm + gds, −gds); the PMOS reflection negates id.
    let dir = select(fwd, 1.0, -1.0);
    let g_sum = gm + gds;
    MosfetOperatingPoint {
        id: p.pol * dir * id,
        di_dvg: dir * gm,
        di_dvd: select(fwd, gds, g_sum),
        di_dvs: -select(fwd, g_sum, gds),
    }
}

/// `(ln(1 + e^x), 1/(1 + e^{−x}))`, overflow-free for every `x`.
#[inline(always)]
fn softplus_sigmoid(x: f64) -> (f64, f64) {
    let e = exp(-x.abs());
    let sp = select(x > 0.0, x, 0.0) + ln_1p_unit(e);
    let sg = select(x >= 0.0, 1.0, e) / (1.0 + e);
    (sp, sg)
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

    /// SplitMix64 stream mapped to uniform draws.
    struct SplitMix(u64);

    impl SplitMix {
        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            lo + (hi - lo) * (z >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The batched kernel equals the scalar `evaluate` bit for bit at
    /// every batch length 1..=33, so every ragged tail of the 8-lane
    /// chunks. Devices cycle through both polarities and both
    /// orientations (`vd ≥ vs` and `vd < vs`), with random geometry and
    /// threshold, and gate drive from deep subthreshold (`u ≈ −90`) to
    /// strong inversion.
    #[test]
    fn batch_matches_scalar_bit_for_bit() {
        let t = tech();
        let mut rng = SplitMix(0x6d6f_7366);
        for len in 1..=33 {
            let devices: Vec<_> = (0..len)
                .map(|k| {
                    let mut model = if k % 2 == 0 { t.nmos } else { t.pmos };
                    model.vth += rng.uniform(-0.05, 0.05);
                    let (w, l) = (rng.uniform(80e-9, 2e-6), rng.uniform(40e-9, 200e-9));
                    let (lo, hi) = (rng.uniform(-0.1, 0.5), rng.uniform(0.6, 1.2));
                    let (vd, vs) = if (k / 2) % 2 == 0 { (hi, lo) } else { (lo, hi) };
                    let vg = rng.uniform(-1.5, 2.6);
                    (model, w, l, [vg, vd, vs])
                })
                .collect();
            let mut batch = MosfetBatch::default();
            for (model, w, l, _) in &devices {
                batch.push(model.kernel_params(*w, *l));
            }
            let mut seen = 0;
            batch.evaluate(
                |k| devices[k].3,
                |k, v, op| {
                    assert_eq!(k, seen, "devices arrive in order");
                    seen += 1;
                    let (model, w, l, bias) = devices[k];
                    assert_eq!(v, bias);
                    let want = model.evaluate(bias[0], bias[1], bias[2], w, l);
                    for (what, got, want) in [
                        ("id", op.id, want.id),
                        ("di_dvg", op.di_dvg, want.di_dvg),
                        ("di_dvd", op.di_dvd, want.di_dvd),
                        ("di_dvs", op.di_dvs, want.di_dvs),
                    ] {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "len {len}, device {k}: {what} {got:e} vs {want:e}"
                        );
                    }
                },
            );
            assert_eq!(seen, len);
        }
    }

    /// `softplus_sigmoid` against libm: `ln_1p(exp(x))` where that is
    /// accurate, `x + ln_1p(e^{−x})` once `e^x` would overflow, and the
    /// series `e − e²/2 + e³/3` below −20, where `1 + e^x` rounds. Both
    /// values stay within 1e-15 relative (one step of the subnormal grid
    /// where the reference is subnormal) on a 0.005 grid over
    /// [−1500, 1500] plus seeded draws over the circuit's range; ±∞ give
    /// the limits and NaN propagates.
    #[test]
    fn softplus_sigmoid_match_libm_to_1e_15() {
        let reference = |x: f64| {
            let sp = if x > 700.0 {
                x + (-x).exp().ln_1p()
            } else if x >= -20.0 {
                x.exp().ln_1p()
            } else {
                let e = x.exp();
                e - e * e / 2.0 + e * e * e / 3.0
            };
            let e = (-x.abs()).exp();
            let sg = if x >= 0.0 {
                1.0 / (1.0 + e)
            } else {
                e / (1.0 + e)
            };
            (sp, sg)
        };
        let check = |x: f64| {
            let (sp, sg) = softplus_sigmoid(x);
            let (want_sp, want_sg) = reference(x);
            for (what, got, want) in [("softplus", sp, want_sp), ("sigmoid", sg, want_sg)] {
                let tol = (1e-15 * want.abs()).max(f64::from_bits(1));
                assert!(
                    (got - want).abs() <= tol,
                    "{what}({x:e}) = {got:e}, reference {want:e}"
                );
            }
        };
        for i in -300_000..=300_000 {
            check(f64::from(i) * 0.005);
        }
        let mut rng = SplitMix(0x5eed);
        for _ in 0..100_000 {
            check(rng.uniform(-80.0, 80.0));
        }
        assert_eq!(softplus_sigmoid(f64::INFINITY), (f64::INFINITY, 1.0));
        assert_eq!(softplus_sigmoid(f64::NEG_INFINITY), (0.0, 0.0));
        let (sp, sg) = softplus_sigmoid(f64::NAN);
        assert!(sp.is_nan() && sg.is_nan());
    }

    #[test]
    fn display_names() {
        assert_eq!(MosfetKind::Nmos.to_string(), "nmos");
        assert_eq!(CmosCorner::SlowSlow.to_string(), "SS");
        assert_eq!(CmosCorner::ALL.len(), 3);
    }
}
