//! Branch-free, libm-free elementary functions for vectorized kernels.
//!
//! Every function here is `#[inline(always)]` IEEE `f64` arithmetic
//! plus bit manipulation: no `if` branches (only selects, which LLVM
//! lowers to blends in vector code), no libm calls and no FP
//! contraction. A loop over `[f64; N]` arrays that calls them therefore
//! autovectorizes, and a scalar caller gets the same bits as a SIMD
//! lane on every target — the property the MOSFET batch in `spice` and
//! the rare-event sampler in `mtj` rest on.
//!
//! * [`exp`] — Cody–Waite reduction `y = k·ln2 + r`, `|r| ≤ ln2/2`, and
//!   the classic degree-5 rational remainder; `2^k` is applied as two
//!   normal factors so subnormal results round once and large ones
//!   overflow to `+∞` only when `e^y` does.
//! * [`ln`] and [`ln_1p_unit`] — `x = 2^k·(1 + f)` with
//!   `1 + f ∈ [1/√2, √2]`, then `ln(1 + f) = 2·atanh(s)`,
//!   `s = f/(2 + f)`, with a degree-7 minimax polynomial in `s²`.
//! * [`cos_tau`] — `cos(2π·u)`: `4u` is exact, so reduction to the
//!   nearest quadrant leaves an exact remainder `t ∈ [−½, ½]`, which is
//!   scaled by `π/2` in double-double and fed to the minimax sine and
//!   cosine polynomials on `[−π/4, π/4]`.
//!
//! Accuracy against the platform libm is pinned by this module's tests
//! (dense grids plus seeded random draws): on every point [`exp`],
//! [`ln`], [`ln_1p_unit`] and [`cos_tau`] (against an exactly reduced
//! reference) land on libm's double or its neighbour.

/// `ln 2` split so that `k·LN2_HI` is exact for `|k| < 2^20`.
const LN2_HI: f64 = 0.6931471803691238;
/// `ln 2 − LN2_HI`.
const LN2_LO: f64 = 1.9082149292705877e-10;
/// 1.5·2^52: adding it rounds to an integer held in the low mantissa bits.
const SHIFTER: f64 = 6_755_399_441_055_744.0;

/// `if c { a } else { b }` on values both sides have already computed,
/// which LLVM lowers to a select (a blend in vector code).
#[inline(always)]
#[must_use]
pub fn select(c: bool, a: f64, b: f64) -> f64 {
    if c {
        a
    } else {
        b
    }
}

/// `e^y` for every `y`, within 1 ulp: `0` below −746, `+∞` above the
/// overflow threshold, NaN propagates.
#[inline(always)]
#[must_use]
pub fn exp(y: f64) -> f64 {
    // Remez coefficients of the remainder on |r| ≤ ln2/2.
    const P1: f64 = 0.16666666666666602;
    const P2: f64 = -0.0027777777777015593;
    const P3: f64 = 6.613756321437934e-05;
    const P4: f64 = -1.6533902205465252e-06;
    const P5: f64 = 4.1381367970572385e-08;

    // e^−746 is below half the smallest subnormal and e^710 above the
    // largest double; the clamps keep k ∈ [−1077, 1024] (comparisons,
    // so NaN passes through).
    let y = select(y < -746.0, -746.0, y);
    let y = select(y > 710.0, 710.0, y);
    let t = y * core::f64::consts::LOG2_E + SHIFTER;
    let k = t - SHIFTER;
    let hi = y - k * LN2_HI;
    let lo = k * LN2_LO;
    let r = hi - lo;
    let rr = r * r;
    let c = r - rr * (P1 + rr * (P2 + rr * (P3 + rr * (P4 + rr * P5))));
    let er = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    // 2^k as 2^k1 · 2^k2, both normal: er·2^k1 is exact and the second
    // product rounds once, into the subnormals or to +∞ as e^y does.
    let ki = (t.to_bits() as i64).wrapping_sub(SHIFTER.to_bits() as i64);
    let k1 = ki >> 1;
    let k2 = ki.wrapping_sub(k1);
    let pow2 = |k: i64| f64::from_bits((k.wrapping_add(1023) as u64) << 52);
    er * pow2(k1) * pow2(k2)
}

/// `k·ln 2 + ln(1 + f)` for `1 + f ∈ [1/√2, √2]` — the shared tail of
/// [`ln`] and [`ln_1p_unit`].
#[inline(always)]
fn ln_reduced(k: f64, f: f64) -> f64 {
    // Remez coefficients of (2·atanh(s) − 2s)/s in z = s², |s| ≤ 0.1716.
    const LG1: f64 = 0.6666666666666735;
    const LG2: f64 = 0.3999999999940942;
    const LG3: f64 = 0.2857142874366239;
    const LG4: f64 = 0.22222198432149784;
    const LG5: f64 = 0.1818357216161805;
    const LG6: f64 = 0.15313837699209373;
    const LG7: f64 = 0.14798198605116586;

    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let odd = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let even = w * (LG2 + w * (LG4 + w * LG6));
    let r = odd + even;
    let hfsq = 0.5 * f * f;
    k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f)
}

/// `ln(1 + e)` for `e ∈ [0, 1]` (NaN propagates), within 1 ulp.
#[inline(always)]
#[must_use]
pub fn ln_1p_unit(e: f64) -> f64 {
    const SQRT2_M1: f64 = 0.41421356237309503;
    // 1 + e = 2^kk·(1 + f) with 1 + f ∈ [1/√2, √2].
    let fold = e > SQRT2_M1;
    let f = select(fold, (e - 1.0) * 0.5, e);
    let kk = select(fold, 1.0, 0.0);
    ln_reduced(kk, f)
}

/// Natural logarithm, within 1 ulp for every positive `x` (subnormals
/// included); `ln 0 = −∞`, `ln(+∞) = +∞`, negative and NaN give NaN.
#[inline(always)]
#[must_use]
pub fn ln(x: f64) -> f64 {
    const SQRT2: f64 = core::f64::consts::SQRT_2;
    const TWO54: f64 = 18_014_398_509_481_984.0;
    const MANTISSA: u64 = (1 << 52) - 1;
    // Subnormals are scaled into the normal range first.
    let sub = x < f64::MIN_POSITIVE;
    let xs = select(sub, x * TWO54, x);
    let bits = xs.to_bits();
    // The biased exponent as an exact double: its bits under 2^52.
    let biased =
        f64::from_bits(0x4330_0000_0000_0000 | ((bits >> 52) & 0x7ff)) - 4_503_599_627_370_496.0;
    let e = biased - select(sub, 1077.0, 1023.0);
    // x = 2^e·m with m ∈ [1, 2); fold m > √2 to m/2 ∈ (1/√2, 1).
    let m = f64::from_bits((bits & MANTISSA) | 1.0f64.to_bits());
    let fold = m > SQRT2;
    let f = select(fold, m * 0.5, m) - 1.0;
    let k = e + select(fold, 1.0, 0.0);
    let r = ln_reduced(k, f);
    let r = select(x == 0.0, f64::NEG_INFINITY, r);
    let r = select(x < 0.0, f64::NAN, r);
    let r = select(x == f64::INFINITY, f64::INFINITY, r);
    select(x.is_nan(), x, r)
}

/// `cos(2π·u)` for `|u| < 2^49`, within 1 ulp of the exactly reduced
/// value (NaN propagates). Unlike `(TAU * u).cos()` it rounds no
/// product before the reduction, so `cos_tau(0.25)` is exactly `0`.
#[inline(always)]
#[must_use]
pub fn cos_tau(u: f64) -> f64 {
    // π/2 = PIO2_HI + PIO2_LO with PIO2_HI on 27 significant bits, so
    // its product with a 26-bit number is exact.
    const PIO2_HI: f64 = 1.570796325802803;
    const PIO2_LO: f64 = 9.920935796805404e-10;
    // fdlibm's minimax coefficients of sin and cos on [−π/4, π/4].
    const S1: f64 = -0.16666666666666632;
    const S2: f64 = 0.00833333333332249;
    const S3: f64 = -0.0001984126982985795;
    const S4: f64 = 2.7557313707070068e-06;
    const S5: f64 = -2.5050760253406863e-08;
    const S6: f64 = 1.58969099521155e-10;
    const C1: f64 = 0.0416666666666666;
    const C2: f64 = -0.001388888888887411;
    const C3: f64 = 2.480158728947673e-05;
    const C4: f64 = -2.7557314351390663e-07;
    const C5: f64 = 2.087572321298175e-09;
    const C6: f64 = -1.1359647557788195e-11;

    // v = 4u is exact; q = round(v) and t = v − q ∈ [−½, ½] are exact
    // too, and the quadrant q mod 4 sits in the low bits of `shifted`.
    let v = 4.0 * u;
    let shifted = v + SHIFTER;
    let t = v - (shifted - SHIFTER);
    let quadrant = shifted.to_bits();
    // x + y = t·π/2 in double-double: t = t_hi + t_lo with t_hi on 26
    // bits, so t_hi·PIO2_HI is exact.
    let t_hi = f64::from_bits(t.to_bits() & 0xffff_ffff_f800_0000);
    let t_lo = t - t_hi;
    let x_hi = t_hi * PIO2_HI;
    let x_lo = t_lo * PIO2_HI + t * PIO2_LO;
    let x = x_hi + x_lo;
    let y = (x_hi - x) + x_lo;

    let z = x * x;
    let w = z * z;
    // sin(x + y), fdlibm's __kernel_sin with its tail term.
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let zx = z * x;
    let sin = x - ((z * (0.5 * y - zx * r) - y) - zx * S1);
    // cos(x + y), fdlibm's __kernel_cos.
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let one_m_hz = 1.0 - hz;
    let cos = one_m_hz + (((1.0 - one_m_hz) - hz) + (z * r - x * y));
    // cos(q·π/2 + x): quadrants 0..3 give cos, −sin, −cos, sin.
    let odd = quadrant & 1 != 0;
    let negate = quadrant.wrapping_add(1) & 2 != 0;
    let value = select(odd, sin, cos);
    select(negate, -value, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 uniforms on `[lo, hi)`, seeded so every run draws
    /// the same points.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Distance in units in the last place of `want`, with the grid
    /// spacing of the smallest normal below it.
    fn ulps(got: f64, want: f64) -> f64 {
        if got == want {
            return 0.0;
        }
        let ulp = f64::from_bits(want.abs().max(f64::MIN_POSITIVE).to_bits() + 1)
            - want.abs().max(f64::MIN_POSITIVE);
        (got - want).abs() / ulp
    }

    /// Results are compared as the number of doubles between them and
    /// libm's (glibc, x86-64). Measured worst case: 1 for both `exp`
    /// and `ln` (libm's rounding and ours fall on adjacent doubles);
    /// the bound of 2 leaves one step of headroom.
    #[test]
    fn exp_and_ln_match_libm_within_one_ulp() {
        let mut worst_exp = 0.0f64;
        for i in -750_000..=712_000 {
            let y = f64::from(i) * 1e-3;
            worst_exp = worst_exp.max(ulps(exp(y), y.exp()));
        }
        let mut worst_ln = 0.0f64;
        for i in 1..=2_000_000 {
            let x = f64::from(i) * 1e-5;
            worst_ln = worst_ln.max(ulps(ln(x), x.ln()));
        }
        let mut rng = SplitMix(0x6d61_7468);
        for _ in 0..200_000 {
            let y = rng.uniform(-745.0, 709.7);
            worst_exp = worst_exp.max(ulps(exp(y), y.exp()));
            // Every binade: a random mantissa at a random exponent.
            let x = rng.uniform(1.0, 2.0) * 2f64.powi(rng.uniform(-1074.0, 1023.0) as i32);
            worst_ln = worst_ln.max(ulps(ln(x), x.ln()));
            // The 53-bit uniform grid Box–Muller feeds it.
            let u = ((rng.next() >> 11).max(1)) as f64 / (1u64 << 53) as f64;
            worst_ln = worst_ln.max(ulps(ln(u), u.ln()));
        }
        assert!(worst_exp <= 2.0, "exp worst {worst_exp} ulp");
        assert!(worst_ln <= 2.0, "ln worst {worst_ln} ulp");
    }

    #[test]
    fn exp_and_ln_special_values() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp(-800.0), 0.0);
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(709.79), f64::INFINITY);
        assert!(exp(709.78).is_finite());
        assert!(exp(f64::NAN).is_nan());
        // Subnormal results round once.
        assert_eq!(exp(-745.0), (-745.0f64).exp());
        assert_eq!(ln(1.0), 0.0);
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert_eq!(ln(f64::INFINITY), f64::INFINITY);
        assert!(ln(-1.0).is_nan() && ln(f64::NAN).is_nan());
        assert_eq!(ln(f64::from_bits(1)), f64::from_bits(1).ln());
        assert_eq!(ln(f64::MAX), f64::MAX.ln());
    }

    /// `ln_1p_unit` is the MOSFET kernel's softplus term, against
    /// libm's `ln_1p`: measured worst case 1 double apart, bound 2.
    #[test]
    fn ln_1p_unit_matches_libm_within_one_ulp() {
        let mut worst = 0.0f64;
        for i in 0..=1_000_000 {
            let e = f64::from(i) * 1e-6;
            worst = worst.max(ulps(ln_1p_unit(e), e.ln_1p()));
        }
        assert!(worst <= 2.0, "ln_1p_unit worst {worst} ulp");
    }

    /// Against libm on the same exact reduction (only the polynomials
    /// and the tail correction are compared) the measured worst case is
    /// 1 double apart; the bound is 2. On the unit interval Box–Muller
    /// draws from, `(TAU * u).cos()` also carries the rounding of
    /// `TAU * u` (half an ulp of 2π, 4.4e-16): measured worst 6.7e-16
    /// absolute, bound one ulp of 2π (`2^−50` ≈ 8.9e-16).
    #[test]
    fn cos_tau_matches_libm() {
        // The reference: libm's cos and sin at x = fl(t·π/2), corrected
        // to first order by the product's exact tail (Dekker's
        // two-product), so it carries libm's rounding and nothing of
        // the reduction.
        let reduced = |u: f64| {
            let v = 4.0 * u;
            let q = v.round();
            let t = v - q;
            let split = |a: f64| {
                let c = a * 134_217_729.0;
                let hi = c - (c - a);
                (hi, a - hi)
            };
            let x = t * core::f64::consts::FRAC_PI_2;
            let (th, tl) = split(t);
            let (ph, pl) = split(core::f64::consts::FRAC_PI_2);
            let err = ((th * ph - x) + th * pl + tl * ph) + tl * pl;
            // π/2 − FRAC_PI_2, the constant's own rounding.
            let tail = err + t * 6.123_233_995_736_766e-17;
            match (q as i64).rem_euclid(4) {
                0 => x.cos() - tail * x.sin(),
                1 => -(x.sin() + tail * x.cos()),
                2 => -(x.cos() - tail * x.sin()),
                _ => x.sin() + tail * x.cos(),
            }
        };
        let mut worst_ulp = 0.0f64;
        let mut worst_abs = 0.0f64;
        let mut check = |u: f64, unit_interval: bool| {
            let got = cos_tau(u);
            worst_ulp = worst_ulp.max(ulps(got, reduced(u)));
            if unit_interval {
                worst_abs = worst_abs.max((got - (core::f64::consts::TAU * u).cos()).abs());
            }
        };
        for i in 0..=2_000_000 {
            check(f64::from(i) / 2_000_000.0, true);
        }
        let mut rng = SplitMix(0x636f_7374);
        for _ in 0..500_000 {
            check((rng.next() >> 11) as f64 / (1u64 << 53) as f64, true);
            check(rng.uniform(-1000.0, 1000.0), false);
        }
        assert!(worst_ulp <= 2.0, "cos_tau worst {worst_ulp} ulp");
        assert!(
            worst_abs <= 2f64.powi(-50),
            "cos_tau worst abs {worst_abs:e}"
        );
        assert_eq!(cos_tau(0.0), 1.0);
        assert_eq!(cos_tau(0.25), 0.0);
        assert_eq!(cos_tau(0.5), -1.0);
        assert_eq!(cos_tau(0.75), 0.0);
        assert!(cos_tau(f64::NAN).is_nan());
    }
}
