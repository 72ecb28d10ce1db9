//! Waveform measurement primitives: interpolation, threshold crossings
//! and numeric integration over sampled traces.
//!
//! These free functions operate on parallel `(times, values)` slices; the
//! [`crate::result::Trace`] view wraps them with a method API. They are
//! the building blocks of every Table II metric: read delay is a
//! threshold crossing, read energy is an integrated supply power product,
//! and leakage is an averaged steady-state power.

/// Edge direction of a threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// Value passes the threshold going up.
    Rising,
    /// Value passes the threshold going down.
    Falling,
    /// Either direction.
    Either,
}

/// Linear interpolation of a sampled waveform at time `t`, clamped to the
/// first/last sample outside the record.
///
/// # Panics
///
/// Panics if the slices are empty or of different lengths.
#[must_use]
pub fn interpolate(times: &[f64], values: &[f64], t: f64) -> f64 {
    assert_eq!(times.len(), values.len(), "trace slices must be parallel");
    assert!(!times.is_empty(), "cannot interpolate an empty trace");
    if t <= times[0] {
        return values[0];
    }
    if t >= times[times.len() - 1] {
        return values[values.len() - 1];
    }
    let idx = times.partition_point(|&pt| pt <= t);
    let (t0, t1) = (times[idx - 1], times[idx]);
    let (v0, v1) = (values[idx - 1], values[idx]);
    if t1 == t0 {
        return v1;
    }
    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
}

/// All interpolated times at which the waveform crosses `threshold` with
/// the requested `edge`, in order.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub(crate) fn crossings(times: &[f64], values: &[f64], threshold: f64, edge: Edge) -> Vec<f64> {
    assert_eq!(times.len(), values.len(), "trace slices must be parallel");
    let mut out = Vec::new();
    for i in 1..times.len() {
        let (v0, v1) = (values[i - 1], values[i]);
        let rising = v0 < threshold && v1 >= threshold;
        let falling = v0 > threshold && v1 <= threshold;
        let hit = match edge {
            Edge::Rising => rising,
            Edge::Falling => falling,
            Edge::Either => rising || falling,
        };
        if hit {
            let frac = if v1 == v0 {
                1.0
            } else {
                (threshold - v0) / (v1 - v0)
            };
            out.push(times[i - 1] + frac * (times[i] - times[i - 1]));
        }
    }
    out
}

/// First crossing of `threshold` with direction `edge` at or after
/// `after`, if any.
#[must_use]
pub(crate) fn first_crossing_after(
    times: &[f64],
    values: &[f64],
    threshold: f64,
    edge: Edge,
    after: f64,
) -> Option<f64> {
    crossings(times, values, threshold, edge)
        .into_iter()
        .find(|&t| t >= after)
}

/// Trapezoidal integral of the waveform over `[from, to]`, with linear
/// interpolation at the window boundaries.
///
/// Returns 0 for an empty or single-sample trace, or when `to ≤ from`.
#[must_use]
pub(crate) fn integrate(times: &[f64], values: &[f64], from: f64, to: f64) -> f64 {
    integrate_product(times, values, None, from, to)
}

/// Trapezoidal integral of `a(t)·b(t)` over `[from, to]` (used for
/// instantaneous power `v·i`); passing `None` for `b` integrates `a`
/// alone.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub(crate) fn integrate_product(
    times: &[f64],
    a: &[f64],
    b: Option<&[f64]>,
    from: f64,
    to: f64,
) -> f64 {
    assert_eq!(times.len(), a.len(), "trace slices must be parallel");
    if let Some(b) = b {
        assert_eq!(times.len(), b.len(), "trace slices must be parallel");
    }
    if times.len() < 2 || to <= from {
        return 0.0;
    }
    let eval = |t: f64| -> f64 {
        let va = interpolate(times, a, t);
        match b {
            Some(b) => va * interpolate(times, b, t),
            None => va,
        }
    };
    let lo = from.max(times[0]);
    let hi = to.min(times[times.len() - 1]);
    if hi <= lo {
        return 0.0;
    }
    // Integrate segment by segment, splitting at the window edges.
    let mut total = 0.0;
    let mut t_prev = lo;
    let mut f_prev = eval(lo);
    for (&t, _) in times.iter().zip(a.iter()) {
        if t <= lo {
            continue;
        }
        let t_cur = t.min(hi);
        let f_cur = eval(t_cur);
        total += 0.5 * (f_prev + f_cur) * (t_cur - t_prev);
        t_prev = t_cur;
        f_prev = f_cur;
        if t >= hi {
            break;
        }
    }
    if t_prev < hi {
        let f_hi = eval(hi);
        total += 0.5 * (f_prev + f_hi) * (hi - t_prev);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMES: [f64; 5] = [0.0, 1.0, 2.0, 3.0, 4.0];
    const RAMP: [f64; 5] = [0.0, 1.0, 2.0, 3.0, 4.0];
    const TRIANGLE: [f64; 5] = [0.0, 1.0, 0.0, 1.0, 0.0];

    #[test]
    fn interpolation_with_clamping() {
        assert_eq!(interpolate(&TIMES, &RAMP, 1.5), 1.5);
        assert_eq!(interpolate(&TIMES, &RAMP, -1.0), 0.0);
        assert_eq!(interpolate(&TIMES, &RAMP, 9.0), 4.0);
        assert_eq!(interpolate(&TIMES, &RAMP, 2.0), 2.0);
    }

    #[test]
    fn crossing_directions() {
        let rising = crossings(&TIMES, &TRIANGLE, 0.5, Edge::Rising);
        let falling = crossings(&TIMES, &TRIANGLE, 0.5, Edge::Falling);
        let either = crossings(&TIMES, &TRIANGLE, 0.5, Edge::Either);
        assert_eq!(rising, vec![0.5, 2.5]);
        assert_eq!(falling, vec![1.5, 3.5]);
        assert_eq!(either, vec![0.5, 1.5, 2.5, 3.5]);
    }

    #[test]
    fn first_crossing_respects_after() {
        assert_eq!(
            first_crossing_after(&TIMES, &TRIANGLE, 0.5, Edge::Rising, 1.0),
            Some(2.5)
        );
        assert_eq!(
            first_crossing_after(&TIMES, &TRIANGLE, 0.5, Edge::Rising, 3.0),
            None
        );
    }

    #[test]
    fn no_crossing_returns_empty() {
        assert!(crossings(&TIMES, &RAMP, 10.0, Edge::Either).is_empty());
    }

    #[test]
    fn integral_of_ramp() {
        // ∫₀⁴ t dt = 8.
        assert!((integrate(&TIMES, &RAMP, 0.0, 4.0) - 8.0).abs() < 1e-12);
        // Sub-window [1, 3]: ∫ t dt = 4.
        assert!((integrate(&TIMES, &RAMP, 1.0, 3.0) - 4.0).abs() < 1e-12);
        // Window boundaries between samples: [0.5, 1.5] → ∫ = 1.0.
        assert!((integrate(&TIMES, &RAMP, 0.5, 1.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn integral_of_product() {
        // ∫₀⁴ t·t dt with piecewise-linear t²-approximation: the trapezoid
        // of the exact product samples overestimates t³/3 slightly; the
        // measurement integrates the product of *linear* interpolants
        // segment-by-segment, evaluated at segment ends, so it equals the
        // trapezoid rule on f(t) = t²: 0.5+1.5·... = 22.
        let v = integrate_product(&TIMES, &RAMP, Some(&RAMP), 0.0, 4.0);
        assert!((v - 22.0).abs() < 1e-12, "v = {v}");
    }

    #[test]
    fn degenerate_windows_are_zero() {
        assert_eq!(integrate(&TIMES, &RAMP, 3.0, 1.0), 0.0);
        assert_eq!(integrate(&[0.0], &[1.0], 0.0, 1.0), 0.0);
        assert_eq!(integrate(&TIMES, &RAMP, 10.0, 12.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_slices_panic() {
        let _ = interpolate(&TIMES, &RAMP[..3], 1.0);
    }
}
