//! Independent source waveforms.

use units::{Time, Voltage};

/// Time-dependent value of an independent voltage or current source.
///
/// Values are in the source's natural unit (volts or amperes); the
/// constructors taking [`Voltage`] are sugar for the common case.
///
/// # Examples
///
/// A 1.1 V supply and an active-high control pulse:
///
/// ```
/// use spice::SourceWaveform;
/// use units::{Time, Voltage};
///
/// let vdd = SourceWaveform::dc(Voltage::from_volts(1.1));
/// assert_eq!(vdd.value_at(0.0), 1.1);
///
/// let pc = SourceWaveform::pulse(
///     Voltage::ZERO,
///     Voltage::from_volts(1.1),
///     Time::from_pico_seconds(100.0), // delay
///     Time::from_pico_seconds(10.0),  // rise
///     Time::from_pico_seconds(10.0),  // fall
///     Time::from_pico_seconds(200.0), // width
/// );
/// assert_eq!(pc.value_at(0.0), 0.0);
/// assert_eq!(pc.value_at(150e-12), 1.1);
/// assert_eq!(pc.value_at(400e-12), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum SourceWaveform {
    /// A constant value.
    Dc(f64),
    /// A single trapezoidal pulse: `v0` until `delay`, linear rise over
    /// `rise`, hold `v1` for `width`, linear fall over `fall`, then `v0`.
    Pulse {
        /// Initial (and final) level.
        v0: f64,
        /// Pulsed level.
        v1: f64,
        /// Time the rise starts, seconds.
        delay: f64,
        /// Rise duration, seconds.
        rise: f64,
        /// Fall duration, seconds.
        fall: f64,
        /// Hold duration at `v1`, seconds.
        width: f64,
    },
    /// Piecewise-linear waveform through `(time, value)` points, held
    /// constant before the first and after the last point. Points must be
    /// sorted by time.
    Pwl(Vec<(f64, f64)>),
}

impl SourceWaveform {
    /// A constant (DC) voltage.
    #[must_use]
    pub fn dc(v: Voltage) -> Self {
        Self::Dc(v.volts())
    }

    /// A single trapezoidal voltage pulse (see the type-level example).
    #[must_use]
    pub fn pulse(
        v0: Voltage,
        v1: Voltage,
        delay: Time,
        rise: Time,
        fall: Time,
        width: Time,
    ) -> Self {
        Self::Pulse {
            v0: v0.volts(),
            v1: v1.volts(),
            delay: delay.seconds(),
            rise: rise.seconds(),
            fall: fall.seconds(),
            width: width.seconds(),
        }
    }

    /// A piecewise-linear voltage waveform from `(time, level)` points.
    ///
    /// # Panics
    ///
    /// Panics if the points are not sorted by strictly increasing time —
    /// an unsorted PWL is always a construction bug.
    #[must_use]
    pub fn pwl<I>(points: I) -> Self
    where
        I: IntoIterator<Item = (Time, Voltage)>,
    {
        let pts: Vec<(f64, f64)> = points
            .into_iter()
            .map(|(t, v)| (t.seconds(), v.volts()))
            .collect();
        assert!(
            pts.windows(2).all(|w| w[0].0 < w[1].0),
            "PWL points must have strictly increasing times"
        );
        Self::Pwl(pts)
    }

    /// The source value at simulation time `t` (seconds).
    #[must_use]
    pub fn value_at(&self, t: f64) -> f64 {
        match self {
            Self::Dc(v) => *v,
            Self::Pulse {
                v0,
                v1,
                delay,
                rise,
                fall,
                width,
            } => {
                let rise_end = delay + rise;
                let fall_start = rise_end + width;
                let fall_end = fall_start + fall;
                if t <= *delay || t >= fall_end {
                    *v0
                } else if t < rise_end {
                    // Zero-duration edges snap straight to v1.
                    if *rise == 0.0 {
                        *v1
                    } else {
                        v0 + (v1 - v0) * (t - delay) / rise
                    }
                } else if t <= fall_start {
                    *v1
                } else if *fall == 0.0 {
                    *v0
                } else {
                    v1 + (v0 - v1) * (t - fall_start) / fall
                }
            }
            Self::Pwl(points) => match points.len() {
                0 => 0.0,
                1 => points[0].1,
                _ => {
                    if t <= points[0].0 {
                        return points[0].1;
                    }
                    if t >= points[points.len() - 1].0 {
                        return points[points.len() - 1].1;
                    }
                    let idx = points.partition_point(|&(pt, _)| pt <= t);
                    let (t0, v0) = points[idx - 1];
                    let (t1, v1) = points[idx];
                    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                }
            },
        }
    }

    /// The earliest time at or after `t` where the waveform has a
    /// breakpoint (corner). Transient analysis aligns steps to these so a
    /// sharp control edge is never stepped over.
    #[must_use]
    pub(crate) fn next_breakpoint(&self, t: f64) -> Option<f64> {
        const EPS: f64 = 1e-18;
        match self {
            Self::Dc(_) => None,
            Self::Pulse {
                delay,
                rise,
                fall,
                width,
                ..
            } => {
                let corners = [
                    *delay,
                    delay + rise,
                    delay + rise + width,
                    delay + rise + width + fall,
                ];
                corners.iter().copied().find(|&c| c > t + EPS)
            }
            Self::Pwl(points) => points.iter().map(|&(pt, _)| pt).find(|&pt| pt > t + EPS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_flat() {
        let w = SourceWaveform::dc(Voltage::from_volts(1.1));
        assert_eq!(w.value_at(0.0), 1.1);
        assert_eq!(w.value_at(1.0), 1.1);
        assert_eq!(w.next_breakpoint(0.0), None);
    }

    fn pulse() -> SourceWaveform {
        SourceWaveform::pulse(
            Voltage::ZERO,
            Voltage::from_volts(1.0),
            Time::from_nano_seconds(1.0),
            Time::from_pico_seconds(100.0),
            Time::from_pico_seconds(100.0),
            Time::from_nano_seconds(2.0),
        )
    }

    #[test]
    fn pulse_piecewise_values() {
        let w = pulse();
        assert_eq!(w.value_at(0.0), 0.0);
        assert_eq!(w.value_at(1e-9), 0.0);
        // Mid-rise at 1.05 ns → 0.5 V.
        assert!((w.value_at(1.05e-9) - 0.5).abs() < 1e-12);
        assert_eq!(w.value_at(2e-9), 1.0);
        // Mid-fall at 3.15 ns → 0.5 V.
        assert!((w.value_at(3.15e-9) - 0.5).abs() < 1e-9);
        assert_eq!(w.value_at(4e-9), 0.0);
    }

    #[test]
    fn pulse_breakpoints_in_order() {
        let w = pulse();
        let mut t = 0.0;
        let mut corners = Vec::new();
        while let Some(c) = w.next_breakpoint(t) {
            corners.push(c);
            t = c;
        }
        let expected = [1e-9, 1.1e-9, 3.1e-9, 3.2e-9];
        assert_eq!(corners.len(), expected.len());
        for (c, e) in corners.iter().zip(expected.iter()) {
            assert!((c - e).abs() < 1e-15);
        }
    }

    #[test]
    fn zero_duration_edges_are_steps() {
        let w = SourceWaveform::Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 1e-9,
            rise: 0.0,
            fall: 0.0,
            width: 1e-9,
        };
        assert_eq!(w.value_at(1e-9), 0.0); // boundary belongs to v0
        assert_eq!(w.value_at(1.5e-9), 1.0);
        assert_eq!(w.value_at(2.5e-9), 0.0);
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = SourceWaveform::pwl([
            (Time::from_nano_seconds(1.0), Voltage::ZERO),
            (Time::from_nano_seconds(2.0), Voltage::from_volts(1.0)),
            (Time::from_nano_seconds(3.0), Voltage::from_volts(0.25)),
        ]);
        assert_eq!(w.value_at(0.0), 0.0); // clamp before
        assert!((w.value_at(1.5e-9) - 0.5).abs() < 1e-12);
        assert!((w.value_at(2.5e-9) - 0.625).abs() < 1e-12);
        assert_eq!(w.value_at(5e-9), 0.25); // clamp after
        assert_eq!(w.next_breakpoint(1.5e-9), Some(2e-9));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_pwl_panics() {
        let _ = SourceWaveform::pwl([
            (Time::from_nano_seconds(2.0), Voltage::ZERO),
            (Time::from_nano_seconds(1.0), Voltage::ZERO),
        ]);
    }

    #[test]
    fn degenerate_pwl() {
        assert_eq!(SourceWaveform::Pwl(vec![]).value_at(1.0), 0.0);
        assert_eq!(SourceWaveform::Pwl(vec![(0.0, 2.0)]).value_at(5.0), 2.0);
    }
}
