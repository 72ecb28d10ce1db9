//! Quantity newtypes and their dimensional arithmetic.

use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::fmt_eng::format_engineering;

/// Defines one quantity newtype over `f64` with the shared scalar algebra.
macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, $unit:literal, $base_ctor:ident, $base_getter:ident,
        [ $( ($ctor:ident, $getter:ident, $scale:expr) ),* $(,)? ]
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            #[doc = concat!("Creates a value from base units (", $unit, ").")]
            ///
            /// # Examples
            ///
            /// ```
            #[doc = concat!("let q = units::", stringify!($name), "::", stringify!($base_ctor), "(1.5);")]
            #[doc = concat!("assert_eq!(q.", stringify!($base_getter), "(), 1.5);")]
            /// ```
            #[must_use]
            pub const fn $base_ctor(value: f64) -> Self {
                Self(value)
            }

            #[doc = concat!("Returns the value in base units (", $unit, ").")]
            #[must_use]
            pub const fn $base_getter(self) -> f64 {
                self.0
            }

            $(
                #[doc = concat!("Creates a value from the prefixed unit (×", stringify!($scale), " ", $unit, ").")]
                #[must_use]
                pub fn $ctor(value: f64) -> Self {
                    Self(value * $scale)
                }

                #[doc = concat!("Returns the value in the prefixed unit (×", stringify!($scale), " ", $unit, ").")]
                #[must_use]
                pub fn $getter(self) -> f64 {
                    self.0 / $scale
                }
            )*

            /// Returns the absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of `self` and `other` (NaN-propagating via
            /// `f64::max` semantics: NaN loses).
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns `true` if the underlying value is finite.
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&format_engineering(self.0, $unit))
            }
        }

        impl PartialOrd for $name {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                self.0.partial_cmp(&other.0)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }
    };
}

quantity!(
    /// Electric potential, stored in volts.
    Voltage, "V", from_volts, volts,
    [(from_milli_volts, milli_volts, 1e-3)]
);

quantity!(
    /// Electric current, stored in amperes.
    Current, "A", from_amps, amps,
    [
        (from_milli_amps, milli_amps, 1e-3),
        (from_micro_amps, micro_amps, 1e-6),
        (from_nano_amps, nano_amps, 1e-9),
        (from_pico_amps, pico_amps, 1e-12),
    ]
);

quantity!(
    /// Electrical resistance, stored in ohms.
    Resistance, "Ω", from_ohms, ohms,
    [
        (from_kilo_ohms, kilo_ohms, 1e3),
        (from_mega_ohms, mega_ohms, 1e6),
    ]
);

quantity!(
    /// Capacitance, stored in farads.
    Capacitance, "F", from_farads, farads,
    [
        (from_pico_farads, pico_farads, 1e-12),
        (from_femto_farads, femto_farads, 1e-15),
        (from_atto_farads, atto_farads, 1e-18),
    ]
);

quantity!(
    /// Time, stored in seconds.
    Time, "s", from_seconds, seconds,
    [
        (from_micro_seconds, micro_seconds, 1e-6),
        (from_nano_seconds, nano_seconds, 1e-9),
        (from_pico_seconds, pico_seconds, 1e-12),
        (from_femto_seconds, femto_seconds, 1e-15),
    ]
);

quantity!(
    /// Energy, stored in joules.
    Energy, "J", from_joules, joules,
    [
        (from_pico_joules, pico_joules, 1e-12),
        (from_femto_joules, femto_joules, 1e-15),
        (from_atto_joules, atto_joules, 1e-18),
    ]
);

quantity!(
    /// Power, stored in watts.
    Power, "W", from_watts, watts,
    [
        (from_milli_watts, milli_watts, 1e-3),
        (from_micro_watts, micro_watts, 1e-6),
        (from_nano_watts, nano_watts, 1e-9),
        (from_pico_watts, pico_watts, 1e-12),
    ]
);

quantity!(
    /// Electric charge, stored in coulombs.
    Charge, "C", from_coulombs, coulombs,
    [(from_femto_coulombs, femto_coulombs, 1e-15)]
);

quantity!(
    /// Length, stored in metres.
    Length, "m", from_meters, meters,
    [
        (from_micro_meters, micro_meters, 1e-6),
        (from_nano_meters, nano_meters, 1e-9),
    ]
);

/// Planar area, stored in square metres.
///
/// Areas in physical design are usually quoted in µm²; see
/// [`Area::from_square_micro_meters`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Area(f64);

impl Area {
    /// The zero area.
    pub const ZERO: Self = Self(0.0);

    /// Creates an area from square metres.
    #[must_use]
    pub(crate) const fn from_square_meters(value: f64) -> Self {
        Self(value)
    }

    /// Returns the area in square metres.
    #[must_use]
    pub(crate) const fn square_meters(self) -> f64 {
        self.0
    }

    /// Creates an area from square micrometres (the standard-cell unit).
    ///
    /// # Examples
    ///
    /// ```
    /// let cell = units::Area::from_square_micro_meters(3.696);
    /// assert!((cell.square_micro_meters() - 3.696).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn from_square_micro_meters(value: f64) -> Self {
        Self(value * 1e-12)
    }

    /// Returns the area in square micrometres.
    #[must_use]
    pub fn square_micro_meters(self) -> f64 {
        self.0 / 1e-12
    }

    /// Returns the absolute value.
    #[must_use]
    pub fn abs(self) -> Self {
        Self(self.0.abs())
    }
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Engineering prefixes do not compose for squared units; report µm².
        write!(f, "{:.3} µm²", self.square_micro_meters())
    }
}

impl PartialOrd for Area {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.0.partial_cmp(&other.0)
    }
}

impl Add for Area {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for Area {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for Area {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl Mul<f64> for Area {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Div<f64> for Area {
    type Output = Self;
    fn div(self, rhs: f64) -> Self {
        Self(self.0 / rhs)
    }
}

impl Div for Area {
    type Output = f64;
    fn div(self, rhs: Self) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Area {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Self(iter.map(|a| a.0).sum())
    }
}

/// Temperature, stored in degrees Celsius (the unit circuit setups quote).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Temperature(f64);

impl Temperature {
    /// Absolute zero expressed in Celsius.
    pub const ABSOLUTE_ZERO: Self = Self(-273.15);

    /// Creates a temperature from degrees Celsius.
    #[must_use]
    pub const fn from_celsius(value: f64) -> Self {
        Self(value)
    }

    /// Returns the temperature in degrees Celsius.
    #[must_use]
    pub const fn celsius(self) -> f64 {
        self.0
    }

    /// Returns the temperature in kelvin.
    ///
    /// # Examples
    ///
    /// ```
    /// let room = units::Temperature::from_celsius(27.0);
    /// assert!((room.kelvin() - 300.15).abs() < 1e-9);
    /// ```
    #[must_use]
    pub fn kelvin(self) -> f64 {
        self.0 + 273.15
    }
}

impl fmt::Display for Temperature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} °C", self.0)
    }
}

impl PartialOrd for Temperature {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.0.partial_cmp(&other.0)
    }
}

// ---------------------------------------------------------------------------
// Cross-quantity relations (Ohm's law, power, charge, geometry).
// ---------------------------------------------------------------------------

impl Div<Current> for Voltage {
    type Output = Resistance;
    /// Ohm's law: `R = V / I`.
    fn div(self, rhs: Current) -> Resistance {
        Resistance::from_ohms(self.volts() / rhs.amps())
    }
}

impl Div<Resistance> for Voltage {
    type Output = Current;
    /// Ohm's law: `I = V / R`.
    fn div(self, rhs: Resistance) -> Current {
        Current::from_amps(self.volts() / rhs.ohms())
    }
}

impl Mul<Resistance> for Current {
    type Output = Voltage;
    /// Ohm's law: `V = I · R`.
    fn mul(self, rhs: Resistance) -> Voltage {
        Voltage::from_volts(self.amps() * rhs.ohms())
    }
}

impl Mul<Current> for Voltage {
    type Output = Power;
    /// Instantaneous power: `P = V · I`.
    fn mul(self, rhs: Current) -> Power {
        Power::from_watts(self.volts() * rhs.amps())
    }
}

impl Mul<Time> for Power {
    type Output = Energy;
    /// Energy over an interval: `E = P · t`.
    fn mul(self, rhs: Time) -> Energy {
        Energy::from_joules(self.watts() * rhs.seconds())
    }
}

impl Div<Time> for Energy {
    type Output = Power;
    /// Average power: `P = E / t`.
    fn div(self, rhs: Time) -> Power {
        Power::from_watts(self.joules() / rhs.seconds())
    }
}

impl Mul<Voltage> for Capacitance {
    type Output = Charge;
    /// Stored charge: `Q = C · V`.
    fn mul(self, rhs: Voltage) -> Charge {
        Charge::from_coulombs(self.farads() * rhs.volts())
    }
}

impl Mul<Time> for Current {
    type Output = Charge;
    /// Transferred charge: `Q = I · t`.
    fn mul(self, rhs: Time) -> Charge {
        Charge::from_coulombs(self.amps() * rhs.seconds())
    }
}

impl Div<Time> for Charge {
    type Output = Current;
    /// Average current: `I = Q / t`.
    fn div(self, rhs: Time) -> Current {
        Current::from_amps(self.coulombs() / rhs.seconds())
    }
}

impl Mul<Length> for Length {
    type Output = Area;
    /// Rectangle area: `A = w · h`.
    fn mul(self, rhs: Length) -> Area {
        Area::from_square_meters(self.meters() * rhs.meters())
    }
}

impl Div<Length> for Area {
    type Output = Length;
    /// Rectangle side: `w = A / h`.
    fn div(self, rhs: Length) -> Length {
        Length::from_meters(self.square_meters() / rhs.meters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn ohms_law_round_trips() {
        let v = Voltage::from_volts(1.1);
        let r = Resistance::from_kilo_ohms(11.0);
        let i = v / r;
        assert!((i.micro_amps() - 100.0).abs() < EPS);
        let back = i * r;
        assert!((back.volts() - 1.1).abs() < EPS);
        assert!(((v / i).ohms() - 11_000.0).abs() < 1e-6);
    }

    #[test]
    fn power_times_time_is_energy() {
        let p = Power::from_micro_watts(2.0);
        let t = Time::from_nano_seconds(3.0);
        let e = p * t;
        assert!((e.femto_joules() - 6.0).abs() < 1e-9);
        assert!(((e / t).micro_watts() - 2.0).abs() < EPS);
    }

    #[test]
    fn charge_relations() {
        let c = Capacitance::from_femto_farads(2.0);
        let v = Voltage::from_volts(1.1);
        let q = c * v;
        assert!((q.femto_coulombs() - 2.2).abs() < EPS);

        let i = Current::from_micro_amps(70.0);
        let t = Time::from_nano_seconds(2.0);
        assert!(((i * t).coulombs() - 140e-15).abs() < 1e-24);
        assert!(((q / t).amps() - 1.1e-6).abs() < 1e-12);
    }

    #[test]
    fn geometry_relations() {
        let w = Length::from_micro_meters(1.675);
        let h = Length::from_micro_meters(2.0);
        let a = w * h;
        assert!((a.square_micro_meters() - 3.35).abs() < EPS);
        assert!(((a / h).micro_meters() - 1.675).abs() < EPS);
    }

    #[test]
    fn scalar_algebra() {
        let mut e = Energy::from_femto_joules(2.0);
        e += Energy::from_femto_joules(3.0);
        assert!((e.femto_joules() - 5.0).abs() < EPS);
        e -= Energy::from_femto_joules(1.0);
        assert!((e.femto_joules() - 4.0).abs() < EPS);
        assert!(((-e).femto_joules() + 4.0).abs() < EPS);
        assert!(((e * 2.0).femto_joules() - 8.0).abs() < EPS);
        assert!(((2.0 * e).femto_joules() - 8.0).abs() < EPS);
        assert!(((e / 2.0).femto_joules() - 2.0).abs() < EPS);
        assert!((e / Energy::from_femto_joules(2.0) - 2.0).abs() < EPS);
    }

    #[test]
    fn sums_accumulate() {
        let total: Energy = (1..=4)
            .map(|k| Energy::from_femto_joules(f64::from(k)))
            .sum();
        assert!((total.femto_joules() - 10.0).abs() < EPS);
        let area: Area = [1.0, 2.5]
            .iter()
            .map(|&a| Area::from_square_micro_meters(a))
            .sum();
        assert!((area.square_micro_meters() - 3.5).abs() < EPS);
    }

    #[test]
    fn ordering_and_extrema() {
        let a = Time::from_pico_seconds(187.0);
        let b = Time::from_pico_seconds(360.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!((-a).abs(), a);
    }

    #[test]
    fn temperature_conversions() {
        let t = Temperature::from_celsius(27.0);
        assert!((t.kelvin() - 300.15).abs() < 1e-9);
    }

    #[test]
    fn display_uses_engineering_notation() {
        assert_eq!(Voltage::from_volts(1.1).to_string(), "1.1 V");
        assert_eq!(Current::from_micro_amps(37.0).to_string(), "37 µA");
        assert_eq!(Time::from_pico_seconds(600.0).to_string(), "600 ps");
        assert_eq!(Energy::from_femto_joules(104.0).to_string(), "104 fJ");
        assert_eq!(Power::from_pico_watts(4998.0).to_string(), "4.998 nW");
        assert_eq!(
            Area::from_square_micro_meters(5.635).to_string(),
            "5.635 µm²"
        );
        assert_eq!(Temperature::from_celsius(27.0).to_string(), "27 °C");
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Voltage::default(), Voltage::ZERO);
        assert_eq!(Area::default(), Area::ZERO);
    }
}
