//! Typed physical quantities for circuit-level and physical-design modelling.
//!
//! Every quantity is a newtype over `f64` storing the value in its base SI
//! unit (volts, amperes, seconds, …). Construction helpers accept the SI
//! prefixes that actually occur in the spintronic flip-flop design space
//! (`Voltage::from_volts(1.1)`, `Current::from_micro_amps(70.0)`,
//! `Time::from_pico_seconds(187.0)`), and [`Display`] renders engineering
//! notation so simulation reports read like a datasheet.
//!
//! Dimensional arithmetic is implemented for the products and quotients
//! that appear in the codebase: `V / I = R`, `V * I = P`, `P * t = E`,
//! `C * V = Q`, `Q / t = I`, `Length * Length = Area`, and so on. This is
//! deliberately not a full dimensional-analysis framework — it is the small,
//! auditable set of relations a circuit simulator needs, kept honest by the
//! type system (see C-NEWTYPE).
//!
//! [`math`] holds the branch-free, libm-free `exp`, `ln` and `cos(2πu)`
//! kernels that the vectorized MOSFET and Monte-Carlo loops share.
//!
//! # Examples
//!
//! ```
//! use units::{Voltage, Resistance, Time};
//!
//! let vdd = Voltage::from_volts(1.1);
//! let r_p = Resistance::from_kilo_ohms(5.0);
//! let i = vdd / r_p;
//! assert!((i.amps() - 220e-6).abs() < 1e-12);
//!
//! let delay = Time::from_pico_seconds(187.0);
//! assert_eq!(format!("{delay}"), "187 ps");
//! ```
//!
//! [`Display`]: core::fmt::Display

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fmt_eng;
pub mod math;
mod quantities;

pub use fmt_eng::format_engineering;
pub use quantities::{
    Area, Capacitance, Charge, Current, Energy, Length, Power, Resistance, Temperature, Time,
    Voltage,
};
