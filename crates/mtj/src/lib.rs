//! Compact model of a spin-transfer-torque (STT) magnetic tunnel junction.
//!
//! A magnetic tunnel junction (MTJ) stores one bit as the relative magnetic
//! orientation of a free layer (FL) against a reference layer (RL) across a
//! thin MgO barrier. Parallel (`P`) orientation is low resistance, while
//! anti-parallel (`AP`) is high resistance; the ratio is the tunnelling
//! magneto-resistance (TMR). A sufficiently large current through the stack
//! transfers spin angular momentum and switches the free layer — the storage
//! mechanism exploited by the non-volatile flip-flops reproduced in this
//! repository.
//!
//! The model follows the precessional compact model of Mejdoubi et al.
//! (MIEL 2012, reference 29 of the paper) with the parameters of the
//! paper's Table I (`MtjParams::date2018`):
//!
//! * geometry: 20 nm radius, 1.84 nm free layer, 1.48 nm oxide;
//! * RA = 1.26 Ωµm², TMR(0 V) = 123 %, Rp = 5 kΩ, Rap = 11 kΩ;
//! * critical current 37 µA, nominal write current 70 µA.
//!
//! Three layers build on the static parameters:
//!
//! * [`resistance`] — bias-dependent resistance `R(state, V)` with TMR
//!   roll-off, the quantity a sense amplifier actually discriminates;
//! * `switching` — Sun-model switching delay vs. current (precessional
//!   regime) and thermally activated switching below the critical current;
//! * `device` — a stateful [`device::Mtj`] that integrates switching
//!   progress under a time-varying current, which is what the transient
//!   circuit simulator steps;
//! * `variation` / [`montecarlo`] — ±3σ process variation on RA, TMR and
//!   switching current, matching the paper's corner methodology;
//! * [`wer`] / [`lanes`] — stochastic write-error-rate kernels: a
//!   counter-seeded scalar reference and a lane-batched
//!   structure-of-arrays engine returning bit-identical counts at SIMD
//!   throughput.
//!
//! # Examples
//!
//! ```
//! use mtj::{MtjParams, MtjState};
//!
//! let params = MtjParams::date2018();
//! let rp = params.resistance_at(MtjState::Parallel, units::Voltage::ZERO);
//! let rap = params.resistance_at(MtjState::AntiParallel, units::Voltage::ZERO);
//! assert!(rap > rp);
//! assert!((rap / rp - (1.0 + params.tmr_zero_bias())).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
pub mod lanes;
pub mod montecarlo;
mod params;
pub mod rare;
pub mod resistance;
mod switching;
pub mod thermal;
mod variation;
pub mod wer;

pub use device::{Mtj, WritePolarity};
pub use params::{MtjParams, MtjParamsBuilder, ValidateParamsError};
pub use resistance::MtjState;
pub use switching::SwitchingModel;
pub use thermal::ThermalModel;
pub use variation::{MtjCorner, MtjSample, VariationModel};
