//! A SPICE-class analog circuit simulator.
//!
//! This crate is the simulation substrate the flip-flop reproduction runs
//! on — the role Cadence Spectre plays in the paper. It implements the
//! textbook formulation used by SPICE-family tools:
//!
//! * **Modified nodal analysis** (MNA): unknowns are node voltages plus
//!   one branch current per voltage source; every device *stamps* its
//!   linearized contribution into a sparse system solved by sparse LU
//!   (`linalg`): the pattern is frozen when the circuit's stamp plan is
//!   built, the pivot order is chosen once per analysis, and every
//!   Newton step refactors in place. A dense LU with partial pivoting
//!   stays as a correctness oracle.
//! * **Newton–Raphson** for nonlinear devices, with `gmin` stepping for
//!   the operating point and voltage-step damping for robustness
//!   ([`analysis`]).
//! * **Transient analysis** with backward-Euler or trapezoidal companion
//!   models for capacitors and adaptive step halving on non-convergence.
//! * An all-region **EKV-style MOSFET** compact model calibrated to a
//!   40 nm low-power CMOS process with SS/TT/FF corners (`mosfet`).
//! * A stateful **MTJ device** bridging to the [`mtj`] compact model:
//!   its resistance follows the magnetisation state and the transient
//!   loop integrates switching progress from the solved branch current.
//!
//! Circuits are built flat, programmatically, with [`Circuit`],
//! simulated with [`analysis::op`], [`analysis::transient`] or a
//! [`SimulationSession`], and interrogated through [`TransientResult`]
//! and the measurement helpers in [`measure`] (threshold crossings,
//! delays, supply energy).
//!
//! Repeated simulation of one circuit — corner sweeps, margin scans,
//! restore/store characterization — should go through a
//! [`SimulationSession`], which keeps the solver workspace (MNA matrix,
//! LU scratch, device stamp plan, capacitor histories) alive between
//! runs and reports the work done via [`SolverStats`]. Use
//! [`Circuit::snapshot`] / [`Circuit::restore`] to rewind MTJ state and
//! source waveforms between runs.
//!
//! # Examples
//!
//! An RC low-pass step response, checked against the analytic solution:
//!
//! ```
//! use spice::{Circuit, SourceWaveform, analysis};
//! use units::{Capacitance, Resistance, Time, Voltage};
//!
//! # fn main() -> Result<(), spice::SpiceError> {
//! let mut ckt = Circuit::new();
//! let inp = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.add_voltage_source("VIN", inp, Circuit::GROUND, SourceWaveform::dc(Voltage::from_volts(1.0)));
//! ckt.add_resistor("R1", inp, out, Resistance::from_kilo_ohms(1.0));
//! ckt.add_capacitor("C1", out, Circuit::GROUND, Capacitance::from_pico_farads(1.0));
//!
//! let result = analysis::transient(
//!     &mut ckt,
//!     Time::from_nano_seconds(5.0),
//!     Time::from_pico_seconds(10.0),
//! )?;
//! let v_end = result.node("out")?.last_value();
//! assert!((v_end - 1.0).abs() < 1e-3); // fully charged after 5τ
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod circuit;
mod device;
mod error;
mod linalg;
pub mod measure;
mod mosfet;
pub mod result;
mod source;

pub use analysis::{SimulationSession, SolverKind, SolverStats, TransientOptions};
pub use circuit::{Circuit, NodeId};
pub use device::Device;
pub use error::SpiceError;
pub use mosfet::{CmosCorner, Technology};
pub use result::TransientResult;
pub use source::SourceWaveform;
