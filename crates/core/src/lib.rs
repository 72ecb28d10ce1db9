//! `nvff` — the multi-bit non-volatile spintronic flip-flop.
//!
//! This crate is the top of the reproduction stack: it models the
//! paper's contribution (a 2-bit shadow latch shared between two
//! neighbouring flip-flops) and ties the substrate crates together:
//!
//! * [`behavior`] — cycle-level behavioral models of the NV flip-flops
//!   and the power-down (PD) protocol: capture, store, power-off,
//!   restore. This is the model a system simulator would instantiate.
//! * [`system`] — the Table III evaluator: the full
//!   synthesize → place → merge flow over the 13 benchmarks
//!   (*measured* mode), plus a *replay* mode that applies the paper's
//!   published per-cell costs and merge counts to verify Table III's
//!   arithmetic exactly.
//! * [`PowerGatingModel`] — the normally-off/instant-on energy model:
//!   when does power-gating with NV backup pay off, given store/restore
//!   costs.
//! * [`paper`] — every number the paper publishes (Tables II and III),
//!   as data, for comparison in tests and EXPERIMENTS.md.
//!
//! # Examples
//!
//! Reproduce a Table III row exactly from the paper's constants:
//!
//! ```
//! use nvff::system::{SystemCosts, evaluate_replay};
//! use netlist::benchmarks;
//!
//! let row = evaluate_replay(
//!     benchmarks::by_name("s344").unwrap(),
//!     &SystemCosts::paper(),
//! );
//! assert!((row.merged_area.square_micro_meters() - 32.565).abs() < 0.01);
//! assert!((row.area_improvement() - 0.2293).abs() < 0.002);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
mod gating;
pub mod paper;
pub mod system;

pub use behavior::{MultiBitNvFlipFlop, NvFlipFlop};
pub use gating::PowerGatingModel;
