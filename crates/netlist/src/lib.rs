//! Gate-level netlist IR and synthetic benchmark generation.
//!
//! The paper's system-level evaluation synthesizes 13 benchmark circuits
//! (ISCAS'89, ITC'99 and the or1200 core), places them, and then merges
//! neighbouring flip-flops. The RTL of those suites is not
//! redistributable here, so [`benchmarks`] generates *synthetic*
//! equivalents: deterministic gate-level netlists with
//!
//! * exactly the paper's published flip-flop count per benchmark
//!   (Table III column 2),
//! * a combinational cloud sized from the published gate counts,
//! * Rent-style locality — cells are grouped into modules with mostly
//!   intra-module connectivity — which is what makes placed flip-flops
//!   cluster, the very property the merge flow exploits.
//!
//! The IR ([`Netlist`], `Instance`, [`CellKind`]) is deliberately
//! small and flat: net and instance names are one shared [`Names`]
//! handle (a generated netlist builds its names only when something
//! reads them), every instance is a 20-byte `Copy` record with its
//! input nets inline, handles ([`NetId`], [`InstId`]) are 32-bit, and
//! [`Netlist::net_pins`] gives the net → instance adjacency as one
//! compressed-sparse-row table. A [`CellLibrary`] holds per-kind
//! footprints, and a structural-Verilog writer serves inspection.
//!
//! # Examples
//!
//! ```
//! use netlist::benchmarks;
//!
//! let s344 = benchmarks::generate(benchmarks::by_name("s344").unwrap());
//! assert_eq!(s344.flip_flop_count(), 15); // Table III
//! assert!(s344.instance_count() > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmarks;
mod ir;
mod library;
pub mod verilog;

pub use benchmarks::{Benchmark, BenchmarkSpec};
pub use ir::{names_built, CellKind, InstId, Names, NetId, NetPins, Netlist};
pub use library::CellLibrary;
