//! Row-based standard-cell placement and DEF interchange.
//!
//! This crate is the reproduction's stand-in for the physical-design
//! step the paper runs in Cadence Encounter ("floorplan, placement and
//! routing", Section IV-A). It provides what the downstream merge flow
//! needs — realistic flip-flop coordinates:
//!
//! * `floorplan` sizes a near-square die from the cell library's
//!   footprints at a target utilization;
//! * [`placer`] orders cells by connectivity-driven cluster growth
//!   (BFS over the net hypergraph), packs them into rows in snake
//!   order, and optionally refines with simulated-annealing swaps that
//!   minimize half-perimeter wirelength;
//! * [`def`] writes and parses the (subset of the) Design Exchange
//!   Format the paper's merge script operates on;
//! * `spatial` offers grid-bucketed radius queries used to find
//!   neighbouring flip-flops.
//!
//! # Examples
//!
//! ```
//! use netlist::{CellLibrary, benchmarks};
//! use place::{PlacerOptions, placer};
//!
//! let spec = benchmarks::by_name("s344").unwrap();
//! let n = benchmarks::generate(spec);
//! let placed = placer::place(&n, &CellLibrary::n40(), &PlacerOptions::default());
//! assert_eq!(placed.flip_flops().count(), 15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod def;
mod floorplan;
pub mod placer;
mod spatial;
pub mod stats;

pub use placer::{PlacedDesign, PlacerOptions};
pub use spatial::GridIndex;
