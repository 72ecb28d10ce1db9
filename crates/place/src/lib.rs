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
//!   (a BFS over the net hypergraph that reads each net's pin list
//!   once) and packs them into rows in snake order; half-perimeter
//!   wirelength ([`PlacedDesign::hpwl`]) measures the result;
//! * [`def`] writes and parses the (subset of the) Design Exchange
//!   Format the paper's merge script operates on;
//! * `spatial` offers bucket-grid radius queries ([`GridIndex`]: only
//!   occupied buckets are stored, and a query reaches its neighbouring
//!   buckets through precomputed entry runs, with no search or
//!   hashing) used to find neighbouring flip-flops.
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

pub use placer::{PlacedDesign, PlacerOptions};
pub use spatial::GridIndex;
