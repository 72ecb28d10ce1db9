//! Procedural standard-cell layout for the non-volatile latch cells.
//!
//! The paper develops Cadence Virtuoso layouts (12-track cells, metal up
//! to M2) to compare the area of the standard 1-bit and proposed 2-bit
//! NV components. This crate reproduces that flow procedurally:
//!
//! 1. a cell is described as a `CellSpec` — transistors with their
//!    row (PMOS/NMOS), net connectivity and widths, plus the MTJ devices
//!    that sit in the back-end-of-line above the transistors;
//! 2. [`chain`] orders each row's transistors into diffusion-sharing
//!    chains (the classic Uehara–van Cleemput style left-edge heuristic),
//!    folding narrow device pairs into shared columns;
//! 3. `CellLayout::synthesize` places the chains on a track grid under
//!    a [`DesignRules`] set calibrated to a 40 nm process, producing
//!    rectangles per layer, the cell outline, and therefore the area;
//! 4. [`svg`] renders the result (the repository's Fig. 8 equivalent).
//!
//! [`cells`] holds the concrete specs of the two latch designs and the
//! paper's published areas for comparison.
//!
//! # Examples
//!
//! ```
//! use layout::{DesignRules, cells};
//!
//! let rules = DesignRules::n40();
//! let two_standard = cells::standard_pair_layout_area(&rules);
//! let proposed = cells::proposed_2bit_layout(&rules).area();
//! assert!(proposed < two_standard); // the paper's headline area claim
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod chain;
mod geometry;
mod rules;
mod spec;
pub mod svg;

pub use rules::DesignRules;
pub use spec::{Row, TransistorSpec};
