//! Transistor-level implementations of the paper's latch designs.
//!
//! Two non-volatile shadow-latch cells are built as [`spice`] circuits:
//!
//! * [`StandardLatch`] — the state-of-the-art **1-bit** NV latch
//!   (paper Fig. 2b): a pre-charge sense amplifier (PCSA, after Zhao et
//!   al.), one complementary MTJ pair, transmission-gate isolation and a
//!   tristate-inverter write path. 11 read-path transistors per bit.
//! * [`ProposedLatch`] — the paper's **2-bit** shadow latch (Fig. 5):
//!   one shared sense amplifier with two MTJ pairs, one *above* the
//!   cross-coupled core (doubling as the pull-up supply path through
//!   `P3`) and one *below* (reached through transmission gates and
//!   `N3`). The two bits are read sequentially — pre-charge to VDD then
//!   sense the lower pair, pre-charge to GND then sense the upper pair
//!   — with `P4`/`N4` equalizing the idle pair's taps so its resistance
//!   states cannot skew the active comparison. 16 read-path transistors
//!   for two bits.
//!
//! Both designs share write circuitry *by construction* (independent
//! tristate-driver paths per bit), reflecting the paper's reliability
//! argument for not merging write components.
//!
//! Both cells are the first two points of one family, emitted by the
//! parameterized [`generator`]: a sense amplifier shared by n MTJ pairs
//! ([`generator::WordParams`]), each emitted as one flat
//! [`spice::Circuit`] by [`generator::word_circuit`]. One harness,
//! [`generator::NvWord`],
//! simulates every point — restore, store, leakage and
//! characterization — with one cached solver session; the two cell
//! types are fixed-width views of it.
//!
//! [`metrics`] extracts the Table II quantities (read energy & delay,
//! leakage, transistor count) across process corners; [`control`]
//! generates the Fig. 6/7 control-signal sequences.
//!
//! # Examples
//!
//! Restore two bits from a preconditioned 2-bit latch:
//!
//! ```
//! use cells::{LatchConfig, ProposedLatch};
//!
//! # fn main() -> Result<(), cells::CellError> {
//! let latch = ProposedLatch::new(LatchConfig::default());
//! let outcome = latch.simulate_restore([true, false])?;
//! assert_eq!(outcome.bits, [true, false]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod control;
mod error;
pub mod generator;
pub mod margin;
pub mod metrics;
pub mod proposed;
mod request;
mod setup;
mod standard;
pub mod subckt;

pub use config::{Corner, LatchConfig};
pub use error::CellError;
pub use generator::{NvWord, WordParams, WordStimulus};
pub use metrics::{CellMetrics, CornerEnvelope, LatchComparison};
pub use proposed::ProposedLatch;
pub use request::{parse_corner, resolve_config, CellVariant};
pub use setup::CircuitSetup;
pub use standard::StandardLatch;
