//! Deterministic parallel sweep and Monte-Carlo execution engine.
//!
//! Corner sweeps, write-error-rate grids and Monte-Carlo campaigns all
//! share one shape: a list of independent job points, each needing its
//! own random stream, whose results must come back in a stable order.
//! This crate factors that shape out of the simulation crates:
//!
//! - [`Grid`] — an ordered list of job points plus a base seed. Every
//!   point's RNG seed is derived *by counter* from `(base_seed, index)`
//!   via [`point_seed`], never from a shared sequential stream, so a
//!   point's randomness is independent of worker count and scheduling.
//! - [`run`] / [`run_with_state`] — a hand-rolled `std::thread` worker
//!   pool (chunked self-scheduling over an atomic cursor, zero external
//!   dependencies) that executes the grid and returns results in
//!   **grid order**. `--jobs 1` takes a true serial fast path on the
//!   calling thread.
//! - [`LazyPool`] — worker-owned keyed caches for expensive job state,
//!   e.g. one `SimulationSession` per circuit topology per worker.
//! - [`run_checkpointed`] — the same execution with completed points
//!   persisted to a JSON checkpoint, so interrupted Monte-Carlo
//!   campaigns resume bit-identically.
//!
//! The determinism contract: a job's output must depend only on its
//! point and its [`JobCtx::seed`]. Under that contract, results — and
//! any commutative-associative aggregate folded over them in grid
//! order — are bit-identical for every `--jobs` value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod checkpoint;
mod grid;
mod pool;

pub use cache::LazyPool;
pub use checkpoint::{run_checkpointed, CheckpointError, CheckpointPolicy, CHECKPOINT_SCHEMA};
pub use grid::{fingerprint, fingerprint128, fingerprint_bytes, point_seed, Fnv1a, Grid};
pub use pool::{available_parallelism, run, run_with_state, JobCtx, RunSummary, SweepOptions};
