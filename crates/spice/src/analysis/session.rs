//! The reusable [`SimulationSession`] and its solver workspace.
//!
//! A session owns a circuit together with everything the analyses would
//! otherwise rebuild per call: the [`StampPlan`](super::assembly::StampPlan)
//! of pre-resolved device stamps and the [`Workspace`] of solver buffers
//! (MNA matrix, RHS, iterate vectors, LU scratch, capacitor histories).
//! Running a second analysis — the next Newton iteration, time step,
//! DC-sweep point, or an entirely new transient — reuses those
//! allocations, which is what makes repeated corner-sweep simulation
//! cheap.

use std::ops::{Add, AddAssign, Sub};

use units::Time;

use crate::circuit::Circuit;
use crate::error::SpiceError;
use crate::linalg::{DenseMatrix, LuScratch, SymbolicLu};
use crate::result::TransientResult;

use super::assembly::{CapState, StampPlan};
use super::newton::SolverBufs;
use super::{newton, transient, OpResult, TransientOptions};

/// Which LU engine a session's Newton solves run on.
///
/// [`SolverKind::Sparse`] is the engine every production path runs: a
/// static symbolic factorization in a fill-reducing pivot order frozen
/// once per analysis, refactored in-pattern every iteration.
/// [`SolverKind::Dense`] is the partial-pivoted dense LU the engine grew
/// up on, kept only as the correctness oracle the equivalence tests pin
/// through [`SimulationSession::with_solver`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SolverKind {
    /// Static-pattern sparse LU (symbolic factorization reused across
    /// Newton iterations, automatic re-pivot on pivot decay).
    #[default]
    Sparse,
    /// Dense LU with partial pivoting on every factorization.
    Dense,
}

/// Cumulative solver work counters.
///
/// Exposed per analysis on [`OpResult::solver_stats`] and
/// [`TransientResult::solver_stats`](crate::result::TransientResult::solver_stats),
/// and cumulatively on [`SimulationSession::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Newton–Raphson iterations performed.
    pub newton_iterations: u64,
    /// LU factorizations, dense or sparse (one per Newton iteration).
    pub lu_factorizations: u64,
    /// Transient time steps accepted.
    pub accepted_steps: u64,
    /// Transient steps rejected — by Newton non-convergence or by the
    /// LTE controller (each triggers a retry at a smaller step, or the
    /// analysis error).
    pub rejected_steps: u64,
    /// Times a transient step was halved after a Newton rejection.
    pub step_halvings: u64,
    /// Factorizations that reused the frozen symbolic pattern (sparse
    /// engine only; always 0 on the dense path). The gap between this
    /// and `lu_factorizations` counts symbolic builds and re-pivots.
    pub pattern_reuses: u64,
    /// Sparse pivot-order freezes at the start of an analysis (sparse
    /// engine only; the `spice.symbolic_builds` counter).
    pub symbolic_builds: u64,
    /// Sparse re-pivots after a frozen pivot decayed (sparse engine
    /// only; the `spice.repivots` counter).
    pub repivots: u64,
    /// Converged transient steps rejected because the estimated local
    /// truncation error exceeded `abstol + reltol·|x|` (adaptive
    /// stepping only; a subset of `rejected_steps`).
    pub lte_rejections: u64,
    /// Source-stepping Newton solves run after the gmin ladder exhausted
    /// (each ramps the independent sources one rung up the geometric
    /// 0 → nominal schedule).
    pub source_steps: u64,
}

impl SolverStats {
    /// Folds another stats record into this one, saturating at
    /// `u64::MAX` per counter. The saturating arithmetic makes the fold
    /// safe for whole-campaign aggregation (Monte-Carlo sweeps, bench
    /// report totals) where `+` could in principle overflow.
    pub fn accumulate(&mut self, other: Self) {
        self.newton_iterations = self
            .newton_iterations
            .saturating_add(other.newton_iterations);
        self.lu_factorizations = self
            .lu_factorizations
            .saturating_add(other.lu_factorizations);
        self.accepted_steps = self.accepted_steps.saturating_add(other.accepted_steps);
        self.rejected_steps = self.rejected_steps.saturating_add(other.rejected_steps);
        self.step_halvings = self.step_halvings.saturating_add(other.step_halvings);
        self.pattern_reuses = self.pattern_reuses.saturating_add(other.pattern_reuses);
        self.symbolic_builds = self.symbolic_builds.saturating_add(other.symbolic_builds);
        self.repivots = self.repivots.saturating_add(other.repivots);
        self.lte_rejections = self.lte_rejections.saturating_add(other.lte_rejections);
        self.source_steps = self.source_steps.saturating_add(other.source_steps);
    }
}

impl Add for SolverStats {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        let mut sum = self;
        sum.accumulate(rhs);
        sum
    }
}

impl AddAssign for SolverStats {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for SolverStats {
    type Output = Self;

    /// Per-counter saturating difference. The before/after delta pattern
    /// in `op_core`/`run_dc_sweep`/`transient::run` subtracts snapshots
    /// of the same monotone counters, but once a cumulative counter has
    /// saturated at `u64::MAX` via [`SolverStats::accumulate`] the later
    /// snapshot can equal the earlier one while intermediate work was
    /// done — a raw `-` would then panic in debug builds (and wrap in
    /// release) for a counter that is merely pegged. Saturating at zero
    /// keeps the delta well-defined.
    fn sub(self, rhs: Self) -> Self {
        Self {
            newton_iterations: self.newton_iterations.saturating_sub(rhs.newton_iterations),
            lu_factorizations: self.lu_factorizations.saturating_sub(rhs.lu_factorizations),
            accepted_steps: self.accepted_steps.saturating_sub(rhs.accepted_steps),
            rejected_steps: self.rejected_steps.saturating_sub(rhs.rejected_steps),
            step_halvings: self.step_halvings.saturating_sub(rhs.step_halvings),
            pattern_reuses: self.pattern_reuses.saturating_sub(rhs.pattern_reuses),
            symbolic_builds: self.symbolic_builds.saturating_sub(rhs.symbolic_builds),
            repivots: self.repivots.saturating_sub(rhs.repivots),
            lte_rejections: self.lte_rejections.saturating_sub(rhs.lte_rejections),
            source_steps: self.source_steps.saturating_sub(rhs.source_steps),
        }
    }
}

/// The LU engine's storage: the dense matrix plus its factorization
/// scratch, or the CSR values, the per-solve static base they are
/// restored from each iteration, and the symbolic object they are
/// refactored in.
#[derive(Debug)]
pub(super) enum Engine {
    Dense {
        a: DenseMatrix,
        lu: LuScratch,
    },
    Sparse {
        /// CSR values backing the plan's frozen pattern.
        values: Vec<f64>,
        /// Matrix part fixed for one Newton solve (see
        /// [`StampPlan::stamp_static`]).
        base: Vec<f64>,
        /// RHS part fixed for one Newton solve.
        z_base: Vec<f64>,
        /// Symbolic factorization, built lazily on the first solve
        /// (boxed: it dwarfs the dense variant).
        symbolic: Box<SymbolicLu>,
    },
}

/// Solver working storage sized for one circuit: allocated when the plan
/// is built, reused by every subsequent solve.
#[derive(Debug)]
pub(crate) struct Workspace {
    pub(super) engine: Engine,
    pub(super) z: Vec<f64>,
    pub(super) x: Vec<f64>,
    pub(super) x_new: Vec<f64>,
    pub(super) x_save: Vec<f64>,
    pub(super) cap_states: Vec<CapState>,
    /// Accepted solution one step back (LTE predictor history).
    pub(super) x_prev: Vec<f64>,
    /// Accepted solution two steps back (LTE predictor history).
    pub(super) x_prev2: Vec<f64>,
    /// Accepted solution three steps back (quadratic-predictor history).
    pub(super) x_prev3: Vec<f64>,
    pub(super) stats: SolverStats,
}

/// The transient loop's slice of the workspace, split off so Newton can
/// own the solver buffers while the step controller holds the capacitor
/// and predictor histories mutably.
pub(super) struct TransientScratch<'w> {
    pub(crate) cap_states: &'w mut Vec<CapState>,
    pub(crate) x_prev: &'w mut Vec<f64>,
    pub(crate) x_prev2: &'w mut Vec<f64>,
    pub(crate) x_prev3: &'w mut Vec<f64>,
}

impl Workspace {
    /// Allocates buffers sized for `plan`'s system, solving with the
    /// engine the plan was built for.
    pub(crate) fn for_plan(plan: &StampPlan) -> Self {
        let n = plan.n_unknowns;
        let engine = match plan.solver {
            SolverKind::Dense => Engine::Dense {
                a: DenseMatrix::zeros(n),
                lu: LuScratch::for_dim(n),
            },
            SolverKind::Sparse => Engine::Sparse {
                values: vec![0.0; plan.sparse.nnz()],
                base: vec![0.0; plan.sparse.nnz()],
                z_base: vec![0.0; n],
                symbolic: Box::new(SymbolicLu::new()),
            },
        };
        Self {
            engine,
            z: vec![0.0; n],
            x: vec![0.0; n],
            x_new: Vec::with_capacity(n),
            x_save: Vec::with_capacity(n),
            cap_states: vec![CapState::default(); plan.caps.len()],
            x_prev: Vec::with_capacity(n),
            x_prev2: Vec::with_capacity(n),
            x_prev3: Vec::with_capacity(n),
            stats: SolverStats::default(),
        }
    }

    /// Splits the workspace into the Newton-solver buffers and the
    /// capacitor histories, so a transient can hold both mutably (the
    /// companion context borrows the histories while Newton owns the
    /// rest).
    ///
    /// Called exactly once per top-level analysis, which makes it the
    /// seam for dropping the frozen pivot order: every analysis starts
    /// from a cold symbolic factorization, so its solver stats are a
    /// pure function of the circuit and the analysis — independent of
    /// what the session ran before (the same determinism contract the
    /// parallel sweep engine relies on). The cost is one pivot-order
    /// freeze per analysis, amortized over its thousands of
    /// pattern-reusing refactorizations; the buffers stay allocated.
    pub(super) fn split(&mut self) -> (SolverBufs<'_>, TransientScratch<'_>) {
        if let Engine::Sparse { symbolic, .. } = &mut self.engine {
            symbolic.invalidate();
        }
        let Self {
            engine,
            z,
            x,
            x_new,
            x_save,
            cap_states,
            x_prev,
            x_prev2,
            x_prev3,
            stats,
        } = self;
        (
            SolverBufs {
                engine,
                z,
                x,
                x_new,
                x_save,
                stats,
            },
            TransientScratch {
                cap_states,
                x_prev,
                x_prev2,
                x_prev3,
            },
        )
    }
}

/// A circuit bound to a reusable solver workspace.
///
/// Construct once, then run any number of analyses against the same
/// circuit; the MNA matrix, vectors, LU scratch, per-device stamp plan
/// and capacitor histories are allocated a single time and reused. The
/// one-shot free functions ([`op`](super::op), [`transient`](super::transient),
/// …) are thin wrappers that build a throwaway session per call.
///
/// Between runs the circuit may be mutated through
/// [`SimulationSession::circuit_mut`] — retuning source waveforms,
/// preconditioning MTJ states, or restoring a
/// `CircuitSnapshot`. Value
/// changes like these reuse the existing plan. Changes to what the plan
/// froze — added devices or nodes, a device replaced by another kind,
/// moved terminals, a new capacitance or MOSFET geometry — are detected
/// and trigger a transparent rebuild on the next analysis.
///
/// # Examples
///
/// ```
/// use spice::{Circuit, SimulationSession, SourceWaveform};
/// use units::{Resistance, Voltage};
///
/// # fn main() -> Result<(), spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("vin");
/// let mid = ckt.node("mid");
/// ckt.add_voltage_source("V1", vin, Circuit::GROUND,
///     SourceWaveform::dc(Voltage::from_volts(2.0)))?;
/// ckt.add_resistor("R1", vin, mid, Resistance::from_kilo_ohms(1.0))?;
/// ckt.add_resistor("R2", mid, Circuit::GROUND, Resistance::from_kilo_ohms(3.0))?;
///
/// let mut session = SimulationSession::new(ckt);
/// let op = session.op()?;
/// let mid = session.circuit().find_node("mid").expect("mid exists");
/// assert!((op.voltage(mid) - 1.5).abs() < 1e-6);
/// // A second solve reuses every buffer of the first.
/// let again = session.op()?;
/// assert_eq!(op.voltage(mid), again.voltage(mid));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SimulationSession {
    ckt: Circuit,
    plan: StampPlan,
    ws: Workspace,
    /// Human-readable circuit label carried into flight-recorder
    /// post-mortem dumps (e.g. `proposed_2bit`).
    label: String,
}

impl SimulationSession {
    /// Builds a session for `ckt` on the sparse LU engine: resolves the
    /// stamp plan and allocates the solver workspace.
    #[must_use]
    pub fn new(ckt: Circuit) -> Self {
        Self::with_solver(ckt, SolverKind::Sparse)
    }

    /// Builds a session for `ckt` on a specific solver engine — how the
    /// equivalence tests run the dense oracle beside the sparse path.
    #[must_use]
    pub fn with_solver(ckt: Circuit, solver: SolverKind) -> Self {
        let plan = StampPlan::build(&ckt, solver);
        let ws = Workspace::for_plan(&plan);
        Self {
            ckt,
            plan,
            ws,
            label: "circuit".to_owned(),
        }
    }

    /// Sets the circuit label carried into post-mortem dumps (builder
    /// style).
    #[must_use]
    pub fn with_label(mut self, label: &str) -> Self {
        self.set_label(label);
        self
    }

    /// Sets the circuit label carried into post-mortem dumps.
    pub(crate) fn set_label(&mut self, label: &str) {
        self.label = label.to_owned();
    }

    /// The session's circuit label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The LU engine this session's solves run on.
    #[must_use]
    pub fn solver_kind(&self) -> SolverKind {
        self.plan.solver
    }

    /// The session's circuit.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.ckt
    }

    /// Mutable access to the circuit, for retuning waveforms or device
    /// state between runs. Edits to what the plan froze (devices, nodes,
    /// terminals, capacitances, MOSFET geometry) cause a plan rebuild
    /// on the next analysis.
    pub fn circuit_mut(&mut self) -> &mut Circuit {
        &mut self.ckt
    }

    /// Consumes the session, returning the circuit (with whatever MTJ
    /// state the analyses left it in).
    #[must_use]
    pub fn into_circuit(self) -> Circuit {
        self.ckt
    }

    /// Total solver work since the session was created (or since
    /// [`SimulationSession::reset_stats`]).
    #[must_use]
    pub fn stats(&self) -> SolverStats {
        self.ws.stats
    }

    /// Structural nonzeros of the sparse `L + U` factor (fill included)
    /// the last analysis solved with — read against
    /// [`matrix_pattern`](super::matrix_pattern)'s CSR count to see the
    /// fill the pivot order costs. 0 on the dense engine and before the
    /// first analysis.
    #[must_use]
    pub fn lu_nnz(&self) -> usize {
        match &self.ws.engine {
            Engine::Dense { .. } => 0,
            Engine::Sparse { symbolic, .. } => symbolic.lu_nnz(),
        }
    }

    /// Zeroes the cumulative work counters.
    pub fn reset_stats(&mut self) {
        self.ws.stats = SolverStats::default();
    }

    /// Rebuilds the plan and workspace when the circuit no longer
    /// matches what the plan froze (see [`StampPlan::is_stale`]),
    /// keeping the cumulative stats.
    fn refresh(&mut self) {
        if self.plan.is_stale(&self.ckt) {
            let stats = self.ws.stats;
            self.plan = StampPlan::build(&self.ckt, self.plan.solver);
            self.ws = Workspace::for_plan(&self.plan);
            self.ws.stats = stats;
        }
    }

    /// The session-level failure seam: when a solver error *surfaces*
    /// to the caller (as opposed to a recovered gmin/source-stepping
    /// rung, which also fails Newton internally), dump the flight
    /// recorder as a JSON post-mortem. No-op unless a post-mortem
    /// directory is configured (`NVFF_POSTMORTEM` or
    /// `telemetry::flight::set_postmortem_dir`).
    fn postmortem_on_failure<T>(
        &self,
        analysis: &'static str,
        result: Result<T, SpiceError>,
    ) -> Result<T, SpiceError> {
        if let Err(e) = &result {
            let time_s = match e {
                SpiceError::NonConvergence { time, .. }
                | SpiceError::SingularMatrix { time, .. } => *time,
                _ => return result,
            };
            let s = self.ws.stats;
            let stats = [
                ("newton_iterations", s.newton_iterations),
                ("lu_factorizations", s.lu_factorizations),
                ("accepted_steps", s.accepted_steps),
                ("rejected_steps", s.rejected_steps),
                ("step_halvings", s.step_halvings),
                ("pattern_reuses", s.pattern_reuses),
                ("symbolic_builds", s.symbolic_builds),
                ("repivots", s.repivots),
                ("lte_rejections", s.lte_rejections),
                ("source_steps", s.source_steps),
            ];
            let pm = telemetry::flight::Postmortem {
                circuit: &self.label,
                analysis,
                error: &e.to_string(),
                time_s,
                stats: &stats,
            };
            if let Some(path) = telemetry::flight::dump(&pm) {
                telemetry::counter("spice.postmortems", 1);
                eprintln!(
                    "spice: {analysis} failed on {:?}; post-mortem written to {}",
                    self.label,
                    path.display()
                );
            }
        }
        result
    }

    /// Solves the DC operating point (see [`op`](super::op)).
    ///
    /// # Errors
    ///
    /// Same conditions as [`op`](super::op).
    pub fn op(&mut self) -> Result<OpResult, SpiceError> {
        self.refresh();
        let result = newton::op_core(&self.plan, &self.ckt, &mut self.ws);
        self.postmortem_on_failure("op", result)
    }

    /// Sweeps the DC value of the named voltage source, solving the
    /// operating point at each level with warm-started continuation (each
    /// solution seeds the next — essential for tracing bistable transfer
    /// curves).
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownTrace`] if no voltage source has that name,
    /// [`SpiceError::InvalidAnalysis`] for an empty sweep, and any Newton
    /// failure from the underlying solves.
    pub fn dc_sweep(&mut self, source: &str, values: &[f64]) -> Result<Vec<OpResult>, SpiceError> {
        self.refresh();
        let result = newton::run_dc_sweep(&self.plan, &mut self.ckt, &mut self.ws, source, values);
        self.postmortem_on_failure("dc", result)
    }

    /// Runs a transient analysis with default options (see
    /// [`transient`](super::transient)).
    ///
    /// # Errors
    ///
    /// Same conditions as [`transient`](super::transient).
    pub fn transient(&mut self, stop: Time, step: Time) -> Result<TransientResult, SpiceError> {
        self.transient_with_options(stop, step, TransientOptions::default())
    }

    /// Runs a transient analysis (see
    /// `transient_with_options`).
    ///
    /// # Errors
    ///
    /// Same conditions as `transient_with_options`.
    pub fn transient_with_options(
        &mut self,
        stop: Time,
        step: Time,
        options: TransientOptions,
    ) -> Result<TransientResult, SpiceError> {
        self.refresh();
        let result = transient::run(&self.plan, &mut self.ckt, &mut self.ws, stop, step, options);
        self.postmortem_on_failure("tran", result)
    }
}
