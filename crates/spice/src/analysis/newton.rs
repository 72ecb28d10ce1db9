//! Newton–Raphson core, gmin-stepped operating point and DC sweep —
//! all operating in place on pre-allocated workspace buffers.
//!
//! The arithmetic here reproduces the original allocating engine
//! operation for operation (see [`super::reference`]); the only change
//! is *where* intermediates live. The iterate evolves in `bufs.x`
//! directly, so callers that need the pre-solve state on failure (the
//! gmin ladder, transient step halving) save it to `bufs.x_save` first.

use crate::circuit::Circuit;
use crate::device::Device;
use crate::error::SpiceError;
use crate::linalg::SparseSolveOutcome;

use super::assembly::{Companions, EvalCtx, StampPlan};
use super::session::{Engine, SolverStats, Workspace};
use super::{OpResult, ABSTOL, GMIN_FLOOR, RELTOL, VNTOL, VSTEP_MAX};

/// Mutable views over the workspace fields the Newton solver touches.
///
/// Borrowed (rather than owning `&mut Workspace`) so the transient loop
/// can hold the capacitor histories separately — see
/// [`Workspace::split`].
pub(super) struct SolverBufs<'w> {
    pub(crate) engine: &'w mut Engine,
    pub(crate) z: &'w mut Vec<f64>,
    pub(crate) x: &'w mut Vec<f64>,
    pub(crate) x_new: &'w mut Vec<f64>,
    pub(crate) x_save: &'w mut Vec<f64>,
    pub(crate) stats: &'w mut SolverStats,
}

impl SolverBufs<'_> {
    /// Copies the current iterate aside (ladder stages and transient
    /// steps restore it on a failed solve).
    pub(super) fn save_x(&mut self) {
        self.x_save.clear();
        self.x_save.extend_from_slice(self.x);
    }

    /// Restores the iterate saved by [`SolverBufs::save_x`].
    pub(super) fn restore_x(&mut self) {
        self.x.clear();
        self.x.extend_from_slice(self.x_save);
    }

    /// Resets the iterate to the all-zero starting point.
    pub(super) fn zero_x(&mut self, n: usize) {
        self.x.clear();
        self.x.resize(n, 0.0);
    }
}

impl Engine {
    /// Starts one Newton solve. The sparse engine stamps everything the
    /// solve holds fixed into its base and returns `true`; the dense
    /// oracle re-stamps everything every iteration, so it has nothing
    /// to do and returns `false`.
    pub(super) fn begin_solve(
        &mut self,
        plan: &StampPlan,
        ckt: &Circuit,
        ctx: &EvalCtx<'_>,
    ) -> bool {
        match self {
            Engine::Dense { .. } => false,
            Engine::Sparse { base, z_base, .. } => {
                plan.stamp_static(ckt, ctx, base, z_base);
                true
            }
        }
    }

    /// Assembles the system at iterate `x` into the engine's value array
    /// and `z`: the dense oracle re-stamps it from zero, the sparse
    /// engine restores the solve's base and adds the MOSFETs and MTJs.
    pub(super) fn assemble(
        &mut self,
        plan: &StampPlan,
        ckt: &Circuit,
        x: &[f64],
        ctx: &EvalCtx<'_>,
        z: &mut [f64],
    ) {
        match self {
            Engine::Dense { a, .. } => plan.assemble(ckt, x, ctx, a.data_mut(), z),
            Engine::Sparse {
                values,
                base,
                z_base,
                ..
            } => {
                values.copy_from_slice(base);
                z.copy_from_slice(z_base);
                plan.stamp_dynamic(ckt, x, ctx, values, z);
            }
        }
    }
}

/// Records the time since `start` into the `name` histogram and returns
/// the next lap's start; `None` (telemetry off) records nothing.
fn lap(start: Option<std::time::Instant>, name: &'static str) -> Option<std::time::Instant> {
    let start = start?;
    let now = std::time::Instant::now();
    telemetry::histogram(name, (now - start).as_secs_f64());
    Some(now)
}

/// Newton–Raphson solve at a fixed time, iterating `bufs.x` in place.
///
/// `src_scale` multiplies every independent source value (1.0 in normal
/// operation; the source-stepping ladder ramps it 0 → 1).
///
/// On `Err` the iterate is left mid-update; callers that continue from
/// the previous solution must restore it from `bufs.x_save`.
#[allow(clippy::too_many_arguments)]
pub(super) fn newton(
    plan: &StampPlan,
    ckt: &Circuit,
    bufs: &mut SolverBufs<'_>,
    analysis: &'static str,
    t: f64,
    gmin: f64,
    companions: Option<&Companions<'_>>,
    max_iter: usize,
    src_scale: f64,
) -> Result<(), SpiceError> {
    let n = plan.n_unknowns;
    let n_nodes = plan.n_nodes;
    let ctx = EvalCtx {
        t,
        src_scale,
        gmin,
        companions,
    };
    // One atomic load each, hoisted so the per-iteration
    // instrumentation below is branch-on-bool when tracing is off.
    let tel = telemetry::enabled();
    let fl = telemetry::flight::active();

    let base_timer = tel.then(std::time::Instant::now);
    if bufs.engine.begin_solve(plan, ckt, &ctx) {
        lap(base_timer, "spice.stamp_base_s");
    }

    for _iter in 0..max_iter {
        bufs.stats.newton_iterations += 1;
        bufs.stats.lu_factorizations += 1;
        let assemble_timer = tel.then(std::time::Instant::now);
        bufs.engine.assemble(plan, ckt, bufs.x, &ctx, bufs.z);
        let lu_timer = lap(assemble_timer, "spice.assemble_s");
        let solved = match &mut *bufs.engine {
            Engine::Dense { a, lu } => {
                // `assemble` rebuilds the matrix next iteration anyway,
                // so let the factorization consume it in place instead
                // of paying an n² working-copy memcpy per solve.
                a.solve_in_place(bufs.z, lu, bufs.x_new)
            }
            Engine::Sparse {
                values, symbolic, ..
            } => match symbolic.factor_and_solve(&plan.sparse, values, bufs.z, bufs.x_new) {
                None => false,
                Some(outcome) => {
                    match outcome {
                        SparseSolveOutcome::ReusedPattern => {
                            bufs.stats.pattern_reuses += 1;
                        }
                        SparseSolveOutcome::Built => {
                            bufs.stats.symbolic_builds += 1;
                            telemetry::counter("spice.symbolic_builds", 1);
                            if tel {
                                telemetry::histogram("spice.csr_nnz", plan.sparse.nnz() as f64);
                                telemetry::histogram("spice.lu_nnz", symbolic.lu_nnz() as f64);
                            }
                            if fl {
                                telemetry::flight::record_always(
                                    telemetry::flight::EventKind::SymbolicBuild,
                                    t,
                                    symbolic.lu_nnz() as f64,
                                );
                            }
                        }
                        SparseSolveOutcome::Repivoted => {
                            bufs.stats.repivots += 1;
                            telemetry::counter("spice.repivots", 1);
                            if tel {
                                telemetry::histogram("spice.lu_nnz", symbolic.lu_nnz() as f64);
                            }
                            if fl {
                                telemetry::flight::record_always(
                                    telemetry::flight::EventKind::Repivot,
                                    t,
                                    symbolic.lu_nnz() as f64,
                                );
                            }
                        }
                    }
                    true
                }
            },
        };
        if !solved {
            if fl {
                telemetry::flight::record_always(
                    telemetry::flight::EventKind::SingularMatrix,
                    t,
                    0.0,
                );
            }
            return Err(SpiceError::SingularMatrix { analysis, time: t });
        }
        lap(lu_timer, "spice.lu_solve_s");
        let mut converged = true;
        let mut max_delta = 0.0_f64;
        for i in 0..n {
            let mut delta = bufs.x_new[i] - bufs.x[i];
            let tol = if i < n_nodes {
                // Damp voltage updates so exponential models stay sane.
                if delta.abs() > VSTEP_MAX {
                    delta = delta.signum() * VSTEP_MAX;
                    converged = false;
                }
                VNTOL + RELTOL * bufs.x_new[i].abs()
            } else {
                ABSTOL + RELTOL * bufs.x_new[i].abs()
            };
            if delta.abs() > tol {
                converged = false;
            }
            if tel || fl {
                max_delta = max_delta.max(delta.abs());
            }
            bufs.x[i] += delta;
        }
        if tel {
            // Largest damped update this iteration — the Newton residual
            // proxy the convergence test itself works from.
            telemetry::histogram("spice.newton_delta", max_delta);
        }
        if fl {
            telemetry::flight::record_always(
                telemetry::flight::EventKind::NewtonDelta,
                t,
                max_delta,
            );
        }
        if converged {
            return Ok(());
        }
    }
    if fl {
        telemetry::flight::record_always(
            telemetry::flight::EventKind::NonConvergence,
            t,
            max_iter as f64,
        );
    }
    Err(SpiceError::NonConvergence {
        analysis,
        time: t,
        iterations: max_iter,
    })
}

/// Robust operating-point solve at time `t`, starting from zero; leaves
/// the solution in `bufs.x`.
///
/// Recovery ladder: gmin stepping first (cheap, solves almost every
/// circuit), then source stepping (ramp every independent source from
/// near zero to nominal) when the gmin ladder exhausts without
/// converging. If both fail, the gmin ladder's error is reported — it
/// names the analysis the caller asked for, and for structurally
/// singular systems both rungs fail identically anyway.
pub(super) fn solve_op_from_zero(
    plan: &StampPlan,
    ckt: &Circuit,
    bufs: &mut SolverBufs<'_>,
    t: f64,
) -> Result<(), SpiceError> {
    match solve_op_gmin_stepped(plan, ckt, bufs, t) {
        Ok(()) => Ok(()),
        Err(e) => solve_op_source_stepped(plan, ckt, bufs, t).map_err(|_| e),
    }
}

/// Gmin-stepped operating-point solve at time `t`, starting from zero.
fn solve_op_gmin_stepped(
    plan: &StampPlan,
    ckt: &Circuit,
    bufs: &mut SolverBufs<'_>,
    t: f64,
) -> Result<(), SpiceError> {
    bufs.zero_x(plan.n_unknowns);
    let fl = telemetry::flight::active();
    let gmin_ladder = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, GMIN_FLOOR];
    for (stage, &gmin) in gmin_ladder.iter().enumerate() {
        telemetry::counter("spice.gmin_rounds", 1);
        if fl {
            telemetry::flight::record_always(telemetry::flight::EventKind::GminRung, t, gmin);
        }
        bufs.save_x();
        match newton(plan, ckt, bufs, "op", t, gmin, None, 400, 1.0) {
            Ok(()) => {}
            Err(e) if stage == 0 => return Err(e),
            Err(_) => {
                // Keep the last converged (more heavily shunted) solution
                // and continue down the ladder; final stage must succeed.
                bufs.restore_x();
                if gmin <= GMIN_FLOOR {
                    return newton(plan, ckt, bufs, "op", t, GMIN_FLOOR, None, 800, 1.0);
                }
            }
        }
    }
    Ok(())
}

/// First rung of the source-stepping schedule, as a fraction of the
/// nominal source values. Starting this low keeps the first solve
/// near-linear (the zero iterate is already the exact solution of the
/// zero-source system).
const SOURCE_STEP_START: f64 = 1.0 / 64.0;
/// Bound on source-stepping Newton solves before giving up — generous
/// next to the ~13 rounds a clean geometric 1/64 → 1 ramp takes, but
/// finite even when every rung needs bisection.
const SOURCE_STEP_MAX_ROUNDS: usize = 48;

/// Source-stepping operating-point solve: ramps every independent
/// source from `SOURCE_STEP_START` of nominal up to nominal on a
/// geometric schedule (doubling on success, bisecting the gap on
/// failure), warm-starting each rung from the previous solution.
pub(super) fn solve_op_source_stepped(
    plan: &StampPlan,
    ckt: &Circuit,
    bufs: &mut SolverBufs<'_>,
    t: f64,
) -> Result<(), SpiceError> {
    bufs.zero_x(plan.n_unknowns);
    let fl = telemetry::flight::active();
    let mut reached = 0.0_f64;
    let mut target = SOURCE_STEP_START;
    for _round in 0..SOURCE_STEP_MAX_ROUNDS {
        telemetry::counter("spice.source_step_rounds", 1);
        bufs.stats.source_steps += 1;
        if fl {
            telemetry::flight::record_always(telemetry::flight::EventKind::SourceRung, t, target);
        }
        bufs.save_x();
        match newton(plan, ckt, bufs, "op", t, GMIN_FLOOR, None, 400, target) {
            Ok(()) => {
                if target >= 1.0 {
                    return Ok(());
                }
                reached = target;
                target = (target * 2.0).min(1.0);
            }
            Err(e) => {
                bufs.restore_x();
                let gap = target - reached;
                if gap <= 1e-4 {
                    // The continuation stalled — the failure is not a
                    // source-magnitude problem.
                    return Err(e);
                }
                target = reached + 0.5 * gap;
            }
        }
    }
    Err(SpiceError::NonConvergence {
        analysis: "op",
        time: t,
        iterations: SOURCE_STEP_MAX_ROUNDS,
    })
}

/// Extracts an [`OpResult`] from the raw unknown vector, using the
/// plan's pre-resolved (and name-sorted) branch table.
pub(super) fn op_result_from(plan: &StampPlan, ckt: &Circuit, x: &[f64]) -> OpResult {
    let mut voltages = vec![0.0; ckt.node_count()];
    voltages[1..ckt.node_count()].copy_from_slice(&x[..ckt.node_count() - 1]);
    let branch_currents = plan
        .branches
        .iter()
        .map(|(name, br)| (name.clone(), x[*br]))
        .collect();
    OpResult {
        voltages,
        branch_currents,
        stats: SolverStats::default(),
    }
}

/// Operating-point analysis against a prepared plan and workspace.
pub(super) fn op_core(
    plan: &StampPlan,
    ckt: &Circuit,
    ws: &mut Workspace,
) -> Result<OpResult, SpiceError> {
    let _span = telemetry::span("spice.op");
    let before = ws.stats;
    let (mut bufs, _) = ws.split();
    solve_op_from_zero(plan, ckt, &mut bufs, 0.0)?;
    let mut result = op_result_from(plan, ckt, bufs.x);
    result.stats = *bufs.stats - before;
    Ok(result)
}

/// DC sweep of the named voltage source with warm-started continuation,
/// against a prepared plan and workspace.
pub(super) fn run_dc_sweep(
    plan: &StampPlan,
    ckt: &mut Circuit,
    ws: &mut Workspace,
    source: &str,
    values: &[f64],
) -> Result<Vec<OpResult>, SpiceError> {
    let _span = telemetry::span("spice.dc_sweep");
    if values.is_empty() {
        return Err(SpiceError::InvalidAnalysis {
            reason: "dc sweep needs at least one source value".into(),
        });
    }
    // Confirm the source exists — and is unambiguous — before mutating
    // anything. The builder API rejects duplicate device names, but
    // `Circuit::devices_mut` allows renames, and a sweep over a
    // duplicated name could not faithfully restore per-source waveforms
    // afterwards (only one original is remembered).
    let matches = ckt
        .devices()
        .iter()
        .filter(|d| matches!(d, Device::VoltageSource { name, .. } if name == source))
        .count();
    if matches == 0 {
        return Err(SpiceError::UnknownTrace {
            name: source.into(),
        });
    }
    if matches > 1 {
        return Err(SpiceError::InvalidAnalysis {
            reason: format!("dc sweep source name {source:?} matches {matches} voltage sources"),
        });
    }

    let original = ckt
        .devices()
        .iter()
        .find_map(|d| match d {
            Device::VoltageSource { name, wave, .. } if name == source => Some(wave.clone()),
            _ => None,
        })
        .expect("source existence checked above");

    let (mut bufs, _) = ws.split();
    let mut results = Vec::with_capacity(values.len());
    let mut warm = false;
    for &v in values {
        set_source_dc(ckt, source, v);
        let before = *bufs.stats;
        let solved = if warm {
            // Warm start from the previous point's solution; fall back to
            // the full gmin ladder (which restarts from zero) on failure.
            newton(plan, ckt, &mut bufs, "dc", 0.0, GMIN_FLOOR, None, 400, 1.0)
                .or_else(|_| solve_op_from_zero(plan, ckt, &mut bufs, 0.0))
        } else {
            solve_op_from_zero(plan, ckt, &mut bufs, 0.0)
        };
        match solved {
            Ok(()) => {
                warm = true;
                let mut r = op_result_from(plan, ckt, bufs.x);
                r.stats = *bufs.stats - before;
                results.push(r);
            }
            Err(e) => {
                restore_source(ckt, source, &original);
                return Err(e);
            }
        }
    }
    restore_source(ckt, source, &original);
    Ok(results)
}

pub(super) fn set_source_dc(ckt: &mut Circuit, source: &str, v: f64) {
    for d in ckt.devices_mut() {
        if let Device::VoltageSource { name, wave, .. } = d {
            if name == source {
                *wave = crate::source::SourceWaveform::Dc(v);
            }
        }
    }
}

/// Restores the waveform of every source matching `source` — the exact
/// mirror of [`set_source_dc`], which also updates every match. An
/// early return after the first hit would leave later duplicates stuck
/// at the final sweep value.
pub(super) fn restore_source(
    ckt: &mut Circuit,
    source: &str,
    original: &crate::source::SourceWaveform,
) {
    for d in ckt.devices_mut() {
        if let Device::VoltageSource { name, wave, .. } = d {
            if name == source {
                *wave = original.clone();
            }
        }
    }
}
