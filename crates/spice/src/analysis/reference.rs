//! The original per-call analysis engine, kept as a frozen oracle.
//!
//! This module is the SPICE engine as it existed before the
//! [`SimulationSession`](super::SimulationSession) rearchitecture:
//! every call re-matches devices, re-resolves node indices, allocates
//! the MNA matrix, RHS and iterate vectors per Newton solve, and clones
//! the flattened capacitor list per time step. It is deliberately
//! self-contained (its own assembler, Newton loop and transient loop)
//! so it can serve as a **correctness oracle**: the equivalence tests
//! check the session engine produces bit-for-bit identical waveforms.
//!
//! Results carry zeroed [`SolverStats`]; only the
//! session engine counts work. New code should use the session engine
//! (or the free functions in [`super`], which wrap it).

use mtj::MtjState;
use units::{Current, Time};

use crate::circuit::Circuit;
use crate::device::Device;
use crate::error::SpiceError;
use crate::linalg::DenseMatrix;
use crate::result::{MtjEvent, TransientResult};

use super::session::SolverStats;
use super::{
    Integrator, OpResult, StartCondition, TransientOptions, ABSTOL, GMIN_FLOOR, RELTOL, VNTOL,
    VSTEP_MAX,
};

/// Capacitor instance flattened for companion stamping (explicit caps
/// plus MOSFET parasitics).
#[derive(Debug, Clone)]
struct CapInstance {
    ia: Option<usize>,
    ib: Option<usize>,
    farads: f64,
    v_prev: f64,
    i_prev: f64,
}

/// Computes a node voltage from the unknown vector (`None` = ground).
fn vof(x: &[f64], idx: Option<usize>) -> f64 {
    idx.map_or(0.0, |i| x[i])
}

/// Stamps every device's linearized equation at iterate `x` and time `t`.
fn assemble(
    ckt: &Circuit,
    x: &[f64],
    t: f64,
    gmin: f64,
    caps: Option<&(Vec<CapInstance>, Integrator, f64)>,
    a: &mut DenseMatrix,
    z: &mut [f64],
) {
    a.clear();
    z.fill(0.0);
    let n_nodes = ckt.node_count() - 1;

    // gmin shunts keep otherwise-floating nodes weakly grounded.
    for i in 0..n_nodes {
        a.add(i, i, gmin.max(GMIN_FLOOR));
    }

    let vidx = |node| ckt.voltage_index(node);

    for dev in ckt.devices() {
        match dev {
            Device::Resistor {
                a: na, b: nb, ohms, ..
            } => {
                stamp_conductance(a, vidx(*na), vidx(*nb), 1.0 / ohms);
            }
            Device::Capacitor { .. } => {
                // Stamped through the flattened companion list below.
            }
            Device::VoltageSource {
                pos,
                neg,
                wave,
                branch,
                ..
            } => {
                let br = ckt.branch_index(*branch);
                if let Some(ip) = vidx(*pos) {
                    a.add(ip, br, 1.0);
                    a.add(br, ip, 1.0);
                }
                if let Some(in_) = vidx(*neg) {
                    a.add(in_, br, -1.0);
                    a.add(br, in_, -1.0);
                }
                z[br] = wave.value_at(t);
            }
            Device::CurrentSource { pos, neg, wave, .. } => {
                let i = wave.value_at(t);
                if let Some(ip) = vidx(*pos) {
                    z[ip] -= i;
                }
                if let Some(in_) = vidx(*neg) {
                    z[in_] += i;
                }
            }
            Device::Mosfet {
                d,
                g,
                s,
                model,
                w,
                l,
                ..
            } => {
                let (id_, ig, is_) = (vidx(*d), vidx(*g), vidx(*s));
                let vg = vof(x, ig);
                let vd = vof(x, id_);
                let vs = vof(x, is_);
                let op = model.evaluate(vg, vd, vs, *w, *l);
                // Channel current leaves the drain, enters the source:
                //   i_d = id0 + ∂i/∂vg·Δvg + ∂i/∂vd·Δvd + ∂i/∂vs·Δvs
                let ieq = op.id - op.di_dvg * vg - op.di_dvd * vd - op.di_dvs * vs;
                if let Some(r) = id_ {
                    if let Some(c) = ig {
                        a.add(r, c, op.di_dvg);
                    }
                    a.add(r, r, op.di_dvd);
                    if let Some(c) = is_ {
                        a.add(r, c, op.di_dvs);
                    }
                    z[r] -= ieq;
                }
                if let Some(r) = is_ {
                    if let Some(c) = ig {
                        a.add(r, c, -op.di_dvg);
                    }
                    if let Some(c) = id_ {
                        a.add(r, c, -op.di_dvd);
                    }
                    a.add(r, r, -op.di_dvs);
                    z[r] += ieq;
                }
            }
            Device::Mtj {
                a: na,
                b: nb,
                device,
                ..
            } => {
                let (ia, ib) = (vidx(*na), vidx(*nb));
                let bias = vof(x, ia) - vof(x, ib);
                let r = device.resistance(units::Voltage::from_volts(bias));
                stamp_conductance(a, ia, ib, 1.0 / r.ohms());
            }
        }
    }

    // Capacitor companions (transient only).
    if let Some((cap_list, integrator, dt)) = caps {
        for cap in cap_list {
            let (geq, ieq) = match integrator {
                Integrator::BackwardEuler => {
                    let geq = cap.farads / dt;
                    (geq, geq * cap.v_prev)
                }
                Integrator::Trapezoidal => {
                    let geq = 2.0 * cap.farads / dt;
                    (geq, geq * cap.v_prev + cap.i_prev)
                }
            };
            stamp_conductance(a, cap.ia, cap.ib, geq);
            if let Some(i) = cap.ia {
                z[i] += ieq;
            }
            if let Some(i) = cap.ib {
                z[i] -= ieq;
            }
        }
    }
}

/// The seed engine's LU solver, reproduced verbatim so this baseline
/// stays frozen even as [`crate::linalg`] evolves (the shared solver
/// now skips structurally-zero updates and factors in place; the
/// original cloned the matrix and ran the dense textbook loops).
fn seed_solve(a: &DenseMatrix, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.dim();
    assert_eq!(b.len(), n, "rhs length mismatch");
    const PIVOT_EPS: f64 = 1e-30;
    let mut lu = a.data().to_vec();
    let mut x: Vec<f64> = b.to_vec();

    for k in 0..n {
        // Pivot selection.
        let mut pivot_row = k;
        let mut pivot_val = lu[k * n + k].abs();
        for r in (k + 1)..n {
            let v = lu[r * n + k].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < PIVOT_EPS {
            return None;
        }
        if pivot_row != k {
            for j in 0..n {
                lu.swap(k * n + j, pivot_row * n + j);
            }
            x.swap(k, pivot_row);
        }
        // Elimination of rows below k, RHS included.
        let pivot = lu[k * n + k];
        for r in (k + 1)..n {
            let factor = lu[r * n + k] / pivot;
            if factor == 0.0 {
                continue;
            }
            for j in k..n {
                lu[r * n + j] -= factor * lu[k * n + j];
            }
            x[r] -= factor * x[k];
        }
    }
    // Back substitution.
    for k in (0..n).rev() {
        let mut acc = x[k];
        for j in (k + 1)..n {
            acc -= lu[k * n + j] * x[j];
        }
        x[k] = acc / lu[k * n + k];
    }
    if x.iter().any(|v| !v.is_finite()) {
        return None;
    }
    Some(x)
}

/// Conductance stamp between two (possibly ground) nodes.
fn stamp_conductance(a: &mut DenseMatrix, ia: Option<usize>, ib: Option<usize>, g: f64) {
    if let Some(i) = ia {
        a.add(i, i, g);
        if let Some(j) = ib {
            a.add(i, j, -g);
        }
    }
    if let Some(j) = ib {
        a.add(j, j, g);
        if let Some(i) = ia {
            a.add(j, i, -g);
        }
    }
}

/// Newton–Raphson solve at a fixed time; returns the converged unknowns.
#[allow(clippy::too_many_arguments)]
fn newton(
    ckt: &Circuit,
    analysis: &'static str,
    x0: &[f64],
    t: f64,
    gmin: f64,
    caps: Option<&(Vec<CapInstance>, Integrator, f64)>,
    max_iter: usize,
) -> Result<Vec<f64>, SpiceError> {
    let n = ckt.unknown_count();
    let n_nodes = ckt.node_count() - 1;
    let mut a = DenseMatrix::zeros(n);
    let mut z = vec![0.0; n];
    let mut x = x0.to_vec();

    for _iter in 0..max_iter {
        assemble(ckt, &x, t, gmin, caps, &mut a, &mut z);
        let Some(x_new) = seed_solve(&a, &z) else {
            return Err(SpiceError::SingularMatrix { analysis, time: t });
        };
        let mut converged = true;
        for i in 0..n {
            let mut delta = x_new[i] - x[i];
            let tol = if i < n_nodes {
                // Damp voltage updates so exponential models stay sane.
                if delta.abs() > VSTEP_MAX {
                    delta = delta.signum() * VSTEP_MAX;
                    converged = false;
                }
                VNTOL + RELTOL * x_new[i].abs()
            } else {
                ABSTOL + RELTOL * x_new[i].abs()
            };
            if delta.abs() > tol {
                converged = false;
            }
            x[i] += delta;
        }
        if converged {
            return Ok(x);
        }
    }
    Err(SpiceError::NonConvergence {
        analysis,
        time: t,
        iterations: max_iter,
    })
}

/// Extracts an [`OpResult`] from a raw unknown vector.
fn op_result_from(ckt: &Circuit, x: &[f64]) -> OpResult {
    let mut voltages = vec![0.0; ckt.node_count()];
    voltages[1..ckt.node_count()].copy_from_slice(&x[..ckt.node_count() - 1]);
    let mut branch_currents: Vec<(String, f64)> = ckt
        .devices()
        .iter()
        .filter_map(|d| match d {
            Device::VoltageSource { name, branch, .. } => {
                Some((name.clone(), x[ckt.branch_index(*branch)]))
            }
            _ => None,
        })
        .collect();
    // The result type keeps its table name-sorted for lookup.
    branch_currents.sort_by(|l, r| l.0.cmp(&r.0));
    OpResult {
        voltages,
        branch_currents,
        stats: SolverStats::default(),
    }
}

/// Solves the DC operating point with the per-call engine.
///
/// Identical semantics to [`super::op`], without workspace reuse.
///
/// # Errors
///
/// Same conditions as [`super::op`].
pub fn op(ckt: &mut Circuit) -> Result<OpResult, SpiceError> {
    let x = op_unknowns(ckt, 0.0)?;
    Ok(op_result_from(ckt, &x))
}

/// Raw gmin-stepped operating-point solve at time `t`.
fn op_unknowns(ckt: &Circuit, t: f64) -> Result<Vec<f64>, SpiceError> {
    let n = ckt.unknown_count();
    let mut x = vec![0.0; n];
    let gmin_ladder = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, GMIN_FLOOR];
    for (stage, &gmin) in gmin_ladder.iter().enumerate() {
        match newton(ckt, "op", &x, t, gmin, None, 400) {
            Ok(solution) => x = solution,
            Err(e) if stage == 0 => return Err(e),
            Err(_) => {
                // Keep the last converged (more heavily shunted) solution
                // and continue down the ladder; final stage must succeed.
                if gmin <= GMIN_FLOOR {
                    return newton(ckt, "op", &x, t, GMIN_FLOOR, None, 800);
                }
            }
        }
    }
    Ok(x)
}

/// Sweeps the DC value of the named voltage source with the per-call
/// engine.
///
/// Identical semantics to `SimulationSession::dc_sweep`, without
/// workspace reuse.
///
/// # Errors
///
/// Same conditions as `SimulationSession::dc_sweep`.
pub fn dc_sweep(
    ckt: &mut Circuit,
    source: &str,
    values: &[f64],
) -> Result<Vec<OpResult>, SpiceError> {
    if values.is_empty() {
        return Err(SpiceError::InvalidAnalysis {
            reason: "dc sweep needs at least one source value".into(),
        });
    }
    // Confirm the source exists before mutating anything.
    let exists = ckt
        .devices()
        .iter()
        .any(|d| matches!(d, Device::VoltageSource { name, .. } if name == source));
    if !exists {
        return Err(SpiceError::UnknownTrace {
            name: source.into(),
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

    let mut results = Vec::with_capacity(values.len());
    let mut x = vec![0.0; ckt.unknown_count()];
    let mut warm = false;
    for &v in values {
        super::newton::set_source_dc(ckt, source, v);
        let solved = if warm {
            newton(ckt, "dc", &x, 0.0, GMIN_FLOOR, None, 400).or_else(|_| op_unknowns(ckt, 0.0))
        } else {
            op_unknowns(ckt, 0.0)
        };
        match solved {
            Ok(sol) => {
                x = sol;
                warm = true;
                results.push(op_result_from(ckt, &x));
            }
            Err(e) => {
                super::newton::restore_source(ckt, source, &original);
                return Err(e);
            }
        }
    }
    super::newton::restore_source(ckt, source, &original);
    Ok(results)
}

/// Runs a transient with the legacy engine's options (uniform stepping,
/// backward Euler) using the per-call engine.
///
/// This module is the frozen oracle: it pins
/// [`TransientOptions::fixed`] rather than the default options, so its
/// behaviour never shifts with the adaptive controller's defaults.
///
/// # Errors
///
/// Propagates every error of `transient_with_options`.
pub fn transient(ckt: &mut Circuit, stop: Time, step: Time) -> Result<TransientResult, SpiceError> {
    transient_with_options(ckt, stop, step, TransientOptions::fixed())
}

/// Runs a transient analysis with the per-call engine.
///
/// Identical semantics to [`super::transient_with_options`], without
/// workspace reuse: the capacitor companion list is cloned per step and
/// every Newton solve allocates its own system.
///
/// # Errors
///
/// Same conditions as [`super::transient_with_options`].
pub(crate) fn transient_with_options(
    ckt: &mut Circuit,
    stop: Time,
    step: Time,
    options: TransientOptions,
) -> Result<TransientResult, SpiceError> {
    let stop_s = stop.seconds();
    let dt_nominal = step.seconds();
    if stop_s <= 0.0 || dt_nominal <= 0.0 || stop_s.is_nan() || dt_nominal.is_nan() {
        return Err(SpiceError::InvalidAnalysis {
            reason: format!("stop ({stop}) and step ({step}) must be positive"),
        });
    }
    if dt_nominal > stop_s {
        return Err(SpiceError::InvalidAnalysis {
            reason: format!("step ({step}) exceeds the analysis window ({stop})"),
        });
    }

    // Initial state.
    let mut x = match options.start {
        StartCondition::OperatingPoint => op_unknowns(ckt, 0.0)?,
        StartCondition::Zero => vec![0.0; ckt.unknown_count()],
    };

    // Flatten capacitors (explicit + MOSFET parasitics) with history.
    let mut caps: Vec<CapInstance> = Vec::new();
    for dev in ckt.devices() {
        match dev {
            Device::Capacitor { a, b, farads, .. } => {
                caps.push(CapInstance {
                    ia: ckt.voltage_index(*a),
                    ib: ckt.voltage_index(*b),
                    farads: *farads,
                    v_prev: 0.0,
                    i_prev: 0.0,
                });
            }
            Device::Mosfet {
                d,
                g,
                s,
                model,
                w,
                l,
                ..
            } => {
                let cgs = model.cgs(*w, *l);
                let cj = model.cjunction(*w);
                let (di, gi, si) = (
                    ckt.voltage_index(*d),
                    ckt.voltage_index(*g),
                    ckt.voltage_index(*s),
                );
                caps.push(CapInstance {
                    ia: gi,
                    ib: si,
                    farads: cgs,
                    v_prev: 0.0,
                    i_prev: 0.0,
                });
                caps.push(CapInstance {
                    ia: gi,
                    ib: di,
                    farads: cgs,
                    v_prev: 0.0,
                    i_prev: 0.0,
                });
                caps.push(CapInstance {
                    ia: di,
                    ib: None,
                    farads: cj,
                    v_prev: 0.0,
                    i_prev: 0.0,
                });
                caps.push(CapInstance {
                    ia: si,
                    ib: None,
                    farads: cj,
                    v_prev: 0.0,
                    i_prev: 0.0,
                });
            }
            _ => {}
        }
    }
    for cap in &mut caps {
        cap.v_prev = vof(&x, cap.ia) - vof(&x, cap.ib);
    }

    // Result storage.
    let mut recorder = TransientResult::recorder(ckt);
    recorder.push(0.0, &x, ckt);
    let mut events: Vec<MtjEvent> = Vec::new();

    let mut t = 0.0_f64;
    while t < stop_s {
        // Candidate step: nominal, clipped to breakpoints and the window.
        let remaining = stop_s - t;
        let mut dt = dt_nominal.min(remaining);
        if let Some(bp) = next_breakpoint(ckt, t) {
            if bp > t + 1e-18 && bp < t + dt {
                dt = bp - t;
            }
        }

        // Solve with step halving on non-convergence.
        let mut halvings = 0;
        let (x_new, dt_used) = loop {
            let companion = (caps.clone(), options.integrator, dt);
            match newton(
                ckt,
                "tran",
                &x,
                t + dt,
                GMIN_FLOOR,
                Some(&companion),
                options.max_newton_iterations,
            ) {
                Ok(sol) => break (sol, dt),
                Err(e) => {
                    halvings += 1;
                    if halvings > options.max_step_halvings {
                        return Err(e);
                    }
                    dt *= 0.5;
                }
            }
        };
        // Snap the final step exactly onto the requested stop time,
        // mirroring the session engine's fix (the two must stay
        // bit-identical, time axis included).
        t = if dt_used >= remaining {
            stop_s
        } else {
            t + dt_used
        };
        x = x_new;

        // Update capacitor history.
        for cap in &mut caps {
            let v_now = vof(&x, cap.ia) - vof(&x, cap.ib);
            let i_now = match options.integrator {
                Integrator::BackwardEuler => cap.farads / dt_used * (v_now - cap.v_prev),
                Integrator::Trapezoidal => {
                    2.0 * cap.farads / dt_used * (v_now - cap.v_prev) - cap.i_prev
                }
            };
            cap.v_prev = v_now;
            cap.i_prev = i_now;
        }

        // Advance MTJ magnetisation from the solved branch currents.
        let voltage_pairs: Vec<(usize, Option<usize>, Option<usize>)> = ckt
            .devices()
            .iter()
            .enumerate()
            .filter_map(|(i, d)| match d {
                Device::Mtj { a, b, .. } => Some((i, ckt.voltage_index(*a), ckt.voltage_index(*b))),
                _ => None,
            })
            .collect();
        for (dev_idx, ia, ib) in voltage_pairs {
            let bias = vof(&x, ia) - vof(&x, ib);
            if let Device::Mtj { name, device, .. } = &mut ckt.devices_mut()[dev_idx] {
                let r = device.resistance(units::Voltage::from_volts(bias));
                let i = Current::from_amps(bias / r.ohms());
                if device.advance(i, Time::from_seconds(dt_used)) {
                    events.push(MtjEvent {
                        time: Time::from_seconds(t),
                        device: name.clone(),
                        state: device.state(),
                    });
                }
            }
        }

        recorder.push(t, &x, ckt);
    }

    Ok(recorder.finish(events, SolverStats::default()))
}

/// Earliest source breakpoint strictly after `t`, across all sources.
fn next_breakpoint(ckt: &Circuit, t: f64) -> Option<f64> {
    ckt.devices()
        .iter()
        .filter_map(|d| match d {
            Device::VoltageSource { wave, .. } | Device::CurrentSource { wave, .. } => {
                wave.next_breakpoint(t)
            }
            _ => None,
        })
        .min_by(|a, b| a.partial_cmp(b).expect("breakpoints are finite"))
}

/// Returns the MTJ states currently held by a circuit, in device order.
#[must_use]
pub fn mtj_states(ckt: &Circuit) -> Vec<(String, MtjState)> {
    super::mtj_states(ckt)
}
