//! MNA system assembly: the [`Stamp`] trait, the pre-resolved
//! [`StampPlan`], and the shared [`assemble`] routine.
//!
//! A `StampPlan` is built once per circuit topology. It resolves every
//! device's unknown indices (node voltage rows/columns, branch-current
//! rows) ahead of time, flattens the capacitor list (explicit capacitors
//! plus MOSFET parasitics) into companion descriptors, and records the
//! side tables the analyses need each step: MTJ terminal indices, the
//! devices carrying source waveforms, and a name-sorted branch-current
//! table. Assembling the system at an iterate then walks the plan's
//! stamps — no per-iteration device matching, index resolution, or
//! allocation.
//!
//! Stamps read *live* device parameters (waveforms, MTJ resistance,
//! MOSFET bias point) through the circuit on every call, so mutations
//! made between runs via [`Circuit::devices_mut`] or the snapshot API
//! are always honoured.

use crate::circuit::Circuit;
use crate::device::Device;
use crate::linalg::{DenseMatrix, SparsePattern};

use super::{Integrator, GMIN_FLOOR};

/// Computes a node voltage from the unknown vector (`None` = ground).
pub(super) fn vof(x: &[f64], idx: Option<usize>) -> f64 {
    idx.map_or(0.0, |i| x[i])
}

/// The assembly target a stamp writes its matrix entries into: the
/// dense MNA matrix, the CSR value array of a frozen [`SparsePattern`],
/// or a structure probe that records which `(row, col)` pairs a stamp
/// *could* touch (used once at plan-build time to freeze the pattern).
///
/// An enum rather than a generic keeps [`Stamp`] object-safe — the plan
/// stores `Box<dyn Stamp>` — at the cost of one predictable branch per
/// matrix add.
pub(super) enum MatrixRef<'a> {
    /// Stamp into a dense matrix (the oracle path).
    Dense(&'a mut DenseMatrix),
    /// Stamp into the CSR values backing a frozen pattern.
    Sparse {
        pattern: &'a SparsePattern,
        values: &'a mut Vec<f64>,
    },
    /// Record structural positions only; values are ignored.
    Probe(&'a mut Vec<(u32, u32)>),
}

impl MatrixRef<'_> {
    /// Adds `value` at (`row`, `col`) — the stamp primitive.
    #[inline]
    pub(super) fn add(&mut self, row: usize, col: usize, value: f64) {
        match self {
            MatrixRef::Dense(a) => a.add(row, col, value),
            MatrixRef::Sparse { pattern, values } => pattern.add_into(values, row, col, value),
            MatrixRef::Probe(entries) => entries.push((row as u32, col as u32)),
        }
    }

    /// Resets every entry to zero, keeping allocations (no-op for the
    /// probe, which accumulates positions).
    fn clear(&mut self) {
        match self {
            MatrixRef::Dense(a) => a.clear(),
            MatrixRef::Sparse { values, .. } => values.fill(0.0),
            MatrixRef::Probe(_) => {}
        }
    }
}

/// Conductance stamp between two (possibly ground) nodes.
pub(super) fn stamp_conductance(
    a: &mut MatrixRef<'_>,
    ia: Option<usize>,
    ib: Option<usize>,
    g: f64,
) {
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

/// Evaluation context shared by every stamp in one assembly pass.
#[derive(Debug, Clone, Copy)]
pub(super) struct EvalCtx {
    /// Simulation time the waveforms are evaluated at.
    pub t: f64,
    /// Scale applied to every independent source value — 1.0 in normal
    /// operation, ramped 0 → 1 by the source-stepping recovery ladder.
    pub src_scale: f64,
}

impl EvalCtx {
    pub(super) fn at(t: f64) -> Self {
        Self { t, src_scale: 1.0 }
    }
}

/// One device's contribution to the linearized MNA system, with its
/// unknown indices resolved at plan-build time.
///
/// `dev` on each implementor is the device's index in
/// [`Circuit::devices`]; parameters that can change between runs are
/// read through it on every call.
pub(super) trait Stamp: std::fmt::Debug + Send + Sync {
    /// Adds this device's linearized equations at iterate `x`, in the
    /// time/scale context `ctx`.
    fn stamp(&self, ckt: &Circuit, x: &[f64], ctx: EvalCtx, a: &mut MatrixRef<'_>, z: &mut [f64]);
}

#[derive(Debug)]
struct ResistorStamp {
    dev: usize,
    ia: Option<usize>,
    ib: Option<usize>,
}

impl Stamp for ResistorStamp {
    fn stamp(
        &self,
        ckt: &Circuit,
        _x: &[f64],
        _ctx: EvalCtx,
        a: &mut MatrixRef<'_>,
        _z: &mut [f64],
    ) {
        let Device::Resistor { ohms, .. } = &ckt.devices()[self.dev] else {
            unreachable!("stamp plan out of sync with circuit");
        };
        stamp_conductance(a, self.ia, self.ib, 1.0 / ohms);
    }
}

#[derive(Debug)]
struct VoltageSourceStamp {
    dev: usize,
    ip: Option<usize>,
    in_: Option<usize>,
    br: usize,
}

impl Stamp for VoltageSourceStamp {
    fn stamp(&self, ckt: &Circuit, _x: &[f64], ctx: EvalCtx, a: &mut MatrixRef<'_>, z: &mut [f64]) {
        let Device::VoltageSource { wave, .. } = &ckt.devices()[self.dev] else {
            unreachable!("stamp plan out of sync with circuit");
        };
        if let Some(ip) = self.ip {
            a.add(ip, self.br, 1.0);
            a.add(self.br, ip, 1.0);
        }
        if let Some(in_) = self.in_ {
            a.add(in_, self.br, -1.0);
            a.add(self.br, in_, -1.0);
        }
        z[self.br] = ctx.src_scale * wave.value_at(ctx.t);
    }
}

#[derive(Debug)]
struct CurrentSourceStamp {
    dev: usize,
    ip: Option<usize>,
    in_: Option<usize>,
}

impl Stamp for CurrentSourceStamp {
    fn stamp(
        &self,
        ckt: &Circuit,
        _x: &[f64],
        ctx: EvalCtx,
        _a: &mut MatrixRef<'_>,
        z: &mut [f64],
    ) {
        let Device::CurrentSource { wave, .. } = &ckt.devices()[self.dev] else {
            unreachable!("stamp plan out of sync with circuit");
        };
        let i = ctx.src_scale * wave.value_at(ctx.t);
        if let Some(ip) = self.ip {
            z[ip] -= i;
        }
        if let Some(in_) = self.in_ {
            z[in_] += i;
        }
    }
}

#[derive(Debug)]
struct MosfetStamp {
    dev: usize,
    id: Option<usize>,
    ig: Option<usize>,
    is_: Option<usize>,
}

impl Stamp for MosfetStamp {
    fn stamp(&self, ckt: &Circuit, x: &[f64], _ctx: EvalCtx, a: &mut MatrixRef<'_>, z: &mut [f64]) {
        let Device::Mosfet { model, w, l, .. } = &ckt.devices()[self.dev] else {
            unreachable!("stamp plan out of sync with circuit");
        };
        let (id_, ig, is_) = (self.id, self.ig, self.is_);
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
}

#[derive(Debug)]
struct MtjStamp {
    dev: usize,
    ia: Option<usize>,
    ib: Option<usize>,
}

impl Stamp for MtjStamp {
    fn stamp(
        &self,
        ckt: &Circuit,
        x: &[f64],
        _ctx: EvalCtx,
        a: &mut MatrixRef<'_>,
        _z: &mut [f64],
    ) {
        let Device::Mtj { device, .. } = &ckt.devices()[self.dev] else {
            unreachable!("stamp plan out of sync with circuit");
        };
        let bias = vof(x, self.ia) - vof(x, self.ib);
        let r = device.resistance(units::Voltage::from_volts(bias));
        stamp_conductance(a, self.ia, self.ib, 1.0 / r.ohms());
    }
}

/// A flattened capacitor with resolved terminals (transient companion
/// stamping); the geometry never changes, only the per-step history in
/// [`CapState`].
#[derive(Debug, Clone, Copy)]
pub(super) struct CapDescriptor {
    pub ia: Option<usize>,
    pub ib: Option<usize>,
    pub farads: f64,
}

/// Per-capacitor integration history, stored in the workspace.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CapState {
    pub v_prev: f64,
    pub i_prev: f64,
}

/// Companion-model context for one transient Newton solve: borrowed
/// capacitor histories plus the integrator and step size.
pub(super) struct Companions<'a> {
    pub states: &'a [CapState],
    pub integrator: Integrator,
    pub dt: f64,
}

/// An MTJ's device index and terminal unknowns, pre-resolved for the
/// post-step magnetisation advance.
#[derive(Debug, Clone, Copy)]
pub(super) struct MtjSlot {
    pub dev: usize,
    pub ia: Option<usize>,
    pub ib: Option<usize>,
}

/// Everything an analysis needs that depends only on circuit *topology*,
/// resolved once and reused across Newton iterations, time steps, sweep
/// points and repeated runs.
#[derive(Debug)]
pub(crate) struct StampPlan {
    stamps: Vec<Box<dyn Stamp>>,
    pub(super) caps: Vec<CapDescriptor>,
    pub(super) mtjs: Vec<MtjSlot>,
    /// Device indices of waveform-carrying sources (breakpoint scan).
    pub(super) wave_devs: Vec<usize>,
    /// `(source name, branch unknown index)`, sorted by name.
    pub(super) branches: Vec<(String, usize)>,
    pub(super) n_nodes: usize,
    pub(super) n_unknowns: usize,
    device_count: usize,
    /// Structural nonzero pattern of the assembled matrix, frozen at
    /// plan-build time by a probe assembly pass with companions armed —
    /// a superset shared by op, DC and transient assembly (companion
    /// slots simply hold exact zeros outside transients). Building it
    /// also computes the fill-reducing column order every sparse
    /// analysis of this plan eliminates in.
    pub(super) sparse: SparsePattern,
}

impl StampPlan {
    /// Resolves every device of `ckt` into stamps and side tables.
    pub(crate) fn build(ckt: &Circuit) -> Self {
        let n_nodes = ckt.node_count() - 1;
        let mut stamps: Vec<Box<dyn Stamp>> = Vec::with_capacity(ckt.devices().len());
        let mut caps = Vec::new();
        let mut mtjs = Vec::new();
        let mut wave_devs = Vec::new();
        let mut branches = Vec::new();
        let vidx = |node| ckt.voltage_index(node);

        for (dev, d) in ckt.devices().iter().enumerate() {
            match d {
                Device::Resistor { a, b, .. } => {
                    stamps.push(Box::new(ResistorStamp {
                        dev,
                        ia: vidx(*a),
                        ib: vidx(*b),
                    }));
                }
                Device::Capacitor { a, b, farads, .. } => {
                    caps.push(CapDescriptor {
                        ia: vidx(*a),
                        ib: vidx(*b),
                        farads: *farads,
                    });
                }
                Device::VoltageSource {
                    name,
                    pos,
                    neg,
                    branch,
                    ..
                } => {
                    let br = ckt.branch_index(*branch);
                    stamps.push(Box::new(VoltageSourceStamp {
                        dev,
                        ip: vidx(*pos),
                        in_: vidx(*neg),
                        br,
                    }));
                    branches.push((name.clone(), br));
                    wave_devs.push(dev);
                }
                Device::CurrentSource { pos, neg, .. } => {
                    stamps.push(Box::new(CurrentSourceStamp {
                        dev,
                        ip: vidx(*pos),
                        in_: vidx(*neg),
                    }));
                    wave_devs.push(dev);
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
                    let (di, gi, si) = (vidx(*d), vidx(*g), vidx(*s));
                    stamps.push(Box::new(MosfetStamp {
                        dev,
                        id: di,
                        ig: gi,
                        is_: si,
                    }));
                    // Parasitics, flattened in the same order the seed
                    // engine used: gate-source, gate-drain, junctions.
                    let cgs = model.cgs(*w, *l);
                    let cj = model.cjunction(*w);
                    caps.push(CapDescriptor {
                        ia: gi,
                        ib: si,
                        farads: cgs,
                    });
                    caps.push(CapDescriptor {
                        ia: gi,
                        ib: di,
                        farads: cgs,
                    });
                    caps.push(CapDescriptor {
                        ia: di,
                        ib: None,
                        farads: cj,
                    });
                    caps.push(CapDescriptor {
                        ia: si,
                        ib: None,
                        farads: cj,
                    });
                }
                Device::Mtj { a, b, .. } => {
                    let (ia, ib) = (vidx(*a), vidx(*b));
                    stamps.push(Box::new(MtjStamp { dev, ia, ib }));
                    mtjs.push(MtjSlot { dev, ia, ib });
                }
            }
        }
        branches.sort_by(|l, r| l.0.cmp(&r.0));
        let mut plan = Self {
            stamps,
            caps,
            mtjs,
            wave_devs,
            branches,
            n_nodes,
            n_unknowns: ckt.unknown_count(),
            device_count: ckt.devices().len(),
            sparse: SparsePattern::default(),
        };
        // Probe pass: run one assembly with a position-recording target
        // to freeze the structural pattern. Companions are armed (any
        // positive dt works — values are discarded) so the pattern
        // covers transient assembly too; `x = 0` is safe because stamp
        // *structure* is bias-independent. Voltage-source branch rows
        // have no diagonal, so the gmin loop must span only node rows,
        // exactly as `assemble` stamps it.
        let x = vec![0.0; plan.n_unknowns];
        let mut z = vec![0.0; plan.n_unknowns];
        let states = vec![CapState::default(); plan.caps.len()];
        let companions = Companions {
            states: &states,
            integrator: Integrator::BackwardEuler,
            dt: 1.0,
        };
        let mut entries = Vec::new();
        assemble(
            &plan,
            ckt,
            &x,
            EvalCtx::at(0.0),
            GMIN_FLOOR,
            Some(&companions),
            &mut MatrixRef::Probe(&mut entries),
            &mut z,
        );
        plan.sparse = SparsePattern::from_entries(plan.n_unknowns, entries);
        plan
    }

    /// Whether the circuit's topology no longer matches this plan
    /// (devices or unknowns were added since the plan was built).
    pub(crate) fn is_stale(&self, ckt: &Circuit) -> bool {
        self.device_count != ckt.devices().len() || self.n_unknowns != ckt.unknown_count()
    }
}

/// Stamps every device's linearized equation at iterate `x` and time
/// `t`, walking the pre-resolved plan. The stamping order — gmin
/// diagonal, devices in insertion order, capacitor companions — matches
/// the original single-pass assembler exactly, so accumulated
/// floating-point sums are bit-identical.
#[allow(clippy::too_many_arguments)]
pub(super) fn assemble(
    plan: &StampPlan,
    ckt: &Circuit,
    x: &[f64],
    ctx: EvalCtx,
    gmin: f64,
    companions: Option<&Companions<'_>>,
    a: &mut MatrixRef<'_>,
    z: &mut [f64],
) {
    a.clear();
    z.fill(0.0);

    // gmin shunts keep otherwise-floating nodes weakly grounded.
    for i in 0..plan.n_nodes {
        a.add(i, i, gmin.max(GMIN_FLOOR));
    }

    for stamp in &plan.stamps {
        stamp.stamp(ckt, x, ctx, a, z);
    }

    // Capacitor companions (transient only).
    if let Some(c) = companions {
        for (cap, state) in plan.caps.iter().zip(c.states.iter()) {
            let (geq, ieq) = match c.integrator {
                Integrator::BackwardEuler => {
                    let geq = cap.farads / c.dt;
                    (geq, geq * state.v_prev)
                }
                Integrator::Trapezoidal => {
                    let geq = 2.0 * cap.farads / c.dt;
                    (geq, geq * state.v_prev + state.i_prev)
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
