//! MNA system assembly: the [`StampPlan`] stamp table and the walks
//! that stamp it.
//!
//! A `StampPlan` is built once per circuit topology and solver engine.
//! It turns every device into an [`Entry`] of a concrete kind and
//! resolves each matrix add the entry makes to an offset into the
//! engine's value array: a CSR slot for the sparse engine, `row·n + col`
//! for the dense oracle. The structural pattern is the set of positions
//! those adds name, so the check that every stamp lands inside it runs
//! once, at build. The plan also flattens the capacitor list (explicit
//! capacitors plus MOSFET parasitics) into companion descriptors and
//! records the side tables the analyses need each step: MTJ terminal
//! indices, the devices carrying source waveforms, a name-sorted
//! branch-current table, and the MOSFETs' kernel constants as a
//! [`MosfetBatch`].
//!
//! Both engines walk the same table:
//!
//! * the dense oracle re-stamps the whole system every Newton iteration
//!   ([`StampPlan::assemble`]) in the original order — gmin diagonal,
//!   devices in insertion order, capacitor companions — so its sums
//!   match [`super::reference`] bit for bit;
//! * the sparse engine splits it. Gmin, resistors, sources and the
//!   companions are fixed for one Newton solve, so
//!   [`StampPlan::stamp_static`] sums them into a base once per solve;
//!   each iteration copies the base and adds only the bias-dependent
//!   MTJs and MOSFETs ([`StampPlan::stamp_dynamic`]). The MOSFETs are
//!   evaluated as one batch: their voltages are gathered a chunk at a
//!   time, the vectorized kernel runs on the frozen constants, and the
//!   results are scattered through each device's resolved adds.
//!
//! Entries read *live* device values (resistances, waveforms, MTJ
//! state, bias points) through the circuit on every stamp; the dense
//! oracle's walk reads MOSFET models live too, while the sparse batch
//! runs on the constants the plan froze. What the plan freezes — each
//! device's kind, its terminals, the companion capacitances it
//! contributes and a MOSFET's kernel constants — is recorded, and
//! [`StampPlan::is_stale`] compares it with the circuit. Sessions run
//! that compare at the start of every analysis and rebuild the plan on
//! any difference, so edits made between analyses through
//! [`Circuit::devices_mut`] or the snapshot API are honoured; an edit
//! made during an analysis is not seen by it.

use std::mem::Discriminant;

use crate::circuit::Circuit;
use crate::device::Device;
use crate::linalg::SparsePattern;
use crate::mosfet::{KernelParams, MosfetBatch, MosfetOperatingPoint};

use super::session::SolverKind;
use super::{Integrator, GMIN_FLOOR};

/// Computes a node voltage from the unknown vector (`None` = ground).
pub(super) fn vof(x: &[f64], idx: Option<usize>) -> f64 {
    idx.map_or(0.0, |i| x[i])
}

/// What one Newton solve holds fixed, shared by every stamp in it.
#[derive(Clone, Copy)]
pub(super) struct EvalCtx<'a> {
    /// Simulation time the waveforms are evaluated at.
    pub(crate) t: f64,
    /// Scale applied to every independent source value — 1.0 in normal
    /// operation, ramped 0 → 1 by the source-stepping recovery ladder.
    pub(crate) src_scale: f64,
    /// Shunt from every node to ground (floored at [`GMIN_FLOOR`]).
    pub(crate) gmin: f64,
    /// Capacitor companions (transient solves only).
    pub(crate) companions: Option<&'a Companions<'a>>,
}

/// Up to `N` matrix adds of one stamp, in stamping order. Each add is a
/// value-array offset plus the index of the coefficient it adds from
/// the stamp's coefficient list. Adds a grounded terminal would make
/// are left out at build time, so applying the list takes no branches.
#[derive(Debug, Clone, Copy)]
struct Adds<const N: usize> {
    at: [usize; N],
    coef: [u8; N],
    len: u8,
}

impl<const N: usize> Adds<N> {
    fn new() -> Self {
        Self {
            at: [0; N],
            coef: [0; N],
            len: 0,
        }
    }

    fn push(&mut self, at: usize, coef: u8) {
        let k = usize::from(self.len);
        self.at[k] = at;
        self.coef[k] = coef;
        self.len += 1;
    }

    fn offsets_mut(&mut self) -> &mut [usize] {
        &mut self.at[..usize::from(self.len)]
    }

    /// `values[at] += coefs[coef]` for every add, in order.
    #[inline]
    fn apply(&self, values: &mut [f64], coefs: &[f64]) {
        for (&at, &k) in self.at.iter().zip(&self.coef).take(usize::from(self.len)) {
            values[at] += coefs[usize::from(k)];
        }
    }
}

/// The adds of a two-terminal conductance `g` between `ia` and `ib`,
/// as dense offsets of an `n × n` system: `(a,a) += g`, `(a,b) -= g`,
/// `(b,b) += g`, `(b,a) -= g`. Coefficients: `[g, -g]`.
fn conductance_adds(ia: Option<usize>, ib: Option<usize>, n: usize) -> Adds<4> {
    let mut adds = Adds::new();
    if let Some(i) = ia {
        adds.push(i * n + i, 0);
        if let Some(j) = ib {
            adds.push(i * n + j, 1);
        }
    }
    if let Some(j) = ib {
        adds.push(j * n + j, 0);
        if let Some(i) = ia {
            adds.push(j * n + i, 1);
        }
    }
    adds
}

/// One device's stamp, with its terminal unknowns and matrix-add
/// offsets resolved at plan build.
///
/// `dev` is the device's index in [`Circuit::devices`]; values that can
/// change between runs are read through it on every stamp.
#[derive(Debug)]
enum Entry {
    /// Linear resistor: conductance `1/ohms`.
    Resistor { dev: usize, adds: Adds<4> },
    /// MTJ: the conductance at its present bias and state.
    Mtj {
        dev: usize,
        ia: Option<usize>,
        ib: Option<usize>,
        adds: Adds<4>,
    },
    /// Voltage source: `±1` incidence entries plus the branch RHS.
    /// Coefficients: `[1, -1]`.
    VoltageSource {
        dev: usize,
        br: usize,
        adds: Adds<4>,
    },
    /// Current source: RHS only.
    CurrentSource {
        dev: usize,
        ip: Option<usize>,
        in_: Option<usize>,
    },
    /// MOSFET linearized at the iterate; `slot` indexes the plan's
    /// [`MosfetSlot`]s and its [`MosfetBatch`].
    Mosfet { dev: usize, slot: usize },
}

impl Entry {
    /// Whether the stamp depends on the iterate (re-stamped every
    /// Newton iteration) rather than only on the solve's context.
    fn is_dynamic(&self) -> bool {
        matches!(self, Entry::Mosfet { .. } | Entry::Mtj { .. })
    }

    fn offsets_mut(&mut self) -> &mut [usize] {
        match self {
            Entry::Resistor { adds, .. }
            | Entry::Mtj { adds, .. }
            | Entry::VoltageSource { adds, .. } => adds.offsets_mut(),
            Entry::CurrentSource { .. } | Entry::Mosfet { .. } => &mut [],
        }
    }

    /// Adds this device's linearized equations at iterate `x`, in the
    /// time/scale context `ctx`; a MOSFET stamps through its slot in
    /// `mosfets`.
    #[inline]
    fn stamp(
        &self,
        ckt: &Circuit,
        mosfets: &[MosfetSlot],
        x: &[f64],
        ctx: &EvalCtx<'_>,
        values: &mut [f64],
        z: &mut [f64],
    ) {
        const OUT_OF_SYNC: &str = "stamp plan out of sync with circuit";
        let device = &ckt.devices()[self.dev()];
        match self {
            Entry::Resistor { adds, .. } => {
                let Device::Resistor { ohms, .. } = device else {
                    unreachable!("{OUT_OF_SYNC}");
                };
                let g = 1.0 / ohms;
                adds.apply(values, &[g, -g]);
            }
            Entry::Mtj { ia, ib, adds, .. } => {
                let Device::Mtj { device, .. } = device else {
                    unreachable!("{OUT_OF_SYNC}");
                };
                let bias = vof(x, *ia) - vof(x, *ib);
                let g = 1.0 / device.resistance(units::Voltage::from_volts(bias)).ohms();
                adds.apply(values, &[g, -g]);
            }
            Entry::VoltageSource { br, adds, .. } => {
                let Device::VoltageSource { wave, .. } = device else {
                    unreachable!("{OUT_OF_SYNC}");
                };
                adds.apply(values, &[1.0, -1.0]);
                z[*br] = ctx.src_scale * wave.value_at(ctx.t);
            }
            Entry::CurrentSource { ip, in_, .. } => {
                let Device::CurrentSource { wave, .. } = device else {
                    unreachable!("{OUT_OF_SYNC}");
                };
                let i = ctx.src_scale * wave.value_at(ctx.t);
                if let Some(ip) = *ip {
                    z[ip] -= i;
                }
                if let Some(in_) = *in_ {
                    z[in_] += i;
                }
            }
            Entry::Mosfet { slot, .. } => {
                let Device::Mosfet { model, w, l, .. } = device else {
                    unreachable!("{OUT_OF_SYNC}");
                };
                let mos = &mosfets[*slot];
                let v @ [vg, vd, vs] = mos.bias(x);
                mos.stamp(v, model.evaluate(vg, vd, vs, *w, *l), values, z);
            }
        }
    }

    fn dev(&self) -> usize {
        match *self {
            Entry::Resistor { dev, .. }
            | Entry::Mtj { dev, .. }
            | Entry::VoltageSource { dev, .. }
            | Entry::CurrentSource { dev, .. }
            | Entry::Mosfet { dev, .. } => dev,
        }
    }
}

/// A MOSFET's terminal unknowns and matrix-add offsets. Coefficients:
/// `[∂i/∂vg, ∂i/∂vd, ∂i/∂vs]` on the drain row, negated on the source
/// row.
#[derive(Debug, Clone, Copy)]
struct MosfetSlot {
    id: Option<usize>,
    ig: Option<usize>,
    is_: Option<usize>,
    adds: Adds<6>,
}

impl MosfetSlot {
    /// `[vg, vd, vs]` at iterate `x` (ground reads 0).
    #[inline]
    fn bias(&self, x: &[f64]) -> [f64; 3] {
        [vof(x, self.ig), vof(x, self.id), vof(x, self.is_)]
    }

    /// Adds the device linearized at bias `[vg, vd, vs]`, where it
    /// evaluated to `op`.
    #[inline]
    fn stamp(
        &self,
        [vg, vd, vs]: [f64; 3],
        op: MosfetOperatingPoint,
        values: &mut [f64],
        z: &mut [f64],
    ) {
        // Channel current leaves the drain, enters the source:
        //   i_d = id0 + ∂i/∂vg·Δvg + ∂i/∂vd·Δvd + ∂i/∂vs·Δvs
        let ieq = op.id - op.di_dvg * vg - op.di_dvd * vd - op.di_dvs * vs;
        self.adds.apply(
            values,
            &[
                op.di_dvg, op.di_dvd, op.di_dvs, -op.di_dvg, -op.di_dvd, -op.di_dvs,
            ],
        );
        if let Some(r) = self.id {
            z[r] -= ieq;
        }
        if let Some(r) = self.is_ {
            z[r] += ieq;
        }
    }
}

/// A flattened capacitor with resolved terminals and companion-add
/// offsets; the geometry never changes, only the per-step history in
/// [`CapState`].
#[derive(Debug, Clone, Copy)]
pub(super) struct CapDescriptor {
    pub(crate) ia: Option<usize>,
    pub(crate) ib: Option<usize>,
    pub(crate) farads: f64,
    adds: Adds<4>,
}

impl CapDescriptor {
    fn new(ia: Option<usize>, ib: Option<usize>, farads: f64, n: usize) -> Self {
        Self {
            ia,
            ib,
            farads,
            adds: conductance_adds(ia, ib, n),
        }
    }
}

/// Per-capacitor integration history, stored in the workspace.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CapState {
    pub(crate) v_prev: f64,
    pub(crate) i_prev: f64,
}

/// Companion-model context for one transient Newton solve: borrowed
/// capacitor histories plus the integrator and step size.
pub(super) struct Companions<'a> {
    pub(crate) states: &'a [CapState],
    pub(crate) integrator: Integrator,
    pub(crate) dt: f64,
}

/// An MTJ's device index and terminal unknowns, pre-resolved for the
/// post-step magnetisation advance.
#[derive(Debug, Clone, Copy)]
pub(super) struct MtjSlot {
    pub(crate) dev: usize,
    pub(crate) ia: Option<usize>,
    pub(crate) ib: Option<usize>,
}

/// What a plan froze of one device: its kind, its terminal unknowns (a
/// voltage source's branch row included), the companion capacitances
/// it contributes and, for a MOSFET, its kernel constants. A circuit
/// whose devices no longer match their records needs a new plan.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Frozen {
    kind: Discriminant<Device>,
    terminals: [Option<usize>; 3],
    farads: [f64; 2],
    kernel: Option<KernelParams>,
}

impl Frozen {
    fn of(ckt: &Circuit, device: &Device) -> Self {
        let vidx = |node| ckt.voltage_index(node);
        let kernel = match device {
            Device::Mosfet { model, w, l, .. } => Some(model.kernel_params(*w, *l)),
            _ => None,
        };
        let (terminals, farads) = match device {
            Device::Resistor { a, b, .. } | Device::Mtj { a, b, .. } => {
                ([vidx(*a), vidx(*b), None], [0.0; 2])
            }
            Device::Capacitor { a, b, farads, .. } => ([vidx(*a), vidx(*b), None], [*farads, 0.0]),
            Device::VoltageSource {
                pos, neg, branch, ..
            } => (
                [vidx(*pos), vidx(*neg), Some(ckt.branch_index(*branch))],
                [0.0; 2],
            ),
            Device::CurrentSource { pos, neg, .. } => ([vidx(*pos), vidx(*neg), None], [0.0; 2]),
            Device::Mosfet {
                d,
                g,
                s,
                model,
                w,
                l,
                ..
            } => (
                [vidx(*d), vidx(*g), vidx(*s)],
                [model.cgs(*w, *l), model.cjunction(*w)],
            ),
        };
        Self {
            kind: std::mem::discriminant(device),
            terminals,
            farads,
            kernel,
        }
    }
}

/// Everything an analysis needs that depends only on circuit *topology*,
/// resolved once and reused across Newton iterations, time steps, sweep
/// points and repeated runs.
#[derive(Debug)]
pub(crate) struct StampPlan {
    /// One entry per non-capacitor device, in insertion order.
    entries: Vec<Entry>,
    /// Terminals and adds of each MOSFET, in insertion order.
    mosfets: Vec<MosfetSlot>,
    /// Kernel constants of each MOSFET, in the same order.
    mosfet_batch: MosfetBatch,
    /// Offsets of the gmin shunt on every node row's diagonal.
    gmin_at: Vec<usize>,
    pub(super) caps: Vec<CapDescriptor>,
    pub(super) mtjs: Vec<MtjSlot>,
    /// Device indices of waveform-carrying sources (breakpoint scan).
    pub(super) wave_devs: Vec<usize>,
    /// `(source name, branch unknown index)`, sorted by name.
    pub(super) branches: Vec<(String, usize)>,
    pub(super) n_nodes: usize,
    pub(super) n_unknowns: usize,
    /// The engine whose value array the adds are addressed for.
    pub(super) solver: SolverKind,
    /// What the plan froze of each device, in device order.
    frozen: Vec<Frozen>,
    /// Structural nonzero pattern of the assembled matrix: every
    /// position the gmin, device and companion adds name — a superset
    /// shared by op, DC and transient assembly (companion slots simply
    /// hold exact zeros outside transients). Building it also computes
    /// the fill-reducing column order every sparse analysis of this
    /// plan eliminates in.
    pub(super) sparse: SparsePattern,
}

impl StampPlan {
    /// Resolves every device of `ckt` into stamp entries and side
    /// tables, with matrix adds addressed for `solver`'s value array.
    pub(crate) fn build(ckt: &Circuit, solver: SolverKind) -> Self {
        let n_nodes = ckt.node_count() - 1;
        let n = ckt.unknown_count();
        let mut entries = Vec::with_capacity(ckt.devices().len());
        let mut mosfets = Vec::new();
        let mut mosfet_batch = MosfetBatch::default();
        let mut caps = Vec::new();
        let mut mtjs = Vec::new();
        let mut wave_devs = Vec::new();
        let mut branches = Vec::new();
        let mut frozen = Vec::with_capacity(ckt.devices().len());

        for (dev, d) in ckt.devices().iter().enumerate() {
            let record = Frozen::of(ckt, d);
            frozen.push(record);
            let [t0, t1, t2] = record.terminals;
            match d {
                Device::Resistor { .. } => entries.push(Entry::Resistor {
                    dev,
                    adds: conductance_adds(t0, t1, n),
                }),
                Device::Capacitor { .. } => {
                    caps.push(CapDescriptor::new(t0, t1, record.farads[0], n));
                }
                Device::VoltageSource { name, .. } => {
                    let br = t2.expect("voltage sources freeze their branch row");
                    let mut adds = Adds::new();
                    if let Some(ip) = t0 {
                        adds.push(ip * n + br, 0);
                        adds.push(br * n + ip, 0);
                    }
                    if let Some(in_) = t1 {
                        adds.push(in_ * n + br, 1);
                        adds.push(br * n + in_, 1);
                    }
                    entries.push(Entry::VoltageSource { dev, br, adds });
                    branches.push((name.clone(), br));
                    wave_devs.push(dev);
                }
                Device::CurrentSource { .. } => {
                    entries.push(Entry::CurrentSource {
                        dev,
                        ip: t0,
                        in_: t1,
                    });
                    wave_devs.push(dev);
                }
                Device::Mosfet { .. } => {
                    let (id, ig, is_) = (t0, t1, t2);
                    let mut adds = Adds::new();
                    if let Some(r) = id {
                        if let Some(c) = ig {
                            adds.push(r * n + c, 0);
                        }
                        adds.push(r * n + r, 1);
                        if let Some(c) = is_ {
                            adds.push(r * n + c, 2);
                        }
                    }
                    if let Some(r) = is_ {
                        if let Some(c) = ig {
                            adds.push(r * n + c, 3);
                        }
                        if let Some(c) = id {
                            adds.push(r * n + c, 4);
                        }
                        adds.push(r * n + r, 5);
                    }
                    entries.push(Entry::Mosfet {
                        dev,
                        slot: mosfets.len(),
                    });
                    mosfets.push(MosfetSlot { id, ig, is_, adds });
                    mosfet_batch.push(record.kernel.expect("MOSFETs freeze their kernel"));
                    // Parasitics, flattened in the same order the seed
                    // engine used: gate-source, gate-drain, junctions.
                    let [cgs, cj] = record.farads;
                    caps.push(CapDescriptor::new(ig, is_, cgs, n));
                    caps.push(CapDescriptor::new(ig, id, cgs, n));
                    caps.push(CapDescriptor::new(id, None, cj, n));
                    caps.push(CapDescriptor::new(is_, None, cj, n));
                }
                Device::Mtj { .. } => {
                    entries.push(Entry::Mtj {
                        dev,
                        ia: t0,
                        ib: t1,
                        adds: conductance_adds(t0, t1, n),
                    });
                    mtjs.push(MtjSlot {
                        dev,
                        ia: t0,
                        ib: t1,
                    });
                }
            }
        }
        branches.sort_by(|l, r| l.0.cmp(&r.0));
        let mut plan = Self {
            entries,
            mosfets,
            mosfet_batch,
            // Voltage-source branch rows have no diagonal, so the shunt
            // spans node rows only.
            gmin_at: (0..n_nodes).map(|i| i * n + i).collect(),
            caps,
            mtjs,
            wave_devs,
            branches,
            n_nodes,
            n_unknowns: n,
            solver,
            frozen,
            sparse: SparsePattern::default(),
        };
        // Every add is addressed `row·n + col` so far; the positions
        // they name are the pattern.
        let mut positions = Vec::new();
        plan.for_each_offset(|at| positions.push(((*at / n) as u32, (*at % n) as u32)));
        let pattern = SparsePattern::from_entries(n, positions);
        if solver == SolverKind::Sparse {
            plan.for_each_offset(|at| {
                let (row, col) = (*at / n, *at % n);
                *at = pattern.slot(row, col).unwrap_or_else(|| {
                    panic!("stamp at ({row}, {col}) outside the frozen pattern")
                });
            });
        }
        plan.sparse = pattern;
        plan
    }

    /// Visits every matrix-add offset of the plan.
    fn for_each_offset(&mut self, mut f: impl FnMut(&mut usize)) {
        self.gmin_at.iter_mut().for_each(&mut f);
        for entry in &mut self.entries {
            entry.offsets_mut().iter_mut().for_each(&mut f);
        }
        for mos in &mut self.mosfets {
            mos.adds.offsets_mut().iter_mut().for_each(&mut f);
        }
        for cap in &mut self.caps {
            cap.adds.offsets_mut().iter_mut().for_each(&mut f);
        }
    }

    /// Whether the circuit no longer matches what this plan froze: its
    /// unknown or device count, or any device's kind, terminals,
    /// companion capacitances or MOSFET kernel constants. O(devices);
    /// sessions call it once per analysis.
    pub(crate) fn is_stale(&self, ckt: &Circuit) -> bool {
        self.n_unknowns != ckt.unknown_count()
            || self.frozen.len() != ckt.devices().len()
            || ckt
                .devices()
                .iter()
                .zip(&self.frozen)
                .any(|(d, record)| Frozen::of(ckt, d) != *record)
    }

    /// The full system at iterate `x`, stamped from zero in the original
    /// single-pass order — gmin diagonal, devices in insertion order,
    /// capacitor companions — so accumulated floating-point sums are
    /// bit-identical to [`super::reference`]. The dense oracle's
    /// per-iteration assembly.
    pub(super) fn assemble(
        &self,
        ckt: &Circuit,
        x: &[f64],
        ctx: &EvalCtx<'_>,
        values: &mut [f64],
        z: &mut [f64],
    ) {
        values.fill(0.0);
        z.fill(0.0);
        self.stamp_gmin(ctx.gmin, values);
        for entry in &self.entries {
            entry.stamp(ckt, &self.mosfets, x, ctx, values, z);
        }
        self.stamp_companions(ctx.companions, values, z);
    }

    /// The part of the system fixed for one Newton solve — gmin,
    /// resistors, sources and capacitor companions — stamped from zero
    /// into `values`/`z`. The sparse engine's per-solve base.
    pub(super) fn stamp_static(
        &self,
        ckt: &Circuit,
        ctx: &EvalCtx<'_>,
        values: &mut [f64],
        z: &mut [f64],
    ) {
        values.fill(0.0);
        z.fill(0.0);
        self.stamp_gmin(ctx.gmin, values);
        for entry in self.entries.iter().filter(|e| !e.is_dynamic()) {
            // Static stamps never read the iterate.
            entry.stamp(ckt, &self.mosfets, &[], ctx, values, z);
        }
        self.stamp_companions(ctx.companions, values, z);
    }

    /// Adds the bias-dependent stamps — MTJs, then the MOSFETs as one
    /// batch on the frozen kernel constants — at iterate `x` on top of a
    /// copied [`StampPlan::stamp_static`] base. The sparse engine's
    /// per-iteration assembly. With `tel` set, the MOSFET batch (gather,
    /// kernel, scatter) is timed into `spice.device_eval_s`.
    pub(super) fn stamp_dynamic(
        &self,
        ckt: &Circuit,
        x: &[f64],
        ctx: &EvalCtx<'_>,
        values: &mut [f64],
        z: &mut [f64],
        tel: bool,
    ) {
        for entry in &self.entries {
            if let Entry::Mtj { .. } = entry {
                entry.stamp(ckt, &self.mosfets, x, ctx, values, z);
            }
        }
        let timer = tel.then(std::time::Instant::now);
        self.mosfet_batch.evaluate(
            |k| self.mosfets[k].bias(x),
            |k, v, op| self.mosfets[k].stamp(v, op, values, z),
        );
        if let Some(start) = timer {
            telemetry::histogram("spice.device_eval_s", start.elapsed().as_secs_f64());
        }
    }

    /// gmin shunts keep otherwise-floating nodes weakly grounded.
    fn stamp_gmin(&self, gmin: f64, values: &mut [f64]) {
        let g = gmin.max(GMIN_FLOOR);
        for &at in &self.gmin_at {
            values[at] += g;
        }
    }

    /// Capacitor companions (transient only).
    fn stamp_companions(
        &self,
        companions: Option<&Companions<'_>>,
        values: &mut [f64],
        z: &mut [f64],
    ) {
        let Some(c) = companions else {
            return;
        };
        for (cap, state) in self.caps.iter().zip(c.states.iter()) {
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
            cap.adds.apply(values, &[geq, -geq]);
            if let Some(i) = cap.ia {
                z[i] += ieq;
            }
            if let Some(i) = cap.ib {
                z[i] -= ieq;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::session::{Engine, Workspace};
    use crate::circuit::NodeId;
    use crate::mosfet::{MosfetModel, Technology};
    use crate::source::SourceWaveform;
    use mtj::{Mtj, MtjParams, MtjState, WritePolarity};
    use units::{Capacitance, Length};

    /// Adds `(name, drain, gate, source, model, width in metres)`
    /// MOSFETs at the technology's minimum length.
    fn add_mosfets(
        ckt: &mut Circuit,
        tech: &Technology,
        cards: &[(&str, NodeId, NodeId, NodeId, MosfetModel, f64)],
    ) {
        let l = Length::from_meters(tech.l_min);
        for &(name, d, g, s, model, w) in cards {
            ckt.add_mosfet(name, d, g, s, model, Length::from_meters(w), l)
                .expect(name);
        }
    }

    /// The proposed 2-bit latch's restore circuit with `[true, false]`
    /// stored, as `cells::ProposedLatch::restore_circuit` builds it at
    /// `LatchConfig::default()` (TT, typical): 46 unknowns and 52
    /// devices, in that build's node and device order.
    fn proposed_restore() -> Circuit {
        let tech = Technology::tsmc40lp();
        let (p, n) = (tech.pmos, tech.nmos);
        let mut ckt = Circuit::new();
        let [vdd, pcv_b, pcg, ren, ren_b, sel_b, p4_b, n4, d0, d0b, d1, d1b, wen, wen_b] = [
            "vdd", "pcv_b", "pcg", "ren", "ren_b", "sel_b", "p4_b", "n4", "d0", "d0b", "d1", "d1b",
            "wen", "wen_b",
        ]
        .map(|name| ckt.node(name));
        let [q, q_b, tl, tr, nl, nr, mt, m, a3, a4] = [
            "mtj_read",
            "mtj_read_b",
            "tl",
            "tr",
            "nl",
            "nr",
            "mt",
            "m",
            "a3",
            "a4",
        ]
        .map(|name| ckt.node(name));
        let [i3_mp, i3_mn, i4_mp, i4_mn, i1_mp, i1_mn, i2_mp, i2_mn] = [
            "I3.mp", "I3.mn", "I4.mp", "I4.mn", "I1.mp", "I1.mn", "I2.mp", "I2.mn",
        ]
        .map(|name| ckt.node(name));
        let gnd = Circuit::GROUND;

        let pwl = |points: &[(f64, f64)]| SourceWaveform::Pwl(points.to_vec());
        let ren_b_wave = [
            (0.0, 1.1),
            (2.6000000000000003e-10, 1.1),
            (2.7000000000000005e-10, 0.0),
            (7.500000000000001e-10, 0.0),
            (7.600000000000001e-10, 1.1),
            (9.6e-10, 1.1),
            (9.7e-10, 0.0),
            (1.4500000000000002e-9, 0.0),
            (1.4600000000000001e-9, 1.1),
        ];
        let ren_wave = ren_b_wave.map(|(t, v)| (t, if v == 0.0 { 1.1 } else { 0.0 }));
        let n4_wave = [
            (0.0, 0.0),
            (7.600000000000001e-10, 0.0),
            (7.7e-10, 1.1),
            (1.5000000000000002e-9, 1.1),
            (1.5100000000000002e-9, 0.0),
        ];
        let sources = [
            ("VDD", vdd, SourceWaveform::Dc(1.1)),
            (
                "VPCVB",
                pcv_b,
                pwl(&[
                    (0.0, 1.1),
                    (5e-11, 1.1),
                    (6e-11, 0.0),
                    (2.5e-10, 0.0),
                    (2.6000000000000003e-10, 1.1),
                ]),
            ),
            (
                "VPCG",
                pcg,
                pwl(&[
                    (0.0, 0.0),
                    (7.600000000000001e-10, 0.0),
                    (7.7e-10, 1.1),
                    (9.5e-10, 1.1),
                    (9.6e-10, 0.0),
                    (1.4600000000000001e-9, 0.0),
                    (1.47e-9, 1.1),
                    (1.5000000000000002e-9, 1.1),
                    (1.5100000000000002e-9, 0.0),
                ]),
            ),
            ("VREN", ren, pwl(&ren_wave)),
            ("VRENB", ren_b, pwl(&ren_b_wave)),
            ("VSELB", sel_b, pwl(&ren_b_wave)),
            ("VP4B", p4_b, pwl(&n4_wave)),
            ("VN4", n4, pwl(&n4_wave)),
            ("VD0", d0, SourceWaveform::Dc(0.0)),
            ("VD0B", d0b, SourceWaveform::Dc(1.1)),
            ("VD1", d1, SourceWaveform::Dc(0.0)),
            ("VD1B", d1b, SourceWaveform::Dc(1.1)),
            ("VWEN", wen, SourceWaveform::Dc(0.0)),
            ("VWENB", wen_b, SourceWaveform::Dc(1.1)),
        ];
        for (name, node, wave) in sources {
            ckt.add_voltage_source(name, node, gnd, wave).expect(name);
        }

        let (w240, w360, w400, w480) = (
            2.4000000000000003e-7,
            3.6000000000000005e-7,
            4.0000000000000003e-7,
            4.800000000000001e-7,
        );
        add_mosfets(
            &mut ckt,
            &tech,
            &[
                ("MPCVA", q, pcv_b, vdd, p, w400),
                ("MPCVB2", q_b, pcv_b, vdd, p, w400),
                ("MPCGA", q, pcg, gnd, n, w400),
                ("MPCGB", q_b, pcg, gnd, n, w400),
                ("MP1", q, q_b, tl, p, w400),
                ("MP2", q_b, q, tr, p, w400),
                ("MN1", q, q_b, nl, n, w360),
                ("MN2", q_b, q, nr, n, w360),
                ("MP3", mt, sel_b, vdd, p, w480),
                ("MN3", m, ren, gnd, n, w480),
                ("MP4", tl, p4_b, tr, p, w240),
                ("MN4", nl, n4, nr, n, w240),
                ("MT1.MN", nl, ren, a3, n, w240),
                ("MT1.MP", nl, ren_b, a3, p, w240),
                ("MT2.MN", nr, ren, a4, n, w240),
                ("MT2.MP", nr, ren_b, a4, p, w240),
            ],
        );

        let (ap, par) = (MtjState::AntiParallel, MtjState::Parallel);
        let (to_ap, to_p) = (
            WritePolarity::PositiveSetsAntiParallel,
            WritePolarity::PositiveSetsParallel,
        );
        for (name, a, b, state, polarity) in [
            ("XMTJ1", tl, mt, ap, to_ap),
            ("XMTJ2", mt, tr, par, to_p),
            ("XMTJ3", a3, m, ap, to_ap),
            ("XMTJ4", m, a4, par, to_p),
        ] {
            let device = Mtj::new(MtjParams::date2018(), state, polarity);
            ckt.add_mtj(name, a, b, device).expect(name);
        }

        // The four write drivers: a gated inverter per MTJ terminal.
        let (wp, wn) = (6.000000000000001e-7, 3.0000000000000004e-7);
        add_mosfets(
            &mut ckt,
            &tech,
            &[
                ("MI3.MPI", i3_mp, d0b, vdd, p, wp),
                ("MI3.MPE", a3, wen_b, i3_mp, p, wp),
                ("MI3.MNE", a3, wen, i3_mn, n, wn),
                ("MI3.MNI", i3_mn, d0b, gnd, n, wn),
                ("MI4.MPI", i4_mp, d0, vdd, p, wp),
                ("MI4.MPE", a4, wen_b, i4_mp, p, wp),
                ("MI4.MNE", a4, wen, i4_mn, n, wn),
                ("MI4.MNI", i4_mn, d0, gnd, n, wn),
                ("MI1.MPI", i1_mp, d1, vdd, p, wp),
                ("MI1.MPE", tl, wen_b, i1_mp, p, wp),
                ("MI1.MNE", tl, wen, i1_mn, n, wn),
                ("MI1.MNI", i1_mn, d1, gnd, n, wn),
                ("MI2.MPI", i2_mp, d1b, vdd, p, wp),
                ("MI2.MPE", tr, wen_b, i2_mp, p, wp),
                ("MI2.MNE", tr, wen, i2_mn, n, wn),
                ("MI2.MNI", i2_mn, d1b, gnd, n, wn),
            ],
        );

        for (name, node) in [("CQ", q), ("CQB", q_b)] {
            ckt.add_capacitor(name, node, gnd, Capacitance::from_farads(8e-15))
                .expect(name);
        }
        ckt
    }

    /// SplitMix64 stream mapped to uniform draws.
    struct SplitMix(u64);

    impl SplitMix {
        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            lo + (hi - lo) * (z >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// `sparse` and `dense` agree to 1e-14 relative to the larger of
    /// their magnitudes and `floor`.
    fn assert_close(case: usize, what: &str, sparse: f64, dense: f64, floor: f64) {
        let scale = sparse.abs().max(dense.abs()).max(floor);
        assert!(
            (sparse - dense).abs() <= 1e-14 * scale,
            "solve {case}: {what}: sparse {sparse:e} vs dense {dense:e}"
        );
    }

    /// The sparse engine's split assembly — a per-solve static base plus
    /// per-iteration MOSFET/MTJ stamps — equals the dense oracle's full
    /// re-stamp, matrix and RHS, entry by entry, at seeded random
    /// iterates and capacitor histories. The solves run back to back on
    /// one workspace per engine, over the gmin ladder, source stepping
    /// and both integrators at several step sizes, at two times; a base
    /// carried over from the previous solve would fail.
    #[test]
    fn split_assembly_matches_full_restamp_on_the_proposed_latch() {
        let ckt = proposed_restore();
        let sparse_plan = StampPlan::build(&ckt, SolverKind::Sparse);
        let dense_plan = StampPlan::build(&ckt, SolverKind::Dense);
        let (n, n_nodes) = (sparse_plan.n_unknowns, sparse_plan.n_nodes);
        assert_eq!(n, 46, "fixture is the 46-unknown restore circuit");
        let mut sparse_ws = Workspace::for_plan(&sparse_plan);
        let mut dense_ws = Workspace::for_plan(&dense_plan);

        // (t, src_scale, gmin, companion integrator and dt) per solve.
        let mut solves = Vec::new();
        for t in [0.3e-9, 1.1e-9] {
            for gmin in [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, GMIN_FLOOR] {
                solves.push((t, 1.0, gmin, None));
            }
            for src_scale in [1.0 / 64.0, 0.3, 0.75] {
                solves.push((t, src_scale, GMIN_FLOOR, None));
            }
            for integrator in [Integrator::BackwardEuler, Integrator::Trapezoidal] {
                for dt in [1e-14, 2e-12, 3e-11] {
                    solves.push((t, 1.0, GMIN_FLOOR, Some((integrator, dt))));
                }
            }
        }

        let mut rng = SplitMix(0x5eed);
        let mut states = vec![CapState::default(); sparse_plan.caps.len()];
        let mut x = vec![0.0; n];
        for (case, &(t, src_scale, gmin, companion)) in solves.iter().enumerate() {
            for state in &mut states {
                state.v_prev = rng.uniform(-1.2, 1.2);
                state.i_prev = rng.uniform(-1e-4, 1e-4);
            }
            let companions = companion.map(|(integrator, dt)| Companions {
                states: &states,
                integrator,
                dt,
            });
            let ctx = EvalCtx {
                t,
                src_scale,
                gmin,
                companions: companions.as_ref(),
            };
            sparse_ws.engine.begin_solve(&sparse_plan, &ckt, &ctx);
            dense_ws.engine.begin_solve(&dense_plan, &ckt, &ctx);
            for _iteration in 0..3 {
                for (i, xi) in x.iter_mut().enumerate() {
                    *xi = if i < n_nodes {
                        rng.uniform(-0.2, 1.3)
                    } else {
                        rng.uniform(-1e-3, 1e-3)
                    };
                }
                sparse_ws
                    .engine
                    .assemble(&sparse_plan, &ckt, &x, &ctx, &mut sparse_ws.z, false);
                dense_ws
                    .engine
                    .assemble(&dense_plan, &ckt, &x, &ctx, &mut dense_ws.z, false);
                let (Engine::Sparse { values, .. }, Engine::Dense { a, .. }) =
                    (&sparse_ws.engine, &dense_ws.engine)
                else {
                    unreachable!("workspaces were built for these engines");
                };
                for r in 0..n {
                    for c in 0..n {
                        let sparse = sparse_plan.sparse.slot(r, c).map_or(0.0, |k| values[k]);
                        assert_close(case, &format!("A[{r}][{c}]"), sparse, a.get(r, c), 0.0);
                    }
                    // RHS entries sum conductance × voltage terms
                    // (companion and MOSFET `ieq`) that cancel, so they
                    // are held relative to the row's largest
                    // conductance times 1 V as well as to themselves.
                    let row_scale = (0..n).map(|c| a.get(r, c).abs()).fold(0.0, f64::max);
                    assert_close(
                        case,
                        &format!("z[{r}]"),
                        sparse_ws.z[r],
                        dense_ws.z[r],
                        row_scale,
                    );
                }
            }
        }
    }
}
