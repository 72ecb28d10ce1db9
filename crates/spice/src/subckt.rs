//! Hierarchical subcircuits: reusable definitions flattened into a
//! [`Circuit`] with canonical dotted instance paths.
//!
//! A [`Subckt`] is a named definition with an ordered port list, a body
//! of ordinary devices (built with the same builder methods as
//! [`Circuit`]) and optionally nested child instances of other
//! definitions. [`Circuit::instantiate`] stamps a definition into a flat
//! circuit: every internal node and device of the definition appears
//! under the instance prefix, joined with [`join_path`] (instance `X0`,
//! internal node `q` → `X0.q`; a nested instance `X0` → `I1` → device
//! `MP` flattens to `X0.I1.MP`).
//!
//! # Plan sharing
//!
//! Flattening does not walk the definition tree per instance. The first
//! instantiation of a definition compiles a *flatten plan* — the fully
//! recursive device list with node references resolved to "port k /
//! internal path / ground" — and every further instantiation of that
//! definition replays the plan. One plan per subcircuit topology, shared
//! across all its instances; the downstream solver then builds one
//! `StampPlan` for the flattened circuit as usual. Plan compilation and
//! reuse are visible in telemetry as `spice.subckt.plan_builds`,
//! `spice.subckt.plan_reuses` and `spice.subckt.instances`.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use spice::{Circuit, SourceWaveform, analysis, subckt::Subckt};
//! use units::{Resistance, Voltage};
//!
//! # fn main() -> Result<(), spice::SpiceError> {
//! // A 2:1 resistive divider as a reusable definition.
//! let mut div = Subckt::new("DIV2", &["in", "out"])?;
//! let (i, o) = (div.body_mut().node("in"), div.body_mut().node("out"));
//! div.body_mut().add_resistor("R1", i, o, Resistance::from_kilo_ohms(1.0))?;
//! div.body_mut().add_resistor("R2", o, Circuit::GROUND, Resistance::from_kilo_ohms(1.0))?;
//!
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("vin");
//! let mid = ckt.node("mid");
//! ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(Voltage::from_volts(2.0)))?;
//! ckt.instantiate("X0", &div, &[vin, mid])?;
//! let op = analysis::op(&mut ckt)?;
//! assert!((op.voltage(mid) - 1.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

use std::sync::{Arc, OnceLock};

use mtj::Mtj;
use units::{Capacitance, Length, Resistance};

use crate::circuit::Circuit;
use crate::device::{Device, NodeId};
use crate::error::SpiceError;
use crate::mosfet::MosfetModel;
use crate::source::SourceWaveform;

/// Joins a hierarchical instance prefix and a leaf segment with the
/// canonical `.` separator; an empty prefix yields the leaf unchanged.
///
/// All hierarchical names in the workspace — flattened subcircuit
/// devices, internal nodes of composite gates — must be built with this
/// joiner so nested paths stay unambiguous.
#[must_use]
pub fn join_path(prefix: &str, leaf: &str) -> String {
    debug_assert!(!leaf.is_empty(), "path leaf must be non-empty");
    if prefix.is_empty() {
        leaf.to_owned()
    } else {
        format!("{prefix}.{leaf}")
    }
}

/// Where a flattened device terminal connects, relative to one instance.
#[derive(Debug, Clone)]
enum PlanNode {
    /// The shared ground node.
    Ground,
    /// The k-th port of the definition (bound at instantiation).
    Port(usize),
    /// An internal node, named by its dotted path below the instance.
    Internal(String),
}

/// Device parameters with the terminals abstracted away.
#[derive(Debug, Clone)]
enum PlanPayload {
    Resistor { ohms: f64 },
    Capacitor { farads: f64 },
    VoltageSource { wave: SourceWaveform },
    CurrentSource { wave: SourceWaveform },
    Mosfet { model: MosfetModel, w: f64, l: f64 },
    Mtj { device: Mtj },
}

#[derive(Debug, Clone)]
struct PlanDevice {
    /// Dotted name below the instance prefix.
    name: String,
    /// Terminals in the order the payload consumes them.
    nodes: Vec<PlanNode>,
    payload: PlanPayload,
}

/// Pre-compiled flattening of one definition: the recursive device list
/// with every terminal resolved to port / internal-path / ground.
/// Built once per [`Subckt`] and replayed by every instantiation.
#[derive(Debug)]
struct FlattenPlan {
    /// Internal node paths in body-creation order (children's internals
    /// follow the body's, prefixed with the child instance name).
    internal_nodes: Vec<String>,
    devices: Vec<PlanDevice>,
}

impl FlattenPlan {
    fn build(def: &Subckt) -> Self {
        let body = &def.body;
        // Classify every body node: ground, port, or internal.
        let mut map: Vec<PlanNode> = Vec::with_capacity(body.node_count());
        let mut internal_nodes = Vec::new();
        map.push(PlanNode::Ground);
        for idx in 1..body.node_count() {
            let name = body.node_name(NodeId(idx));
            if let Some(p) = def.ports.iter().position(|pn| pn == name) {
                map.push(PlanNode::Port(p));
            } else {
                map.push(PlanNode::Internal(name.to_owned()));
                internal_nodes.push(name.to_owned());
            }
        }
        let at = |n: NodeId| map[n.index()].clone();

        let mut devices = Vec::new();
        for dev in body.devices() {
            let (name, nodes, payload) = match dev {
                Device::Resistor { name, a, b, ohms } => (
                    name,
                    vec![at(*a), at(*b)],
                    PlanPayload::Resistor { ohms: *ohms },
                ),
                Device::Capacitor { name, a, b, farads } => (
                    name,
                    vec![at(*a), at(*b)],
                    PlanPayload::Capacitor { farads: *farads },
                ),
                Device::VoltageSource {
                    name,
                    pos,
                    neg,
                    wave,
                    ..
                } => (
                    name,
                    vec![at(*pos), at(*neg)],
                    PlanPayload::VoltageSource { wave: wave.clone() },
                ),
                Device::CurrentSource {
                    name,
                    pos,
                    neg,
                    wave,
                } => (
                    name,
                    vec![at(*pos), at(*neg)],
                    PlanPayload::CurrentSource { wave: wave.clone() },
                ),
                Device::Mosfet {
                    name,
                    d,
                    g,
                    s,
                    model,
                    w,
                    l,
                } => (
                    name,
                    vec![at(*d), at(*g), at(*s)],
                    PlanPayload::Mosfet {
                        model: *model,
                        w: *w,
                        l: *l,
                    },
                ),
                Device::Mtj { name, a, b, device } => (
                    name,
                    vec![at(*a), at(*b)],
                    PlanPayload::Mtj {
                        device: device.clone(),
                    },
                ),
            };
            devices.push(PlanDevice {
                name: name.clone(),
                nodes,
                payload,
            });
        }

        // Splice in each child's (already compiled) plan under the child
        // instance prefix, rebinding its ports to this body's nodes.
        for child in &def.children {
            let cplan = child.def.plan();
            for n in &cplan.internal_nodes {
                internal_nodes.push(join_path(&child.inst, n));
            }
            for d in &cplan.devices {
                let nodes = d
                    .nodes
                    .iter()
                    .map(|pn| match pn {
                        PlanNode::Ground => PlanNode::Ground,
                        PlanNode::Port(i) => at(child.bindings[*i]),
                        PlanNode::Internal(p) => PlanNode::Internal(join_path(&child.inst, p)),
                    })
                    .collect();
                devices.push(PlanDevice {
                    name: join_path(&child.inst, &d.name),
                    nodes,
                    payload: d.payload.clone(),
                });
            }
        }

        Self {
            internal_nodes,
            devices,
        }
    }
}

/// A nested instance of another definition inside a [`Subckt`] body:
/// its instance name, the definition, and the parent-body nodes bound
/// to the child's ports, in port order.
#[derive(Debug, Clone)]
struct ChildInstance {
    inst: String,
    def: Arc<Subckt>,
    bindings: Vec<NodeId>,
}

/// A subcircuit definition: ports, a device body and nested children.
///
/// Build the body through [`Subckt::body_mut`] with the ordinary
/// [`Circuit`] builder methods (ports are pre-interned as body nodes),
/// nest other definitions with [`Subckt::add_instance`], then stamp the
/// whole thing into a top-level circuit with [`Circuit::instantiate`].
///
/// Flattening order: body devices first, in insertion order, then child
/// instances in declaration order — each child's own devices in the same
/// recursive order.
#[derive(Debug, Clone)]
pub struct Subckt {
    name: String,
    ports: Vec<String>,
    body: Circuit,
    children: Vec<ChildInstance>,
    plan: OnceLock<Arc<FlattenPlan>>,
}

impl Subckt {
    /// Creates an empty definition with the given ordered port list.
    /// Every port is interned as a body node up front.
    ///
    /// # Errors
    ///
    /// Rejects an empty definition name, duplicate port names, and
    /// ports that alias ground (`0` / `gnd`).
    pub fn new(name: &str, ports: &[&str]) -> Result<Self, SpiceError> {
        if name.is_empty() {
            return Err(SpiceError::InvalidAnalysis {
                reason: "subckt name must be non-empty".into(),
            });
        }
        let mut body = Circuit::new();
        let mut seen: Vec<&str> = Vec::with_capacity(ports.len());
        for port in ports {
            if port.is_empty() || *port == "0" || port.eq_ignore_ascii_case("gnd") {
                return Err(SpiceError::InvalidAnalysis {
                    reason: format!("subckt {name}: port `{port}` may not alias ground"),
                });
            }
            if seen.contains(port) {
                return Err(SpiceError::InvalidAnalysis {
                    reason: format!("subckt {name}: duplicate port `{port}`"),
                });
            }
            seen.push(port);
            body.node(port);
        }
        Ok(Self {
            name: name.to_owned(),
            ports: ports.iter().map(|p| (*p).to_owned()).collect(),
            body,
            children: Vec::new(),
            plan: OnceLock::new(),
        })
    }

    /// Definition name (the `.subckt` header name).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ordered port names.
    #[must_use]
    pub fn ports(&self) -> &[String] {
        &self.ports
    }

    /// Mutable access to the body circuit for building; invalidates any
    /// cached flatten plan.
    pub fn body_mut(&mut self) -> &mut Circuit {
        self.plan = OnceLock::new();
        &mut self.body
    }

    /// Nests an instance of another definition, binding `bindings` (body
    /// nodes of *this* definition, in the child's port order) to the
    /// child's ports.
    ///
    /// Definitions are referenced through [`Arc`], so a child must be
    /// finished before its parent references it — reference cycles are
    /// unrepresentable.
    ///
    /// # Errors
    ///
    /// Rejects binding-count mismatches, instance names already used by
    /// a sibling instance or body device, and foreign body nodes.
    pub fn add_instance(
        &mut self,
        inst: &str,
        def: &Arc<Subckt>,
        bindings: &[NodeId],
    ) -> Result<(), SpiceError> {
        if inst.is_empty() {
            return Err(SpiceError::InvalidAnalysis {
                reason: format!("subckt {}: instance name must be non-empty", self.name),
            });
        }
        if bindings.len() != def.ports.len() {
            return Err(SpiceError::InvalidAnalysis {
                reason: format!(
                    "instance {inst}: subckt {} has {} ports, {} bindings given",
                    def.name,
                    def.ports.len(),
                    bindings.len()
                ),
            });
        }
        if self.children.iter().any(|c| c.inst == inst)
            || self.body.devices().iter().any(|d| d.name() == inst)
        {
            return Err(SpiceError::DuplicateDevice { name: inst.into() });
        }
        for &b in bindings {
            if b.index() >= self.body.node_count() {
                return Err(SpiceError::UnknownNode {
                    device: format!("{inst} ({})", def.name),
                });
            }
        }
        self.plan = OnceLock::new();
        self.children.push(ChildInstance {
            inst: inst.to_owned(),
            def: Arc::clone(def),
            bindings: bindings.to_vec(),
        });
        Ok(())
    }

    /// The shared flatten plan, compiled on first use.
    fn plan(&self) -> Arc<FlattenPlan> {
        if let Some(p) = self.plan.get() {
            telemetry::counter("spice.subckt.plan_reuses", 1);
            return Arc::clone(p);
        }
        let p = self.plan.get_or_init(|| {
            telemetry::counter("spice.subckt.plan_builds", 1);
            Arc::new(FlattenPlan::build(self))
        });
        Arc::clone(p)
    }
}

impl Circuit {
    /// Stamps an instance of `def` into this circuit.
    ///
    /// `ports` binds the definition's ports, in order, to existing nodes
    /// of this circuit. Internal nodes and devices of the definition are
    /// created under the `inst` prefix with [`join_path`] (so instance
    /// `X0` of a definition with internal node `q` creates `X0.q`).
    /// Flattening replays the definition's shared plan — see the
    /// [module docs](self) for the sharing model.
    ///
    /// # Errors
    ///
    /// Rejects an empty or whitespace-containing instance name, a port
    /// count mismatch, and foreign port nodes; propagates device
    /// construction errors (e.g. [`SpiceError::DuplicateDevice`] when
    /// the same instance name is used twice). On error the circuit may
    /// already contain part of the instance.
    pub fn instantiate(
        &mut self,
        inst: &str,
        def: &Subckt,
        ports: &[NodeId],
    ) -> Result<(), SpiceError> {
        if inst.is_empty() || inst.chars().any(char::is_whitespace) {
            return Err(SpiceError::InvalidAnalysis {
                reason: format!("instance name `{inst}` must be non-empty without whitespace"),
            });
        }
        if ports.len() != def.ports.len() {
            return Err(SpiceError::InvalidAnalysis {
                reason: format!(
                    "instance {inst}: subckt {} has {} ports, {} bindings given",
                    def.name,
                    def.ports.len(),
                    ports.len()
                ),
            });
        }
        for &p in ports {
            if p.index() >= self.node_count() {
                return Err(SpiceError::UnknownNode {
                    device: format!("{inst} ({})", def.name),
                });
            }
        }
        let plan = def.plan();
        telemetry::counter("spice.subckt.instances", 1);

        // Internal nodes first, in the definition's creation order, so
        // repeated instantiations of one topology produce congruent
        // node numberings.
        for n in &plan.internal_nodes {
            self.node(&join_path(inst, n));
        }
        for dev in &plan.devices {
            let name = join_path(inst, &dev.name);
            let mut nodes = Vec::with_capacity(dev.nodes.len());
            for pn in &dev.nodes {
                nodes.push(match pn {
                    PlanNode::Ground => Self::GROUND,
                    PlanNode::Port(i) => ports[*i],
                    PlanNode::Internal(p) => self.node(&join_path(inst, p)),
                });
            }
            match &dev.payload {
                PlanPayload::Resistor { ohms } => {
                    self.add_resistor(&name, nodes[0], nodes[1], Resistance::from_ohms(*ohms))?;
                }
                PlanPayload::Capacitor { farads } => {
                    self.add_capacitor(
                        &name,
                        nodes[0],
                        nodes[1],
                        Capacitance::from_farads(*farads),
                    )?;
                }
                PlanPayload::VoltageSource { wave } => {
                    self.add_voltage_source(&name, nodes[0], nodes[1], wave.clone())?;
                }
                PlanPayload::CurrentSource { wave } => {
                    self.add_current_source(&name, nodes[0], nodes[1], wave.clone())?;
                }
                PlanPayload::Mosfet { model, w, l } => {
                    self.add_mosfet(
                        &name,
                        nodes[0],
                        nodes[1],
                        nodes[2],
                        *model,
                        Length::from_meters(*w),
                        Length::from_meters(*l),
                    )?;
                }
                PlanPayload::Mtj { device } => {
                    self.add_mtj(&name, nodes[0], nodes[1], device.clone())?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use crate::mosfet::Technology;
    use units::Voltage;

    fn divider() -> Subckt {
        let mut div = Subckt::new("DIV2", &["in", "out"]).expect("def");
        let i = div.body_mut().node("in");
        let o = div.body_mut().node("out");
        div.body_mut()
            .add_resistor("R1", i, o, Resistance::from_kilo_ohms(1.0))
            .expect("R1");
        div.body_mut()
            .add_resistor("R2", o, Circuit::GROUND, Resistance::from_kilo_ohms(1.0))
            .expect("R2");
        div
    }

    #[test]
    fn join_path_rules() {
        assert_eq!(join_path("", "MP"), "MP");
        assert_eq!(join_path("X0", "MP"), "X0.MP");
        assert_eq!(join_path("X0.I1", "MP"), "X0.I1.MP");
    }

    #[test]
    fn ports_are_validated() {
        assert!(Subckt::new("", &["a"]).is_err());
        assert!(Subckt::new("S", &["a", "a"]).is_err());
        assert!(Subckt::new("S", &["gnd"]).is_err());
        assert!(Subckt::new("S", &["0"]).is_err());
        assert!(Subckt::new("S", &["a", "b"]).is_ok());
    }

    #[test]
    fn flat_instantiation_matches_hand_built() {
        let div = divider();
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let mid = ckt.node("mid");
        ckt.add_voltage_source(
            "V1",
            vin,
            Circuit::GROUND,
            SourceWaveform::dc(Voltage::from_volts(2.0)),
        )
        .expect("V1");
        ckt.instantiate("X0", &div, &[vin, mid]).expect("X0");
        assert_eq!(ckt.devices().len(), 3);
        assert!(ckt.devices().iter().any(|d| d.name() == "X0.R1"));
        let op = analysis::op(&mut ckt).expect("op");
        assert!((op.voltage(mid) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn internal_nodes_get_dotted_paths() {
        let mut sub = Subckt::new("S", &["a"]).expect("def");
        let a = sub.body_mut().node("a");
        let m = sub.body_mut().node("m");
        sub.body_mut()
            .add_resistor("R1", a, m, Resistance::from_ohms(10.0))
            .expect("R1");
        sub.body_mut()
            .add_resistor("R2", m, Circuit::GROUND, Resistance::from_ohms(10.0))
            .expect("R2");
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        ckt.instantiate("X7", &sub, &[top]).expect("X7");
        assert!(ckt.find_node("X7.m").is_some());
        assert!(ckt.find_node("m").is_none());
    }

    #[test]
    fn nested_children_flatten_recursively() {
        let div = Arc::new(divider());
        // A definition wrapping two stacked dividers: out = in / 4.
        let mut quarter = Subckt::new("DIV4", &["in", "out"]).expect("def");
        let i = quarter.body_mut().node("in");
        let o = quarter.body_mut().node("out");
        let m = quarter.body_mut().node("m");
        quarter.add_instance("A", &div, &[i, m]).expect("A");
        quarter.add_instance("B", &div, &[m, o]).expect("B");

        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        ckt.add_voltage_source(
            "V1",
            vin,
            Circuit::GROUND,
            SourceWaveform::dc(Voltage::from_volts(2.0)),
        )
        .expect("V1");
        ckt.instantiate("X0", &quarter, &[vin, out]).expect("X0");
        assert_eq!(ckt.devices().len(), 1 + 4);
        assert!(ckt.devices().iter().any(|d| d.name() == "X0.A.R1"));
        assert!(ckt.find_node("X0.m").is_some());
        // Loaded voltage division: B loads A's output, so out is not
        // exactly in/4 — solve and check against the analytic value.
        let op = analysis::op(&mut ckt).expect("op");
        // A: 1k into (1k || 2k) = 1k || (1k+1k): v(m) = 2 * (2/3k)/(1k+2/3k)
        let vm = 2.0 * (2.0 / 3.0) / (1.0 + 2.0 / 3.0);
        assert!((op.voltage(ckt.find_node("X0.m").unwrap()) - vm).abs() < 1e-9);
        assert!((op.voltage(out) - vm / 2.0).abs() < 1e-9);
    }

    #[test]
    fn plan_is_shared_across_instances() {
        let div = divider();
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let c = ckt.node("c");
        ckt.instantiate("X0", &div, &[a, b]).expect("X0");
        ckt.instantiate("X1", &div, &[b, c]).expect("X1");
        ckt.instantiate("X2", &div, &[c, a]).expect("X2");
        // Same Subckt object: the OnceLock plan was compiled once; the
        // telemetry counters (plan_builds=1, plan_reuses≥2) record it
        // when a collector is installed.
        assert_eq!(ckt.devices().len(), 6);
    }

    #[test]
    fn instantiation_errors_are_reported() {
        let div = divider();
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        assert!(matches!(
            ckt.instantiate("", &div, &[a, a]),
            Err(SpiceError::InvalidAnalysis { .. })
        ));
        assert!(matches!(
            ckt.instantiate("X0", &div, &[a]),
            Err(SpiceError::InvalidAnalysis { .. })
        ));
        assert!(matches!(
            ckt.instantiate("X0", &div, &[a, NodeId(99)]),
            Err(SpiceError::UnknownNode { .. })
        ));
        ckt.instantiate("X0", &div, &[a, a]).expect("first X0");
        assert!(matches!(
            ckt.instantiate("X0", &div, &[a, a]),
            Err(SpiceError::DuplicateDevice { .. })
        ));
    }

    #[test]
    fn add_instance_validates_bindings_and_names() {
        let div = Arc::new(divider());
        let mut parent = Subckt::new("P", &["p"]).expect("def");
        let p = parent.body_mut().node("p");
        assert!(parent.add_instance("", &div, &[p, p]).is_err());
        assert!(parent.add_instance("A", &div, &[p]).is_err());
        assert!(parent.add_instance("A", &div, &[p, NodeId(42)]).is_err());
        parent.add_instance("A", &div, &[p, p]).expect("A");
        assert!(matches!(
            parent.add_instance("A", &div, &[p, p]),
            Err(SpiceError::DuplicateDevice { .. })
        ));
    }

    #[test]
    fn body_edits_invalidate_the_plan() {
        let stamped = |div: &Subckt| {
            let mut ckt = Circuit::new();
            let (a, b) = (ckt.node("a"), ckt.node("b"));
            ckt.instantiate("X0", div, &[a, b]).expect("X0");
            ckt.devices().len()
        };
        let mut div = divider();
        assert_eq!(stamped(&div), 2);
        let o = div.body_mut().node("out");
        div.body_mut()
            .add_capacitor(
                "CL",
                o,
                Circuit::GROUND,
                Capacitance::from_femto_farads(1.0),
            )
            .expect("CL");
        assert_eq!(stamped(&div), 3);
    }

    #[test]
    fn sources_inside_subckts_gain_branches() {
        let mut bias = Subckt::new("BIAS", &["out"]).expect("def");
        let o = bias.body_mut().node("out");
        bias.body_mut()
            .add_voltage_source("VB", o, Circuit::GROUND, SourceWaveform::Dc(0.5))
            .expect("VB");
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.instantiate("X0", &bias, &[a]).expect("X0");
        ckt.instantiate("X1", &bias, &[b]).expect("X1");
        assert_eq!(ckt.vsource_count(), 2);
        let op = analysis::op(&mut ckt).expect("op");
        assert!((op.voltage(a) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mosfets_and_mtjs_flatten() {
        use mtj::{Mtj, MtjParams, MtjState, WritePolarity};
        let tech = Technology::tsmc40lp();
        let mut inv = Subckt::new("INV", &["vdd", "in", "out"]).expect("def");
        let vdd = inv.body_mut().node("vdd");
        let i = inv.body_mut().node("in");
        let o = inv.body_mut().node("out");
        inv.body_mut()
            .add_pmos("MP", o, i, vdd, &tech, Length::from_nano_meters(400.0))
            .expect("MP");
        inv.body_mut()
            .add_nmos(
                "MN",
                o,
                i,
                Circuit::GROUND,
                &tech,
                Length::from_nano_meters(200.0),
            )
            .expect("MN");
        inv.body_mut()
            .add_mtj(
                "MJ",
                o,
                Circuit::GROUND,
                Mtj::new(
                    MtjParams::date2018(),
                    MtjState::AntiParallel,
                    WritePolarity::PositiveSetsParallel,
                ),
            )
            .expect("MJ");
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let a = ckt.node("a");
        let y = ckt.node("y");
        ckt.instantiate("U1", &inv, &[vdd, a, y]).expect("U1");
        assert_eq!(ckt.transistor_count(), 2);
        assert_eq!(ckt.mtj_state("U1.MJ"), Some(MtjState::AntiParallel));
        ckt.set_mtj_state("U1.MJ", MtjState::Parallel).expect("set");
        assert_eq!(ckt.mtj_state("U1.MJ"), Some(MtjState::Parallel));
    }
}
