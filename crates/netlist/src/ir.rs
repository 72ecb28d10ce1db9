//! The gate-level intermediate representation.

use core::fmt;
use std::fmt::Write as _;

/// Logic cell types of the small standard-cell library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Primary input port (zero-area pseudo-cell).
    Input,
    /// Primary output port (zero-area pseudo-cell).
    Output,
    /// Inverter.
    Inv,
    /// Buffer.
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// D flip-flop (the cells the NV shadow components attach to).
    Dff,
}

impl CellKind {
    /// Number of input pins (the output pin is implicit).
    #[must_use]
    pub(crate) fn input_count(self) -> usize {
        match self {
            Self::Input => 0,
            Self::Output | Self::Inv | Self::Buf | Self::Dff => 1,
            Self::Nand2 | Self::Nor2 | Self::And2 | Self::Or2 | Self::Xor2 => 2,
        }
    }

    /// `true` for the sequential cell.
    #[must_use]
    pub fn is_flip_flop(self) -> bool {
        matches!(self, Self::Dff)
    }

    /// `true` for port pseudo-cells.
    #[must_use]
    pub fn is_port(self) -> bool {
        matches!(self, Self::Input | Self::Output)
    }

    /// All placeable (non-port) kinds.
    #[cfg(test)]
    pub(crate) const PLACEABLE: [Self; 8] = [
        Self::Inv,
        Self::Buf,
        Self::Nand2,
        Self::Nor2,
        Self::And2,
        Self::Or2,
        Self::Xor2,
        Self::Dff,
    ];
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Input => "INPUT",
            Self::Output => "OUTPUT",
            Self::Inv => "INV",
            Self::Buf => "BUF",
            Self::Nand2 => "NAND2",
            Self::Nor2 => "NOR2",
            Self::And2 => "AND2",
            Self::Or2 => "OR2",
            Self::Xor2 => "XOR2",
            Self::Dff => "DFF",
        })
    }
}

/// Handle of a net within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub usize);

/// Handle of an instance within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub usize);

/// Many short names in one buffer: the text of every name back to
/// back, plus the end offset of each. Pushing a name formats it
/// straight into the buffer, so no per-name `String` is built.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameBuf {
    text: String,
    ends: Vec<usize>,
}

impl NameBuf {
    /// Appends a name; names are indexed in push order from 0.
    pub fn push(&mut self, name: impl fmt::Display) {
        write!(self.text, "{name}").expect("formatting into a String cannot fail");
        self.ends.push(self.text.len());
    }

    /// Appends a name that is already text (no formatting pass).
    pub fn push_str(&mut self, name: &str) {
        self.text.push_str(name);
        self.ends.push(self.text.len());
    }

    /// The name at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ len()`.
    #[must_use]
    pub fn get(&self, index: usize) -> &str {
        let start = if index == 0 { 0 } else { self.ends[index - 1] };
        &self.text[start..self.ends[index]]
    }

    /// Number of names.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }
}

/// One placed-able cell instance. Its name lives in the netlist's name
/// buffer ([`Netlist::instance_name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instance {
    /// Cell type.
    pub kind: CellKind,
    /// Input nets; the first `kind.input_count()` are connected.
    pins: [NetId; 2],
    /// Output net (`None` only for [`CellKind::Output`] ports).
    pub output: Option<NetId>,
}

impl Instance {
    /// Input nets, length = the kind's input count.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.pins[..self.kind.input_count()]
    }

    /// Every net the instance touches: its inputs, then its output.
    pub fn nets(&self) -> impl Iterator<Item = NetId> + '_ {
        self.inputs().iter().chain(self.output.iter()).copied()
    }
}

/// The instances on every net, in compressed sparse rows: net `k`'s
/// pins are `pins[offsets[k]..offsets[k + 1]]`, in instance order (an
/// instance appears once per pin it has on the net).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetPins {
    offsets: Vec<usize>,
    pins: Vec<InstId>,
}

impl NetPins {
    /// The instances touching `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` belongs to another netlist.
    #[must_use]
    pub fn net(&self, net: NetId) -> &[InstId] {
        &self.pins[self.offsets[net.0]..self.offsets[net.0 + 1]]
    }

    /// Every net's pin list, in net order.
    pub fn iter(&self) -> impl Iterator<Item = &[InstId]> {
        self.offsets.windows(2).map(|w| &self.pins[w[0]..w[1]])
    }
}

/// A flat gate-level netlist.
///
/// Net and instance names each live in one [`NameBuf`]; instances are
/// plain `Copy` records with their input nets inline.
///
/// # Examples
///
/// ```
/// use netlist::{CellKind, Netlist};
///
/// let mut n = Netlist::new("toy");
/// let a = n.add_net("a");
/// let y = n.add_net("y");
/// let u1 = n.add_instance("U1", CellKind::Inv, &[a], Some(y));
/// assert_eq!(n.instance_count(), 1);
/// assert_eq!(n.net_count(), 2);
/// assert_eq!(n.instance_name(u1), "U1");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    nets: NameBuf,
    instance_names: NameBuf,
    instances: Vec<Instance>,
}

impl Netlist {
    /// Creates an empty netlist.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            nets: NameBuf::default(),
            instance_names: NameBuf::default(),
            instances: Vec::new(),
        }
    }

    /// Design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a net named `name`. Names are not interned: a caller
    /// that may meet a name twice keeps its own map (as
    /// [`crate::bench_format::parse`] does).
    pub fn add_net(&mut self, name: impl fmt::Display) -> NetId {
        self.nets.push(name);
        NetId(self.nets.len() - 1)
    }

    /// Name of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` belongs to another netlist.
    #[must_use]
    pub(crate) fn net_name(&self, net: NetId) -> &str {
        self.nets.get(net.0)
    }

    /// Adds an instance.
    ///
    /// # Panics
    ///
    /// Panics if the pin count does not match the kind — instance
    /// construction is programmatic, so a mismatch is a generator bug.
    pub fn add_instance(
        &mut self,
        name: impl fmt::Display,
        kind: CellKind,
        inputs: &[NetId],
        output: Option<NetId>,
    ) -> InstId {
        assert_eq!(
            inputs.len(),
            kind.input_count(),
            "{kind} takes {} inputs",
            kind.input_count()
        );
        assert_eq!(
            output.is_none(),
            kind == CellKind::Output,
            "only OUTPUT ports lack an output net"
        );
        let mut pins = [NetId(0); 2];
        pins[..inputs.len()].copy_from_slice(inputs);
        let id = InstId(self.instances.len());
        self.instance_names.push(name);
        self.instances.push(Instance { kind, pins, output });
        id
    }

    /// The instances in insertion order.
    #[must_use]
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// One instance by handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` belongs to another netlist.
    #[must_use]
    pub fn instance(&self, id: InstId) -> &Instance {
        &self.instances[id.0]
    }

    /// Name of an instance (unique within the netlists this crate
    /// builds).
    ///
    /// # Panics
    ///
    /// Panics if `id` belongs to another netlist.
    #[must_use]
    pub fn instance_name(&self, id: InstId) -> &str {
        self.instance_names.get(id.0)
    }

    /// Number of instances (ports included).
    #[must_use]
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of flip-flops.
    #[must_use]
    pub fn flip_flop_count(&self) -> usize {
        self.instances
            .iter()
            .filter(|i| i.kind.is_flip_flop())
            .count()
    }

    /// Handles of all flip-flop instances.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn flip_flops(&self) -> Vec<InstId> {
        self.instances
            .iter()
            .enumerate()
            .filter(|(_, i)| i.kind.is_flip_flop())
            .map(|(idx, _)| InstId(idx))
            .collect()
    }

    /// Handles of all placeable (non-port) instances.
    #[must_use]
    pub fn placeable(&self) -> Vec<InstId> {
        self.instances
            .iter()
            .enumerate()
            .filter(|(_, i)| !i.kind.is_port())
            .map(|(idx, _)| InstId(idx))
            .collect()
    }

    /// Per-kind instance histogram.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn kind_histogram(&self) -> std::collections::HashMap<CellKind, usize> {
        let mut h = std::collections::HashMap::new();
        for i in &self.instances {
            *h.entry(i.kind).or_insert(0) += 1;
        }
        h
    }

    /// Adjacency: for every net, the instances touching it, as one CSR
    /// table (a counting pass, then a fill pass). Used by the placer
    /// for connectivity-driven clustering and by HPWL.
    #[must_use]
    pub fn net_pins(&self) -> NetPins {
        let mut offsets = vec![0usize; self.nets.len() + 1];
        for inst in &self.instances {
            for net in inst.nets() {
                offsets[net.0 + 1] += 1;
            }
        }
        for k in 0..self.nets.len() {
            offsets[k + 1] += offsets[k];
        }
        let mut next = offsets.clone();
        let mut pins = vec![InstId(0); offsets[self.nets.len()]];
        for (idx, inst) in self.instances.iter().enumerate() {
            for net in inst.nets() {
                pins[next[net.0]] = InstId(idx);
                next[net.0] += 1;
            }
        }
        NetPins { offsets, pins }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Netlist {
        let mut n = Netlist::new("toy");
        let a = n.add_net("a");
        let b = n.add_net("b");
        let y = n.add_net("y");
        let q = n.add_net("q");
        n.add_instance("PI_A", CellKind::Input, &[], Some(a));
        n.add_instance("PI_B", CellKind::Input, &[], Some(b));
        n.add_instance("U1", CellKind::Nand2, &[a, b], Some(y));
        n.add_instance("FF1", CellKind::Dff, &[y], Some(q));
        n.add_instance("PO_Q", CellKind::Output, &[q], None);
        n
    }

    #[test]
    fn counting_and_lookup() {
        let n = toy();
        assert_eq!(n.name(), "toy");
        assert_eq!(n.instance_count(), 5);
        assert_eq!(n.net_count(), 4);
        assert_eq!(n.flip_flop_count(), 1);
        assert_eq!(n.flip_flops().len(), 1);
        assert_eq!(n.placeable().len(), 2); // NAND2 + DFF
        assert_eq!(n.net_name(NetId(0)), "a");
        assert_eq!(n.instance_name(InstId(3)), "FF1");
        assert_eq!(n.instance(InstId(2)).inputs(), [NetId(0), NetId(1)]);
    }

    #[test]
    fn histogram_counts_kinds() {
        let h = toy().kind_histogram();
        assert_eq!(h[&CellKind::Input], 2);
        assert_eq!(h[&CellKind::Nand2], 1);
        assert_eq!(h[&CellKind::Dff], 1);
    }

    #[test]
    fn net_pins_cover_all_connections() {
        let n = toy();
        let pins = n.net_pins();
        // Net "y" connects U1 (driver) and FF1 (sink).
        assert_eq!(pins.net(NetId(2)), [InstId(2), InstId(3)]);
        // Every pin of every instance appears exactly once.
        let total: usize = pins.iter().map(<[InstId]>::len).sum();
        let expected: usize = n
            .instances()
            .iter()
            .map(|i| i.inputs().len() + usize::from(i.output.is_some()))
            .sum();
        assert_eq!(total, expected);
    }

    #[test]
    #[should_panic(expected = "takes 2 inputs")]
    fn wrong_arity_panics() {
        let mut n = Netlist::new("x");
        let a = n.add_net("a");
        let y = n.add_net("y");
        n.add_instance("U1", CellKind::Nand2, &[a], Some(y));
    }

    #[test]
    fn kind_queries() {
        assert!(CellKind::Dff.is_flip_flop());
        assert!(!CellKind::Inv.is_flip_flop());
        assert!(CellKind::Input.is_port());
        assert_eq!(CellKind::Xor2.input_count(), 2);
        assert_eq!(CellKind::PLACEABLE.len(), 8);
        assert_eq!(CellKind::Dff.to_string(), "DFF");
    }
}
