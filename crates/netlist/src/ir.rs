//! The gate-level intermediate representation.
//!
//! Everything is a flat array on 32-bit handles: [`NetId`] and
//! [`InstId`] wrap `u32`, an [`Instance`] is a 20-byte `Copy` record
//! (its kind, two inline input slots and its output), and
//! [`NetPins`] is a CSR table of `u32` offsets and instance handles.
//! A `usize` becomes a handle through one checked conversion, which
//! panics past `u32::MAX` like the pin-count assert does on a
//! malformed instance. Net and instance names each live in one
//! [`NameBuf`]: the text of every name back to back plus 32-bit end
//! offsets.

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

/// Converts an index or a length to a 32-bit handle value: the one
/// place a `usize` becomes a [`NetId`], an [`InstId`], a [`NetPins`]
/// offset or a [`NameBuf`] end.
///
/// # Panics
///
/// Panics past `u32::MAX` — netlists are built programmatically, so a
/// design that large is a generator bug, like a pin-count mismatch.
#[must_use]
pub(crate) fn handle(index: usize) -> u32 {
    u32::try_from(index)
        .unwrap_or_else(|_| panic!("netlist index {index} does not fit a 32-bit handle"))
}

/// Handle of a net within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

impl NetId {
    /// The handle of net number `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index > u32::MAX`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        Self(handle(index))
    }

    /// The net's position in its netlist.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle of an instance within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

impl InstId {
    /// The handle of instance number `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index > u32::MAX`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        Self(handle(index))
    }

    /// The instance's position in its netlist.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Many short names in one buffer: the text of every name back to
/// back, plus the 32-bit end offset of each. Pushing a name writes it
/// straight into the buffer, so no per-name `String` is built; the
/// numbered names of the benchmark generator skip `core::fmt` too.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameBuf {
    text: String,
    ends: Vec<u32>,
}

impl NameBuf {
    /// An empty buffer with room for `names` names of `bytes` bytes in
    /// total.
    #[must_use]
    pub(crate) fn with_capacity(names: usize, bytes: usize) -> Self {
        Self {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(names),
        }
    }

    /// Appends a name; names are indexed in push order from 0.
    pub fn push(&mut self, name: impl fmt::Display) {
        write!(self.text, "{name}").expect("formatting into a String cannot fail");
        self.end_name();
    }

    /// Appends `{prefix}{n}` without a formatting pass.
    pub(crate) fn push_numbered(&mut self, prefix: &str, n: usize) {
        self.text.push_str(prefix);
        push_decimal(&mut self.text, n);
        self.end_name();
    }

    /// Appends `{prefix}{a}_{b}` without a formatting pass.
    pub(crate) fn push_numbered_pair(&mut self, prefix: &str, a: usize, b: usize) {
        self.text.push_str(prefix);
        push_decimal(&mut self.text, a);
        self.text.push('_');
        push_decimal(&mut self.text, b);
        self.end_name();
    }

    fn end_name(&mut self) {
        self.ends.push(handle(self.text.len()));
    }

    /// The name at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ len()`.
    #[must_use]
    pub fn get(&self, index: usize) -> &str {
        let start = if index == 0 {
            0
        } else {
            self.ends[index - 1] as usize
        };
        &self.text[start..self.ends[index] as usize]
    }

    /// Number of names.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }
}

/// Appends the decimal digits of `n` (as `{n}` formats it).
fn push_decimal(text: &mut String, mut n: usize) {
    // usize::MAX has 20 decimal digits on 64-bit targets.
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        text.push(char::from(d));
    }
}

/// Number of decimal digits of `n` (the length [`push_decimal`]
/// appends), for sizing name buffers up front.
pub(crate) fn decimal_len(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// One placed-able cell instance (20 bytes: a kind and three 32-bit
/// net handles). Its name lives in the netlist's name buffer
/// ([`Netlist::instance_name`]).
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
    /// An instance of `kind` driven by `inputs`.
    ///
    /// # Panics
    ///
    /// Panics if the pin count does not match the kind — instance
    /// construction is programmatic, so a mismatch is a generator bug.
    pub(crate) fn new(kind: CellKind, inputs: &[NetId], output: Option<NetId>) -> Self {
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
        Self { kind, pins, output }
    }

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
/// instance appears once per pin it has on the net). Offsets and pins
/// are 32-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetPins {
    offsets: Vec<u32>,
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
        let k = net.index();
        &self.pins[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// Every net's pin list, in net order.
    pub fn iter(&self) -> impl Iterator<Item = &[InstId]> {
        self.offsets
            .windows(2)
            .map(|w| &self.pins[w[0] as usize..w[1] as usize])
    }
}

/// A flat gate-level netlist.
///
/// Net and instance names each live in one [`NameBuf`]; instances are
/// plain `Copy` records with their input nets inline, and every handle
/// is 32-bit.
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
        Self::from_parts(name, NameBuf::default(), NameBuf::default(), Vec::new())
    }

    /// A netlist from its net names, instance names and instances (one
    /// name per instance, in instance order).
    pub(crate) fn from_parts(
        name: &str,
        nets: NameBuf,
        instance_names: NameBuf,
        instances: Vec<Instance>,
    ) -> Self {
        debug_assert_eq!(instance_names.len(), instances.len());
        Self {
            name: name.to_owned(),
            nets,
            instance_names,
            instances,
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
        let id = NetId::from_index(self.nets.len());
        self.nets.push(name);
        id
    }

    /// Name of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` belongs to another netlist.
    #[must_use]
    pub(crate) fn net_name(&self, net: NetId) -> &str {
        self.nets.get(net.index())
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
        let instance = Instance::new(kind, inputs, output);
        let id = InstId::from_index(self.instances.len());
        self.instance_names.push(name);
        self.instances.push(instance);
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
        &self.instances[id.index()]
    }

    /// Name of an instance (unique within the netlists this crate
    /// builds).
    ///
    /// # Panics
    ///
    /// Panics if `id` belongs to another netlist.
    #[must_use]
    pub fn instance_name(&self, id: InstId) -> &str {
        self.instance_names.get(id.index())
    }

    /// Every instance name, in instance order: name `k` is instance
    /// `k`'s. A placement clones this buffer whole instead of copying
    /// names one by one.
    #[must_use]
    pub fn instance_names(&self) -> &NameBuf {
        &self.instance_names
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
            .map(|(idx, _)| InstId::from_index(idx))
            .collect()
    }

    /// Handles of all placeable (non-port) instances.
    #[must_use]
    pub fn placeable(&self) -> Vec<InstId> {
        self.instances
            .iter()
            .enumerate()
            .filter(|(_, i)| !i.kind.is_port())
            .map(|(idx, _)| InstId::from_index(idx))
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
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than `u32::MAX` pins.
    #[must_use]
    pub fn net_pins(&self) -> NetPins {
        let mut offsets = vec![0u32; self.nets.len() + 1];
        for inst in &self.instances {
            for net in inst.nets() {
                offsets[net.index() + 1] += 1;
            }
        }
        let mut total = 0usize;
        for offset in &mut offsets {
            total += *offset as usize;
            *offset = handle(total);
        }
        let mut next = offsets.clone();
        let mut pins = vec![InstId(0); total];
        for (idx, inst) in self.instances.iter().enumerate() {
            let id = InstId::from_index(idx);
            for net in inst.nets() {
                let slot = &mut next[net.index()];
                pins[*slot as usize] = id;
                *slot += 1;
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
    fn numbered_names_match_format() {
        let values = [0, 9, 10, 99, 100, 999_999, u32::MAX as usize, usize::MAX];
        let mut buf = NameBuf::default();
        let mut expected = Vec::new();
        for &a in &values {
            buf.push_numbered("U", a);
            expected.push(format!("U{a}"));
            for &b in &values {
                buf.push_numbered_pair("q", a, b);
                expected.push(format!("q{a}_{b}"));
            }
        }
        assert_eq!(buf.len(), expected.len());
        for (k, name) in expected.iter().enumerate() {
            assert_eq!(buf.get(k), name);
        }
        for &n in &values {
            assert_eq!(decimal_len(n), n.to_string().len(), "{n}");
        }
    }

    #[test]
    fn handles_cover_the_32_bit_range() {
        assert_eq!(handle(0), 0);
        assert_eq!(handle(u32::MAX as usize), u32::MAX);
        assert_eq!(NetId::from_index(7).index(), 7);
        assert_eq!(InstId::from_index(7), InstId(7));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "netlist index 4294967296 does not fit a 32-bit handle")]
    fn handle_past_u32_panics() {
        let _ = handle(u32::MAX as usize + 1);
    }

    #[test]
    fn instances_are_20_bytes() {
        assert_eq!(std::mem::size_of::<Instance>(), 20);
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
