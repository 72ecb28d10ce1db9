//! The gate-level intermediate representation.
//!
//! Everything is a flat array on 32-bit handles: [`NetId`] and
//! [`InstId`] wrap `u32`, an [`Instance`] is a 20-byte `Copy` record
//! (its kind, two inline input slots and its output), and
//! [`NetPins`] is a CSR table of `u32` offsets and instance handles.
//! A `usize` becomes a handle through one checked conversion, which
//! panics past `u32::MAX` like the pin-count assert does on a
//! malformed instance. A netlist's net and instance names are one
//! shared [`Names`]: each list is one `NameBuf` (the text of every
//! name back to back plus 32-bit end offsets), stored as pushed or,
//! for a generated netlist, built from the generator's module plan on
//! first read.

use core::fmt;
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

use crate::benchmarks::GeneratedNames;

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
pub(crate) struct NameBuf {
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
    pub(crate) fn push(&mut self, name: impl fmt::Display) {
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
    pub(crate) fn get(&self, index: usize) -> &str {
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

thread_local! {
    static NAMES_BUILT: Cell<u64> = const { Cell::new(0) };
}

/// Generated names built on the calling thread so far: each first read
/// of a generated netlist's net or instance names adds the number of
/// names it wrote. Names pushed one by one
/// ([`Netlist::add_net`], [`Netlist::add_instance`]) do not count.
#[must_use]
pub fn names_built() -> u64 {
    NAMES_BUILT.with(Cell::get)
}

const STORED: &str = "stored names are always set";

/// A netlist's net and instance names, shared by handle between the
/// netlist and the designs placed from it.
///
/// A netlist built name by name stores its names as they are pushed.
/// A generated netlist keeps only what its names are a pure function
/// of (the module plan: the ranges, flip-flop counts and port counts),
/// and builds each list once, on its first read; the Table III flow
/// reads none of them. Either way, reading a name returns `&str`.
#[derive(Debug, Clone)]
pub struct Names {
    /// The generator's plan, while the names are derived from it.
    generated: Option<GeneratedNames>,
    nets: OnceLock<NameBuf>,
    instances: OnceLock<NameBuf>,
}

impl Names {
    /// Names derived from a generator's plan, none built yet.
    pub(crate) fn generated(plan: GeneratedNames) -> Self {
        Self {
            generated: Some(plan),
            nets: OnceLock::new(),
            instances: OnceLock::new(),
        }
    }

    /// Number of nets, without building their names.
    fn net_count(&self) -> usize {
        match &self.generated {
            Some(plan) => plan.net_count(),
            None => self.nets().len(),
        }
    }

    /// Builds a generated list on first read (stored lists are always
    /// set).
    fn list<'a>(
        &'a self,
        cell: &'a OnceLock<NameBuf>,
        build: fn(&GeneratedNames) -> NameBuf,
    ) -> &'a NameBuf {
        cell.get_or_init(|| {
            let plan = self.generated.as_ref().expect(STORED);
            let names = build(plan);
            NAMES_BUILT.with(|n| n.set(n.get() + names.len() as u64));
            names
        })
    }

    fn nets(&self) -> &NameBuf {
        self.list(&self.nets, GeneratedNames::nets)
    }

    fn instances(&self) -> &NameBuf {
        self.list(&self.instances, GeneratedNames::instances)
    }

    /// Name of net number `index`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has no net `index`.
    #[must_use]
    pub(crate) fn net(&self, index: usize) -> &str {
        self.nets().get(index)
    }

    /// Name of instance number `index`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has no instance `index`.
    #[must_use]
    pub fn instance(&self, index: usize) -> &str {
        self.instances().get(index)
    }

    /// Both lists as stored buffers, built first if generated.
    fn stored_mut(&mut self) -> (&mut NameBuf, &mut NameBuf) {
        if self.generated.is_some() {
            self.nets();
            self.instances();
            self.generated = None;
        }
        (
            self.nets.get_mut().expect(STORED),
            self.instances.get_mut().expect(STORED),
        )
    }
}

impl Default for Names {
    /// No names, stored.
    fn default() -> Self {
        Self {
            generated: None,
            nets: OnceLock::from(NameBuf::default()),
            instances: OnceLock::from(NameBuf::default()),
        }
    }
}

impl PartialEq for Names {
    /// Equal plans give equal names, so comparing two netlists
    /// generated alike builds none; otherwise the lists are compared.
    fn eq(&self, other: &Self) -> bool {
        if let (Some(a), Some(b)) = (&self.generated, &other.generated) {
            if a == b {
                return true;
            }
        }
        self.nets() == other.nets() && self.instances() == other.instances()
    }
}

impl Eq for Names {}

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
}

/// The instances on every net, in compressed sparse rows: net `k`'s
/// pins are `pins[offsets[k]..offsets[k + 1]]`, in instance order (an
/// instance appears once per pin it has on the net). Offsets and pins
/// are 32-bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
/// Its names are one shared [`Names`] handle; instances are plain
/// `Copy` records with their input nets inline, and every handle is
/// 32-bit.
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    names: Arc<Names>,
    instances: Vec<Instance>,
}

impl Netlist {
    /// Creates an empty netlist.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            ..Self::default()
        }
    }

    /// Refills this netlist with a generated design, keeping its
    /// instance vector's capacity: `fill` gets the emptied vector and
    /// returns the plan the names derive from.
    pub(crate) fn regenerate(
        &mut self,
        name: &str,
        fill: impl FnOnce(&mut Vec<Instance>) -> GeneratedNames,
    ) {
        self.name.clear();
        self.name.push_str(name);
        self.instances.clear();
        let plan = fill(&mut self.instances);
        self.names = Arc::new(Names::generated(plan));
    }

    /// Design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a net named `name`. Names are not interned: a caller
    /// that may meet a name twice keeps its own map.
    pub fn add_net(&mut self, name: impl fmt::Display) -> NetId {
        let id = NetId::from_index(self.net_count());
        Arc::make_mut(&mut self.names).stored_mut().0.push(name);
        id
    }

    /// Name of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` belongs to another netlist.
    #[must_use]
    pub(crate) fn net_name(&self, net: NetId) -> &str {
        self.names.net(net.index())
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
        Arc::make_mut(&mut self.names).stored_mut().1.push(name);
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
        self.names.instance(id.index())
    }

    /// The netlist's names: instance `k`'s name is
    /// `names().instance(k)`. A placement keeps a clone of this handle
    /// instead of copying names.
    #[must_use]
    pub fn names(&self) -> &Arc<Names> {
        &self.names
    }

    /// Number of instances (ports included).
    #[must_use]
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.names.net_count()
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
    /// table. Used by HPWL; the placer reuses one table across designs
    /// through [`Netlist::net_pins_into`].
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than `u32::MAX` pins.
    #[must_use]
    pub fn net_pins(&self) -> NetPins {
        let mut pins = NetPins::default();
        self.net_pins_into(&mut pins);
        pins
    }

    /// Fills `out` with [`Netlist::net_pins`], reusing its buffers. A
    /// counting pass leaves each net's pin count in its offset slot; a
    /// running sum turns the slots into net ends; a fill pass over the
    /// instances in reverse steps each end back to its net's start,
    /// writing the pins of every net in instance order.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than `u32::MAX` pins.
    pub fn net_pins_into(&self, out: &mut NetPins) {
        let nets = self.net_count();
        let NetPins { offsets, pins } = out;
        offsets.clear();
        offsets.resize(nets + 1, 0);
        for inst in &self.instances {
            for net in inst.inputs() {
                offsets[net.index()] += 1;
            }
            if let Some(net) = inst.output {
                offsets[net.index()] += 1;
            }
        }
        let mut total = 0usize;
        for offset in &mut offsets[..nets] {
            total += *offset as usize;
            *offset = handle(total);
        }
        offsets[nets] = handle(total);
        pins.clear();
        pins.resize(total, InstId(0));
        for (idx, inst) in self.instances.iter().enumerate().rev() {
            let id = InstId::from_index(idx);
            let mut fill = |net: NetId| {
                let slot = &mut offsets[net.index()];
                *slot -= 1;
                pins[*slot as usize] = id;
            };
            if let Some(net) = inst.output {
                fill(net);
            }
            for &net in inst.inputs().iter().rev() {
                fill(net);
            }
        }
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

    fn generated() -> Netlist {
        let spec = crate::benchmarks::by_name("s344").unwrap();
        crate::benchmarks::generate_scaled(spec, 100)
    }

    #[test]
    fn generated_names_are_built_once_on_first_read() {
        let n = generated();
        let before = names_built();
        let copy = n.clone();
        assert_eq!(copy, n);
        assert_eq!(
            n.net_count(),
            n.instance_count() - 4,
            "every PO is a net-less port"
        );
        assert_eq!(
            names_built(),
            before,
            "counting and comparing build nothing"
        );
        assert_eq!(n.instance_name(InstId(0)), "PI0");
        let instances = n.instance_count() as u64;
        assert_eq!(names_built(), before + instances);
        // The copy shares the handle, so it reads the same buffer.
        assert_eq!(copy.instance_name(InstId(1)), "PI1");
        assert_eq!(names_built(), before + instances);
        assert_eq!(n.net_name(NetId(0)), "pi0");
        assert_eq!(names_built(), before + instances + n.net_count() as u64);
    }

    #[test]
    fn adding_to_a_generated_netlist_keeps_its_names() {
        let original = generated();
        let mut n = original.clone();
        let extra = n.add_net("extra");
        let ff = n.add_instance("FFX", CellKind::Dff, &[NetId(0)], Some(extra));
        assert_eq!(extra.index(), original.net_count());
        assert_eq!(n.net_name(extra), "extra");
        assert_eq!(n.instance_name(ff), "FFX");
        for k in 0..original.net_count() {
            let net = NetId::from_index(k);
            assert_eq!(n.net_name(net), original.net_name(net));
        }
        for k in 0..original.instance_count() {
            let id = InstId::from_index(k);
            assert_eq!(n.instance_name(id), original.instance_name(id));
        }
        assert_ne!(n, original);
    }

    #[test]
    fn a_netlist_rebuilt_name_by_name_equals_the_generated_one() {
        let g = generated();
        let rebuild = |renamed: Option<usize>| {
            let mut n = Netlist::new(g.name());
            for k in 0..g.net_count() {
                n.add_net(g.net_name(NetId::from_index(k)));
            }
            for (k, inst) in g.instances().iter().enumerate() {
                let name = g.instance_name(InstId::from_index(k));
                let name = if renamed == Some(k) { "renamed" } else { name };
                n.add_instance(name, inst.kind, inst.inputs(), inst.output);
            }
            n
        };
        assert_eq!(rebuild(None), g);
        assert_ne!(rebuild(Some(7)), g);
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
