//! Programmatic circuit construction.

use std::collections::HashMap;

use mtj::{Mtj, MtjState};
use units::{Capacitance, Length, Resistance};

use crate::device::Device;
pub use crate::device::NodeId;
use crate::error::SpiceError;
use crate::mosfet::{MosfetModel, Technology};
use crate::source::SourceWaveform;

/// A flat transistor-level circuit: named nodes plus a device list.
///
/// Nodes are created on demand with [`Circuit::node`]; ground pre-exists
/// as [`Circuit::GROUND`]. Builder methods validate device parameters and
/// reject duplicate instance names, so a constructed circuit is always
/// analyzable (up to topology errors like floating nodes, which surface
/// as [`SpiceError::SingularMatrix`] at analysis time).
///
/// # Examples
///
/// A resistive divider:
///
/// ```
/// use spice::{Circuit, SourceWaveform, analysis};
/// use units::{Resistance, Voltage};
///
/// # fn main() -> Result<(), spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("vin");
/// let mid = ckt.node("mid");
/// ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(Voltage::from_volts(2.0)));
/// ckt.add_resistor("R1", vin, mid, Resistance::from_kilo_ohms(1.0));
/// ckt.add_resistor("R2", mid, Circuit::GROUND, Resistance::from_kilo_ohms(3.0));
/// let op = analysis::op(&mut ckt)?;
/// assert!((op.voltage(mid) - 1.5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    node_lookup: HashMap<String, usize>,
    devices: Vec<Device>,
    vsource_count: usize,
}

/// The mutable run state of a [`Circuit`], captured by
/// [`Circuit::snapshot`]: MTJ device state and source waveforms, keyed
/// by device index.
///
/// Everything else in a circuit (topology, passive values, MOSFET
/// geometry) is immutable during analysis, so this is all that needs
/// saving to replay a simulation from the same starting point.
#[derive(Debug, Clone)]
pub struct CircuitSnapshot {
    mtjs: Vec<(usize, Mtj)>,
    waves: Vec<(usize, SourceWaveform)>,
}

impl Circuit {
    /// The ground node.
    pub const GROUND: NodeId = NodeId::GROUND;

    /// Creates an empty circuit containing only the ground node.
    #[must_use]
    pub fn new() -> Self {
        let mut c = Self {
            node_names: Vec::new(),
            node_lookup: HashMap::new(),
            devices: Vec::new(),
            vsource_count: 0,
        };
        c.node_names.push("0".to_owned());
        c.node_lookup.insert("0".to_owned(), 0);
        c
    }

    /// Returns the node named `name`, creating it if necessary.
    /// The names `"0"` and `"gnd"` both resolve to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Self::GROUND;
        }
        if let Some(&idx) = self.node_lookup.get(name) {
            return NodeId(idx);
        }
        let idx = self.node_names.len();
        self.node_names.push(name.to_owned());
        self.node_lookup.insert(name.to_owned(), idx);
        NodeId(idx)
    }

    /// Looks up an existing node without creating it.
    #[must_use]
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Some(Self::GROUND);
        }
        self.node_lookup.get(name).map(|&i| NodeId(i))
    }

    /// Name of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` did not come from this circuit.
    #[must_use]
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.0]
    }

    /// Number of nodes including ground.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of voltage sources (MNA branch unknowns).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn vsource_count(&self) -> usize {
        self.vsource_count
    }

    /// The devices, in insertion order.
    #[must_use]
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Mutable device access (used by the transient engine to advance MTJ
    /// state; public so callers can precondition MTJ states between
    /// analyses).
    pub fn devices_mut(&mut self) -> &mut [Device] {
        &mut self.devices
    }

    /// Number of MOSFETs — Table II's "# of transistors" metric.
    #[must_use]
    pub fn transistor_count(&self) -> usize {
        self.devices.iter().filter(|d| d.is_transistor()).count()
    }

    /// Magnetisation state of the named MTJ device, if present.
    #[must_use]
    pub fn mtj_state(&self, name: &str) -> Option<MtjState> {
        self.devices.iter().find_map(|d| match d {
            Device::Mtj {
                name: n, device, ..
            } if n == name => Some(device.state()),
            _ => None,
        })
    }

    /// Sets the magnetisation state of the named MTJ device (test
    /// preconditioning before a restore-phase simulation).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownTrace`] if no MTJ has that name.
    pub fn set_mtj_state(&mut self, name: &str, state: MtjState) -> Result<(), SpiceError> {
        for d in &mut self.devices {
            if let Device::Mtj {
                name: n, device, ..
            } = d
            {
                if n == name {
                    device.set_state(state);
                    return Ok(());
                }
            }
        }
        Err(SpiceError::UnknownTrace { name: name.into() })
    }

    fn check_name(&self, name: &str) -> Result<(), SpiceError> {
        if self.devices.iter().any(|d| d.name() == name) {
            Err(SpiceError::DuplicateDevice { name: name.into() })
        } else {
            Ok(())
        }
    }

    fn check_node(&self, device: &str, node: NodeId) -> Result<(), SpiceError> {
        if node.0 < self.node_names.len() {
            Ok(())
        } else {
            Err(SpiceError::UnknownNode {
                device: device.into(),
            })
        }
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names, foreign nodes, and non-positive or
    /// non-finite resistance.
    pub fn add_resistor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        r: Resistance,
    ) -> Result<(), SpiceError> {
        self.check_name(name)?;
        self.check_node(name, a)?;
        self.check_node(name, b)?;
        if !(r.ohms() > 0.0 && r.ohms().is_finite()) {
            return Err(SpiceError::InvalidDevice {
                device: name.into(),
                reason: format!("resistance must be positive and finite, got {r}"),
            });
        }
        self.devices.push(Device::Resistor {
            name: name.into(),
            a,
            b,
            ohms: r.ohms(),
        });
        Ok(())
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names, foreign nodes, and non-positive or
    /// non-finite capacitance.
    pub fn add_capacitor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        c: Capacitance,
    ) -> Result<(), SpiceError> {
        self.check_name(name)?;
        self.check_node(name, a)?;
        self.check_node(name, b)?;
        if !(c.farads() > 0.0 && c.farads().is_finite()) {
            return Err(SpiceError::InvalidDevice {
                device: name.into(),
                reason: format!("capacitance must be positive and finite, got {c}"),
            });
        }
        self.devices.push(Device::Capacitor {
            name: name.into(),
            a,
            b,
            farads: c.farads(),
        });
        Ok(())
    }

    /// Adds an independent voltage source (`pos` − `neg` = waveform).
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and foreign nodes.
    pub fn add_voltage_source(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        wave: SourceWaveform,
    ) -> Result<(), SpiceError> {
        self.check_name(name)?;
        self.check_node(name, pos)?;
        self.check_node(name, neg)?;
        let branch = self.vsource_count;
        self.vsource_count += 1;
        self.devices.push(Device::VoltageSource {
            name: name.into(),
            pos,
            neg,
            wave,
            branch,
        });
        Ok(())
    }

    /// Adds an independent current source (current flows `pos` → `neg`
    /// through the source; the waveform value is in amperes).
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and foreign nodes.
    pub fn add_current_source(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        wave: SourceWaveform,
    ) -> Result<(), SpiceError> {
        self.check_name(name)?;
        self.check_node(name, pos)?;
        self.check_node(name, neg)?;
        self.devices.push(Device::CurrentSource {
            name: name.into(),
            pos,
            neg,
            wave,
        });
        Ok(())
    }

    /// Adds a MOSFET with an explicit model.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names, foreign nodes, and non-positive width or
    /// length.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn add_mosfet(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        model: MosfetModel,
        w: Length,
        l: Length,
    ) -> Result<(), SpiceError> {
        self.check_name(name)?;
        self.check_node(name, d)?;
        self.check_node(name, g)?;
        self.check_node(name, s)?;
        if w.meters() <= 0.0 || l.meters() <= 0.0 {
            return Err(SpiceError::InvalidDevice {
                device: name.into(),
                reason: "width and length must be positive".into(),
            });
        }
        self.devices.push(Device::Mosfet {
            name: name.into(),
            d,
            g,
            s,
            model,
            w: w.meters(),
            l: l.meters(),
        });
        Ok(())
    }

    /// Adds an N-channel MOSFET from a technology at minimum length.
    ///
    /// # Errors
    ///
    /// Same as `Circuit::add_mosfet`.
    pub fn add_nmos(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        tech: &Technology,
        w: Length,
    ) -> Result<(), SpiceError> {
        self.add_mosfet(name, d, g, s, tech.nmos, w, Length::from_meters(tech.l_min))
    }

    /// Adds a P-channel MOSFET from a technology at minimum length.
    ///
    /// # Errors
    ///
    /// Same as `Circuit::add_mosfet`.
    pub fn add_pmos(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        tech: &Technology,
        w: Length,
    ) -> Result<(), SpiceError> {
        self.add_mosfet(name, d, g, s, tech.pmos, w, Length::from_meters(tech.l_min))
    }

    /// Adds a magnetic tunnel junction (positive current direction a→b).
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and foreign nodes.
    pub fn add_mtj(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        device: Mtj,
    ) -> Result<(), SpiceError> {
        self.check_name(name)?;
        self.check_node(name, a)?;
        self.check_node(name, b)?;
        self.devices.push(Device::Mtj {
            name: name.into(),
            a,
            b,
            device,
        });
        Ok(())
    }

    /// Sets the waveform of the named voltage or current source.
    ///
    /// This is the cheap way to re-aim an existing circuit at a new
    /// stimulus between [`SimulationSession`](crate::SimulationSession)
    /// runs, instead of rebuilding the whole circuit.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownTrace`] if no source has that name.
    pub fn set_source_waveform(
        &mut self,
        name: &str,
        wave: SourceWaveform,
    ) -> Result<(), SpiceError> {
        for d in &mut self.devices {
            match d {
                Device::VoltageSource {
                    name: n, wave: w, ..
                }
                | Device::CurrentSource {
                    name: n, wave: w, ..
                } if n == name => {
                    *w = wave;
                    return Ok(());
                }
                _ => {}
            }
        }
        Err(SpiceError::UnknownTrace { name: name.into() })
    }

    /// Captures the circuit's mutable run state: every MTJ device (full
    /// magnetisation state, not just P/AP) and every source waveform.
    ///
    /// Together with [`Circuit::restore`] this brackets a simulation so
    /// the same circuit — and a [`SimulationSession`](crate::SimulationSession)
    /// wrapping it — can be reused for the next run without rebuilding:
    /// analyses mutate nothing else.
    #[must_use]
    pub fn snapshot(&self) -> CircuitSnapshot {
        let mut mtjs = Vec::new();
        let mut waves = Vec::new();
        for (i, d) in self.devices.iter().enumerate() {
            match d {
                Device::Mtj { device, .. } => mtjs.push((i, device.clone())),
                Device::VoltageSource { wave, .. } | Device::CurrentSource { wave, .. } => {
                    waves.push((i, wave.clone()));
                }
                _ => {}
            }
        }
        CircuitSnapshot { mtjs, waves }
    }

    /// Restores the run state captured by [`Circuit::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a different circuit (device
    /// indices or kinds no longer line up).
    pub fn restore(&mut self, snap: &CircuitSnapshot) {
        for (i, mtj) in &snap.mtjs {
            match self.devices.get_mut(*i) {
                Some(Device::Mtj { device, .. }) => *device = mtj.clone(),
                _ => panic!("snapshot does not match this circuit"),
            }
        }
        for (i, wave) in &snap.waves {
            match self.devices.get_mut(*i) {
                Some(Device::VoltageSource { wave: w, .. })
                | Some(Device::CurrentSource { wave: w, .. }) => *w = wave.clone(),
                _ => panic!("snapshot does not match this circuit"),
            }
        }
    }

    /// Size of the MNA unknown vector: non-ground nodes plus one branch
    /// current per voltage source.
    #[must_use]
    pub(crate) fn unknown_count(&self) -> usize {
        (self.node_count() - 1) + self.vsource_count
    }

    /// MNA unknown index of a node's voltage (`None` for ground).
    #[must_use]
    pub(crate) fn voltage_index(&self, node: NodeId) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.0 - 1)
        }
    }

    /// MNA unknown index of a voltage-source branch current.
    #[must_use]
    pub(crate) fn branch_index(&self, branch: usize) -> usize {
        (self.node_count() - 1) + branch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtj::{MtjParams, WritePolarity};
    use units::Voltage;

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0"), Circuit::GROUND);
        assert_eq!(c.node("gnd"), Circuit::GROUND);
        assert_eq!(c.node("GND"), Circuit::GROUND);
        assert_eq!(c.find_node("0"), Some(Circuit::GROUND));
    }

    #[test]
    fn nodes_are_interned() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        let b = c.node("b");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.node_name(a), "a");
        assert_eq!(c.find_node("b"), Some(b));
        assert_eq!(c.find_node("zzz"), None);
    }

    #[test]
    fn duplicate_device_names_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("R1", a, Circuit::GROUND, Resistance::from_ohms(1.0))
            .expect("first R1");
        let err = c
            .add_resistor("R1", a, Circuit::GROUND, Resistance::from_ohms(2.0))
            .unwrap_err();
        assert!(matches!(err, SpiceError::DuplicateDevice { .. }));
    }

    #[test]
    fn nonphysical_parameters_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        assert!(c
            .add_resistor("R", a, Circuit::GROUND, Resistance::from_ohms(0.0))
            .is_err());
        assert!(c
            .add_capacitor("C", a, Circuit::GROUND, Capacitance::from_farads(-1.0))
            .is_err());
        let t = Technology::tsmc40lp();
        assert!(c
            .add_nmos("M", a, a, Circuit::GROUND, &t, Length::from_meters(0.0))
            .is_err());
    }

    #[test]
    fn unknown_vector_layout() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(Voltage::ZERO))
            .expect("V1");
        c.add_voltage_source("V2", b, Circuit::GROUND, SourceWaveform::dc(Voltage::ZERO))
            .expect("V2");
        assert_eq!(c.vsource_count(), 2);
        assert_eq!(c.unknown_count(), 4); // 2 nodes + 2 branches
        assert_eq!(c.voltage_index(Circuit::GROUND), None);
        assert_eq!(c.voltage_index(a), Some(0));
        assert_eq!(c.voltage_index(b), Some(1));
        assert_eq!(c.branch_index(0), 2);
        assert_eq!(c.branch_index(1), 3);
    }

    #[test]
    fn transistor_count_counts_mosfets_only() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let t = Technology::tsmc40lp();
        c.add_nmos(
            "M1",
            a,
            a,
            Circuit::GROUND,
            &t,
            Length::from_nano_meters(200.0),
        )
        .expect("M1");
        c.add_pmos(
            "M2",
            a,
            a,
            Circuit::GROUND,
            &t,
            Length::from_nano_meters(200.0),
        )
        .expect("M2");
        c.add_resistor("R1", a, Circuit::GROUND, Resistance::from_ohms(5.0))
            .expect("R1");
        assert_eq!(c.transistor_count(), 2);
    }

    #[test]
    fn source_waveform_can_be_retargeted() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::Dc(1.0))
            .expect("V1");
        c.add_current_source("I1", a, Circuit::GROUND, SourceWaveform::Dc(1e-6))
            .expect("I1");
        c.set_source_waveform("V1", SourceWaveform::Dc(2.0))
            .expect("retarget V1");
        c.set_source_waveform("I1", SourceWaveform::Dc(2e-6))
            .expect("retarget I1");
        assert!(c
            .set_source_waveform("nope", SourceWaveform::Dc(0.0))
            .is_err());
        let waves: Vec<_> = c
            .devices()
            .iter()
            .filter_map(|d| match d {
                Device::VoltageSource { wave, .. } | Device::CurrentSource { wave, .. } => {
                    Some(wave.clone())
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            waves,
            vec![SourceWaveform::Dc(2.0), SourceWaveform::Dc(2e-6)]
        );
    }

    #[test]
    fn snapshot_restores_mtj_state_and_waveforms() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let params = MtjParams::date2018();
        c.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::Dc(1.0))
            .expect("V1");
        c.add_mtj(
            "X1",
            a,
            Circuit::GROUND,
            Mtj::new(params, MtjState::Parallel, WritePolarity::default()),
        )
        .expect("X1");
        let snap = c.snapshot();
        c.set_mtj_state("X1", MtjState::AntiParallel).expect("flip");
        c.set_source_waveform("V1", SourceWaveform::Dc(0.0))
            .expect("retune");
        c.restore(&snap);
        assert_eq!(c.mtj_state("X1"), Some(MtjState::Parallel));
        let wave = c
            .devices()
            .iter()
            .find_map(|d| match d {
                Device::VoltageSource { wave, .. } => Some(wave.clone()),
                _ => None,
            })
            .expect("V1 present");
        assert_eq!(wave, SourceWaveform::Dc(1.0));
    }

    #[test]
    #[should_panic(expected = "snapshot does not match this circuit")]
    fn restoring_a_foreign_snapshot_panics() {
        let mut donor = Circuit::new();
        let a = donor.node("a");
        donor
            .add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::Dc(1.0))
            .expect("V1");
        let snap = donor.snapshot();
        let mut other = Circuit::new();
        let b = other.node("b");
        other
            .add_resistor("R1", b, Circuit::GROUND, Resistance::from_ohms(1.0))
            .expect("R1");
        other.restore(&snap);
    }

    #[test]
    fn mtj_state_round_trip() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let params = MtjParams::date2018();
        let dev = Mtj::new(params, MtjState::Parallel, WritePolarity::default());
        c.add_mtj("X1", a, Circuit::GROUND, dev).expect("X1");
        assert_eq!(c.mtj_state("X1"), Some(MtjState::Parallel));
        c.set_mtj_state("X1", MtjState::AntiParallel).expect("set");
        assert_eq!(c.mtj_state("X1"), Some(MtjState::AntiParallel));
        assert!(c.set_mtj_state("nope", MtjState::Parallel).is_err());
        assert_eq!(c.mtj_state("nope"), None);
    }
}
