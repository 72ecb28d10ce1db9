//! Circuit elements and their parameters.

use mtj::Mtj;

use crate::mosfet::MosfetModel;
use crate::source::SourceWaveform;

/// Node handle within a [`crate::Circuit`]. `NodeId(0)` is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The ground node (reference potential, always index 0).
    pub(crate) const GROUND: NodeId = NodeId(0);

    /// Returns `true` for the ground node.
    #[must_use]
    pub(crate) fn is_ground(self) -> bool {
        self.0 == 0
    }

    /// Raw index into the circuit's node table.
    #[must_use]
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// One circuit element.
///
/// Devices are created through the [`crate::Circuit`] builder methods,
/// which validate parameters and enforce unique names; the enum itself is
/// exposed read-only for inspection (e.g. counting transistors of a cell).
#[derive(Debug, Clone)]
pub enum Device {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// Device name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms.
        ohms: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// Device name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads.
        farads: f64,
    },
    /// Independent voltage source; adds one MNA branch unknown.
    VoltageSource {
        /// Device name.
        name: String,
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Waveform in volts.
        wave: SourceWaveform,
        /// Branch-current index (assigned by the circuit).
        branch: usize,
    },
    /// Independent current source driving current from `pos` through the
    /// source to `neg` (SPICE convention).
    CurrentSource {
        /// Device name.
        name: String,
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Waveform in amperes.
        wave: SourceWaveform,
    },
    /// MOSFET (drain, gate, source; bulk tied to the supply rail implied
    /// by the model polarity).
    Mosfet {
        /// Device name.
        name: String,
        /// Drain terminal.
        d: NodeId,
        /// Gate terminal.
        g: NodeId,
        /// Source terminal.
        s: NodeId,
        /// Compact model parameters.
        model: MosfetModel,
        /// Drawn channel width, metres.
        w: f64,
        /// Drawn channel length, metres.
        l: f64,
    },
    /// Magnetic tunnel junction between `a` and `b`; its resistance
    /// follows the magnetisation state and transient analysis integrates
    /// switching progress from the branch current (positive a→b).
    Mtj {
        /// Device name.
        name: String,
        /// First terminal (current into this terminal is positive).
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// The stateful junction.
        device: Mtj,
    },
}

impl Device {
    /// The device's instance name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Self::Resistor { name, .. }
            | Self::Capacitor { name, .. }
            | Self::VoltageSource { name, .. }
            | Self::CurrentSource { name, .. }
            | Self::Mosfet { name, .. }
            | Self::Mtj { name, .. } => name,
        }
    }

    /// `true` for MOSFET devices — convenient for transistor counting,
    /// one of Table II's reported metrics.
    #[must_use]
    pub fn is_transistor(&self) -> bool {
        matches!(self, Self::Mosfet { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::Technology;

    #[test]
    fn ground_is_node_zero() {
        assert!(NodeId::GROUND.is_ground());
        assert_eq!(NodeId::GROUND.index(), 0);
        assert!(!NodeId(3).is_ground());
    }

    #[test]
    fn names_and_kind_queries() {
        let r = Device::Resistor {
            name: "R1".into(),
            a: NodeId(1),
            b: NodeId(0),
            ohms: 100.0,
        };
        assert_eq!(r.name(), "R1");
        assert!(!r.is_transistor());

        let m = Device::Mosfet {
            name: "M1".into(),
            d: NodeId(1),
            g: NodeId(2),
            s: NodeId(0),
            model: Technology::tsmc40lp().nmos,
            w: 200e-9,
            l: 40e-9,
        };
        assert!(m.is_transistor());
        assert_eq!(m.name(), "M1");
    }
}
