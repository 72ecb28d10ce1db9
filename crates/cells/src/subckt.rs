//! Transistor-level building blocks (transmission gate, tristate
//! inverter, static inverter) expanded in place into a flat
//! [`spice::Circuit`].
//!
//! Each helper names its devices and internal nodes below the name it
//! is given, joined with `join_path` (`T1` → `T1.MN`, `T1.MP`), so
//! the generator's flat word keeps one unambiguous dotted namespace.

use spice::{Circuit, NodeId, SpiceError, Technology};
use units::Length;

/// Joins a name prefix and a leaf segment with the canonical `.`
/// separator; an empty prefix yields the leaf unchanged.
#[must_use]
pub(crate) fn join_path(prefix: &str, leaf: &str) -> String {
    debug_assert!(!leaf.is_empty(), "path leaf must be non-empty");
    if prefix.is_empty() {
        leaf.to_owned()
    } else {
        format!("{prefix}.{leaf}")
    }
}

/// Expands a static CMOS inverter `out = !in` between the given rails.
/// Device names are `<name>.MP` / `<name>.MN`.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn inverter(
    ckt: &mut Circuit,
    name: &str,
    input: NodeId,
    output: NodeId,
    vdd: NodeId,
    gnd: NodeId,
    tech: &Technology,
    wp: Length,
    wn: Length,
) -> Result<(), SpiceError> {
    ckt.add_pmos(&join_path(name, "MP"), output, input, vdd, tech, wp)?;
    ckt.add_nmos(&join_path(name, "MN"), output, input, gnd, tech, wn)?;
    Ok(())
}

/// Expands a transmission gate between `a` and `b`, conducting when `en`
/// is high (and its complement `en_b` low). Device names are
/// `<name>.MN` / `<name>.MP`.
///
/// # Errors
///
/// Propagates [`SpiceError`] from device construction.
#[allow(clippy::too_many_arguments)]
pub fn transmission_gate(
    ckt: &mut Circuit,
    name: &str,
    a: NodeId,
    b: NodeId,
    en: NodeId,
    en_b: NodeId,
    tech: &Technology,
    w: Length,
) -> Result<(), SpiceError> {
    ckt.add_nmos(&join_path(name, "MN"), a, en, b, tech, w)?;
    ckt.add_pmos(&join_path(name, "MP"), a, en_b, b, tech, w)?;
    Ok(())
}

/// Expands a tristate inverter: `out = !in` when `en` high / `en_b` low,
/// high-impedance otherwise. This is the write driver of both latch
/// designs (paper Fig. 5, inverters I1–I4).
///
/// Stack order: `vdd → MPI(g=in) → MPE(g=en_b) → out → MNE(g=en) →
/// MNI(g=in) → gnd`. Device names are `<name>.MPI`, `<name>.MPE`,
/// `<name>.MNE`, `<name>.MNI`; the stack's internal nodes are interned
/// as `<name>.mp` / `<name>.mn`.
///
/// # Errors
///
/// Propagates [`SpiceError`] from device construction.
#[allow(clippy::too_many_arguments)]
pub fn tristate_inverter(
    ckt: &mut Circuit,
    name: &str,
    input: NodeId,
    output: NodeId,
    en: NodeId,
    en_b: NodeId,
    vdd: NodeId,
    gnd: NodeId,
    tech: &Technology,
    wp: Length,
    wn: Length,
) -> Result<(), SpiceError> {
    let mid_p = ckt.node(&join_path(name, "mp"));
    let mid_n = ckt.node(&join_path(name, "mn"));
    ckt.add_pmos(&join_path(name, "MPI"), mid_p, input, vdd, tech, wp)?;
    ckt.add_pmos(&join_path(name, "MPE"), output, en_b, mid_p, tech, wp)?;
    ckt.add_nmos(&join_path(name, "MNE"), output, en, mid_n, tech, wn)?;
    ckt.add_nmos(&join_path(name, "MNI"), mid_n, input, gnd, tech, wn)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice::{analysis, SourceWaveform};
    use units::Voltage;

    #[test]
    fn join_path_rules() {
        assert_eq!(join_path("", "MP"), "MP");
        assert_eq!(join_path("X0", "MP"), "X0.MP");
        assert_eq!(join_path("X0.I1", "MP"), "X0.I1.MP");
    }

    fn rails(ckt: &mut Circuit) -> (NodeId, NodeId) {
        let vdd = ckt.node("vdd");
        ckt.add_voltage_source(
            "VDD",
            vdd,
            Circuit::GROUND,
            SourceWaveform::dc(Voltage::from_volts(1.1)),
        )
        .expect("VDD");
        (vdd, Circuit::GROUND)
    }

    fn drive(ckt: &mut Circuit, name: &str, node: NodeId, level: f64) {
        ckt.add_voltage_source(
            name,
            node,
            Circuit::GROUND,
            SourceWaveform::dc(Voltage::from_volts(level)),
        )
        .expect("control source");
    }

    #[test]
    fn inverter_inverts() {
        let tech = Technology::tsmc40lp();
        for (vin, expect_high) in [(0.0, true), (1.1, false)] {
            let mut ckt = Circuit::new();
            let (vdd, gnd) = rails(&mut ckt);
            let inp = ckt.node("in");
            let out = ckt.node("out");
            drive(&mut ckt, "VIN", inp, vin);
            inverter(
                &mut ckt,
                "INV",
                inp,
                out,
                vdd,
                gnd,
                &tech,
                Length::from_nano_meters(400.0),
                Length::from_nano_meters(200.0),
            )
            .expect("inverter");
            let op = analysis::op(&mut ckt).expect("op");
            let v = op.voltage(out);
            if expect_high {
                assert!(v > 1.0, "v = {v}");
            } else {
                assert!(v < 0.1, "v = {v}");
            }
        }
    }

    #[test]
    fn transmission_gate_conducts_only_when_enabled() {
        let tech = Technology::tsmc40lp();
        for (en_level, expect_pass) in [(1.1, true), (0.0, false)] {
            let mut ckt = Circuit::new();
            let (_vdd, _gnd) = rails(&mut ckt);
            let a = ckt.node("a");
            let b = ckt.node("b");
            let en = ckt.node("en");
            let en_b = ckt.node("en_b");
            drive(&mut ckt, "VA", a, 0.8);
            drive(&mut ckt, "VEN", en, en_level);
            drive(&mut ckt, "VENB", en_b, 1.1 - en_level);
            transmission_gate(
                &mut ckt,
                "T1",
                a,
                b,
                en,
                en_b,
                &tech,
                Length::from_nano_meters(240.0),
            )
            .expect("tgate");
            ckt.add_resistor(
                "RL",
                b,
                Circuit::GROUND,
                units::Resistance::from_mega_ohms(1.0),
            )
            .expect("load");
            let op = analysis::op(&mut ckt).expect("op");
            let vb = op.voltage(b);
            if expect_pass {
                assert!(vb > 0.75, "vb = {vb}");
            } else {
                assert!(vb < 0.05, "vb = {vb}");
            }
        }
    }

    #[test]
    fn tristate_inverter_drives_and_releases() {
        let tech = Technology::tsmc40lp();
        // Enabled: inverts. Disabled: output follows the weak keeper.
        for (en_level, vin, expected) in [
            (1.1, 0.0, Some(true)),  // drive high
            (1.1, 1.1, Some(false)), // drive low
            (0.0, 0.0, None),        // hi-Z
        ] {
            let mut ckt = Circuit::new();
            let (vdd, gnd) = rails(&mut ckt);
            let inp = ckt.node("in");
            let out = ckt.node("out");
            let en = ckt.node("en");
            let en_b = ckt.node("en_b");
            drive(&mut ckt, "VIN", inp, vin);
            drive(&mut ckt, "VEN", en, en_level);
            drive(&mut ckt, "VENB", en_b, 1.1 - en_level);
            tristate_inverter(
                &mut ckt,
                "I1",
                inp,
                out,
                en,
                en_b,
                vdd,
                gnd,
                &tech,
                Length::from_nano_meters(2000.0),
                Length::from_nano_meters(1000.0),
            )
            .expect("tristate");
            // Weak keeper to a mid level so hi-Z is observable.
            let mid = ckt.node("mid");
            drive(&mut ckt, "VMID", mid, 0.55);
            ckt.add_resistor("RK", out, mid, units::Resistance::from_mega_ohms(10.0))
                .expect("keeper");
            let op = analysis::op(&mut ckt).expect("op");
            let v = op.voltage(out);
            match expected {
                Some(true) => assert!(v > 1.0, "v = {v}"),
                Some(false) => assert!(v < 0.1, "v = {v}"),
                None => assert!((v - 0.55).abs() < 0.15, "hi-Z v = {v}"),
            }
        }
    }

    #[test]
    fn tristate_write_driver_delivers_the_write_current() {
        // Two opposing tristate drivers across the series MTJ-pair
        // resistance (16 kΩ) must deliver ≈ 65–70 µA (Table I's switching
        // current at VDD = 1.1 V).
        let tech = Technology::tsmc40lp();
        let mut ckt = Circuit::new();
        let (vdd, gnd) = rails(&mut ckt);
        let d = ckt.node("d");
        let db = ckt.node("db");
        let en = ckt.node("en");
        let en_b = ckt.node("en_b");
        drive(&mut ckt, "VD", d, 0.0);
        drive(&mut ckt, "VDB", db, 1.1);
        drive(&mut ckt, "VEN", en, 1.1);
        drive(&mut ckt, "VENB", en_b, 0.0);
        let a = ckt.node("a");
        let b = ckt.node("b");
        for (name, input, output) in [("I4", d, a), ("I3", db, b)] {
            tristate_inverter(
                &mut ckt,
                name,
                input,
                output,
                en,
                en_b,
                vdd,
                gnd,
                &tech,
                Length::from_nano_meters(2000.0),
                Length::from_nano_meters(1000.0),
            )
            .expect("driver");
        }
        ckt.add_resistor("RMTJ", a, b, units::Resistance::from_kilo_ohms(16.0))
            .expect("series pair");
        let op = analysis::op(&mut ckt).expect("op");
        let i = (op.voltage(a) - op.voltage(b)) / 16_000.0;
        assert!(
            (55e-6..75e-6).contains(&i),
            "write current = {} µA",
            i * 1e6
        );
    }
}
