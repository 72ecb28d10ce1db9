//! Structural-Verilog writer for generated netlists (inspection and
//! interchange with external tools).

use std::fmt::Write as _;

use crate::ir::{CellKind, InstId, NetId, Netlist};

/// Renders the netlist as a structural Verilog module.
///
/// Ports come from the `Input`/`Output` pseudo-cells; every other net is
/// declared as a wire. Cell instantiations use the library kind names
/// with positional-free named pins (`.Y`, `.A`, `.B`, `.D`, `.Q`).
///
/// # Examples
///
/// ```
/// use netlist::{CellKind, Netlist, verilog};
///
/// let mut n = Netlist::new("toy");
/// let a = n.add_net("a");
/// let y = n.add_net("y");
/// n.add_instance("PI0", CellKind::Input, &[], Some(a));
/// n.add_instance("U1", CellKind::Inv, &[a], Some(y));
/// n.add_instance("PO0", CellKind::Output, &[y], None);
/// let v = verilog::write(&n);
/// assert!(v.contains("module toy"));
/// assert!(v.contains("INV U1"));
/// ```
#[must_use]
pub fn write(netlist: &Netlist) -> String {
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    // Port nets are flagged per net, so the wire list is one pass.
    let mut is_port = vec![false; netlist.net_count()];
    for inst in netlist.instances() {
        let (list, net) = match inst.kind {
            CellKind::Input => (&mut inputs, inst.output),
            CellKind::Output => (&mut outputs, inst.inputs().first().copied()),
            _ => continue,
        };
        if let Some(net) = net {
            is_port[net.0] = true;
            list.push(netlist.net_name(net));
        }
    }

    let mut out = String::new();
    let ports: Vec<&str> = inputs.iter().chain(outputs.iter()).copied().collect();
    let _ = writeln!(out, "module {} ({});", netlist.name(), ports.join(", "));
    for p in &inputs {
        let _ = writeln!(out, "  input {p};");
    }
    for p in &outputs {
        let _ = writeln!(out, "  output {p};");
    }
    // Wires: everything that is not a port net.
    for (net_idx, &port) in is_port.iter().enumerate() {
        if !port {
            let _ = writeln!(out, "  wire {};", netlist.net_name(NetId(net_idx)));
        }
    }
    for (idx, inst) in netlist.instances().iter().enumerate() {
        if inst.kind.is_port() {
            continue;
        }
        let mut pins: Vec<String> = Vec::new();
        if let Some(net) = inst.output {
            let pin = if inst.kind.is_flip_flop() { "Q" } else { "Y" };
            pins.push(format!(".{pin}({})", netlist.net_name(net)));
        }
        let input_pins: &[&str] = if inst.kind.is_flip_flop() {
            &["D"]
        } else {
            &["A", "B"]
        };
        for (k, net) in inst.inputs().iter().enumerate() {
            pins.push(format!(".{}({})", input_pins[k], netlist.net_name(*net)));
        }
        let name = netlist.instance_name(InstId(idx));
        let _ = writeln!(out, "  {} {name} ({});", inst.kind, pins.join(", "));
    }
    let _ = writeln!(out, "endmodule");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn writes_a_complete_module() {
        let spec = benchmarks::by_name("s344").unwrap();
        let n = benchmarks::generate_scaled(spec, 100);
        let v = write(&n);
        assert!(v.starts_with("module s344"));
        assert!(v.trim_end().ends_with("endmodule"));
        assert!(v.contains("input pi0;"));
        assert!(!v.contains("wire pi0;"), "port nets are not wires");
        assert!(v.contains("wire n0;"));
        assert!(v.contains("DFF"));
        // One instantiation line per non-port instance.
        let inst_lines = v
            .lines()
            .filter(|l| l.contains(" U") || l.contains(" FF"))
            .count();
        assert!(inst_lines >= 100);
    }

    #[test]
    fn flip_flops_use_dq_pins() {
        let mut n = Netlist::new("ff");
        let d = n.add_net("d");
        let q = n.add_net("q");
        n.add_instance("PI0", CellKind::Input, &[], Some(d));
        n.add_instance("FF0", CellKind::Dff, &[d], Some(q));
        n.add_instance("PO0", CellKind::Output, &[q], None);
        let v = write(&n);
        assert!(v.contains(".Q(q)"));
        assert!(v.contains(".D(d)"));
    }
}
