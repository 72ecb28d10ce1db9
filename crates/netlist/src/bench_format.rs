//! Parser for the ISCAS'89 `.bench` netlist format.
//!
//! The synthetic generator ([`crate::benchmarks`]) reproduces the
//! paper's flip-flop counts without the original RTL; when the real
//! ISCAS benchmark files are available, this parser loads them directly
//! so the system flow can run on the genuine article:
//!
//! ```text
//! # s27
//! INPUT(G0)
//! OUTPUT(G17)
//! G5 = DFF(G10)
//! G10 = NAND(G14, G11)
//! G11 = NOT(G5)
//! ```
//!
//! Gates with more than two inputs are decomposed into trees of the
//! library's 2-input cells (the usual technology-mapping step).

use core::fmt;
use std::error::Error;

use crate::ir::{CellKind, NetId, Netlist};

/// Error produced by [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBenchError {
    line: usize,
    what: String,
}

impl fmt::Display for ParseBenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ".bench parse error at line {}: {}", self.line, self.what)
    }
}

impl Error for ParseBenchError {}

/// Parses `.bench` text into a [`Netlist`] named `name`.
///
/// # Errors
///
/// Returns [`ParseBenchError`] for malformed lines or unknown gate
/// functions.
///
/// # Examples
///
/// ```
/// let text = "\
/// INPUT(a)
/// OUTPUT(q)
/// q = DFF(y)
/// y = NOT(a)
/// ";
/// let n = netlist::bench_format::parse("toy", text)?;
/// assert_eq!(n.flip_flop_count(), 1);
/// # Ok::<(), netlist::bench_format::ParseBenchError>(())
/// ```
pub fn parse(name: &str, text: &str) -> Result<Netlist, ParseBenchError> {
    let mut netlist = Netlist::new(name);
    let mut outputs: Vec<(usize, String)> = Vec::new();
    let mut gate_counter = 0usize;

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |what: &str| ParseBenchError {
            line: lineno + 1,
            what: what.to_owned(),
        };

        if let Some(rest) = strip_call(line, "INPUT") {
            let net = netlist.add_net(rest);
            netlist.add_instance(&format!("PI_{rest}"), CellKind::Input, vec![], Some(net));
            continue;
        }
        if let Some(rest) = strip_call(line, "OUTPUT") {
            outputs.push((lineno + 1, rest.to_owned()));
            continue;
        }

        // `target = FUNC(a, b, ...)`
        let (target, expr) = line
            .split_once('=')
            .ok_or_else(|| bad("expected `net = FUNC(...)`"))?;
        let target = target.trim();
        let expr = expr.trim();
        let open = expr.find('(').ok_or_else(|| bad("missing ("))?;
        let close = expr[open..]
            .rfind(')')
            .map(|i| open + i)
            .ok_or_else(|| bad("missing )"))?;
        let func = expr[..open].trim().to_ascii_uppercase();
        let args: Vec<&str> = expr[open + 1..close]
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        if args.is_empty() {
            return Err(bad("gate with no inputs"));
        }
        let arg_nets: Vec<NetId> = args.iter().map(|a| netlist.add_net(a)).collect();
        let out_net = netlist.add_net(target);

        match func.as_str() {
            "DFF" => {
                if arg_nets.len() != 1 {
                    return Err(bad("DFF takes one input"));
                }
                netlist.add_instance(
                    &format!("FF_{target}"),
                    CellKind::Dff,
                    arg_nets,
                    Some(out_net),
                );
            }
            "NOT" | "INV" => {
                if arg_nets.len() != 1 {
                    return Err(bad("NOT takes one input"));
                }
                netlist.add_instance(
                    &format!("U_{target}"),
                    CellKind::Inv,
                    arg_nets,
                    Some(out_net),
                );
            }
            "BUF" | "BUFF" => {
                if arg_nets.len() != 1 {
                    return Err(bad("BUF takes one input"));
                }
                netlist.add_instance(
                    &format!("U_{target}"),
                    CellKind::Buf,
                    arg_nets,
                    Some(out_net),
                );
            }
            "AND" | "OR" | "NAND" | "NOR" | "XOR" => {
                let kind = match func.as_str() {
                    "AND" => CellKind::And2,
                    "OR" => CellKind::Or2,
                    "NAND" => CellKind::Nand2,
                    "NOR" => CellKind::Nor2,
                    _ => CellKind::Xor2,
                };
                build_tree(
                    &mut netlist,
                    kind,
                    &arg_nets,
                    out_net,
                    target,
                    &mut gate_counter,
                )
                .map_err(|what| bad(&what))?;
            }
            other => return Err(bad(&format!("unknown function {other}"))),
        }
    }

    for (lineno, net_name) in outputs {
        let net = netlist.add_net(&net_name);
        let _ = lineno;
        netlist.add_instance(&format!("PO_{net_name}"), CellKind::Output, vec![net], None);
    }
    Ok(netlist)
}

fn strip_call<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let upper = line.to_ascii_uppercase();
    if !upper.starts_with(keyword) {
        return None;
    }
    let rest = line[keyword.len()..].trim();
    rest.strip_prefix('(')?.strip_suffix(')').map(str::trim)
}

/// Decomposes an n-input gate into a balanced tree of 2-input cells.
///
/// For the inverting functions the decomposition keeps the top gate
/// inverting and builds the reduction below it with the non-inverting
/// dual (`NAND(a,b,c) = NAND(AND(a,b), c)`), which preserves logic
/// exactly.
fn build_tree(
    netlist: &mut Netlist,
    kind: CellKind,
    inputs: &[NetId],
    out: NetId,
    target: &str,
    counter: &mut usize,
) -> Result<(), String> {
    if inputs.len() == 1 {
        // Single-input degenerate gate: a buffer (or inverter for the
        // inverting functions).
        let k = match kind {
            CellKind::Nand2 | CellKind::Nor2 => CellKind::Inv,
            _ => CellKind::Buf,
        };
        netlist.add_instance(&format!("U_{target}"), k, vec![inputs[0]], Some(out));
        return Ok(());
    }
    // Reduce all but the last input with the non-inverting dual.
    let reduce_kind = match kind {
        CellKind::Nand2 => CellKind::And2,
        CellKind::Nor2 => CellKind::Or2,
        k => k,
    };
    let mut acc = inputs[0];
    for (i, &next) in inputs[1..inputs.len() - 1].iter().enumerate() {
        let mid = netlist.add_net(&format!("{target}__t{i}_{counter}"));
        *counter += 1;
        netlist.add_instance(
            &format!("U_{target}__r{i}_{counter}"),
            reduce_kind,
            vec![acc, next],
            Some(mid),
        );
        acc = mid;
    }
    netlist.add_instance(
        &format!("U_{target}"),
        kind,
        vec![acc, inputs[inputs.len() - 1]],
        Some(out),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic s27 benchmark, verbatim.
    const S27: &str = "\
# s27
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
";

    #[test]
    fn parses_s27_with_three_flip_flops() {
        let n = parse("s27", S27).expect("parse");
        assert_eq!(n.name(), "s27");
        assert_eq!(n.flip_flop_count(), 3);
        let h = n.kind_histogram();
        assert_eq!(h[&CellKind::Input], 4);
        assert_eq!(h[&CellKind::Output], 1);
        assert_eq!(h[&CellKind::Inv], 2);
        assert_eq!(h[&CellKind::And2], 1);
        assert_eq!(h[&CellKind::Nor2], 4);
        assert_eq!(h[&CellKind::Nand2], 1);
        assert_eq!(h[&CellKind::Or2], 2);
    }

    #[test]
    fn parsed_netlist_places_and_merges() {
        use crate::library::CellLibrary;
        let n = parse("s27", S27).expect("parse");
        // The whole downstream flow accepts a parsed netlist.
        let lib = CellLibrary::n40();
        let total: usize = n.instances().iter().map(|i| lib.sites(i.kind)).sum();
        assert!(total > 0);
    }

    #[test]
    fn wide_gates_decompose_into_trees() {
        let text = "\
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
y = NAND(a, b, c, d)
";
        let n = parse("wide", text).expect("parse");
        let h = n.kind_histogram();
        // NAND4 = AND(AND(a,b),c) feeding a NAND2.
        assert_eq!(h[&CellKind::And2], 2);
        assert_eq!(h[&CellKind::Nand2], 1);
    }

    #[test]
    fn single_input_degenerate_gates() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = NAND(a)\nz = AND(a)\n";
        let n = parse("degen", text).expect("parse");
        let h = n.kind_histogram();
        assert_eq!(h[&CellKind::Inv], 1); // NAND1 = NOT
        assert_eq!(h[&CellKind::Buf], 1); // AND1 = BUF
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# header\n\nINPUT(a)\nOUTPUT(a)\n";
        let n = parse("x", text).expect("parse");
        assert_eq!(n.instance_count(), 2);
    }

    #[test]
    fn malformed_lines_report_position() {
        for (text, needle) in [
            ("G1 = FROB(a)\n", "unknown function"),
            ("G1 = NOT(a, b)\n", "NOT takes one"),
            ("G1 = DFF(a, b)\n", "DFF takes one"),
            ("G1 = AND()\n", "no inputs"),
            ("G1 NOT(a)\n", "expected"),
            ("G1 = NOT a\n", "missing ("),
            ("x = )AND(a\n", "missing )"),
            ("x = AND)(a\n", "missing )"),
        ] {
            let err = parse("x", text).expect_err(text);
            assert!(err.to_string().contains(needle), "{text}: {err}");
            assert!(err.to_string().contains("line 1"));
        }
    }

    #[test]
    fn output_only_nets_resolve() {
        // OUTPUT may appear before the driver is defined.
        let text = "OUTPUT(q)\nINPUT(d)\nq = DFF(d)\n";
        let n = parse("x", text).expect("parse");
        assert_eq!(n.flip_flop_count(), 1);
    }
}
