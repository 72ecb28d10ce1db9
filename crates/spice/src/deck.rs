//! SPICE-deck text interchange: write a [`Circuit`] as a classic SPICE
//! netlist and parse one back, including hierarchical `.subckt` blocks.
//!
//! The dialect is the familiar element-card format:
//!
//! ```text
//! * comment
//! R1 n1 n2 5k
//! C1 out 0 1.2f
//! V1 in 0 DC 1.1
//! V2 pc 0 PULSE(0 1.1 100p 10p 10p 200p)
//! V3 w  0 PWL(0 0 1n 1.1 2n 0)
//! I1 0 a DC 70u
//! M1 d g s NMOS W=200n L=40n
//! XMTJ1 a b MTJ STATE=AP POL=+AP
//! .SUBCKT DIV2 in out
//! R1 in out 1k
//! R2 out 0 1k
//! .ENDS DIV2
//! XU1 a b DIV2
//! .END
//! ```
//!
//! Engineering suffixes (`f p n u m k meg g t`) are accepted on values.
//! MOSFETs resolve their model from the [`Technology`] in the
//! [`DeckContext`]; the non-standard `X… MTJ` card (exactly two nodes,
//! third token `MTJ`) instantiates an MTJ from the context's parameters
//! with an initial `STATE` (`P`/`AP`) and write polarity `POL` (`+AP` =
//! positive current sets anti-parallel). Any other `X` card is a
//! subcircuit instance: its last token names a previously defined
//! `.subckt`, and [`parse`] flattens top-level instances through
//! [`Circuit::instantiate`] while [`parse_library`] also returns the
//! definitions themselves.
//!
//! Structural `.subckt` errors — duplicate definition names, an
//! unterminated block, a reference to an undefined subcircuit — are
//! rejected with a line-spanned [`SpiceError::DeckSyntax`]. Within one
//! `.subckt` block, element cards print before `X` instance lines; a
//! parse→write round trip canonicalizes to that order.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use mtj::{Mtj, MtjParams, MtjState, WritePolarity};
use units::{Capacitance, Length, Resistance};

use crate::circuit::Circuit;
use crate::device::Device;
use crate::error::SpiceError;
use crate::mosfet::{MosfetKind, Technology};
use crate::source::SourceWaveform;
use crate::subckt::Subckt;

/// Models needed to instantiate technology-dependent cards.
#[derive(Debug, Clone)]
pub struct DeckContext {
    /// MOSFET models (`NMOS`/`PMOS` cards).
    pub(crate) tech: Technology,
    /// MTJ parameters (`MTJ` cards).
    pub(crate) mtj: MtjParams,
}

impl Default for DeckContext {
    fn default() -> Self {
        Self {
            tech: Technology::tsmc40lp(),
            mtj: MtjParams::date2018(),
        }
    }
}

/// Result of [`parse_library`]: the flattened top-level circuit plus the
/// `.subckt` definitions the deck declared (in declaration order).
#[derive(Debug, Clone)]
pub struct ParsedDeck {
    /// The top-level circuit, with `X` instances already flattened.
    pub circuit: Circuit,
    /// The parsed subcircuit definitions.
    pub subckts: Vec<Arc<Subckt>>,
}

/// Serializes a circuit as a SPICE deck.
///
/// # Examples
///
/// ```
/// use spice::{Circuit, SourceWaveform, deck};
/// use units::{Resistance, Voltage};
///
/// # fn main() -> Result<(), spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(Voltage::from_volts(1.1)))?;
/// ckt.add_resistor("R1", a, Circuit::GROUND, Resistance::from_kilo_ohms(5.0))?;
/// let text = deck::write(&ckt, "divider");
/// assert!(text.contains("R1 a 0 5000"));
/// let back = deck::parse(&text, &deck::DeckContext::default())?;
/// assert_eq!(back.devices().len(), 2);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn write(ckt: &Circuit, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "* {title}");
    write_cards(&mut out, ckt);
    out.push_str(".END\n");
    out
}

/// Serializes one subcircuit definition as a `.subckt` … `.ends` block.
///
/// Body element cards come first, then one `X` line per nested child
/// instance (`X<inst> <bound nodes…> <definition name>`).
#[must_use]
pub fn write_subckt(sub: &Subckt) -> String {
    let mut out = String::new();
    let _ = write!(out, ".SUBCKT {}", sub.name());
    for p in sub.ports() {
        let _ = write!(out, " {p}");
    }
    out.push('\n');
    write_cards(&mut out, sub.body());
    for child in sub.child_instances() {
        let _ = write!(out, "X{}", child.inst());
        for &b in child.bindings() {
            let _ = write!(out, " {}", sub.body().node_name(b));
        }
        let _ = writeln!(out, " {}", child.def().name());
    }
    let _ = writeln!(out, ".ENDS {}", sub.name());
    out
}

/// Writes every device of `ckt` as one element card, in device order.
fn write_cards(out: &mut String, ckt: &Circuit) {
    let node = |n: crate::NodeId| ckt.node_name(n).to_owned();
    for dev in ckt.devices() {
        match dev {
            Device::Resistor { name, a, b, ohms } => {
                let _ = writeln!(out, "{name} {} {} {ohms}", node(*a), node(*b));
            }
            Device::Capacitor { name, a, b, farads } => {
                let _ = writeln!(out, "{name} {} {} {farads:e}", node(*a), node(*b));
            }
            Device::VoltageSource {
                name,
                pos,
                neg,
                wave,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "{name} {} {} {}",
                    node(*pos),
                    node(*neg),
                    waveform_text(wave)
                );
            }
            Device::CurrentSource {
                name,
                pos,
                neg,
                wave,
            } => {
                let _ = writeln!(
                    out,
                    "{name} {} {} {}",
                    node(*pos),
                    node(*neg),
                    waveform_text(wave)
                );
            }
            Device::Mosfet {
                name,
                d,
                g,
                s,
                model,
                w,
                l,
            } => {
                let kind = match model.kind {
                    MosfetKind::Nmos => "NMOS",
                    MosfetKind::Pmos => "PMOS",
                };
                let _ = writeln!(
                    out,
                    "{name} {} {} {} {kind} W={w:e} L={l:e}",
                    node(*d),
                    node(*g),
                    node(*s)
                );
            }
            Device::Mtj { name, a, b, device } => {
                let pol = match device.polarity() {
                    WritePolarity::PositiveSetsAntiParallel => "+AP",
                    WritePolarity::PositiveSetsParallel => "+P",
                };
                let _ = writeln!(
                    out,
                    "X{name} {} {} MTJ STATE={} POL={pol}",
                    node(*a),
                    node(*b),
                    device.state()
                );
            }
        }
    }
}

fn waveform_text(wave: &SourceWaveform) -> String {
    match wave {
        SourceWaveform::Dc(v) => format!("DC {v}"),
        SourceWaveform::Pulse {
            v0,
            v1,
            delay,
            rise,
            fall,
            width,
        } => {
            format!("PULSE({v0} {v1} {delay:e} {rise:e} {fall:e} {width:e})")
        }
        SourceWaveform::Pwl(points) => {
            let mut s = String::from("PWL(");
            for (i, (t, v)) in points.iter().enumerate() {
                if i > 0 {
                    s.push(' ');
                }
                let _ = write!(s, "{t:e} {v}");
            }
            s.push(')');
            s
        }
    }
}

/// Parses a SPICE deck into a flat circuit, resolving `.subckt` blocks
/// and flattening top-level `X` instances.
///
/// # Errors
///
/// Returns [`SpiceError::InvalidAnalysis`] for malformed element cards
/// (the offending line is quoted in the message),
/// [`SpiceError::DeckSyntax`] for structural `.subckt` problems, and
/// propagates circuit construction errors (duplicate names,
/// non-physical values).
pub fn parse(text: &str, context: &DeckContext) -> Result<Circuit, SpiceError> {
    parse_library(text, context).map(|deck| deck.circuit)
}

/// Parses a SPICE deck, returning both the flattened top-level circuit
/// and the `.subckt` definitions it declared.
///
/// Definition rules:
///
/// * a `.subckt` name may be defined only once (case-insensitive) —
///   duplicates are rejected with a spanned [`SpiceError::DeckSyntax`]
///   instead of silently taking the last definition;
/// * every `.subckt` must be closed by `.ends` before `.end` or the end
///   of the text;
/// * an `X` instance card may only reference a definition that appeared
///   earlier in the deck (nested definitions are not supported).
///
/// # Errors
///
/// As [`parse`].
pub fn parse_library(text: &str, context: &DeckContext) -> Result<ParsedDeck, SpiceError> {
    let mut ckt = Circuit::new();
    let mut subckts: Vec<Arc<Subckt>> = Vec::new();
    // The `.subckt` block currently being filled, with its opening line.
    let mut open: Option<(Subckt, usize)> = None;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('*') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let head = tokens[0];

        if head.eq_ignore_ascii_case(".subckt") {
            if let Some((sub, start)) = &open {
                return Err(SpiceError::DeckSyntax {
                    line: lineno,
                    reason: format!(
                        "nested .subckt inside `{}` (opened at line {start}) is not supported",
                        sub.name()
                    ),
                });
            }
            if tokens.len() < 2 {
                return Err(SpiceError::DeckSyntax {
                    line: lineno,
                    reason: "expected `.subckt <name> [ports…]`".into(),
                });
            }
            let name = tokens[1];
            if subckts.iter().any(|s| s.name().eq_ignore_ascii_case(name)) {
                return Err(SpiceError::DeckSyntax {
                    line: lineno,
                    reason: format!("duplicate .subckt definition `{name}`"),
                });
            }
            let sub = Subckt::new(name, &tokens[2..]).map_err(|e| SpiceError::DeckSyntax {
                line: lineno,
                reason: e.to_string(),
            })?;
            open = Some((sub, lineno));
            continue;
        }
        if head.eq_ignore_ascii_case(".ends") {
            let Some((sub, _)) = open.take() else {
                return Err(SpiceError::DeckSyntax {
                    line: lineno,
                    reason: ".ends without an open .subckt block".into(),
                });
            };
            if tokens.len() > 1 && !tokens[1].eq_ignore_ascii_case(sub.name()) {
                return Err(SpiceError::DeckSyntax {
                    line: lineno,
                    reason: format!(
                        ".ends {} does not match the open .subckt {}",
                        tokens[1],
                        sub.name()
                    ),
                });
            }
            subckts.push(Arc::new(sub));
            continue;
        }
        if line.eq_ignore_ascii_case(".end") {
            if let Some((sub, start)) = &open {
                return Err(SpiceError::DeckSyntax {
                    line: *start,
                    reason: format!("unterminated .subckt `{}` (missing .ends)", sub.name()),
                });
            }
            break;
        }
        if line.starts_with('.') {
            // Other dot-cards (analyses) are not part of the circuit.
            continue;
        }

        let first = head.chars().next().expect("nonempty token");
        let is_mtj_card = first.eq_ignore_ascii_case(&'X')
            && tokens.len() >= 4
            && tokens[3].eq_ignore_ascii_case("MTJ");
        if first.eq_ignore_ascii_case(&'X') && !is_mtj_card {
            // Subcircuit instance: X<inst> <nodes…> <definition name>.
            let inst = head.strip_prefix(['X', 'x']).unwrap_or(head);
            if inst.is_empty() || tokens.len() < 2 {
                return Err(SpiceError::DeckSyntax {
                    line: lineno,
                    reason: "expected `X<inst> <nodes…> <subckt name>`".into(),
                });
            }
            let def_name = tokens[tokens.len() - 1];
            let Some(def) = subckts
                .iter()
                .find(|s| s.name().eq_ignore_ascii_case(def_name))
                .cloned()
            else {
                return Err(SpiceError::DeckSyntax {
                    line: lineno,
                    reason: format!(
                        "unknown subckt `{def_name}` (not a prior .subckt definition \
                         or an `X<name> n1 n2 MTJ …` card)"
                    ),
                });
            };
            let node_names = &tokens[1..tokens.len() - 1];
            let spanned = |e: SpiceError| SpiceError::DeckSyntax {
                line: lineno,
                reason: e.to_string(),
            };
            match open.as_mut() {
                Some((sub, _)) => {
                    let bindings: Vec<_> =
                        node_names.iter().map(|n| sub.body_mut().node(n)).collect();
                    sub.add_instance(inst, &def, &bindings).map_err(spanned)?;
                }
                None => {
                    let ports: Vec<_> = node_names.iter().map(|n| ckt.node(n)).collect();
                    ckt.instantiate(inst, &def, &ports).map_err(spanned)?;
                }
            }
            continue;
        }

        let target = match open.as_mut() {
            Some((sub, _)) => sub.body_mut(),
            None => &mut ckt,
        };
        parse_element(&tokens, line, context, target)?;
    }

    if let Some((sub, start)) = open {
        return Err(SpiceError::DeckSyntax {
            line: start,
            reason: format!("unterminated .subckt `{}` (missing .ends)", sub.name()),
        });
    }
    Ok(ParsedDeck {
        circuit: ckt,
        subckts,
    })
}

/// Parses one element card (`R`/`C`/`V`/`I`/`M` or the `X… MTJ` form)
/// into `ckt`.
fn parse_element(
    tokens: &[&str],
    line: &str,
    context: &DeckContext,
    ckt: &mut Circuit,
) -> Result<(), SpiceError> {
    let bad = |line: &str, why: &str| SpiceError::InvalidAnalysis {
        reason: format!("deck line `{line}`: {why}"),
    };
    let name = tokens[0];
    let first = name.chars().next().expect("nonempty token");
    match first.to_ascii_uppercase() {
        'R' => {
            if tokens.len() != 4 {
                return Err(bad(line, "expected R<name> n1 n2 value"));
            }
            let a = ckt.node(tokens[1]);
            let b = ckt.node(tokens[2]);
            let ohms = parse_value(tokens[3]).ok_or_else(|| bad(line, "bad value"))?;
            ckt.add_resistor(name, a, b, Resistance::from_ohms(ohms))?;
        }
        'C' => {
            if tokens.len() != 4 {
                return Err(bad(line, "expected C<name> n1 n2 value"));
            }
            let a = ckt.node(tokens[1]);
            let b = ckt.node(tokens[2]);
            let farads = parse_value(tokens[3]).ok_or_else(|| bad(line, "bad value"))?;
            ckt.add_capacitor(name, a, b, Capacitance::from_farads(farads))?;
        }
        'V' | 'I' => {
            if tokens.len() < 4 {
                return Err(bad(line, "expected source n+ n- waveform"));
            }
            let pos = ckt.node(tokens[1]);
            let neg = ckt.node(tokens[2]);
            let wave = parse_waveform(&tokens[3..]).ok_or_else(|| bad(line, "bad waveform"))?;
            if first.eq_ignore_ascii_case(&'V') {
                ckt.add_voltage_source(name, pos, neg, wave)?;
            } else {
                ckt.add_current_source(name, pos, neg, wave)?;
            }
        }
        'M' => {
            if tokens.len() < 5 {
                return Err(bad(line, "expected M<name> d g s MODEL [W= L=]"));
            }
            let d = ckt.node(tokens[1]);
            let g = ckt.node(tokens[2]);
            let s = ckt.node(tokens[3]);
            let model = match tokens[4].to_ascii_uppercase().as_str() {
                "NMOS" => context.tech.nmos,
                "PMOS" => context.tech.pmos,
                other => return Err(bad(line, &format!("unknown model {other}"))),
            };
            let params = parse_params(&tokens[5..]);
            let w = params.get("W").copied().unwrap_or(200e-9);
            let l = params.get("L").copied().unwrap_or(context.tech.l_min);
            ckt.add_mosfet(
                name,
                d,
                g,
                s,
                model,
                Length::from_meters(w),
                Length::from_meters(l),
            )?;
        }
        'X' => {
            if tokens.len() < 4 || !tokens[3].eq_ignore_ascii_case("MTJ") {
                return Err(bad(line, "only `X<name> n1 n2 MTJ …` element cards exist"));
            }
            let a = ckt.node(tokens[1]);
            let b = ckt.node(tokens[2]);
            let mut state = MtjState::Parallel;
            let mut polarity = WritePolarity::PositiveSetsAntiParallel;
            for t in &tokens[4..] {
                if let Some(v) = t.strip_prefix("STATE=") {
                    state = match v.to_ascii_uppercase().as_str() {
                        "P" => MtjState::Parallel,
                        "AP" => MtjState::AntiParallel,
                        _ => return Err(bad(line, "STATE must be P or AP")),
                    };
                } else if let Some(v) = t.strip_prefix("POL=") {
                    polarity = match v.to_ascii_uppercase().as_str() {
                        "+AP" => WritePolarity::PositiveSetsAntiParallel,
                        "+P" => WritePolarity::PositiveSetsParallel,
                        _ => return Err(bad(line, "POL must be +AP or +P")),
                    };
                }
            }
            let inst = name.strip_prefix(['X', 'x']).unwrap_or(name);
            ckt.add_mtj(inst, a, b, Mtj::new(context.mtj.clone(), state, polarity))?;
        }
        other => {
            return Err(bad(line, &format!("unknown element letter {other}")));
        }
    }
    Ok(())
}

/// Parses `KEY=value` parameter tails.
fn parse_params(tokens: &[&str]) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    for t in tokens {
        if let Some((key, value)) = t.split_once('=') {
            if let Some(v) = parse_value(value) {
                out.insert(key.to_ascii_uppercase(), v);
            }
        }
    }
    out
}

/// Parses a waveform tail: `DC v`, `PULSE(...)` or `PWL(...)` (possibly
/// split across whitespace).
fn parse_waveform(tokens: &[&str]) -> Option<SourceWaveform> {
    let joined = tokens.join(" ");
    let upper = joined.to_ascii_uppercase();
    if let Some(rest) = upper.strip_prefix("DC") {
        return parse_value(rest.trim()).map(SourceWaveform::Dc);
    }
    if upper.starts_with("PULSE") {
        let args = numbers_in_parens(&joined)?;
        if args.len() < 6 {
            return None;
        }
        return Some(SourceWaveform::Pulse {
            v0: args[0],
            v1: args[1],
            delay: args[2],
            rise: args[3],
            fall: args[4],
            width: args[5],
        });
    }
    if upper.starts_with("PWL") {
        let args = numbers_in_parens(&joined)?;
        if args.len() % 2 != 0 {
            return None;
        }
        let points: Vec<(f64, f64)> = args.chunks(2).map(|c| (c[0], c[1])).collect();
        if !points.windows(2).all(|w| w[0].0 < w[1].0) {
            return None;
        }
        return Some(SourceWaveform::Pwl(points));
    }
    // Bare value = DC.
    parse_value(joined.trim()).map(SourceWaveform::Dc)
}

fn numbers_in_parens(text: &str) -> Option<Vec<f64>> {
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    text[open + 1..close]
        .split([' ', ','])
        .filter(|s| !s.is_empty())
        .map(parse_value)
        .collect()
}

/// Parses a number with an optional engineering suffix
/// (`MEG` before `M`, case-insensitive).
#[must_use]
pub(crate) fn parse_value(text: &str) -> Option<f64> {
    let t = text.trim();
    if t.is_empty() {
        return None;
    }
    let upper = t.to_ascii_uppercase();
    const SUFFIXES: [(&str, f64); 10] = [
        ("MEG", 1e6),
        ("T", 1e12),
        ("G", 1e9),
        ("K", 1e3),
        ("M", 1e-3),
        ("U", 1e-6),
        ("N", 1e-9),
        ("P", 1e-12),
        ("F", 1e-15),
        ("A", 1e-18),
    ];
    for (suffix, scale) in SUFFIXES {
        if let Some(mantissa) = upper.strip_suffix(suffix) {
            // Avoid eating the exponent marker of scientific notation
            // (e.g. `1e-9` ends with neither a pure number nor suffix).
            if let Ok(v) = mantissa.parse::<f64>() {
                return Some(v * scale);
            }
        }
    }
    upper.parse::<f64>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use units::{Time, Voltage};

    #[test]
    fn value_suffixes() {
        assert_eq!(parse_value("5k"), Some(5000.0));
        assert_eq!(parse_value("1.2f"), Some(1.2e-15));
        assert_eq!(parse_value("70u"), Some(70e-6));
        assert_eq!(parse_value("3meg"), Some(3e6));
        assert_eq!(parse_value("2.5"), Some(2.5));
        assert_eq!(parse_value("1e-9"), Some(1e-9));
        assert_eq!(parse_value("100P"), Some(100e-12));
        assert_eq!(parse_value(""), None);
        assert_eq!(parse_value("abc"), None);
    }

    #[test]
    fn parse_simple_deck_and_solve() {
        let deck = "\
* a divider
V1 in 0 DC 2.0
R1 in mid 1k
R2 mid 0 3k
.END
";
        let mut ckt = parse(deck, &DeckContext::default()).expect("parse");
        let mid = ckt.find_node("mid").expect("mid exists");
        let op = analysis::op(&mut ckt).expect("op");
        assert!((op.voltage(mid) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn round_trip_preserves_topology() {
        use mtj::{Mtj, MtjParams, MtjState, WritePolarity};
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let tech = Technology::tsmc40lp();
        ckt.add_voltage_source(
            "V1",
            a,
            Circuit::GROUND,
            SourceWaveform::pulse(
                Voltage::ZERO,
                Voltage::from_volts(1.1),
                Time::from_pico_seconds(100.0),
                Time::from_pico_seconds(10.0),
                Time::from_pico_seconds(10.0),
                Time::from_pico_seconds(200.0),
            ),
        )
        .expect("V1");
        ckt.add_resistor("R1", a, b, Resistance::from_kilo_ohms(5.0))
            .expect("R1");
        ckt.add_capacitor(
            "C1",
            b,
            Circuit::GROUND,
            Capacitance::from_femto_farads(2.0),
        )
        .expect("C1");
        ckt.add_nmos(
            "M1",
            b,
            a,
            Circuit::GROUND,
            &tech,
            Length::from_nano_meters(200.0),
        )
        .expect("M1");
        ckt.add_mtj(
            "MTJ1",
            a,
            b,
            Mtj::new(
                MtjParams::date2018(),
                MtjState::AntiParallel,
                WritePolarity::PositiveSetsParallel,
            ),
        )
        .expect("MTJ1");

        let text = write(&ckt, "round trip");
        let back = parse(&text, &DeckContext::default()).expect("parse back");
        assert_eq!(back.devices().len(), ckt.devices().len());
        assert_eq!(back.transistor_count(), 1);
        assert_eq!(back.mtj_state("MTJ1"), Some(MtjState::AntiParallel));
        // And the reparsed circuit simulates.
        let mut back = back;
        let _ = analysis::transient(
            &mut back,
            Time::from_nano_seconds(1.0),
            Time::from_pico_seconds(10.0),
        )
        .expect("transient");
    }

    #[test]
    fn pwl_and_current_sources_parse() {
        let deck = "\
I1 0 a DC 70u
V2 b 0 PWL(0 0 1n 1.1 2n 0)
R1 a 0 1k
R2 b 0 1k
.END
";
        let ckt = parse(deck, &DeckContext::default()).expect("parse");
        assert_eq!(ckt.devices().len(), 4);
        let wave = ckt
            .devices()
            .iter()
            .find_map(|d| match d {
                Device::VoltageSource { name, wave, .. } if name == "V2" => Some(wave.clone()),
                _ => None,
            })
            .expect("V2");
        assert!((wave.value_at(1e-9) - 1.1).abs() < 1e-12);
        assert!((wave.value_at(0.5e-9) - 0.55).abs() < 1e-12);
    }

    #[test]
    fn malformed_cards_are_rejected_with_context() {
        let ctx = DeckContext::default();
        for (deck, needle) in [
            ("R1 a 0\n.END", "expected R"),
            ("Q1 a b c\n.END", "unknown element"),
            ("R1 a 0 fast\n.END", "bad value"),
            ("M1 d g s BJT\n.END", "unknown model"),
            ("X1 a b RES\n.END", "MTJ"),
            ("V1 a 0 PULSE(1 2)\n.END", "bad waveform"),
        ] {
            let err = parse(deck, &ctx).expect_err(deck);
            assert!(err.to_string().contains(needle), "{deck}: {err}");
        }
    }

    #[test]
    fn comments_blank_lines_and_dot_cards_are_skipped() {
        let deck = "\
* title

.TRAN 1p 1n
R1 a 0 1k
.END
R2 b 0 1k
";
        let ckt = parse(deck, &DeckContext::default()).expect("parse");
        // R2 comes after .END and is ignored.
        assert_eq!(ckt.devices().len(), 1);
    }

    #[test]
    fn mosfet_defaults_and_params() {
        let deck = "M1 d g 0 PMOS W=400n\n.END";
        let ckt = parse(deck, &DeckContext::default()).expect("parse");
        match &ckt.devices()[0] {
            Device::Mosfet { model, w, l, .. } => {
                assert_eq!(model.kind, MosfetKind::Pmos);
                assert!((w - 400e-9).abs() < 1e-15);
                assert!((l - 40e-9).abs() < 1e-15);
            }
            other => panic!("expected mosfet, got {other:?}"),
        }
    }

    /// `nan`, `inf` and `1e400` (which overflows to infinity) all parse
    /// as numbers; a MOSFET card carrying one as its width is rejected
    /// with the device named, not accepted to fail later as a singular
    /// matrix.
    #[test]
    fn non_finite_mosfet_width_is_rejected() {
        for w in ["nan", "inf", "1e400"] {
            let deck = format!("V1 d 0 DC 1.1\nM1 d d 0 NMOS W={w}\n.END");
            let err = parse(&deck, &DeckContext::default()).expect_err(&deck);
            assert!(
                matches!(&err, SpiceError::InvalidDevice { device, .. } if device == "M1"),
                "{deck}: {err}"
            );
        }
    }

    #[test]
    fn subckt_blocks_parse_and_flatten() {
        let deck = "\
* two chained dividers
.SUBCKT DIV2 in out
R1 in out 1k
R2 out 0 1k
.ENDS DIV2
V1 top 0 DC 2.0
XU1 top mid DIV2
XU2 mid out DIV2
.END
";
        let parsed = parse_library(deck, &DeckContext::default()).expect("parse");
        assert_eq!(parsed.subckts.len(), 1);
        assert_eq!(parsed.subckts[0].ports(), ["in", "out"]);
        let mut ckt = parsed.circuit;
        assert!(ckt.devices().iter().any(|d| d.name() == "U1.R1"));
        assert!(ckt.devices().iter().any(|d| d.name() == "U2.R2"));
        let op = analysis::op(&mut ckt).expect("op");
        let mid = ckt.find_node("mid").expect("mid");
        // Loaded division: R2 of U1 parallels U2's 2k series path.
        let vm = 2.0 * (2.0 / 3.0) / (1.0 + 2.0 / 3.0);
        assert!((op.voltage(mid) - vm).abs() < 1e-9);
    }

    #[test]
    fn subckt_instances_nest_inside_definitions() {
        let deck = "\
.SUBCKT DIV2 in out
R1 in out 1k
R2 out 0 1k
.ENDS
.SUBCKT DIV4 in out
XA in m DIV2
XB m out DIV2
.ENDS
V1 top 0 DC 2.0
XU top out DIV4
.END
";
        let parsed = parse_library(deck, &DeckContext::default()).expect("parse");
        assert_eq!(parsed.subckts.len(), 2);
        assert_eq!(parsed.subckts[1].child_instances().len(), 2);
        let ckt = parsed.circuit;
        assert!(ckt.devices().iter().any(|d| d.name() == "U.A.R1"));
        assert!(ckt.find_node("U.m").is_some());
    }

    #[test]
    fn subckt_round_trips_through_write() {
        let deck = "\
.SUBCKT CELL a b
R1 a m 2k
C1 m 0 1e-15
M1 b a 0 NMOS W=2e-7 L=4e-8
XJ1 m b MTJ STATE=AP POL=+P
.ENDS CELL
.END
";
        let parsed = parse_library(deck, &DeckContext::default()).expect("parse");
        let text = write_subckt(&parsed.subckts[0]);
        let reparsed = parse_library(&text, &DeckContext::default()).expect("reparse");
        let (a, b) = (&parsed.subckts[0], &reparsed.subckts[0]);
        assert_eq!(a.name(), b.name());
        assert_eq!(a.ports(), b.ports());
        assert_eq!(a.body().devices().len(), b.body().devices().len());
        assert_eq!(a.flattened_device_count(), b.flattened_device_count());
        assert_eq!(a.flattened_internal_count(), b.flattened_internal_count());
    }

    #[test]
    fn duplicate_subckt_names_are_rejected_with_span() {
        let deck = "\
.SUBCKT S a
R1 a 0 1k
.ENDS
.SUBCKT S a
R1 a 0 2k
.ENDS
.END
";
        let err = parse(deck, &DeckContext::default()).expect_err("duplicate");
        match err {
            SpiceError::DeckSyntax { line, ref reason } => {
                assert_eq!(line, 4);
                assert!(reason.contains("duplicate"), "{reason}");
            }
            other => panic!("expected DeckSyntax, got {other:?}"),
        }
    }

    #[test]
    fn unterminated_subckt_is_rejected_with_span() {
        for deck in [".SUBCKT S a\nR1 a 0 1k\n.END\n", ".SUBCKT S a\nR1 a 0 1k\n"] {
            let err = parse(deck, &DeckContext::default()).expect_err("unterminated");
            match err {
                SpiceError::DeckSyntax { line, ref reason } => {
                    assert_eq!(line, 1, "span should point at the opening line");
                    assert!(reason.contains("unterminated"), "{reason}");
                }
                other => panic!("expected DeckSyntax, got {other:?}"),
            }
        }
    }

    #[test]
    fn structural_subckt_errors_are_spanned() {
        let ctx = DeckContext::default();
        for (deck, needle) in [
            (".ENDS\n.END", "without an open"),
            (".SUBCKT S a\n.ENDS T\n.END", "does not match"),
            ("X1 a b NOPE\n.END", "unknown subckt"),
            (
                ".SUBCKT S a\nR1 a 0 1k\n.ENDS\nX1 a S\nX1 b S\n.END",
                "already in use",
            ),
            (
                ".SUBCKT S a\n.SUBCKT T b\n.ENDS\n.ENDS\n.END",
                "nested .subckt",
            ),
            (".SUBCKT S a a\n.ENDS\n.END", "duplicate port"),
        ] {
            let err = parse(deck, &ctx).expect_err(deck);
            assert!(
                matches!(err, SpiceError::DeckSyntax { .. }),
                "{deck}: {err:?}"
            );
            assert!(err.to_string().contains(needle), "{deck}: {err}");
        }
    }
}
