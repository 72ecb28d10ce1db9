//! Synthetic equivalents of the paper's benchmark circuits.
//!
//! Table III evaluates 13 designs: seven ISCAS'89 sequential benchmarks,
//! five ITC'99 benchmarks and the or1200 processor core. Their RTL is
//! not redistributable, so [`generate`] builds a *synthetic stand-in*
//! per benchmark with the published flip-flop count and a combinational
//! cloud of the published order of magnitude, wired with Rent-style
//! locality (mostly intra-module connections, register banks assigned to
//! consecutive modules). What the downstream flow consumes — flip-flop
//! count and post-placement flip-flop proximity statistics — is
//! preserved by this construction; see DESIGN.md's substitution table.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::ir::{CellKind, NetId, Netlist};

/// Which suite a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Suite {
    /// ISCAS'89 sequential benchmarks.
    Iscas89,
    /// ITC'99 benchmarks.
    Itc99,
    /// The OpenRISC or1200 core.
    OpenRisc,
}

/// Static description of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchmarkSpec {
    /// Design name as the paper spells it.
    pub name: &'static str,
    /// Suite.
    pub(crate) suite: Suite,
    /// Flip-flop count — Table III column 2, reproduced exactly.
    pub flip_flops: usize,
    /// Combinational gate count (published order of magnitude).
    pub(crate) gates: usize,
    /// Number of 2-bit merges the paper found (Table III column 3),
    /// used by the replay mode of the system-level evaluation.
    pub paper_merged_pairs: usize,
}

/// The 13 benchmarks of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Benchmark;

impl Benchmark {
    /// All benchmarks in the paper's row order.
    pub const ALL: [BenchmarkSpec; 13] = [
        BenchmarkSpec {
            name: "s344",
            suite: Suite::Iscas89,
            flip_flops: 15,
            gates: 160,
            paper_merged_pairs: 5,
        },
        BenchmarkSpec {
            name: "s838",
            suite: Suite::Iscas89,
            flip_flops: 32,
            gates: 446,
            paper_merged_pairs: 12,
        },
        BenchmarkSpec {
            name: "s1423",
            suite: Suite::Iscas89,
            flip_flops: 74,
            gates: 657,
            paper_merged_pairs: 23,
        },
        BenchmarkSpec {
            name: "s5378",
            suite: Suite::Iscas89,
            flip_flops: 176,
            gates: 2779,
            paper_merged_pairs: 64,
        },
        BenchmarkSpec {
            name: "s13207",
            suite: Suite::Iscas89,
            flip_flops: 627,
            gates: 7951,
            paper_merged_pairs: 259,
        },
        BenchmarkSpec {
            name: "s38584",
            suite: Suite::Iscas89,
            flip_flops: 1424,
            gates: 19253,
            paper_merged_pairs: 473,
        },
        BenchmarkSpec {
            name: "s35932",
            suite: Suite::Iscas89,
            flip_flops: 1728,
            gates: 16065,
            paper_merged_pairs: 472,
        },
        BenchmarkSpec {
            name: "b14",
            suite: Suite::Itc99,
            flip_flops: 215,
            gates: 9767,
            paper_merged_pairs: 90,
        },
        BenchmarkSpec {
            name: "b15",
            suite: Suite::Itc99,
            flip_flops: 416,
            gates: 8367,
            paper_merged_pairs: 189,
        },
        BenchmarkSpec {
            name: "b17",
            suite: Suite::Itc99,
            flip_flops: 1317,
            gates: 30777,
            paper_merged_pairs: 542,
        },
        BenchmarkSpec {
            name: "b18",
            suite: Suite::Itc99,
            flip_flops: 3020,
            gates: 111_241,
            paper_merged_pairs: 1260,
        },
        BenchmarkSpec {
            name: "b19",
            suite: Suite::Itc99,
            flip_flops: 6042,
            gates: 224_624,
            paper_merged_pairs: 2530,
        },
        BenchmarkSpec {
            name: "or1200",
            suite: Suite::OpenRisc,
            flip_flops: 2887,
            gates: 40_000,
            paper_merged_pairs: 1269,
        },
    ];
}

/// Looks a benchmark up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<BenchmarkSpec> {
    Benchmark::ALL.iter().copied().find(|b| b.name == name)
}

/// Cells per locality module in the synthetic construction.
const MODULE_SIZE: usize = 24;
/// Flip-flops arrive in register banks of this size.
const REGISTER_BANK: usize = 8;

/// Generates the synthetic netlist for a benchmark at full size.
#[must_use]
pub fn generate(spec: BenchmarkSpec) -> Netlist {
    generate_scaled(spec, usize::MAX)
}

/// Generates the synthetic netlist with the combinational cloud capped
/// at `max_gates` (flip-flop count is never scaled — it is the quantity
/// Table III reproduces).
///
/// The construction is deterministic: the RNG seed derives from the
/// benchmark name.
#[must_use]
pub fn generate_scaled(spec: BenchmarkSpec, max_gates: usize) -> Netlist {
    let gates = spec.gates.min(max_gates);
    let mut rng = StdRng::seed_from_u64(seed_from_name(spec.name));
    let mut netlist = Netlist::new(spec.name);

    // Primary inputs.
    let n_inputs = (gates / 100).clamp(4, 256);
    let input_nets: Vec<NetId> = (0..n_inputs)
        .map(|k| {
            let net = netlist.add_net(&format!("pi{k}"));
            netlist.add_instance(&format!("PI{k}"), CellKind::Input, vec![], Some(net));
            net
        })
        .collect();

    // Plan the modules: total placeable cells split into locality groups,
    // with flip-flops assigned in banks to consecutive modules.
    let total_cells = gates + spec.flip_flops;
    let module_count = total_cells.div_ceil(MODULE_SIZE).max(1);
    let mut ff_per_module = vec![0usize; module_count];
    let mut remaining_ffs = spec.flip_flops;
    let mut module_cursor = rng.random_range(0..module_count);
    while remaining_ffs > 0 {
        let bank = REGISTER_BANK.min(remaining_ffs);
        ff_per_module[module_cursor] += bank;
        remaining_ffs -= bank;
        // Banks land on consecutive modules with occasional jumps, the
        // register-file-plus-scattered-state pattern of real designs.
        module_cursor = if rng.random_bool(0.8) {
            (module_cursor + 1) % module_count
        } else {
            rng.random_range(0..module_count)
        };
    }

    // Create instances module by module; wiring comes afterwards so
    // every output net exists first.
    let mut module_outputs: Vec<Vec<NetId>> = vec![Vec::new(); module_count];
    let mut all_outputs: Vec<NetId> = input_nets.clone();
    let mut pending: Vec<(usize, CellKind, NetId)> = Vec::new(); // (module, kind, out)
    let mut gate_budget = gates;
    let mut idx = 0usize;
    for module in 0..module_count {
        let mut cells_here = MODULE_SIZE.min(gate_budget + spec.flip_flops);
        let ffs_here = ff_per_module[module];
        for k in 0..ffs_here {
            let out = netlist.add_net(&format!("q{module}_{k}"));
            pending.push((module, CellKind::Dff, out));
            module_outputs[module].push(out);
            all_outputs.push(out);
            cells_here = cells_here.saturating_sub(1);
        }
        let gates_here = cells_here.min(gate_budget);
        gate_budget -= gates_here;
        for _ in 0..gates_here {
            let kind = random_gate(&mut rng);
            let out = netlist.add_net(&format!("n{idx}"));
            idx += 1;
            pending.push((module, kind, out));
            module_outputs[module].push(out);
            all_outputs.push(out);
        }
    }
    // Any leftover combinational budget goes to the last module.
    while gate_budget > 0 {
        let kind = random_gate(&mut rng);
        let out = netlist.add_net(&format!("n{idx}"));
        idx += 1;
        pending.push((module_count - 1, kind, out));
        module_outputs[module_count - 1].push(out);
        all_outputs.push(out);
        gate_budget -= 1;
    }

    // Wire and instantiate: inputs drawn with Rent-style locality. The
    // combinational part must stay acyclic (as in any mapped synchronous
    // design), so a gate may only source primary inputs, flip-flop
    // outputs (registered, so no combinational path), or gates wired
    // before it; flip-flop D-inputs may come from anywhere. `wired`
    // mirrors `module_outputs` but grows as wiring proceeds.
    let mut wired: Vec<Vec<NetId>> = (0..module_count)
        .map(|m| {
            module_outputs[m]
                .iter()
                .copied()
                .take(ff_per_module[m])
                .collect()
        })
        .collect();
    let registered: Vec<NetId> = input_nets
        .iter()
        .copied()
        .chain(wired.iter().flatten().copied())
        .collect();
    let mut wired_global = registered.clone();
    for (k, (module, kind, out)) in pending.iter().enumerate() {
        let inputs: Vec<NetId> = (0..kind.input_count())
            .map(|_| {
                if kind.is_flip_flop() {
                    pick_source(
                        &mut rng,
                        *module,
                        &module_outputs,
                        &all_outputs,
                        &input_nets,
                    )
                } else {
                    pick_source(&mut rng, *module, &wired, &wired_global, &input_nets)
                }
            })
            .collect();
        let prefix = if kind.is_flip_flop() { "FF" } else { "U" };
        netlist.add_instance(&format!("{prefix}{k}"), *kind, inputs, Some(*out));
        if !kind.is_flip_flop() {
            wired[*module].push(*out);
            wired_global.push(*out);
        }
    }

    // Primary outputs sample arbitrary internal nets.
    let n_outputs = (gates / 120).clamp(4, 256);
    for k in 0..n_outputs {
        let net = all_outputs[rng.random_range(0..all_outputs.len())];
        netlist.add_instance(&format!("PO{k}"), CellKind::Output, vec![net], None);
    }

    netlist
}

/// Locality-weighted source selection: 78 % same module, 15 % a
/// neighbouring module, 7 % anywhere (global nets / primary inputs).
fn pick_source(
    rng: &mut StdRng,
    module: usize,
    module_outputs: &[Vec<NetId>],
    all_outputs: &[NetId],
    input_nets: &[NetId],
) -> NetId {
    let roll: f64 = rng.random();
    let from = |pool: &[NetId], rng: &mut StdRng| pool[rng.random_range(0..pool.len())];
    if roll < 0.78 && !module_outputs[module].is_empty() {
        return from(&module_outputs[module], rng);
    }
    if roll < 0.93 {
        let neighbor = if rng.random_bool(0.5) && module + 1 < module_outputs.len() {
            module + 1
        } else {
            module.saturating_sub(1)
        };
        if !module_outputs[neighbor].is_empty() {
            return from(&module_outputs[neighbor], rng);
        }
    }
    if roll < 0.97 || all_outputs.is_empty() {
        return from(input_nets, rng);
    }
    from(all_outputs, rng)
}

/// Combinational kind distribution of a typical mapped netlist.
fn random_gate(rng: &mut StdRng) -> CellKind {
    let roll: f64 = rng.random();
    match roll {
        r if r < 0.30 => CellKind::Nand2,
        r if r < 0.50 => CellKind::Inv,
        r if r < 0.65 => CellKind::Nor2,
        r if r < 0.75 => CellKind::And2,
        r if r < 0.85 => CellKind::Or2,
        r if r < 0.90 => CellKind::Xor2,
        _ => CellKind::Buf,
    }
}

/// Deterministic 64-bit seed from a benchmark name (FNV-1a).
fn seed_from_name(name: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_row_order_and_counts() {
        assert_eq!(Benchmark::ALL.len(), 13);
        assert_eq!(Benchmark::ALL[0].name, "s344");
        assert_eq!(Benchmark::ALL[0].flip_flops, 15);
        assert_eq!(Benchmark::ALL[12].name, "or1200");
        assert_eq!(Benchmark::ALL[12].flip_flops, 2887);
        // The paper's merge counts never exceed half the flip-flops.
        for b in Benchmark::ALL {
            assert!(b.paper_merged_pairs * 2 <= b.flip_flops, "{}", b.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("b19").unwrap().flip_flops, 6042);
        assert!(by_name("s000").is_none());
    }

    #[test]
    fn generated_ff_count_is_exact() {
        for spec in &Benchmark::ALL[..5] {
            let n = generate_scaled(*spec, 2000);
            assert_eq!(n.flip_flop_count(), spec.flip_flops, "{}", spec.name);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = by_name("s5378").unwrap();
        let a = generate_scaled(spec, 1000);
        let b = generate_scaled(spec, 1000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_benchmarks_differ() {
        let a = generate_scaled(by_name("s344").unwrap(), 500);
        let b = generate_scaled(by_name("s838").unwrap(), 500);
        assert_ne!(a, b);
    }

    #[test]
    fn scaling_caps_gates_not_ffs() {
        let spec = by_name("s13207").unwrap();
        let n = generate_scaled(spec, 1000);
        assert_eq!(n.flip_flop_count(), 627);
        let gates = n
            .instances()
            .iter()
            .filter(|i| !i.kind.is_port() && !i.kind.is_flip_flop())
            .count();
        assert!(gates <= 1000);
    }

    #[test]
    fn full_generation_matches_spec_sizes() {
        let spec = by_name("s344").unwrap();
        let n = generate(spec);
        assert_eq!(n.flip_flop_count(), 15);
        let gates = n
            .instances()
            .iter()
            .filter(|i| !i.kind.is_port() && !i.kind.is_flip_flop())
            .count();
        assert_eq!(gates, 160);
    }

    #[test]
    fn every_instance_input_is_a_real_net() {
        let n = generate_scaled(by_name("s838").unwrap(), 500);
        for inst in n.instances() {
            for net in &inst.inputs {
                assert!(net.0 < n.net_count());
            }
        }
    }

    #[test]
    fn connectivity_is_mostly_local() {
        // The Rent-style construction must keep most connections inside
        // or adjacent to a module — verified indirectly: the average
        // net fanout stays small (locality prevents mega-nets).
        let n = generate_scaled(by_name("s5378").unwrap(), 2779);
        let pins = n.net_pins();
        let max_fanout = pins.iter().map(Vec::len).max().unwrap_or(0);
        assert!(max_fanout < n.instance_count() / 4, "fanout {max_fanout}");
    }
}
