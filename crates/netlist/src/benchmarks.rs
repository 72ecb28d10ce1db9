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
//!
//! The construction runs on module ranges. Nets are created in output
//! order, so cell `k` drives net `n_inputs + k` and each module's
//! outputs are one contiguous range of net handles (flip-flops first).
//! A module's source pool is that range, or the prefix of it wired so
//! far; only the design-wide wired pool is a vector. Every name goes
//! into the netlist's name buffers as a static prefix plus decimal
//! digits (`pi7`, `q3_1`, `n42`, `U42`, …) without `core::fmt`, into
//! buffers reserved up front.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::ir::{decimal_len, CellKind, Instance, NameBuf, NetId, Netlist};

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
    CellPlan::new(spec, max_gates).wire(spec)
}

/// The first phase of the construction: the primary inputs, the
/// module plan and every cell's kind and output net, before any wiring.
///
/// Nets are created in output order — the primary inputs' nets
/// `0..n_inputs`, then cell `k`'s output net `n_inputs + k` — so module
/// `m`'s outputs are the one contiguous range `starts[m]..starts[m + 1]`,
/// its flip-flops first and then its gates. A pool of candidate source
/// nets is then a range (or a prefix of one), not a vector.
#[derive(Debug)]
struct CellPlan {
    /// The generator's RNG, past every planning draw.
    rng: StdRng,
    /// Combinational gate count after the cap.
    gates: usize,
    /// Primary inputs (nets `0..n_inputs`).
    n_inputs: usize,
    /// First net of each module's range, plus the end of the last.
    starts: Vec<usize>,
    /// Flip-flops leading each module's range.
    ffs: Vec<usize>,
    /// Kind of cell `k`, which drives net `n_inputs + k`.
    kinds: Vec<CellKind>,
    /// Every net's name, in net order.
    nets: NameBuf,
}

impl CellPlan {
    fn new(spec: BenchmarkSpec, max_gates: usize) -> Self {
        let gates = spec.gates.min(max_gates);
        let mut rng = StdRng::seed_from_u64(seed_from_name(spec.name));
        let n_inputs = (gates / 100).clamp(4, 256);

        // Plan the modules: total placeable cells split into locality
        // groups, with flip-flops assigned in banks to consecutive
        // modules.
        let total_cells = gates + spec.flip_flops;
        let module_count = total_cells.div_ceil(MODULE_SIZE).max(1);
        let mut ffs = vec![0usize; module_count];
        let mut remaining_ffs = spec.flip_flops;
        let mut module_cursor = rng.random_range(0..module_count);
        while remaining_ffs > 0 {
            let bank = REGISTER_BANK.min(remaining_ffs);
            ffs[module_cursor] += bank;
            remaining_ffs -= bank;
            // Banks land on consecutive modules with occasional jumps,
            // the register-file-plus-scattered-state pattern of real
            // designs.
            module_cursor = if rng.random_bool(0.8) {
                (module_cursor + 1) % module_count
            } else {
                rng.random_range(0..module_count)
            };
        }

        let most_ffs = ffs.iter().copied().max().unwrap_or(0);
        let mut nets = NameBuf::with_capacity(
            n_inputs + total_cells,
            numbered_bytes("pi", n_inputs)
                + spec.flip_flops
                    * ("q_".len()
                        + decimal_len(module_count - 1)
                        + decimal_len(most_ffs.saturating_sub(1)))
                + numbered_bytes("n", gates),
        );
        for k in 0..n_inputs {
            nets.push_numbered("pi", k);
        }

        // Create the cells module by module; wiring comes afterwards so
        // every output net exists first.
        let mut starts = Vec::with_capacity(module_count + 1);
        let mut kinds = Vec::with_capacity(total_cells);
        let mut gate_budget = gates;
        let mut idx = 0usize;
        for (module, &ffs_here) in ffs.iter().enumerate() {
            starts.push(n_inputs + kinds.len());
            for k in 0..ffs_here {
                nets.push_numbered_pair("q", module, k);
                kinds.push(CellKind::Dff);
            }
            // Any leftover combinational budget goes to the last module.
            let gates_here = if module + 1 == module_count {
                gate_budget
            } else {
                MODULE_SIZE
                    .min(gate_budget + spec.flip_flops)
                    .saturating_sub(ffs_here)
                    .min(gate_budget)
            };
            gate_budget -= gates_here;
            for _ in 0..gates_here {
                kinds.push(random_gate(&mut rng));
                nets.push_numbered("n", idx);
                idx += 1;
            }
        }
        starts.push(n_inputs + kinds.len());

        Self {
            rng,
            gates,
            n_inputs,
            starts,
            ffs,
            kinds,
            nets,
        }
    }

    /// The second phase: wires every cell and adds the ports.
    ///
    /// Inputs are drawn with Rent-style locality. The combinational
    /// part must stay acyclic (as in any mapped synchronous design), so
    /// a gate may only source primary inputs, flip-flop outputs
    /// (registered, so no combinational path), or gates wired before
    /// it; flip-flop D-inputs may come from anywhere. A module's wired
    /// nets are a prefix of its range that grows as its gates are
    /// wired; the design-wide wired pool, in wiring order, is the one
    /// pool kept as a vector.
    fn wire(self, spec: BenchmarkSpec) -> Netlist {
        let Self {
            mut rng,
            gates,
            n_inputs,
            starts,
            ffs,
            kinds,
            nets,
        } = self;
        let n_nets = nets.len();
        let n_outputs = (gates / 120).clamp(4, 256);
        let module_len: Vec<usize> = starts.windows(2).map(|w| w[1] - w[0]).collect();
        let mut wired = ffs.clone();
        let mut wired_global: Vec<NetId> = Vec::with_capacity(n_nets);
        wired_global.extend((0..n_inputs).map(NetId::from_index));
        for (&start, &ffs_here) in starts.iter().zip(&ffs) {
            wired_global.extend((start..start + ffs_here).map(NetId::from_index));
        }

        let mut names = NameBuf::with_capacity(
            n_nets + n_outputs,
            numbered_bytes("PI", n_inputs)
                + numbered_bytes("FF", kinds.len())
                + numbered_bytes("PO", n_outputs),
        );
        let mut instances = Vec::with_capacity(n_nets + n_outputs);
        for k in 0..n_inputs {
            names.push_numbered("PI", k);
            instances.push(Instance::new(
                CellKind::Input,
                &[],
                Some(NetId::from_index(k)),
            ));
        }
        for module in 0..ffs.len() {
            for out in starts[module]..starts[module + 1] {
                let k = out - n_inputs;
                let kind = kinds[k];
                let mut inputs = [NetId(0); 2];
                let inputs = &mut inputs[..kind.input_count()];
                for input in inputs.iter_mut() {
                    *input = if kind.is_flip_flop() {
                        // Whole module ranges; the global pool is every
                        // net, net `i` being the `i`-th output created.
                        let (len, all) = (n_nets, NetId::from_index);
                        pick_source(&mut rng, &starts, &module_len, module, n_inputs, len, all)
                    } else {
                        // Wired prefixes and the wired pool.
                        let (len, global) = (wired_global.len(), |i| wired_global[i]);
                        pick_source(&mut rng, &starts, &wired, module, n_inputs, len, global)
                    };
                }
                let out = NetId::from_index(out);
                if kind.is_flip_flop() {
                    names.push_numbered("FF", k);
                } else {
                    names.push_numbered("U", k);
                    wired[module] += 1;
                    wired_global.push(out);
                }
                instances.push(Instance::new(kind, inputs, Some(out)));
            }
        }

        // Primary outputs sample arbitrary internal nets.
        for k in 0..n_outputs {
            let net = NetId::from_index(rng.random_range(0..n_nets));
            names.push_numbered("PO", k);
            instances.push(Instance::new(CellKind::Output, &[net], None));
        }

        Netlist::from_parts(spec.name, nets, names, instances)
    }
}

/// Upper bound on the bytes of the names `{prefix}0` to
/// `{prefix}{count - 1}`.
fn numbered_bytes(prefix: &str, count: usize) -> usize {
    count * (prefix.len() + decimal_len(count.saturating_sub(1)))
}

/// Locality-weighted source selection: 78 % same module, 15 % a
/// neighbouring module, 7 % anywhere (global nets / primary inputs).
///
/// Module `m`'s pool is its first `counts[m]` nets, from net
/// `starts[m]`; the primary inputs are nets `0..n_inputs`; the global
/// pool has `global_len` nets, `global(i)` the `i`-th.
fn pick_source(
    rng: &mut StdRng,
    starts: &[usize],
    counts: &[usize],
    module: usize,
    n_inputs: usize,
    global_len: usize,
    global: impl Fn(usize) -> NetId,
) -> NetId {
    let roll: f64 = rng.random();
    let from =
        |m: usize, rng: &mut StdRng| NetId::from_index(starts[m] + rng.random_range(0..counts[m]));
    if roll < 0.78 && counts[module] > 0 {
        return from(module, rng);
    }
    if roll < 0.93 {
        let neighbor = if rng.random_bool(0.5) && module + 1 < counts.len() {
            module + 1
        } else {
            module.saturating_sub(1)
        };
        if counts[neighbor] > 0 {
            return from(neighbor, rng);
        }
    }
    if roll < 0.97 || global_len == 0 {
        return NetId::from_index(rng.random_range(0..n_inputs));
    }
    global(rng.random_range(0..global_len))
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
            for net in inst.inputs() {
                assert!(net.index() < n.net_count());
            }
        }
    }

    #[test]
    fn cell_outputs_follow_net_order_in_contiguous_module_ranges() {
        // The flat construction relies on both: cell `k` drives net
        // `n_inputs + k`, and each module's outputs are one range with
        // its flip-flops first.
        for (name, cap) in [("s344", usize::MAX), ("s13207", 2000), ("b14", 9767)] {
            let spec = by_name(name).unwrap();
            let plan = CellPlan::new(spec, cap);
            let n_inputs = plan.n_inputs;
            let cells = plan.kinds.len();
            assert_eq!(plan.starts.first(), Some(&n_inputs), "{name}");
            assert_eq!(plan.starts.last(), Some(&(n_inputs + cells)), "{name}");
            for (m, w) in plan.starts.windows(2).enumerate() {
                assert!(w[0] <= w[1], "{name}: module {m}");
                let kinds = &plan.kinds[w[0] - n_inputs..w[1] - n_inputs];
                let (ffs, gates) = kinds.split_at(plan.ffs[m]);
                assert!(ffs.iter().all(|k| k.is_flip_flop()), "{name}: module {m}");
                assert!(
                    gates.iter().all(|k| !k.is_flip_flop()),
                    "{name}: module {m}"
                );
                for k in 0..ffs.len() {
                    assert_eq!(plan.nets.get(w[0] + k), format!("q{m}_{k}"));
                }
            }
            let kinds = plan.kinds.clone();
            let n = plan.wire(spec);
            assert_eq!(n, generate_scaled(spec, cap), "{name}");
            let instances = n.instances();
            assert!(instances[..n_inputs]
                .iter()
                .all(|i| i.kind == CellKind::Input));
            for (k, kind) in kinds.iter().enumerate() {
                let inst = &instances[n_inputs + k];
                assert_eq!(inst.kind, *kind, "{name}: cell {k}");
                assert_eq!(inst.output, Some(NetId::from_index(n_inputs + k)));
            }
            assert_eq!(n.net_count(), n_inputs + cells);
        }
    }

    #[test]
    fn connectivity_is_mostly_local() {
        // The Rent-style construction must keep most connections inside
        // or adjacent to a module — verified indirectly: the average
        // net fanout stays small (locality prevents mega-nets).
        let n = generate_scaled(by_name("s5378").unwrap(), 2779);
        let pins = n.net_pins();
        let max_fanout = pins.iter().map(<[_]>::len).max().unwrap_or(0);
        assert!(max_fanout < n.instance_count() / 4, "fanout {max_fanout}");
    }
}
