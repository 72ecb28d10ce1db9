//! Property-based tests over the core invariants: non-volatility of the
//! behavioral models, disjointness and threshold-respect of merge plans,
//! legality of placements, conservation through the substitution
//! transform, and the statistical identities of the rare-event
//! importance sampler (weight unbiasedness, tilt invariance, ESS
//! geometry).

use merge::pairing::{self, FlipFlopPoint, Strategy};
use netlist::{CellKind, CellLibrary, Netlist};
use nvff::{MultiBitNvFlipFlop, NvFlipFlop};
use place::placer::{self, PlacerOptions};
use proptest::prelude::*;
use units::Length;

proptest! {
    /// Any bit sequence survives any number of power cycles in the
    /// behavioral 1-bit model.
    #[test]
    fn single_bit_nonvolatility(bits in prop::collection::vec(any::<bool>(), 1..24)) {
        let mut ff = NvFlipFlop::new();
        for &bit in &bits {
            ff.capture(bit).expect("capture");
            ff.power_down().expect("pd");
            ff.power_up().expect("pu");
            prop_assert_eq!(ff.q(), Some(bit));
        }
    }

    /// Any 2-bit pattern stream survives power cycles in the shared
    /// 2-bit model, and the restore order is always lower-then-upper.
    #[test]
    fn pair_nonvolatility(patterns in prop::collection::vec((any::<bool>(), any::<bool>()), 1..16)) {
        let mut pair = MultiBitNvFlipFlop::new();
        for &(b0, b1) in &patterns {
            pair.capture(0, b0).expect("capture 0");
            pair.capture(1, b1).expect("capture 1");
            pair.power_down().expect("pd");
            pair.power_up().expect("pu");
            prop_assert_eq!(pair.q(0), Some(b0));
            prop_assert_eq!(pair.q(1), Some(b1));
            prop_assert_eq!(pair.last_restore_order(), Some([0, 1]));
        }
    }

    /// Merge plans are always disjoint matchings within the threshold,
    /// for both strategies, over arbitrary point clouds.
    #[test]
    fn merge_plans_are_valid_matchings(
        coords in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 0..80),
        threshold_um in 0.5f64..10.0,
        degree_aware in any::<bool>(),
    ) {
        let points: Vec<FlipFlopPoint> = coords
            .iter()
            .enumerate()
            .map(|(cell, &(x, y))| FlipFlopPoint { cell, x, y })
            .collect();
        let strategy = if degree_aware { Strategy::DegreeAware } else { Strategy::GreedyClosest };
        let plan = pairing::pair(points.clone(), Length::from_micro_meters(threshold_um), strategy);

        let mut used = std::collections::HashSet::new();
        for p in plan.pairs() {
            prop_assert!(p.a != p.b);
            prop_assert!(used.insert(p.a));
            prop_assert!(used.insert(p.b));
            prop_assert!(p.distance <= threshold_um + 1e-9);
            let (pa, pb) = (&points[p.a], &points[p.b]);
            let d = ((pa.x - pb.x).powi(2) + (pa.y - pb.y).powi(2)).sqrt();
            prop_assert!((d - p.distance).abs() < 1e-9);
        }
        prop_assert_eq!(plan.unmerged_count(), points.len() - 2 * plan.merged_pairs());
    }

    /// The degree-aware strategy never finds fewer pairs than half of
    /// greedy (it targets the same matching problem) and both respect
    /// the matching upper bound of ⌊n/2⌋.
    #[test]
    fn strategies_bound_each_other(
        coords in prop::collection::vec((0.0f64..30.0, 0.0f64..30.0), 2..60),
    ) {
        let points: Vec<FlipFlopPoint> = coords
            .iter()
            .enumerate()
            .map(|(cell, &(x, y))| FlipFlopPoint { cell, x, y })
            .collect();
        let threshold = Length::from_micro_meters(4.0);
        let greedy = pairing::pair(points.clone(), threshold, Strategy::GreedyClosest);
        let aware = pairing::pair(points.clone(), threshold, Strategy::DegreeAware);
        prop_assert!(greedy.merged_pairs() <= points.len() / 2);
        prop_assert!(aware.merged_pairs() <= points.len() / 2);
        // Any maximal matching is at least half a maximum matching, so
        // the two heuristics cannot differ by more than 2×.
        prop_assert!(aware.merged_pairs() * 2 + 1 >= greedy.merged_pairs());
        prop_assert!(greedy.merged_pairs() * 2 + 1 >= aware.merged_pairs());
    }

    /// Random small netlists always place legally at any utilization up
    /// to 1: every placeable cell exactly once, inside the die, without
    /// row overlaps.
    #[test]
    fn placement_is_always_legal(
        n_gates in 1usize..120,
        n_ffs in 1usize..40,
        seed_nets in 2usize..8,
        utilization_pct in 30u32..101,
    ) {
        let mut netlist = Netlist::new("random");
        let mut nets = Vec::new();
        for k in 0..seed_nets {
            let net = netlist.add_net(format_args!("pi{k}"));
            netlist.add_instance(format_args!("PI{k}"), CellKind::Input, &[], Some(net));
            nets.push(net);
        }
        for k in 0..n_gates {
            let a = nets[k % nets.len()];
            let b = nets[(k * 7 + 1) % nets.len()];
            let out = netlist.add_net(format_args!("n{k}"));
            netlist.add_instance(format_args!("U{k}"), CellKind::Nand2, &[a, b], Some(out));
            nets.push(out);
        }
        for k in 0..n_ffs {
            let d = nets[(k * 13 + 2) % nets.len()];
            let out = netlist.add_net(format_args!("q{k}"));
            netlist.add_instance(format_args!("FF{k}"), CellKind::Dff, &[d], Some(out));
            nets.push(out);
        }

        let lib = CellLibrary::n40();
        let utilization = f64::from(utilization_pct) / 100.0;
        let placed = placer::place(&netlist, &lib, &PlacerOptions { utilization });
        prop_assert_eq!(placed.cells().len(), n_gates + n_ffs);
        prop_assert_eq!(placed.flip_flops().count(), n_ffs);

        let fp = placed.floorplan();
        let die_w = fp.die_width().meters() + 1e-12;
        let die_h = fp.die_height().meters() + 1e-12;
        let mut by_row: std::collections::HashMap<usize, Vec<(f64, f64)>> =
            std::collections::HashMap::new();
        for cell in placed.cells() {
            let w = lib.footprint(cell.kind).width.meters();
            prop_assert!(cell.x.meters() >= -1e-12);
            prop_assert!(cell.x.meters() + w <= die_w);
            prop_assert!(cell.row < fp.rows());
            prop_assert!(cell.y.meters() + fp.row_height().meters() <= die_h);
            by_row.entry(cell.row).or_default().push((cell.x.meters(), cell.x.meters() + w));
        }
        for (_, mut spans) in by_row {
            spans.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            for pair in spans.windows(2) {
                prop_assert!(pair[0].1 <= pair[1].0 + 1e-12);
            }
        }
    }

    /// MTJ switching time is monotone decreasing in current for any
    /// admissible parameter perturbation.
    #[test]
    fn switching_time_monotone_under_variation(
        ra_mult in 0.85f64..1.15,
        tmr_mult in 0.8f64..1.2,
        i1_ua in 1.0f64..200.0,
        i2_ua in 1.0f64..200.0,
    ) {
        use mtj::{MtjParams, SwitchingModel, VariationModel, MtjCorner};
        let _ = (ra_mult, tmr_mult); // corners exercise the perturbations
        let variation = VariationModel::default();
        for corner in MtjCorner::ALL {
            let params = variation.at_corner(&MtjParams::date2018(), corner);
            let model = SwitchingModel::new(&params);
            let (lo, hi) = if i1_ua < i2_ua { (i1_ua, i2_ua) } else { (i2_ua, i1_ua) };
            prop_assume!(hi - lo > 1e-6);
            let t_lo = model.mean_switching_time(units::Current::from_micro_amps(lo));
            let t_hi = model.mean_switching_time(units::Current::from_micro_amps(hi));
            prop_assert!(t_hi < t_lo, "corner {corner}: τ({hi}) ≥ τ({lo})");
        }
    }

    /// Superposition holds in the linear subset of the simulator: the
    /// response of a random resistive ladder to two sources equals the
    /// sum of its responses to each source alone.
    #[test]
    fn superposition_on_random_ladders(
        resistances in prop::collection::vec(100.0f64..100_000.0, 2..12),
        v1 in 0.1f64..5.0,
        v2 in 0.1f64..5.0,
    ) {
        use spice::{Circuit, SourceWaveform, analysis};
        use units::Resistance;

        let build = |va: f64, vb: f64| -> (Circuit, spice::NodeId) {
            let mut ckt = Circuit::new();
            let top = ckt.node("top");
            let bottom = ckt.node("bottom");
            ckt.add_voltage_source("V1", top, Circuit::GROUND, SourceWaveform::Dc(va))
                .expect("V1");
            ckt.add_voltage_source("V2", bottom, Circuit::GROUND, SourceWaveform::Dc(vb))
                .expect("V2");
            let mut prev = top;
            let mut mid = prev;
            for (k, &r) in resistances.iter().enumerate() {
                let next = if k + 1 == resistances.len() {
                    bottom
                } else {
                    ckt.node(&format!("n{k}"))
                };
                ckt.add_resistor(&format!("R{k}"), prev, next, Resistance::from_ohms(r))
                    .expect("resistor");
                if k == resistances.len() / 2 {
                    mid = next;
                }
                prev = next;
            }
            (ckt, mid)
        };

        let solve = |va: f64, vb: f64| -> f64 {
            let (mut ckt, mid) = build(va, vb);
            analysis::op(&mut ckt).expect("op").voltage(mid)
        };
        let both = solve(v1, v2);
        let only1 = solve(v1, 0.0);
        let only2 = solve(0.0, v2);
        prop_assert!(
            (both - (only1 + only2)).abs() < 1e-6 * both.abs().max(1.0),
            "superposition violated: {both} vs {only1} + {only2}"
        );
    }

    /// Ladder node voltages interpolate monotonically between the two
    /// source potentials (no over/undershoot in a resistive chain).
    #[test]
    fn ladder_voltages_are_monotone(
        resistances in prop::collection::vec(100.0f64..50_000.0, 2..10),
        vtop in 0.0f64..3.0,
    ) {
        use spice::{Circuit, SourceWaveform, analysis};
        use units::Resistance;

        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        ckt.add_voltage_source("V1", top, Circuit::GROUND, SourceWaveform::Dc(vtop))
            .expect("V1");
        let mut nodes = vec![top];
        let mut prev = top;
        for (k, &r) in resistances.iter().enumerate() {
            let next = if k + 1 == resistances.len() {
                Circuit::GROUND
            } else {
                ckt.node(&format!("n{k}"))
            };
            ckt.add_resistor(&format!("R{k}"), prev, next, Resistance::from_ohms(r))
                .expect("resistor");
            nodes.push(next);
            prev = next;
        }
        let op = analysis::op(&mut ckt).expect("op");
        let voltages: Vec<f64> = nodes.iter().map(|&n| op.voltage(n)).collect();
        for pair in voltages.windows(2) {
            prop_assert!(pair[1] <= pair[0] + 1e-9, "{voltages:?}");
        }
        prop_assert!((voltages[0] - vtop).abs() < 1e-9);
    }

    /// Engineering-notation formatting round-trips magnitude: the
    /// printed mantissa re-scaled by its prefix is within 0.1 % of the
    /// value.
    #[test]
    fn engineering_notation_is_faithful(value in 1e-18f64..1e12) {
        let text = units::format_engineering(value, "X");
        let (mantissa_str, rest) = text.split_once(' ').expect("space");
        let mantissa: f64 = mantissa_str.parse().expect("mantissa parses");
        let prefix = rest.strip_suffix('X').expect("unit");
        let scale = match prefix {
            "T" => 1e12, "G" => 1e9, "M" => 1e6, "k" => 1e3, "" => 1.0,
            "m" => 1e-3, "µ" => 1e-6, "n" => 1e-9, "p" => 1e-12,
            "f" => 1e-15, "a" => 1e-18, "z" => 1e-21, "y" => 1e-24,
            other => { prop_assert!(false, "unknown prefix {other}"); 0.0 }
        };
        let reconstructed = mantissa * scale;
        prop_assert!(
            (reconstructed / value - 1.0).abs() < 1e-3,
            "{value} printed as {text}"
        );
    }

    /// Fixed-grid and adaptive transients agree on arbitrary RC
    /// charging circuits: the LTE controller trades steps for the same
    /// waveform, never a different one.
    #[test]
    fn adaptive_transient_matches_fixed(
        r_kohm in 1.0f64..100.0,
        c_ff in 10.0f64..500.0,
        v_drive in 0.3f64..2.5,
    ) {
        adaptive_matches_fixed(r_kohm, c_ff, v_drive);
    }

    /// Likelihood-ratio weights of the rare-event sampler average to 1
    /// under the nominal measure for any tilt — the identity
    /// `E_{ε~N(0,I)}[exp(−μ·ε − |μ|²/2)] = 1` that makes the tilted
    /// estimator unbiased. The acceptance band is self-calibrated from
    /// the weights' own sampled spread (6σ of the mean), so a
    /// systematic bias fails while honest Monte-Carlo noise passes.
    #[test]
    fn likelihood_ratio_weights_average_to_one(
        mu0 in -0.8f64..0.8,
        mu1 in -0.8f64..0.8,
        mu2 in -0.8f64..0.8,
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        fn normal(rng: &mut StdRng) -> f64 {
            loop {
                let u1: f64 = rng.random();
                let u2: f64 = rng.random();
                if u1 > f64::MIN_POSITIVE {
                    return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                }
            }
        }

        let tilt = mtj::rare::Tilt { mu: [mu0, mu1, mu2] };
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 4000usize;
        let weights: Vec<f64> = (0..n)
            .map(|_| tilt.weight([normal(&mut rng), normal(&mut rng), normal(&mut rng)]))
            .collect();
        let mean = weights.iter().sum::<f64>() / n as f64;
        let var = weights.iter().map(|w| (w - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
        let band = 6.0 * (var / n as f64).sqrt() + 1e-12;
        prop_assert!(
            (mean - 1.0).abs() <= band,
            "tilt {:?}: mean weight {mean} outside 1 ± {band}",
            tilt.mu
        );
        // The weights also satisfy the pointwise reflection identity
        // w_μ(ε)·w_μ(−ε) = exp(−|μ|²), exactly.
        let eps = [normal(&mut rng), normal(&mut rng), normal(&mut rng)];
        let product = tilt.log_weight(eps) + tilt.log_weight([-eps[0], -eps[1], -eps[2]]);
        prop_assert!((product + tilt.magnitude().powi(2)).abs() < 1e-12);
    }

    /// The rare-event WER estimator is invariant to the tilt choice
    /// within confidence intervals: any tilt magnitude estimates the
    /// same population WER, only with different variance.
    #[test]
    fn tilted_wer_estimate_is_invariant_to_tilt_choice(
        shift in 0.0f64..2.0,
        seed in 0u64..1_000,
    ) {
        use mtj::rare::{self, TailEnv, TailOptions, Tilt};
        use mtj::{wer, MtjParams, VariationModel};

        let params = MtjParams::date2018();
        let drive = params.nominal_write_current();
        let env = TailEnv::new(&params, VariationModel::default(), drive);
        let pulse = wer::pulse_for_wer(&env.reference_model(), drive, 1e-3);
        let run = |tilt: Tilt, s: u64| {
            rare::accumulate_tilted(
                &env,
                pulse,
                tilt,
                &TailOptions {
                    samples: 1500,
                    seed: s,
                    jobs: 1,
                    lanes: 4,
                    tilt: Some(tilt),
                    ..TailOptions::default()
                },
            )
            .0
            .estimate(0.99)
        };
        let flat = run(Tilt::ZERO, seed);
        let tilted = run(Tilt::along_switching_current(shift), seed.wrapping_add(1));
        let pooled = (flat.std_error.powi(2) + tilted.std_error.powi(2)).sqrt();
        prop_assert!(
            (flat.wer - tilted.wer).abs() <= 5.0 * pooled + 1e-12,
            "shift {shift}: flat {} vs tilted {} (pooled se {pooled})",
            flat.wer,
            tilted.wer
        );
    }

    /// On common draws, the weight effective sample size is maximal at
    /// zero tilt (its optimum) and strictly monotone decreasing in tilt
    /// magnitude past it — `d/dt log ESS(t) = 2[M(t) − M(2t)] < 0` for
    /// the log-sum-exp mean M, for any fixed draw set and direction.
    #[test]
    fn weight_ess_decreases_monotonically_past_its_optimum(
        d0 in -1.0f64..1.0,
        d1 in -1.0f64..1.0,
        d2 in -1.0f64..1.0,
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let norm = (d0 * d0 + d1 * d1 + d2 * d2).sqrt();
        prop_assume!(norm > 0.1);
        let unit = [d0 / norm, d1 / norm, d2 / norm];

        fn normal(rng: &mut StdRng) -> f64 {
            loop {
                let u1: f64 = rng.random();
                let u2: f64 = rng.random();
                if u1 > f64::MIN_POSITIVE {
                    return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                }
            }
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let draws: Vec<[f64; 3]> = (0..400)
            .map(|_| [normal(&mut rng), normal(&mut rng), normal(&mut rng)])
            .collect();
        let ess_at = |t: f64| {
            let tilt = mtj::rare::Tilt {
                mu: [t * unit[0], t * unit[1], t * unit[2]],
            };
            let weights: Vec<f64> = draws.iter().map(|&eps| tilt.weight(eps)).collect();
            mtj::rare::effective_sample_size(&weights)
        };
        let ladder: Vec<f64> = [0.0, 0.4, 0.8, 1.2, 1.8, 2.4, 3.0]
            .iter()
            .map(|&t| ess_at(t))
            .collect();
        prop_assert!((ladder[0] - 400.0).abs() < 1e-9, "ESS at the optimum is n");
        for (k, pair) in ladder.windows(2).enumerate() {
            prop_assert!(
                pair[1] < pair[0] + 1e-9,
                "ESS not decreasing at rung {k}: {ladder:?}"
            );
        }
    }
}

/// Body of `adaptive_transient_matches_fixed`. Agreement is measured
/// against the signal swing with a 10·trtol·reltol band (the controller
/// accepts per-step error up to `trtol·tol`); the adaptive run must also
/// never take more steps than the uniform grid it coarsens.
fn adaptive_matches_fixed(r_kohm: f64, c_ff: f64, v_drive: f64) {
    use spice::{Circuit, SimulationSession, SolverKind, SourceWaveform, TransientOptions};
    use units::{Capacitance, Resistance, Time};

    let r = r_kohm * 1e3;
    let c = c_ff * 1e-15;
    let tau = r * c;
    let stop = Time::from_seconds(4.0 * tau);
    let step = Time::from_seconds(tau / 100.0);

    let mut ckt = Circuit::new();
    let input = ckt.node("in");
    let out = ckt.node("out");
    ckt.add_voltage_source("VIN", input, Circuit::GROUND, SourceWaveform::Dc(v_drive))
        .expect("VIN");
    ckt.add_resistor("R1", input, out, Resistance::from_ohms(r))
        .expect("R1");
    ckt.add_capacitor("C1", out, Circuit::GROUND, Capacitance::from_farads(c))
        .expect("C1");

    let run = |options: TransientOptions| {
        let mut session = SimulationSession::with_solver(ckt.clone(), SolverKind::Sparse);
        session
            .transient_with_options(stop, step, options)
            .expect("transient")
    };
    let fixed = run(TransientOptions::fixed());
    let adaptive = run(TransientOptions::adaptive());

    let tol = 10.0
        * (spice::analysis::LTE_TRTOL * spice::analysis::LTE_RELTOL * v_drive
            + spice::analysis::LTE_ABSTOL);
    let tf = fixed.node("out").expect("out");
    let ta = adaptive.node("out").expect("out");
    for k in 0..=50 {
        let t = stop.seconds() * f64::from(k) / 50.0;
        let (vf, va) = (tf.value_at(t), ta.value_at(t));
        assert!(
            (vf - va).abs() <= tol,
            "r = {r_kohm} kΩ, c = {c_ff} fF, v = {v_drive} V, t = {t:.3e}: \
             fixed {vf} vs adaptive {va} (tol {tol:.2e})"
        );
    }
    assert!(
        adaptive.solver_stats().accepted_steps <= fixed.solver_stats().accepted_steps,
        "r = {r_kohm} kΩ, c = {c_ff} fF, v = {v_drive} V: \
         adaptive took more steps than the uniform grid"
    );
}

/// A shrunk failure of `adaptive_transient_matches_fixed`: settling
/// drift just past a bare `10·reltol` band; the budget now includes
/// `trtol`.
#[test]
fn adaptive_transient_matches_fixed_recorded_case() {
    adaptive_matches_fixed(22.4, 131.0, 0.58);
}
