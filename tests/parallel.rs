//! Determinism of the parallel sweep engine across the real simulation
//! stack: the same grid must produce bit-identical results — and
//! identical aggregated solver accounting — for every worker count.

use mtj::rare::{self, TailEnv};
use mtj::{lanes, montecarlo, wer, MtjParams, MtjSample, VariationModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spintronic_ff::prelude::*;
use units::{Temperature, Time};

/// Monte-Carlo device sampling: every worker count equals a hand-written
/// serial walk draw-for-draw, because draw `i` owns the counter seed
/// `(seed, i)`.
#[test]
fn device_montecarlo_is_bit_identical_across_worker_counts() {
    let nominal = MtjParams::date2018();
    let variation = VariationModel::default();
    let (n, seed) = (400, 31);
    let window = |s: &MtjSample| {
        s.params.resistance_antiparallel().ohms() - s.params.resistance_parallel().ohms()
    };
    let oracle: Vec<f64> = (0..n)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(sweep::point_seed(seed, i as u64));
            window(&variation.sample(&nominal, &mut rng))
        })
        .collect();
    for jobs in [1, 2, 3, 4, 8] {
        let (values, summary) = montecarlo::run(&nominal, &variation, n, seed, jobs, window);
        assert_eq!(values, oracle, "jobs = {jobs}");
        assert_eq!(summary.points, n);
        assert_eq!(summary.resumed, 0);
    }
}

/// Corner characterization over the full simulation stack: metrics and
/// per-corner solver stats are identical at one and two workers, and
/// the aggregated SolverStats fold to the same totals.
#[test]
fn corner_characterization_is_worker_count_independent() {
    let corners = [Corner::slow(), Corner::typical(), Corner::fast()];
    let base = LatchConfig::default();
    let serial = cells::LatchComparison::evaluate_with_jobs(&base, &corners, 1).expect("serial");
    let parallel =
        cells::LatchComparison::evaluate_with_jobs(&base, &corners, 2).expect("parallel");

    assert_eq!(serial.standard, parallel.standard);
    assert_eq!(serial.proposed, parallel.proposed);
    assert_eq!(serial.parallel.workers, 1);
    assert_eq!(parallel.parallel.workers, 2);

    let fold = |rows: &[(Corner, cells::CellMetrics)]| {
        let mut total = spice::SolverStats::default();
        for (_, m) in rows {
            total.accumulate(m.solver);
        }
        total
    };
    assert_eq!(fold(&serial.standard), fold(&parallel.standard));
    assert_eq!(fold(&serial.proposed), fold(&parallel.proposed));
}

/// SolverStats aggregation is a commutative, associative fold
/// (saturating adds on u64 counters), so accumulating in *any* order —
/// grid order, completion order, reversed — produces the same totals.
/// The collector returns grid order regardless; this pins the algebraic
/// property that makes the aggregate worker-count independent.
#[test]
fn solver_stats_fold_is_order_independent() {
    let stats: Vec<spice::SolverStats> = (0..12u64)
        .map(|k| spice::SolverStats {
            newton_iterations: k * 17 + 1,
            lu_factorizations: k * 5 + 2,
            accepted_steps: k * 31,
            rejected_steps: k % 3,
            step_halvings: k % 2,
            pattern_reuses: k * 7 + 3,
            symbolic_builds: k % 4 + 1,
            repivots: k % 2,
            lte_rejections: k % 5,
            source_steps: k % 7,
        })
        .collect();
    let fold = |order: &[usize]| {
        let mut total = spice::SolverStats::default();
        for &i in order {
            total.accumulate(stats[i]);
        }
        total
    };
    let grid_order: Vec<usize> = (0..stats.len()).collect();
    let reversed: Vec<usize> = grid_order.iter().rev().copied().collect();
    let interleaved: Vec<usize> = (0..stats.len())
        .map(|i| {
            if i % 2 == 0 {
                i / 2
            } else {
                stats.len() - 1 - i / 2
            }
        })
        .collect();
    let reference = fold(&grid_order);
    assert_eq!(fold(&reversed), reference);
    assert_eq!(fold(&interleaved), reference);

    // Saturation keeps the fold well-defined even at the ceiling: order
    // still cannot change a saturated total.
    let big = spice::SolverStats {
        newton_iterations: u64::MAX - 5,
        ..spice::SolverStats::default()
    };
    let mut a = spice::SolverStats::default();
    a.accumulate(big);
    a.accumulate(stats[3]);
    let mut b = spice::SolverStats::default();
    b.accumulate(stats[3]);
    b.accumulate(big);
    assert_eq!(a, b);
    assert_eq!(a.newton_iterations, u64::MAX);
}

/// A checkpointed WER campaign resumes bit-identically mid-grid, over
/// the real stochastic-write workload: the variation-aware brute force.
#[test]
fn checkpointed_wer_campaign_resumes_bit_identically() {
    let params = MtjParams::date2018();
    let drive = params.nominal_write_current();
    let env = TailEnv::new(&params, VariationModel::default(), drive);
    let tau = env.reference_model().mean_switching_time(drive);
    let pulses: Vec<Time> = (1..=6).map(|k| tau * f64::from(k)).collect();
    let trials = 60;
    let seed = 7u64;

    let dir = std::env::temp_dir().join(format!("nvff-parallel-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("wer.ckpt.json");
    let _ = std::fs::remove_file(&path);

    let job = |(): &mut (), ctx: &sweep::JobCtx, &pulse: &Time| {
        lanes::count_varied_write_failures_batched(&env, pulse, trials, ctx.seed, 0) as u64
    };
    let grid = sweep::Grid::with_seed(pulses.clone(), seed);
    let policy = sweep::CheckpointPolicy {
        path: path.clone(),
        every: 1,
        fingerprint: sweep::fingerprint("wer-resume-test"),
    };

    let full = sweep::run_checkpointed(
        &grid,
        &sweep::SweepOptions::with_jobs(2),
        &policy,
        |_| (),
        job,
        None,
    )
    .expect("full run");
    // The uncheckpointed engine agrees with the checkpointed one.
    let (direct, _) = rare::varied_wer_grid(&env, &pulses, trials, seed, 1);
    let direct_failures: Vec<u64> = direct.iter().map(|e| e.failures as u64).collect();
    assert_eq!(full.results, direct_failures);

    // Rerun from the completed checkpoint: everything restores.
    let resumed = sweep::run_checkpointed(
        &grid,
        &sweep::SweepOptions::with_jobs(4),
        &policy,
        |_| (),
        job,
        None,
    )
    .expect("resume");
    assert_eq!(resumed.results, full.results);
    assert_eq!(resumed.summary.resumed, pulses.len());
    let _ = std::fs::remove_file(&path);
}

/// A rare-event tail-surface campaign killed after k points and resumed
/// from its checkpoint produces estimates and confidence intervals
/// bit-identical to an uninterrupted run — the accumulator sums
/// round-trip exactly through the `nvff-sweep-checkpoint/1` cells.
#[test]
fn interrupted_tail_surface_resumes_bit_identically() {
    use mtj::rare::{SurfaceAxes, TailOptions};
    use telemetry::JsonValue;

    let nominal = MtjParams::date2018();
    let variation = VariationModel::default();
    let thermal = mtj::ThermalModel::default();
    let drive = nominal.nominal_write_current();
    let model = mtj::SwitchingModel::new(&nominal);
    let axes = SurfaceAxes {
        pulses: [1e-2, 1e-4]
            .iter()
            .map(|&t| wer::pulse_for_wer(&model, drive, t))
            .collect(),
        sigma_switching_currents: vec![0.05, 0.08],
        temperatures: vec![Temperature::from_celsius(27.0)],
    };
    let opts = TailOptions {
        samples: 400,
        seed: 13,
        jobs: 2,
        lanes: 8,
        pilot_rounds: 2,
        pilot_samples: 128,
        ..TailOptions::default()
    };

    let dir = std::env::temp_dir().join(format!("nvff-parallel-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tail_surface.ckpt.json");
    let _ = std::fs::remove_file(&path);
    let policy = sweep::CheckpointPolicy {
        path: path.clone(),
        every: 1,
        fingerprint: rare::surface_fingerprint(&axes, &opts),
    };

    let full = rare::tail_surface(
        &nominal,
        &variation,
        &thermal,
        drive,
        &axes,
        &opts,
        Some(&policy),
    )
    .expect("full run");
    assert_eq!(full.rows.len(), 4);
    assert!(full.rows.iter().all(|r| r.estimate.samples == 400));

    // Checkpointing itself does not perturb the numbers.
    let direct = rare::tail_surface(&nominal, &variation, &thermal, drive, &axes, &opts, None)
        .expect("direct run");
    assert_eq!(direct.rows, full.rows);

    // Simulate the kill after k = 1 completed points: rewrite the
    // checkpoint with only the first point's cells.
    let k = 1usize;
    let text = std::fs::read_to_string(&path).expect("checkpoint");
    let doc = JsonValue::parse(&text).expect("parse");
    let done: Vec<JsonValue> = doc
        .get("done")
        .and_then(JsonValue::as_array)
        .expect("done")
        .iter()
        .filter(|entry| entry.as_array().expect("pair")[0].as_i64().expect("index") < k as i64)
        .cloned()
        .collect();
    assert_eq!(done.len(), k);
    let truncated = JsonValue::object(vec![
        (
            "schema".into(),
            JsonValue::Str(sweep::CHECKPOINT_SCHEMA.into()),
        ),
        (
            "fingerprint".into(),
            JsonValue::Int(policy.fingerprint as i64),
        ),
        ("points".into(), JsonValue::Int(4)),
        ("base_seed".into(), JsonValue::Int(opts.seed as i64)),
        ("done".into(), JsonValue::Array(done)),
    ]);
    std::fs::write(&path, truncated.to_json()).expect("rewrite");

    // Resume under a different worker count: the restored point plus
    // the re-executed remainder reproduce the uninterrupted surface
    // exactly — weighted estimates, intervals, tilts, ESS, all of it.
    let resumed_opts = TailOptions { jobs: 4, ..opts };
    let resumed = rare::tail_surface(
        &nominal,
        &variation,
        &thermal,
        drive,
        &axes,
        &resumed_opts,
        Some(&policy),
    )
    .expect("resume");
    assert_eq!(resumed.summary.resumed, k);
    assert_eq!(resumed.rows, full.rows);
    let _ = std::fs::remove_file(&path);
}
