//! Pins the rare-event sampler's output bits.
//!
//! `tests/rare_event.rs` and `tests/simd_mc.rs` hold the sampler to
//! itself across worker and lane counts, so an edit that moves every
//! path alike (a different seed derivation, a reordered fold, tilt
//! candidates scored on other draws) would pass them. This test hashes
//! the full-precision output of the `wer_shmoo` benchmark's surface
//! (its five pulses × σ(Isw) {0.04, 0.06} × T {27, 85} °C, at a smaller
//! sample count) and of its Bernoulli cross-check estimate, and compares
//! the digest with the one the sampler produced when the pin was taken.
//! A deliberate change of the sampler's numbers must update the digest
//! and say why.

use mtj::rare::{self, Estimator, SurfaceAxes, TailEnv, TailEstimate, TailOptions, Tilt};
use mtj::{wer, MtjParams, SwitchingModel, ThermalModel, VariationModel};
use units::Temperature;

/// Digest of the surface rows and the cross-check estimate below.
const DIGEST: u64 = 0x1a46_5ea2_a3b6_c15a;

fn hash_f64s(h: &mut sweep::Fnv1a, values: &[f64]) {
    for v in values {
        h.update(&v.to_bits().to_le_bytes());
    }
}

fn hash_estimate(h: &mut sweep::Fnv1a, tilt: &Tilt, e: &TailEstimate) {
    h.update(&e.samples.to_le_bytes());
    hash_f64s(
        h,
        &[
            e.wer,
            e.ci.lo,
            e.ci.hi,
            e.contribution_ess,
            e.weight_ess,
            e.self_normalized,
        ],
    );
    hash_f64s(h, &tilt.mu);
}

#[test]
fn surface_and_crosscheck_bits_are_pinned() {
    let params = MtjParams::date2018();
    let drive = params.nominal_write_current();
    let model = SwitchingModel::new(&params);
    let axes = SurfaceAxes {
        pulses: [1e-3, 1e-5, 1e-7, 1e-9, 1e-11]
            .iter()
            .map(|&t| wer::pulse_for_wer(&model, drive, t))
            .collect(),
        sigma_switching_currents: vec![0.04, 0.06],
        temperatures: [27.0, 85.0]
            .iter()
            .map(|&c| Temperature::from_celsius(c))
            .collect(),
    };
    let variation = VariationModel::default();
    let opts = TailOptions {
        samples: 2000,
        seed: 1,
        jobs: 1,
        lanes: 0,
        ..TailOptions::default()
    };
    let surface = rare::tail_surface(
        &params,
        &variation,
        &ThermalModel::default(),
        drive,
        &axes,
        &opts,
        None,
    )
    .expect("an uncheckpointed surface cannot fail");
    assert_eq!(surface.rows.len(), 20);

    let env = TailEnv::new(&params, variation, drive);
    let pulse = wer::pulse_for_wer(&env.reference_model(), drive, 1e-3);
    let crosscheck = rare::estimate_tail(
        &env,
        pulse,
        &TailOptions {
            samples: 3000,
            seed: 2018 ^ 0x5348_4d4f_4f58,
            estimator: Estimator::Bernoulli,
            ..opts
        },
    );

    let mut h = sweep::Fnv1a::new();
    for row in &surface.rows {
        hash_estimate(&mut h, &row.tilt, &row.estimate);
    }
    hash_estimate(&mut h, &crosscheck.tilt, &crosscheck.estimate);
    assert_eq!(h.finish(), DIGEST, "digest {:#018x}", h.finish());
}
