//! Lane-batched (SIMD structure-of-arrays) Monte-Carlo WER kernel.
//!
//! Every trial of a WER campaign runs the *same* computation — step a
//! `Parallel` device toward `AntiParallel` with a per-step Bernoulli
//! draw — over a private counter-seeded RNG stream. That independence
//! is what this module exploits: `LANES` trials advance in lockstep
//! through one branch-free hot loop over structure-of-arrays xoshiro
//! state ([`rand::rngs::StdRngLanes`]), one `[f64; LANES]` uniform
//! block per step, against a switch probability hoisted out of the
//! loop (the scalar path re-derives `exp(−dt/τ)` every step — the
//! dominant cost).
//!
//! **Retirement and refill:** a lane whose trial resolves (switched, or
//! pulse exhausted) is immediately reseeded with the next trial's
//! counter seed; when no trials remain the lane idles, its discarded
//! draws harmless because every trial's stream starts from its own
//! seed. The failure count is therefore **bit-identical to the scalar
//! reference** [`crate::wer::count_write_failures`] for every lane
//! count — the property the workspace-root differential suite
//! `tests/simd_mc.rs` pins for every supported lane count × worker count.

use rand::rngs::StdRngLanes;
use units::{Current, Time};

use crate::device::WritePolarity;
use crate::params::MtjParams;
use crate::resistance::MtjState;
use crate::switching::SwitchingModel;
use crate::wer::trial_step_plan;

/// Lane widths the runtime dispatcher accepts.
pub const SUPPORTED_LANE_COUNTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Lane width used when the caller asks for auto (`0`).
///
/// 64 keeps a full `u64` of trial masks in flight; with 512-bit
/// vectors that is eight RNG register groups per round, enough
/// instruction-level parallelism to hide the xoshiro dependency chain.
/// Trials-per-point below a few hundred waste a little drain time at
/// this width — pass an explicit narrower lane count there.
pub const DEFAULT_LANES: usize = 64;

/// Resolves a requested lane count to a supported width: `0` selects
/// [`DEFAULT_LANES`]; any other value is rounded **down** to the
/// nearest supported width. The resolved width never changes results —
/// only throughput.
///
/// # Examples
///
/// ```
/// assert_eq!(mtj::lanes::resolve_lanes(8), 8);
/// assert_eq!(mtj::lanes::resolve_lanes(7), 4);
/// assert_eq!(mtj::lanes::resolve_lanes(1000), 64);
/// assert_eq!(mtj::lanes::resolve_lanes(1), 1);
/// assert_eq!(mtj::lanes::resolve_lanes(0), mtj::lanes::DEFAULT_LANES);
/// ```
#[must_use]
pub fn resolve_lanes(requested: usize) -> usize {
    let requested = if requested == 0 {
        DEFAULT_LANES
    } else {
        requested
    };
    SUPPORTED_LANE_COUNTS
        .iter()
        .copied()
        .filter(|&w| w <= requested)
        .max()
        .unwrap_or(1)
}

/// Counts stochastic write failures with the lane-batched kernel —
/// bit-identical to [`crate::wer::count_write_failures`]`(params,
/// current, pulse, trials, seed)` for every `lanes` value.
///
/// `lanes` is resolved by [`resolve_lanes`]; `1` selects the scalar
/// reference kernel itself.
#[must_use]
pub fn count_write_failures_batched(
    params: &MtjParams,
    current: Current,
    pulse: Time,
    trials: usize,
    seed: u64,
    lanes: usize,
) -> usize {
    match resolve_lanes(lanes) {
        2 => count_write_failures_lanes::<2>(params, current, pulse, trials, seed),
        4 => count_write_failures_lanes::<4>(params, current, pulse, trials, seed),
        8 => count_write_failures_lanes::<8>(params, current, pulse, trials, seed),
        16 => count_write_failures_lanes::<16>(params, current, pulse, trials, seed),
        32 => count_write_failures_lanes::<32>(params, current, pulse, trials, seed),
        64 => count_write_failures_lanes::<64>(params, current, pulse, trials, seed),
        _ => crate::wer::count_write_failures(params, current, pulse, trials, seed),
    }
}

/// The const-generic lane kernel behind [`count_write_failures_batched`].
///
/// Trials are dealt to lanes in campaign order; each occupies its lane
/// for at most `steps` lockstep draws before retiring (switched or
/// failed) and refilling with the next trial. The per-round loop is
/// branch-free across lanes — compare, decrement, and pack outcome
/// bitmasks — so the compiler vectorizes it together with the
/// structure-of-arrays RNG step; the (rare, once per trial) retirement
/// work runs only over the set bits of the round's `done` mask. An
/// idle lane keeps stepping its RNG with a sentinel counter that never
/// reaches zero; its draws belong to no trial and a refilled lane is
/// reseeded, so discarded draws cannot influence any outcome.
///
/// # Panics
///
/// Panics if `LANES` is 0 or exceeds 64 (lane masks are `u64`).
#[must_use]
fn count_write_failures_lanes<const LANES: usize>(
    params: &MtjParams,
    current: Current,
    pulse: Time,
    trials: usize,
    seed: u64,
) -> usize {
    assert!(
        (1..=64).contains(&LANES),
        "lane count {LANES} outside 1..=64"
    );
    // Mirror the scalar trial's preamble: a Parallel device written
    // toward AntiParallel. A drive that exerts no torque toward the
    // reversal fails every trial without consuming a draw.
    let polarity = WritePolarity::PositiveSetsAntiParallel;
    if polarity.target_state(current) != Some(MtjState::AntiParallel) {
        return trials;
    }
    let (steps, step) = trial_step_plan(pulse);
    if steps == 0 {
        return trials;
    }
    // The hoist: the scalar path computes this same probability from
    // the same inputs once per step per trial; one evaluation serves
    // the whole grid point and the comparison stays bitwise identical.
    let model = SwitchingModel::new(params);
    let p = model.switch_probability(current, step);
    // Exact integer form of the scalar draw `uniform < p`. A uniform is
    // `m * 2^-53` for an integer `m = bits >> 11`, and both that product
    // and `p * 2^53` are computed without rounding (powers of two only
    // shift the exponent), so `m * 2^-53 < p  ⟺  m < ceil(p * 2^53)` —
    // the hot loop compares integers and skips the u64→f64 conversion.
    let switch_threshold = (p * (1u64 << 53) as f64).ceil() as u64;

    let mut rngs = StdRngLanes::<LANES>::new();
    // Idle-lane sentinel: decrements forever without hitting zero.
    let mut remaining = [usize::MAX; LANES];
    let mut bits = [0u64; LANES];
    let mut live = 0u64;
    let mut next_trial = 0usize;
    let mut failures = 0usize;

    // Deal the opening trials.
    for (lane, rem) in remaining.iter_mut().enumerate().take(trials.min(LANES)) {
        rngs.seed_lane(lane, sweep::point_seed(seed, next_trial as u64));
        *rem = steps;
        live |= 1u64 << lane;
        next_trial += 1;
    }

    while live != 0 {
        // One lockstep round: every lane draws its next uniform, then
        // the outcome masks are packed without lane-dependent branches.
        rngs.fill_u64(&mut bits);
        let mut switched = 0u64;
        let mut exhausted = 0u64;
        for (lane, rem) in remaining.iter_mut().enumerate() {
            switched |= u64::from((bits[lane] >> 11) < switch_threshold) << lane;
            let r = rem.wrapping_sub(1);
            *rem = r;
            exhausted |= u64::from(r == 0) << lane;
        }
        // A trial that consumed its last draw without switching failed.
        failures += (exhausted & !switched & live).count_ones() as usize;
        // Retire-and-refill, over the resolved lanes only.
        let mut done = (switched | exhausted) & live;
        while done != 0 {
            let lane = done.trailing_zeros() as usize;
            done &= done - 1;
            if next_trial < trials {
                rngs.seed_lane(lane, sweep::point_seed(seed, next_trial as u64));
                remaining[lane] = steps;
                next_trial += 1;
            } else {
                live &= !(1u64 << lane);
                remaining[lane] = usize::MAX;
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wer::count_write_failures;

    fn setup() -> (MtjParams, SwitchingModel) {
        let p = MtjParams::date2018();
        let m = SwitchingModel::new(&p);
        (p, m)
    }

    #[test]
    fn every_lane_width_matches_the_scalar_kernel() {
        let (p, m) = setup();
        let i = p.nominal_write_current();
        for k in 1u32..=4 {
            let pulse = m.mean_switching_time(i) * (0.5 * f64::from(k));
            let scalar = count_write_failures(&p, i, pulse, 333, 40 + u64::from(k));
            for lanes in SUPPORTED_LANE_COUNTS {
                let batched =
                    count_write_failures_batched(&p, i, pulse, 333, 40 + u64::from(k), lanes);
                assert_eq!(batched, scalar, "lanes = {lanes}, pulse = {pulse}");
            }
        }
    }

    #[test]
    fn trial_counts_smaller_than_the_lane_width_still_match() {
        let (p, m) = setup();
        let i = p.nominal_write_current();
        let pulse = m.mean_switching_time(i);
        for trials in [0, 1, 2, 7, 31, 32, 33] {
            let scalar = count_write_failures(&p, i, pulse, trials, 5);
            assert_eq!(
                count_write_failures_lanes::<32>(&p, i, pulse, trials, 5),
                scalar,
                "trials = {trials}"
            );
        }
    }

    #[test]
    fn torqueless_drives_fail_every_trial() {
        let (p, _) = setup();
        let pulse = Time::from_nano_seconds(2.0);
        for lanes in [1, 8] {
            assert_eq!(
                count_write_failures_batched(&p, Current::ZERO, pulse, 50, 9, lanes),
                50
            );
            assert_eq!(
                count_write_failures_batched(&p, -p.nominal_write_current(), pulse, 50, 9, lanes),
                50
            );
        }
        // A zero-length pulse gives switching no chance at all.
        assert_eq!(
            count_write_failures_lanes::<8>(&p, p.nominal_write_current(), Time::ZERO, 50, 9),
            50
        );
    }

    #[test]
    fn resolver_rounds_down_and_defaults() {
        assert_eq!(resolve_lanes(1), 1);
        assert_eq!(resolve_lanes(2), 2);
        assert_eq!(resolve_lanes(3), 2);
        assert_eq!(resolve_lanes(31), 16);
        assert_eq!(resolve_lanes(32), 32);
        assert_eq!(resolve_lanes(63), 32);
        assert_eq!(resolve_lanes(usize::MAX), 64);
        assert_eq!(resolve_lanes(0), DEFAULT_LANES);
    }
}
