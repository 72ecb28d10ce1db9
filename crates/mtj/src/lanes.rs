//! Lane-batched (SIMD structure-of-arrays) brute-force WER kernel.
//!
//! Every trial of a brute-force WER campaign runs the *same*
//! computation: draw a device from the variation measure (three
//! Box–Muller normals), then step it from `Parallel` toward
//! `AntiParallel` with one Bernoulli draw per step, all over a private
//! counter-seeded RNG stream. That independence is what this module
//! exploits: `L` trials advance in lockstep through one branch-free hot
//! loop over structure-of-arrays xoshiro state
//! ([`rand::rngs::StdRngLanes`]), one block of random words per step,
//! each lane against its device's exact integer switch threshold.
//!
//! **Device draws:** the devices of the next `L` trials are drawn
//! together (six uniform rounds of a separate bank, the transform and
//! the per-point switching kernel of [`crate::rare`] as passes over the
//! lanes), and a refilled stepping lane takes over its trial's stream
//! where the device draw left it. At zero variation every lane's
//! threshold is the nominal device's, which is how `margins` checks the
//! closed-form WER.
//!
//! **Retirement and refill:** a lane whose trial resolves (switched, or
//! pulse exhausted) is immediately dealt the next trial; when no trials
//! remain the lane idles, its discarded draws harmless because every
//! trial's stream starts from its own seed. The failure count is
//! therefore **bit-identical to stepping each trial on the scalar
//! path** ([`crate::rare`]'s `varied_trial_fails`) for every lane
//! count — the property the workspace-root differential suite
//! `tests/simd_mc.rs` pins for every supported lane count × worker count.

use rand::rngs::StdRngLanes;
use units::Time;

use crate::rare::{varied_trial_fails, PointKernel, TailEnv};
use crate::variation::standard_normal_lanes;

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

/// The lockstep stepping loop of the lane kernel. Trials are dealt to
/// lanes in campaign order by `deal(lane, rngs, threshold)`, which
/// positions the lane's stream at its trial's first step draw and sets
/// its integer switch threshold, or returns `false` once no trial is
/// left. Each trial occupies its lane for at most `steps` lockstep draws
/// before retiring (switched or failed) and the lane is dealt again.
/// Returns the failures among the dealt trials.
///
/// The per-round loop is branch-free across lanes — compare, decrement,
/// and pack outcome bitmasks — so the compiler vectorizes it together
/// with the structure-of-arrays RNG step; the (rare, once per trial)
/// retirement work runs only over the set bits of the round's `done`
/// mask. An idle lane keeps stepping its RNG with a sentinel counter
/// that never reaches zero; its draws belong to no trial and a dealt
/// lane is repositioned, so discarded draws cannot influence any
/// outcome.
///
/// # Panics
///
/// Panics if `L` is 0 or exceeds 64 (lane masks are `u64`).
fn step_trials<const L: usize>(
    steps: usize,
    mut deal: impl FnMut(usize, &mut StdRngLanes<L>, &mut [u64; L]) -> bool,
) -> usize {
    assert!((1..=64).contains(&L), "lane count {L} outside 1..=64");
    let mut rngs = StdRngLanes::<L>::new();
    // Idle-lane sentinel: decrements forever without hitting zero.
    let mut remaining = [usize::MAX; L];
    let mut threshold = [0u64; L];
    let mut bits = [0u64; L];
    let mut live = 0u64;
    let mut failures = 0usize;

    // Deal the opening trials.
    for (lane, rem) in remaining.iter_mut().enumerate() {
        if deal(lane, &mut rngs, &mut threshold) {
            *rem = steps;
            live |= 1u64 << lane;
        }
    }
    while live != 0 {
        // One lockstep round: every lane draws its next uniform, then
        // the outcome masks are packed without lane-dependent branches.
        rngs.fill_u64(&mut bits);
        let mut switched = 0u64;
        let mut exhausted = 0u64;
        for (lane, rem) in remaining.iter_mut().enumerate() {
            switched |= u64::from((bits[lane] >> 11) < threshold[lane]) << lane;
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
            if deal(lane, &mut rngs, &mut threshold) {
                remaining[lane] = steps;
            } else {
                live &= !(1u64 << lane);
                remaining[lane] = usize::MAX;
            }
        }
    }
    failures
}

/// Exact integer form of the scalar draw `uniform < p`. A uniform is
/// `m * 2^-53` for an integer `m = bits >> 11`, and both that product
/// and `p * 2^53` are computed without rounding (powers of two only
/// shift the exponent), so `m * 2^-53 < p  ⟺  m < ceil(p * 2^53)` —
/// the hot loops compare integers and skip the u64→f64 conversion.
#[inline(always)]
fn switch_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Counts variation-aware brute-force write failures with the lane
/// kernel — the count of [`crate::rare::varied_wer_grid`], bit-identical
/// to running [`crate::rare`]'s scalar trial (three Box–Muller normals,
/// then stepping against the drawn device) trial by trial, for every
/// `lanes` value. `lanes` is resolved by [`resolve_lanes`].
#[must_use]
pub fn count_varied_write_failures_batched(
    env: &TailEnv,
    pulse: Time,
    trials: usize,
    seed: u64,
    lanes: usize,
) -> usize {
    let kernel = PointKernel::new(env, pulse);
    match resolve_lanes(lanes) {
        2 => count_varied_write_failures_lanes::<2>(&kernel, trials, seed, |_| {}),
        4 => count_varied_write_failures_lanes::<4>(&kernel, trials, seed, |_| {}),
        8 => count_varied_write_failures_lanes::<8>(&kernel, trials, seed, |_| {}),
        16 => count_varied_write_failures_lanes::<16>(&kernel, trials, seed, |_| {}),
        32 => count_varied_write_failures_lanes::<32>(&kernel, trials, seed, |_| {}),
        64 => count_varied_write_failures_lanes::<64>(&kernel, trials, seed, |_| {}),
        _ => count_varied_write_failures_lanes::<1>(&kernel, trials, seed, |_| {}),
    }
}

/// The device draws of upcoming trials, `L` at a time: each trial's
/// stream is seeded in a bank lane of its own, its six Box–Muller
/// uniforms are drawn in lockstep, and the device's exact integer
/// switch threshold comes out of one pass over the lanes. A stepping
/// lane then takes over the trial's stream where the device draw left
/// it ([`StdRngLanes::copy_lane`]).
struct DeviceDraws<const L: usize> {
    bank: StdRngLanes<L>,
    threshold: [u64; L],
    /// Lanes whose draw hit Box–Muller's rejection branch.
    rejected: u64,
    /// First trial of the current block, and its length.
    first: usize,
    len: usize,
}

impl<const L: usize> DeviceDraws<L> {
    /// Draws the devices of trials `first..first + len`. `tamper` sees
    /// the uniforms before the transform (the identity outside tests).
    fn draw(
        &mut self,
        kernel: &PointKernel,
        seed: u64,
        first: usize,
        len: usize,
        tamper: &mut impl FnMut(&mut [[f64; L]; 6]),
    ) {
        let mut seeds = [0u64; L];
        for (j, s) in seeds.iter_mut().enumerate().take(len) {
            *s = sweep::point_seed(seed, (first + j) as u64);
        }
        self.bank.seed_lanes(&seeds);
        let mut uniforms = [[0.0; L]; 6];
        for block in &mut uniforms {
            self.bank.fill_unit_f64(block);
        }
        tamper(&mut uniforms);
        // Only the switching-current coordinate moves the device.
        let z_isw = standard_normal_lanes(&uniforms[4], &uniforms[5]);
        for (t, &z) in self.threshold.iter_mut().zip(&z_isw) {
            *t = switch_threshold(kernel.switch_probability(z));
        }
        self.rejected = 0;
        for first_uniforms in [&uniforms[0], &uniforms[2], &uniforms[4]] {
            for (j, &u) in first_uniforms.iter().enumerate().take(len) {
                self.rejected |= u64::from(u <= f64::MIN_POSITIVE) << j;
            }
        }
        self.first = first;
        self.len = len;
    }
}

/// The const-generic lane kernel behind
/// [`count_varied_write_failures_batched`]: device draws a block at a
/// time ([`DeviceDraws`]), then [`step_trials`] with a per-lane
/// threshold. A device draw that hits Box–Muller's rejection branch
/// (first uniform ≤ `f64::MIN_POSITIVE`, probability ≈ 2⁻⁵³) changes the
/// trial's draw count, so that trial runs on the scalar path from its
/// own seed and the lane takes the next one.
fn count_varied_write_failures_lanes<const L: usize>(
    kernel: &PointKernel,
    trials: usize,
    seed: u64,
    mut tamper: impl FnMut(&mut [[f64; L]; 6]),
) -> usize {
    if kernel.certain_failure {
        return trials;
    }
    let mut devices = DeviceDraws::<L> {
        bank: StdRngLanes::new(),
        threshold: [0; L],
        rejected: 0,
        first: 0,
        len: 0,
    };
    let mut next_trial = 0usize;
    let mut scalar_failures = 0usize;
    let stepped = step_trials::<L>(kernel.steps as usize, |lane, rngs, threshold| {
        while next_trial < trials {
            if next_trial == devices.first + devices.len {
                let len = (trials - next_trial).min(L);
                devices.draw(kernel, seed, next_trial, len, &mut tamper);
            }
            let trial = next_trial;
            next_trial += 1;
            let j = trial - devices.first;
            if devices.rejected >> j & 1 != 0 {
                let trial_seed = sweep::point_seed(seed, trial as u64);
                scalar_failures += usize::from(varied_trial_fails(kernel, trial_seed));
                continue;
            }
            rngs.copy_lane(lane, &devices.bank, j);
            threshold[lane] = devices.threshold[j];
            return true;
        }
        false
    });
    stepped + scalar_failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MtjParams;
    use crate::rare;
    use units::Current;

    fn tail_env() -> TailEnv {
        let p = MtjParams::date2018();
        TailEnv::new(
            &p,
            crate::VariationModel::default(),
            p.nominal_write_current(),
        )
    }

    #[test]
    fn varied_brute_force_matches_the_scalar_oracle_at_every_width() {
        let e = tail_env();
        let m = e.reference_model();
        for (k, target) in [0.5, 0.05, 3e-3].into_iter().enumerate() {
            let pulse = crate::wer::pulse_for_wer(&m, e.current(), target);
            for trials in [0, 1, 63, 64, 65, 700] {
                let seed = 11 + k as u64;
                let oracle = rare::count_varied_write_failures(&e, pulse, trials, seed);
                for lanes in SUPPORTED_LANE_COUNTS {
                    assert_eq!(
                        count_varied_write_failures_batched(&e, pulse, trials, seed, lanes),
                        oracle,
                        "target {target}, trials {trials}, lanes {lanes}"
                    );
                }
            }
        }
    }

    #[test]
    fn trial_outcomes_are_independent_of_campaign_size() {
        // Counter seeding: shrinking the campaign must not change the
        // trials that remain.
        let e = tail_env();
        let pulse = e.reference_model().mean_switching_time(e.current());
        let kernel = PointKernel::new(&e, pulse);
        let long = count_varied_write_failures_batched(&e, pulse, 500, 23, 0);
        let short = count_varied_write_failures_batched(&e, pulse, 200, 23, 0);
        let tail = (200..500)
            .filter(|&t| varied_trial_fails(&kernel, sweep::point_seed(23, t as u64)))
            .count();
        assert_eq!(long, short + tail);
    }

    #[test]
    fn varied_brute_force_guards_fail_every_trial() {
        let p = MtjParams::date2018();
        let pulse = Time::from_nano_seconds(2.0);
        for drive in [Current::ZERO, -p.nominal_write_current()] {
            let e = TailEnv::new(&p, crate::VariationModel::default(), drive);
            assert_eq!(count_varied_write_failures_batched(&e, pulse, 50, 9, 8), 50);
        }
        let e = tail_env();
        assert_eq!(
            count_varied_write_failures_batched(&e, Time::ZERO, 50, 9, 8),
            50
        );
    }

    /// Device draws that hit Box–Muller's rejection branch (injected:
    /// it has probability ≈ 2⁻⁵³) run their trial on the scalar path
    /// from the real seed, so the count still equals the oracle's.
    #[test]
    fn a_rejected_device_draw_falls_back_to_the_scalar_trial() {
        let e = tail_env();
        let pulse = crate::wer::pulse_for_wer(&e.reference_model(), e.current(), 0.05);
        let kernel = PointKernel::new(&e, pulse);
        let oracle = rare::count_varied_write_failures(&e, pulse, 300, 21);
        let mut blocks = 0;
        let got = count_varied_write_failures_lanes::<16>(&kernel, 300, 21, |u| {
            // Every block: lane 2's first normal, lane 9's last.
            u[0][2] = 0.0;
            u[4][9] = 0.0;
            blocks += 1;
        });
        assert_eq!(got, oracle);
        assert_eq!(blocks, 19, "300 trials in blocks of 16");
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
