//! Stateful dynamic MTJ device.
//!
//! [`Mtj`] is the object a transient circuit simulation steps: it holds the
//! current magnetisation state, exposes the (bias-dependent) resistance the
//! solver needs, and integrates switching progress under the time-varying
//! current the solver computes. Deterministic integration is used by
//! default — the fraction of a reversal completed accumulates as
//! `∫ dt / τ(I(t))` — which reproduces the mean-time behaviour exactly for
//! piecewise-constant currents and is what a corner analysis wants.
//! Stochastic writes (per-step Bernoulli trials at rate `1/τ`) are available
//! for Monte-Carlo disturb studies via [`Mtj::advance_stochastic`].

use rand::{Rng, RngExt};
use units::{Current, Resistance, Time, Voltage};

use crate::params::MtjParams;
use crate::resistance::MtjState;
use crate::switching::SwitchingModel;

/// Mapping from the sign of the device current to the magnetisation state
/// it drives the free layer towards.
///
/// In the latch schematics the two MTJs of a complementary pair are drawn
/// with opposite stack orientation, so the same write-path current stores
/// opposite values in them; the polarity flag captures that wiring without
/// duplicating device code.
///
/// The convention: device current is positive when it flows from the
/// device's first terminal to its second. With
/// [`WritePolarity::PositiveSetsAntiParallel`] a positive current drives
/// the free layer towards AP (and a negative one towards P);
/// [`WritePolarity::PositiveSetsParallel`] is the mirror image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WritePolarity {
    /// Positive terminal-1→terminal-2 current drives the device to AP.
    #[default]
    PositiveSetsAntiParallel,
    /// Positive terminal-1→terminal-2 current drives the device to P.
    PositiveSetsParallel,
}

impl WritePolarity {
    /// The state a current of the given sign drives the free layer toward.
    ///
    /// Returns `None` for an exactly zero current, which exerts no torque.
    #[must_use]
    pub(crate) fn target_state(self, current: Current) -> Option<MtjState> {
        if current.amps() == 0.0 {
            return None;
        }
        let positive = current.amps() > 0.0;
        Some(match (self, positive) {
            (Self::PositiveSetsAntiParallel, true) | (Self::PositiveSetsParallel, false) => {
                MtjState::AntiParallel
            }
            (Self::PositiveSetsAntiParallel, false) | (Self::PositiveSetsParallel, true) => {
                MtjState::Parallel
            }
        })
    }

    /// The mirror polarity (how the complementary MTJ of a pair is wired).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn flipped(self) -> Self {
        match self {
            Self::PositiveSetsAntiParallel => Self::PositiveSetsParallel,
            Self::PositiveSetsParallel => Self::PositiveSetsAntiParallel,
        }
    }
}

/// A dynamic MTJ: parameters + switching model + magnetisation state.
///
/// # Examples
///
/// ```
/// use mtj::{Mtj, MtjParams, MtjState, WritePolarity};
/// use units::{Current, Time};
///
/// let params = MtjParams::date2018();
/// let mut mtj = Mtj::new(params.clone(), MtjState::Parallel, WritePolarity::default());
///
/// // Drive the nominal write current for 3 ns: the device reverses.
/// let switched = mtj.advance(params.nominal_write_current(), Time::from_nano_seconds(3.0));
/// assert!(switched);
/// assert_eq!(mtj.state(), MtjState::AntiParallel);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mtj {
    params: MtjParams,
    model: SwitchingModel,
    polarity: WritePolarity,
    state: MtjState,
    /// Fraction of a reversal completed toward `pending_target`.
    progress: f64,
    pending_target: Option<MtjState>,
}

impl Mtj {
    /// Creates a device in `initial` state with the default-calibrated
    /// switching model.
    #[must_use]
    pub fn new(params: MtjParams, initial: MtjState, polarity: WritePolarity) -> Self {
        let model = SwitchingModel::new(&params);
        Self::with_model(params, model, initial, polarity)
    }

    /// Creates a device with an explicitly calibrated switching model.
    #[must_use]
    pub(crate) fn with_model(
        params: MtjParams,
        model: SwitchingModel,
        initial: MtjState,
        polarity: WritePolarity,
    ) -> Self {
        Self {
            params,
            model,
            polarity,
            state: initial,
            progress: 0.0,
            pending_target: None,
        }
    }

    /// Current magnetisation state.
    #[must_use]
    pub fn state(&self) -> MtjState {
        self.state
    }

    /// Forces the magnetisation state (e.g. test preconditioning),
    /// discarding partial switching progress.
    pub fn set_state(&mut self, state: MtjState) {
        self.state = state;
        self.progress = 0.0;
        self.pending_target = None;
    }

    /// Write polarity of this device.
    #[must_use]
    pub fn polarity(&self) -> WritePolarity {
        self.polarity
    }

    /// Fraction (0‥1) of a reversal completed toward the pending target.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn switching_progress(&self) -> f64 {
        self.progress
    }

    /// Resistance at the given bias voltage in the current state.
    #[must_use]
    pub fn resistance(&self, bias: Voltage) -> Resistance {
        self.params.resistance_at(self.state, bias)
    }

    /// Advances the magnetisation dynamics by `dt` under a constant device
    /// current, deterministically. Returns `true` if the state reversed
    /// during this step.
    ///
    /// Progress toward a reversal accumulates as `dt/τ(I)`; if the current
    /// direction stops favouring the pending reversal, accumulated progress
    /// decays at the relaxation rate `dt/τ₀·e^{-Δ}`… in practice it simply
    /// resets, because a free layer that has not crossed the energy barrier
    /// relaxes back within precession timescales once torque is removed.
    pub fn advance(&mut self, current: Current, dt: Time) -> bool {
        let Some(target) = self.polarity.target_state(current) else {
            self.relax();
            return false;
        };
        if target == self.state {
            // Torque stabilises the present state.
            self.relax();
            return false;
        }
        if self.pending_target != Some(target) {
            self.pending_target = Some(target);
            self.progress = 0.0;
        }
        self.progress += self.model.switching_rate(current) * dt.seconds();
        if self.progress >= 1.0 {
            self.state = target;
            self.relax();
            true
        } else {
            false
        }
    }

    /// Advances the dynamics by `dt` with a stochastic reversal decision:
    /// the step switches with probability `1 − exp(−dt/τ(I))`.
    ///
    /// Use for write-error-rate and read-disturb Monte-Carlo studies.
    /// Returns `true` if the state reversed during this step.
    pub(crate) fn advance_stochastic<R: Rng + ?Sized>(
        &mut self,
        current: Current,
        dt: Time,
        rng: &mut R,
    ) -> bool {
        let Some(target) = self.polarity.target_state(current) else {
            return false;
        };
        if target == self.state {
            return false;
        }
        let p = self.model.switch_probability(current, dt);
        if rng.random::<f64>() < p {
            self.state = target;
            self.relax();
            true
        } else {
            false
        }
    }

    fn relax(&mut self) {
        self.progress = 0.0;
        self.pending_target = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn device(initial: MtjState) -> (MtjParams, Mtj) {
        let params = MtjParams::date2018();
        let mtj = Mtj::new(params.clone(), initial, WritePolarity::default());
        (params, mtj)
    }

    #[test]
    fn polarity_maps_current_sign_to_target() {
        let i = Current::from_micro_amps(70.0);
        let pol = WritePolarity::PositiveSetsAntiParallel;
        assert_eq!(pol.target_state(i), Some(MtjState::AntiParallel));
        assert_eq!(pol.target_state(-i), Some(MtjState::Parallel));
        assert_eq!(pol.target_state(Current::ZERO), None);
        assert_eq!(pol.flipped().target_state(i), Some(MtjState::Parallel));
        assert_eq!(pol.flipped().flipped(), pol);
    }

    #[test]
    fn nominal_write_switches_in_about_two_nanoseconds() {
        let (params, mut mtj) = device(MtjState::Parallel);
        let dt = Time::from_pico_seconds(10.0);
        let mut elapsed = Time::ZERO;
        while mtj.state() == MtjState::Parallel {
            assert!(elapsed.nano_seconds() < 5.0, "write did not complete");
            mtj.advance(params.nominal_write_current(), dt);
            elapsed += dt;
        }
        assert!((elapsed.nano_seconds() - 2.0).abs() < 0.05, "{elapsed}");
    }

    #[test]
    fn reverse_current_writes_the_other_state() {
        let (params, mut mtj) = device(MtjState::AntiParallel);
        let i = -params.nominal_write_current();
        for _ in 0..400 {
            mtj.advance(i, Time::from_pico_seconds(10.0));
        }
        assert_eq!(mtj.state(), MtjState::Parallel);
    }

    #[test]
    fn stabilising_current_never_switches() {
        let (params, mut mtj) = device(MtjState::AntiParallel);
        // Positive current drives toward AP, which is already the state.
        for _ in 0..1000 {
            assert!(!mtj.advance(
                params.nominal_write_current(),
                Time::from_pico_seconds(10.0)
            ));
        }
        assert_eq!(mtj.state(), MtjState::AntiParallel);
    }

    #[test]
    fn interrupted_write_resets_progress() {
        let (params, mut mtj) = device(MtjState::Parallel);
        let i = params.nominal_write_current();
        // Half a write...
        for _ in 0..100 {
            mtj.advance(i, Time::from_pico_seconds(10.0));
        }
        assert!(mtj.switching_progress() > 0.3);
        // ...then remove torque: progress relaxes.
        mtj.advance(Current::ZERO, Time::from_pico_seconds(10.0));
        assert_eq!(mtj.switching_progress(), 0.0);
        assert_eq!(mtj.state(), MtjState::Parallel);
    }

    #[test]
    fn read_current_does_not_disturb() {
        let (_, mut mtj) = device(MtjState::Parallel);
        // 20 µA (< Ic0) "read" current pointing toward AP held for 100 ns.
        let i = Current::from_micro_amps(20.0);
        for _ in 0..10_000 {
            mtj.advance(i, Time::from_pico_seconds(10.0));
        }
        assert_eq!(mtj.state(), MtjState::Parallel);
        assert!(mtj.switching_progress() < 1e-6);
    }

    #[test]
    fn resistance_tracks_state() {
        let (params, mut mtj) = device(MtjState::Parallel);
        assert_eq!(mtj.resistance(Voltage::ZERO), params.resistance_parallel());
        mtj.set_state(MtjState::AntiParallel);
        assert_eq!(
            mtj.resistance(Voltage::ZERO),
            params.resistance_antiparallel()
        );
    }

    #[test]
    fn stochastic_write_converges_to_certainty() {
        let (params, _) = device(MtjState::Parallel);
        let mut rng = StdRng::seed_from_u64(42);
        let mut switched = 0;
        let trials = 200;
        for _ in 0..trials {
            let mut mtj = Mtj::new(params.clone(), MtjState::Parallel, WritePolarity::default());
            // 10 ns at nominal current: ~5τ, nearly certain.
            for _ in 0..1000 {
                if mtj.advance_stochastic(
                    params.nominal_write_current(),
                    Time::from_pico_seconds(10.0),
                    &mut rng,
                ) {
                    break;
                }
            }
            if mtj.state() == MtjState::AntiParallel {
                switched += 1;
            }
        }
        assert!(switched > trials * 95 / 100, "{switched}/{trials}");
    }

    #[test]
    fn stochastic_read_disturb_is_rare() {
        let (params, _) = device(MtjState::Parallel);
        let mut rng = StdRng::seed_from_u64(7);
        let mut mtj = Mtj::new(params, MtjState::Parallel, WritePolarity::default());
        for _ in 0..10_000 {
            mtj.advance_stochastic(
                Current::from_micro_amps(10.0),
                Time::from_pico_seconds(100.0),
                &mut rng,
            );
        }
        assert_eq!(mtj.state(), MtjState::Parallel);
    }

    #[test]
    fn set_state_discards_progress() {
        let (params, mut mtj) = device(MtjState::Parallel);
        for _ in 0..50 {
            mtj.advance(
                params.nominal_write_current(),
                Time::from_pico_seconds(10.0),
            );
        }
        mtj.set_state(MtjState::Parallel);
        assert_eq!(mtj.switching_progress(), 0.0);
    }
}
