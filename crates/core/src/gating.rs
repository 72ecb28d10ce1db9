//! The normally-off/instant-on energy model.
//!
//! An NV flip-flop group makes power-gating profitable when the leakage
//! energy saved during the off interval exceeds the store + restore
//! overhead. This model computes the break-even idle time and the net
//! saving per power cycle — the system-level argument of the paper's
//! introduction, and the quantitative backbone of the
//! `checkpoint_restore` example.

use units::{Energy, Power, Time};

/// Power-gating cost model for one NV-backed storage group.
///
/// # Examples
///
/// ```
/// use nvff::PowerGatingModel;
/// use units::{Energy, Power, Time};
///
/// let model = PowerGatingModel::new(
///     Power::from_pico_watts(1565.0), // leakage while powered
///     Energy::from_femto_joules(104.0), // store
///     Energy::from_femto_joules(5.0),   // restore
/// );
/// // Idle for a millisecond: gating clearly pays off.
/// let saving = model.net_saving(Time::from_micro_seconds(1000.0));
/// assert!(saving.joules() > 0.0);
/// assert!(model.break_even_idle() < Time::from_micro_seconds(1000.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerGatingModel {
    leakage: Power,
    store_energy: Energy,
    restore_energy: Energy,
}

impl PowerGatingModel {
    /// Creates a model from the three cost parameters.
    ///
    /// # Panics
    ///
    /// Panics if the leakage is not positive — a non-leaking design
    /// never benefits from gating and the break-even time would be
    /// undefined.
    #[must_use]
    pub fn new(leakage: Power, store_energy: Energy, restore_energy: Energy) -> Self {
        assert!(
            leakage.watts() > 0.0,
            "leakage must be positive, got {leakage}"
        );
        Self {
            leakage,
            store_energy,
            restore_energy,
        }
    }

    /// Leakage power while powered.
    #[must_use]
    pub fn leakage(&self) -> Power {
        self.leakage
    }

    /// Store (backup) energy per power-down.
    #[must_use]
    pub fn store_energy(&self) -> Energy {
        self.store_energy
    }

    /// Restore energy per wake-up.
    #[must_use]
    pub fn restore_energy(&self) -> Energy {
        self.restore_energy
    }

    /// Total energy overhead of one power cycle.
    #[must_use]
    pub(crate) fn cycle_overhead(&self) -> Energy {
        self.store_energy + self.restore_energy
    }

    /// Net energy saved by gating through an idle interval of length
    /// `idle` (can be negative for short intervals).
    #[must_use]
    pub fn net_saving(&self, idle: Time) -> Energy {
        self.leakage * idle - self.cycle_overhead()
    }

    /// The idle duration at which gating breaks even.
    #[must_use]
    pub fn break_even_idle(&self) -> Time {
        Time::from_seconds(self.cycle_overhead().joules() / self.leakage.watts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerGatingModel {
        PowerGatingModel::new(
            Power::from_pico_watts(1565.0),
            Energy::from_femto_joules(104.0),
            Energy::from_femto_joules(5.0),
        )
    }

    #[test]
    fn break_even_is_where_saving_crosses_zero() {
        let m = model();
        let t = m.break_even_idle();
        let just_before = m.net_saving(t * 0.99);
        let just_after = m.net_saving(t * 1.01);
        assert!(just_before.joules() < 0.0);
        assert!(just_after.joules() > 0.0);
        // 109 fJ / 1565 pW ≈ 70 µs.
        assert!((t.micro_seconds() - 69.6).abs() < 1.0, "{t}");
    }

    #[test]
    fn short_idle_wastes_energy() {
        let m = model();
        assert!(m.net_saving(Time::from_nano_seconds(100.0)).joules() < 0.0);
    }

    #[test]
    fn long_idle_saving_approaches_leakage_times_idle() {
        let m = model();
        let idle = Time::from_seconds(1.0);
        let saving = m.net_saving(idle);
        let leak = m.leakage() * idle;
        assert!(saving.joules() / leak.joules() > 0.999);
    }

    #[test]
    fn accessors_round_trip() {
        let m = model();
        assert_eq!(m.store_energy(), Energy::from_femto_joules(104.0));
        assert_eq!(m.restore_energy(), Energy::from_femto_joules(5.0));
        assert!((m.cycle_overhead().femto_joules() - 109.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "leakage must be positive")]
    fn zero_leakage_rejected() {
        let _ = PowerGatingModel::new(
            Power::ZERO,
            Energy::from_femto_joules(1.0),
            Energy::from_femto_joules(1.0),
        );
    }
}
