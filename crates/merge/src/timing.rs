//! Timing validation of merged pairs — the paper's claim that merging
//! flip-flops closer than 3.35 µm carries "no timing penalties".
//!
//! Sharing one NV component between two flip-flops adds a route from
//! each flip-flop to the component at the pair's midpoint. The added
//! delay is evaluated with the Elmore model over a distributed RC wire:
//!
//! ```text
//! t = R_drv·(c·L + C_load) + r·L·(c·L/2 + C_load)
//! ```
//!
//! With 40 nm-class M2 parasitics the paper's threshold adds
//! single-digit picoseconds — three orders of magnitude below a
//! nanosecond-class cycle, which *is* the quantitative form of the
//! paper's argument.

use units::{Length, Time};

use crate::pairing::MergePlan;

/// Wire and driver parasitics for the added NV-component route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Wire resistance per metre (default 0.8 Ω/µm for 40 nm M2).
    pub(crate) wire_res_per_m: f64,
    /// Wire capacitance per metre (default 0.2 fF/µm).
    pub(crate) wire_cap_per_m: f64,
    /// Driving resistance of the flip-flop's backup port, ohms.
    pub(crate) driver_res: f64,
    /// Load capacitance of the NV component's data pin, farads.
    pub(crate) load_cap: f64,
    /// Timing budget the added delay must stay under.
    pub(crate) budget: Time,
}

impl Default for TimingModel {
    fn default() -> Self {
        Self {
            wire_res_per_m: 0.8e6,  // 0.8 Ω/µm
            wire_cap_per_m: 0.2e-9, // 0.2 fF/µm
            driver_res: 2_000.0,
            load_cap: 1e-15,
            budget: Time::from_pico_seconds(50.0),
        }
    }
}

impl TimingModel {
    /// Elmore delay of the added route for a flip-flop `distance` away
    /// from its shared component (each partner routes half the pair
    /// separation).
    ///
    /// # Examples
    ///
    /// ```
    /// use merge::timing::TimingModel;
    /// use units::Length;
    ///
    /// let model = TimingModel::default();
    /// // At the paper's threshold, the added delay is picosecond-scale.
    /// let t = model.added_delay(Length::from_micro_meters(3.35));
    /// assert!(t.pico_seconds() < 10.0);
    /// ```
    #[must_use]
    pub fn added_delay(&self, pair_distance: Length) -> Time {
        let wire = pair_distance.meters() / 2.0;
        let r_wire = self.wire_res_per_m * wire;
        let c_wire = self.wire_cap_per_m * wire;
        let seconds =
            self.driver_res * (c_wire + self.load_cap) + r_wire * (c_wire / 2.0 + self.load_cap);
        Time::from_seconds(seconds)
    }

    /// Checks every pair of a merge plan; returns the indices (into
    /// `plan.pairs()`) of pairs whose added delay exceeds the budget.
    #[must_use]
    pub fn violations(&self, plan: &MergePlan) -> Vec<usize> {
        plan.pairs()
            .iter()
            .enumerate()
            .filter(|(_, p)| self.added_delay(Length::from_micro_meters(p.distance)) > self.budget)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::{self, FlipFlopPoint, Strategy};

    #[test]
    fn delay_grows_monotonically_with_distance() {
        let model = TimingModel::default();
        let mut last = Time::ZERO;
        for um in [0.5, 1.0, 3.35, 10.0, 50.0] {
            let t = model.added_delay(Length::from_micro_meters(um));
            assert!(t > last, "{um} µm");
            last = t;
        }
    }

    #[test]
    fn papers_threshold_is_comfortably_inside_the_budget() {
        let model = TimingModel::default();
        let at_threshold = model.added_delay(Length::from_micro_meters(3.35));
        // Picoseconds against a 50 ps budget: > 10× margin.
        assert!(
            at_threshold.seconds() * 10.0 < model.budget.seconds(),
            "added delay at threshold = {at_threshold}"
        );
    }

    #[test]
    fn plan_violations_flag_only_over_budget_pairs() {
        let points: Vec<FlipFlopPoint> = [(0.0, 0.0), (2.0, 0.0), (100.0, 0.0), (290.0, 0.0)]
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| FlipFlopPoint {
                name: format!("FF{i}"),
                x,
                y,
            })
            .collect();
        // A huge threshold lets the distant pair form too.
        let plan = pairing::pair(
            &points,
            Length::from_micro_meters(200.0),
            Strategy::GreedyClosest,
        );
        assert_eq!(plan.merged_pairs(), 2);
        let tight = TimingModel {
            budget: Time::from_pico_seconds(5.0),
            ..TimingModel::default()
        };
        let violations = tight.violations(&plan);
        assert_eq!(violations.len(), 1);
        // The flagged pair is the long one.
        let flagged = &plan.pairs()[violations[0]];
        assert!(flagged.distance > 50.0);
    }

    #[test]
    fn default_plan_at_paper_threshold_never_violates() {
        let points: Vec<FlipFlopPoint> = (0..20)
            .map(|i| FlipFlopPoint {
                name: format!("FF{i}"),
                x: f64::from(i) * 1.7,
                y: 0.0,
            })
            .collect();
        let plan = pairing::pair(
            &points,
            Length::from_micro_meters(3.35),
            Strategy::GreedyClosest,
        );
        assert!(plan.merged_pairs() > 0);
        assert!(TimingModel::default().violations(&plan).is_empty());
    }
}
