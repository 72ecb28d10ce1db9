//! Monte-Carlo harness and summary statistics over device samples.
//!
//! The circuit-level corner columns of Table II bound the distribution; a
//! Monte-Carlo run characterises the interior. [`run`] evaluates an
//! arbitrary metric over `n` perturbed devices and [`Statistics`]
//! summarises the draws (mean, standard deviation, extremes, yield against
//! a predicate).
//!
//! Sampling is **counter-seeded**: draw `i` perturbs its device with a
//! private `StdRng` seeded by [`sweep::point_seed`]`(seed, i)` rather
//! than walking one shared generator. Any draw can therefore be
//! computed independently — which is what lets [`run`] fan the campaign
//! out over a worker pool and still return results bit-identical for
//! every worker count.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::params::MtjParams;
use crate::variation::{MtjSample, VariationModel};

/// Runs `metric` over `n` Monte-Carlo device samples drawn with a
/// deterministic seed, fanned out over a [`sweep`] worker pool, and
/// returns every metric value in draw order together with the pool's
/// [`sweep::RunSummary`] accounting.
///
/// The metric receives the full [`MtjSample`] so it can correlate outputs
/// with the underlying multipliers. Draw `i` uses its own counter-derived
/// seed, so the value at index `i` does not depend on `n`, on any other
/// draw, or on `jobs` (`0` = auto, `1` = serial on the calling thread):
/// results are **bit-identical** for every worker count.
///
/// # Examples
///
/// ```
/// use mtj::{MtjParams, VariationModel, montecarlo};
///
/// let nominal = MtjParams::date2018();
/// let v = VariationModel::default();
/// let (spread, summary) = montecarlo::run(&nominal, &v, 256, 7, 0, |s| {
///     s.params.resistance_antiparallel().ohms() - s.params.resistance_parallel().ohms()
/// });
/// let stats = montecarlo::Statistics::from_values(&spread);
/// // The nominal Rap − Rp = 6 kΩ read window is preserved on average.
/// assert!((stats.mean() - 6000.0).abs() < 200.0);
/// assert_eq!(summary.points, 256);
/// ```
pub fn run<T: Send>(
    nominal: &MtjParams,
    variation: &VariationModel,
    n: usize,
    seed: u64,
    jobs: usize,
    metric: impl Fn(&MtjSample) -> T + Sync,
) -> (Vec<T>, sweep::RunSummary) {
    let grid = sweep::Grid::samples(n, seed);
    let opts = sweep::SweepOptions {
        jobs,
        span_label: "mtj.mc_sample",
        ..sweep::SweepOptions::default()
    };
    let outcome = sweep::run(&grid, &opts, |ctx, ()| {
        let mut rng = StdRng::seed_from_u64(ctx.seed);
        metric(&variation.sample(nominal, &mut rng))
    });
    (outcome.results, outcome.summary)
}

/// Summary statistics over a slice of metric values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Statistics {
    count: usize,
    mean: f64,
    std_dev: f64,
    min: f64,
    max: f64,
}

impl Statistics {
    /// Computes statistics over `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty — an empty Monte-Carlo run is a caller
    /// bug, not a data condition.
    #[must_use]
    pub fn from_values(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "statistics over an empty sample set");
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            count,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Sample mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (Bessel-corrected).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Smallest observed value.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observed value.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// The `q`-quantile (0‥1) of `values` by linear interpolation between
/// order statistics — e.g. `quantile(&spreads, 0.999)` estimates a +3σ
/// point non-parametrically.
///
/// # Panics
///
/// Panics if `values` is empty or `q` is outside `[0, 1]`.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample set");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let position = q * (sorted.len() - 1) as f64;
    let lower = position.floor() as usize;
    let upper = position.ceil() as usize;
    let frac = position - lower as f64;
    sorted[lower] * (1.0 - frac) + sorted[upper] * frac
}

/// Fraction of values satisfying `pass` — the yield of a criterion such as
/// "read margin above 100 mV".
///
/// Returns 0 for an empty slice.
#[must_use]
pub fn yield_fraction(values: &[f64], mut pass: impl FnMut(f64) -> bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let passing = values.iter().filter(|&&v| pass(v)).count();
    passing as f64 / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric values of a serial (`jobs = 1`) run.
    fn serial<T: Send>(n: usize, seed: u64, metric: impl Fn(&MtjSample) -> T + Sync) -> Vec<T> {
        run(
            &MtjParams::date2018(),
            &VariationModel::default(),
            n,
            seed,
            1,
            metric,
        )
        .0
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let rp = |s: &MtjSample| s.params.resistance_parallel().ohms();
        let a = serial(64, 11, rp);
        let b = serial(64, 11, rp);
        let c = serial(64, 12, rp);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn draw_i_is_independent_of_n() {
        // Counter seeding: shrinking the campaign must not change the
        // draws that remain.
        let long = serial(50, 13, |s| s.tmr_multiplier);
        let short = serial(20, 13, |s| s.tmr_multiplier);
        assert_eq!(&long[..20], &short[..]);
    }

    #[test]
    fn statistics_basics() {
        let s = Statistics::from_values(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.min() - 1.0).abs() < 1e-12);
        assert!((s.max() - 4.0).abs() < 1e-12);
        // Bessel-corrected sd of 1..4 is sqrt(5/3).
        assert!((s.std_dev() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s = Statistics::from_values(&[7.0]);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.mean(), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn empty_statistics_panic() {
        let _ = Statistics::from_values(&[]);
    }

    #[test]
    fn quantiles_interpolate_order_statistics() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert!((quantile(&values, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&values, 1.0) - 4.0).abs() < 1e-12);
        assert!((quantile(&values, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&values, 1.0 / 3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_quantile_panics() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn gaussian_quantiles_match_the_normal_table() {
        // The sampled TMR multiplier is N(1, 0.05²): its 97.7 % quantile
        // sits near +2σ.
        let draws = serial(8000, 21, |s| s.tmr_multiplier);
        let q977 = quantile(&draws, 0.977);
        assert!((q977 - 1.10).abs() < 0.01, "q97.7 = {q977}");
    }

    #[test]
    fn yield_counts_passing_fraction() {
        let values = [0.5, 1.5, 2.5, 3.5];
        assert!((yield_fraction(&values, |v| v > 1.0) - 0.75).abs() < 1e-12);
        assert_eq!(yield_fraction(&[], |_| true), 0.0);
    }

    #[test]
    fn read_window_yield_is_high_at_default_variation() {
        // Yield criterion: Rap − Rp window at least 4 kΩ (two thirds of
        // nominal). With 4–5 % sigmas this should pass essentially always.
        let windows = serial(2000, 3, |s| {
            s.params.resistance_antiparallel().ohms() - s.params.resistance_parallel().ohms()
        });
        let y = yield_fraction(&windows, |w| w > 4000.0);
        assert!(y > 0.999, "yield = {y}");
    }
}
