//! Order statistics over timing samples.
//!
//! A failed op or request is recorded as `f64::INFINITY`, so it sorts
//! beyond any latency limit instead of vanishing from the distribution.

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Fewest samples a run must hold before it reports a tail percentile.
pub const TAIL_MIN_SAMPLES: usize = 100;

/// The highest whole percentile `p` (1..=99) that still has at least
/// [`TAIL_SAMPLES_BEYOND`] samples beyond it, with its nearest-rank
/// value. `None` below [`TAIL_MIN_SAMPLES`] samples.
#[must_use]
pub fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    if n < TAIL_MIN_SAMPLES {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (1..=99u32).rev().find_map(|p| {
        // Nearest rank: the smallest rank r with r/n >= p/100.
        let rank = (p as usize * n).div_ceil(100);
        (n - rank >= TAIL_SAMPLES_BEYOND).then(|| (p, sorted[rank - 1]))
    })
}

/// Value at percentile `p` by nearest rank; `NaN` when empty.
#[must_use]
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_a_hundred_samples() {
        let values: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&values), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&values), Some((99, 990.0)));
        // 500 samples: p99 leaves 5, p98 leaves 10.
        let values: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail_percentile(&values), Some((98, 490.0)));
        // 100 samples: p90 is rank 90, leaving 10.
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&values), Some((90, 90.0)));
        // 150 samples: p93 is rank 140 (10 beyond), p94 is rank 141.
        let values: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(tail_percentile(&values), Some((93, 140.0)));
    }

    #[test]
    fn failures_count_beyond_any_limit() {
        let mut values: Vec<f64> = (1..=1000).map(f64::from).collect();
        values.extend(std::iter::repeat_n(f64::INFINITY, 20));
        let (p, v) = tail_percentile(&values).expect("enough samples");
        assert_eq!(p, 99);
        assert!(v.is_infinite(), "20 failures fill the top 2 %: {v}");
        assert_eq!(percentile(&[5.0, 1.0, f64::INFINITY], 50), 5.0);
    }
}
