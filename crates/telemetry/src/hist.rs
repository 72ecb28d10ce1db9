//! Fixed-bucket histograms for positive physical quantities.
//!
//! The instrumented quantities span enormous ranges — transient step
//! sizes around 10⁻¹² s, Newton voltage updates from 10⁻⁹ to 0.3 V, LU
//! solve times from sub-microsecond up — so buckets are logarithmic:
//! two per decade from 10⁻¹⁵ to 10³, plus underflow and overflow
//! buckets. The bucket layout is identical for every histogram, which
//! keeps recording allocation-free after creation and makes histograms
//! mergeable bucket-by-bucket.

use crate::json::JsonValue;

/// Lowest decade covered (values below 10⁻¹⁵ land in the underflow
/// bucket — together with zeros and negatives, which the instrumented
/// quantities never produce but a histogram must not panic on).
const DECADE_LO: f64 = -15.0;
/// Highest decade covered (values at or above 10³ overflow).
const DECADE_HI: f64 = 3.0;
/// Buckets per decade.
const PER_DECADE: f64 = 2.0;
/// Regular buckets between the decade limits.
const REGULAR: usize = ((DECADE_HI - DECADE_LO) * PER_DECADE) as usize;
/// Total buckets: underflow + regular + overflow.
pub(crate) const BUCKETS: usize = REGULAR + 2;

/// A log-bucketed histogram with running sum/min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Index of the bucket holding `value` (0 = underflow, last =
    /// overflow).
    #[must_use]
    pub(crate) fn bucket_index(value: f64) -> usize {
        if value <= 0.0 || value.is_nan() {
            return 0;
        }
        let idx = ((value.log10() - DECADE_LO) * PER_DECADE).floor();
        if idx < 0.0 {
            0
        } else if idx >= REGULAR as f64 {
            BUCKETS - 1
        } else {
            idx as usize + 1
        }
    }

    /// Lower edge of regular bucket `k` (1-based within the regular
    /// range); `None` for the underflow/overflow buckets.
    #[must_use]
    pub(crate) fn bucket_lower(k: usize) -> Option<f64> {
        if (1..=REGULAR).contains(&k) {
            Some(10f64.powf(DECADE_LO + (k - 1) as f64 / PER_DECADE))
        } else {
            None
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        if value.is_finite() {
            self.sum += value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all finite observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of all finite observations (0 when empty).
    #[must_use]
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest finite observation (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.min.is_finite()).then_some(self.min)
    }

    /// Largest finite observation (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.max.is_finite()).then_some(self.max)
    }

    /// Approximate quantile from the bucket counts: the lower edge of
    /// the bucket containing the `q`-th observation.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                return Some(Self::bucket_lower(k).unwrap_or(if k == 0 {
                    0.0
                } else {
                    10f64.powf(DECADE_HI)
                }));
            }
        }
        self.max()
    }

    /// Cumulative bucket view in Prometheus `le` convention: one
    /// `(upper_edge, cumulative_count)` pair per bucket, edges strictly
    /// increasing, last pair always `(+∞, count)`. The underflow
    /// bucket's upper edge is the lowest regular edge (10⁻¹⁵); the
    /// overflow bucket is the `+∞` entry.
    #[must_use]
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(BUCKETS);
        let mut cum = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            cum += c;
            let upper = if k == BUCKETS - 1 {
                f64::INFINITY
            } else {
                // The last regular bucket's upper edge is the overflow
                // threshold, one step past what bucket_lower covers.
                Self::bucket_lower(k + 1).unwrap_or_else(|| 10f64.powf(DECADE_HI))
            };
            out.push((upper, cum));
        }
        out
    }

    /// Folds another histogram into this one (same fixed layout, so the
    /// merge is bucket-wise).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Serializes the histogram: summary statistics plus the non-empty
    /// buckets as `[lower_edge, count]` pairs (underflow edge = 0).
    #[must_use]
    pub(crate) fn to_json(&self) -> JsonValue {
        let buckets: Vec<JsonValue> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| {
                let edge = Self::bucket_lower(k).unwrap_or(if k == 0 {
                    0.0
                } else {
                    10f64.powf(DECADE_HI)
                });
                JsonValue::Array(vec![
                    JsonValue::Float(edge),
                    JsonValue::Int(i64::try_from(c).unwrap_or(i64::MAX)),
                ])
            })
            .collect();
        JsonValue::object(vec![
            (
                "count".into(),
                JsonValue::Int(i64::try_from(self.count).unwrap_or(i64::MAX)),
            ),
            ("sum".into(), JsonValue::Float(self.sum)),
            ("min".into(), JsonValue::Float(self.min().unwrap_or(0.0))),
            ("max".into(), JsonValue::Float(self.max().unwrap_or(0.0))),
            ("buckets".into(), JsonValue::Array(buckets)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_positive_axis() {
        // Every positive value lands in exactly one bucket, and bucket
        // edges are monotone.
        for &v in &[1e-18, 1e-15, 3.2e-13, 1e-6, 0.3, 1.0, 999.0, 1e3, 1e9] {
            let k = Histogram::bucket_index(v);
            assert!(k < BUCKETS);
            if let Some(lo) = Histogram::bucket_lower(k) {
                assert!(v >= lo * (1.0 - 1e-12), "{v} below its bucket edge {lo}");
            }
        }
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(-1.0), 0);
        assert_eq!(Histogram::bucket_index(f64::NAN), 0);
        assert_eq!(Histogram::bucket_index(1e9), BUCKETS - 1);
    }

    #[test]
    fn summary_statistics_track_observations() {
        let mut h = Histogram::new();
        for v in [1e-12, 2e-12, 4e-12] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 2.333e-12).abs() < 1e-14);
        assert_eq!(h.min(), Some(1e-12));
        assert_eq!(h.max(), Some(4e-12));
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1e-9);
        b.record(1e-9);
        b.record(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Some(5.0));
        let json = a.to_json().to_json();
        assert!(json.contains("\"count\":3"), "{json}");
    }

    #[test]
    fn quantile_is_bucket_resolution() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(1e-12);
        }
        h.record(1.0);
        let p50 = h.quantile(0.5).expect("nonempty");
        assert!(p50 < 1e-11, "p50 = {p50}");
        let p999 = h.quantile(0.999).expect("nonempty");
        assert!(p999 >= 0.5, "p999 = {p999}");
        assert_eq!(Histogram::new().quantile(0.5), None);
    }
}
