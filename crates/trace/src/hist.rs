//! Fixed-bucket log-linear latency histogram.
//!
//! HDR-style layout: values below 2^`SUB_BITS` get exact unit buckets;
//! above that, each power-of-two range is split into 2^`SUB_BITS` linear
//! sub-buckets, so relative error is bounded by 1/2^`SUB_BITS` (~6%)
//! across the whole `u64` range. The bucket array is a fixed-size count
//! vector, which makes [`LogHistogram::merge`] plain elementwise
//! addition — exactly associative and commutative, the property the
//! sharded engine relies on to combine per-shard histograms in any
//! grouping. Quantiles report the *lower bound* of the bucket holding
//! the target rank: a deterministic, merge-order-independent value.

use crate::json::JsonObj;

/// Sub-bucket resolution: each power-of-two range has `2^SUB_BITS`
/// linear sub-buckets.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering all of `u64`.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// A mergeable latency histogram (values are dimensionless `u64`s; the
/// workspace records microseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>, // always BUCKETS long
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram { counts: vec![0; BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// The bucket index recording `v`.
    #[must_use]
    pub fn bucket_index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let h = 63 - v.leading_zeros(); // highest set bit, >= SUB_BITS
        let e = (h - SUB_BITS) as u64; // power-of-two group, 0-based
        let sub = (v >> (h - SUB_BITS)) & (SUB - 1);
        (SUB + e * SUB + sub) as usize
    }

    /// The smallest value that lands in bucket `idx` (the quantile
    /// representative).
    #[must_use]
    pub fn bucket_lower_bound(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUB {
            return idx;
        }
        let e = (idx - SUB) / SUB;
        let sub = (idx - SUB) % SUB;
        (SUB + sub) << e
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.max = self.max.max(v);
    }

    /// Merges `other` into `self` (elementwise bucket addition).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest recorded value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all recorded values.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of recorded values (0.0 when empty).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the lower bound of the
    /// bucket containing the observation of rank `ceil(q * count)`
    /// (clamped to at least rank 1). Returns 0 when empty.
    #[must_use]
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Self::bucket_lower_bound(idx);
            }
        }
        self.max
    }

    /// Serializes summary statistics as one JSON object:
    /// `{"count":..,"sum":..,"mean":..,"p50":..,"p90":..,"p99":..,"max":..}`.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.u64("count", self.count);
        // u128 sums exceed u64 only far beyond any run we record; clamp
        // rather than panic so exports never abort a run.
        o.u64("sum", u64::try_from(self.sum).unwrap_or(u64::MAX));
        o.f64("mean", self.mean());
        o.u64("p50", self.quantile(0.50));
        o.u64("p90", self.quantile(0.90));
        o.u64("p99", self.quantile(0.99));
        o.u64("max", self.max);
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_round_trip_brackets_every_value() {
        for v in
            (0..10_000u64).chain([1 << 20, (1 << 20) + 12345, u64::MAX / 2, u64::MAX - 1, u64::MAX])
        {
            let idx = LogHistogram::bucket_index(v);
            assert!(idx < BUCKETS, "index {idx} out of range for {v}");
            let lo = LogHistogram::bucket_lower_bound(idx);
            assert!(lo <= v, "lower bound {lo} > value {v}");
            if idx + 1 < BUCKETS {
                let next = LogHistogram::bucket_lower_bound(idx + 1);
                assert!(v < next, "value {v} not below next bound {next}");
            }
        }
    }

    #[test]
    fn bucket_bounds_are_monotone() {
        let mut prev = None;
        for idx in 0..BUCKETS {
            let lo = LogHistogram::bucket_lower_bound(idx);
            if let Some(p) = prev {
                assert!(lo > p, "bucket {idx} bound {lo} <= previous {p}");
            }
            prev = Some(lo);
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..16 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.count(), 16);
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let values_a = [3u64, 17, 900, 1 << 30];
        let values_b = [0u64, 5, 5, 123_456, u64::MAX];
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for v in values_a {
            a.record(v);
            both.record(v);
        }
        for v in values_b {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn json_summary_shape() {
        let mut h = LogHistogram::new();
        h.record(10);
        h.record(1000);
        let v = crate::json::Value::parse(&h.to_json()).unwrap();
        assert_eq!(v.get("count").and_then(crate::json::Value::as_u64), Some(2));
        assert!(v.get("p99").and_then(crate::json::Value::as_u64).unwrap() >= 10);
        assert_eq!(v.get("max").and_then(crate::json::Value::as_u64), Some(1000));
    }
}
