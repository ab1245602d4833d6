//! Small statistics toolkit for the paper's figures: online (Welford)
//! mean/variance accumulation and interpolated percentiles.

/// Online mean/variance accumulator (Welford's algorithm).
///
/// ```
/// use rrmp_netsim::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        OnlineStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n−1 denominator), or 0.0 with fewer than two points.
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation, or `NaN` when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation, or `NaN` when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Percentile of a sample using linear interpolation (inclusive method).
///
/// Returns `NaN` for an empty slice. `q` is clamped to `[0, 1]`.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        s.push(1.0);
        s.push(3.0);
        assert_eq!(s.count(), 2);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert!((s.sample_variance() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
    }

    #[test]
    fn online_stats_merge_matches_bulk() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-9);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert!((percentile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!(percentile(&[], 0.5).is_nan());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Welford accumulation matches the naive two-pass computation.
        #[test]
        fn online_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut s = OnlineStats::new();
            for &x in &xs {
                s.push(x);
            }
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
            prop_assert!((s.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
            if xs.len() > 1 {
                prop_assert!((s.sample_variance() - var).abs() < 1e-4 * var.abs().max(1.0));
            }
        }

        /// Merging any split of a sample equals accumulating the whole.
        #[test]
        fn merge_is_split_invariant(
            xs in proptest::collection::vec(-1e3f64..1e3, 2..100),
            split_frac in 0.0f64..1.0,
        ) {
            let split = ((xs.len() as f64 * split_frac) as usize).min(xs.len());
            let mut whole = OnlineStats::new();
            for &x in &xs { whole.push(x); }
            let mut a = OnlineStats::new();
            let mut b = OnlineStats::new();
            for &x in &xs[..split] { a.push(x); }
            for &x in &xs[split..] { b.push(x); }
            a.merge(&b);
            prop_assert_eq!(a.count(), whole.count());
            prop_assert!((a.mean() - whole.mean()).abs() < 1e-7);
        }
    }
}
