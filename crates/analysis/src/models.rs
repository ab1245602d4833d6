//! The paper's closed-form models.
//!
//! * §3.1 — feedback confidence: the probability that a member holding a
//!   message receives **no** request while fraction `p` of an `n`-member
//!   region misses it is `(1 − 1/(n−1))^{np} ≈ e^{−p}`.
//! * §3.2 — long-term bufferers: `Binomial(n, C/n) → Poisson(C)`; the
//!   probability that *nobody* buffers an idle message is `≈ e^{−C}`
//!   (Figure 4); the pmf for `k` bufferers is Figure 3.
//! * §3.3 — search time: a random-probe model for the expected time until
//!   a search with `j` bufferers among `n` members reaches one (Figures
//!   8/9 measure this in simulation; the model predicts the shape).

use crate::combinatorics::{binomial_pmf, poisson_pmf};

/// §3.1: probability that a member receives no request for a message when
/// fraction `p` (`0..=1`) of the `n` members in its region miss it, under
/// one round of uniform random requests: `(1 − 1/(n−1))^{np}`.
///
/// Returns 1.0 when nothing is missing and 0 ≤ result ≤ 1 always.
#[must_use]
pub fn no_request_probability(n: usize, p: f64) -> f64 {
    if n < 2 {
        return 1.0;
    }
    let p = p.clamp(0.0, 1.0);
    (1.0 - 1.0 / (n as f64 - 1.0)).powf(n as f64 * p)
}

/// §3.2 / Figure 3: probability that exactly `k` members of an `n`-member
/// region buffer an idle message when each keeps it with probability
/// `C/n` (exact binomial form).
#[must_use]
pub fn bufferer_count_pmf_exact(n: usize, c: f64, k: u64) -> f64 {
    let p = (c / n as f64).min(1.0);
    binomial_pmf(n as u64, p, k)
}

/// §3.2 / Figure 3: the Poisson(C) limit of [`bufferer_count_pmf_exact`].
#[must_use]
pub fn bufferer_count_pmf(c: f64, k: u64) -> f64 {
    poisson_pmf(c, k)
}

/// §3.2 / Figure 4: probability that **no** member buffers an idle message,
/// `≈ e^{−C}` (e.g. 0.25% at C = 6, as the paper notes).
#[must_use]
pub fn no_bufferer_probability(c: f64) -> f64 {
    (-c.max(0.0)).exp()
}

/// Exact no-bufferer probability `(1 − C/n)^n` for a finite region.
#[must_use]
pub fn no_bufferer_probability_exact(n: usize, c: f64) -> f64 {
    let p = (c / n as f64).min(1.0);
    (1.0 - p).powi(n as i32)
}

/// Parameters of the §3.3 search-time model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchModel {
    /// Region size (members that may be probed).
    pub n: usize,
    /// Number of long-term bufferers among them.
    pub j: usize,
    /// One-way latency between any two region members, in milliseconds.
    pub one_way_ms: f64,
    /// Search retry timeout (the estimated RTT), in milliseconds.
    pub timeout_ms: f64,
}

impl SearchModel {
    /// The paper's §4 setting: 5 ms one-way latency, 10 ms retry timer.
    #[must_use]
    pub fn paper(n: usize, j: usize) -> Self {
        SearchModel { n, j, one_way_ms: 5.0, timeout_ms: 10.0 }
    }

    /// Expected search time in milliseconds.
    ///
    /// Model: the initial remote request lands on a uniformly random member
    /// (probability `j/n` of landing on a bufferer ⇒ search time 0).
    /// Otherwise a random walk starts in half-RTT steps; every probed
    /// non-bufferer joins the search on its own timer, so the number of
    /// outstanding probes grows geometrically. We track the expected number
    /// of active searchers `s_t` per half-RTT slot; each probe
    /// independently hits a bufferer with probability `j/(n−1)`, so the
    /// per-slot hit probability is `1 − (1 − j/(n−1))^{s_t}`. The search
    /// ends one one-way latency after the successful probe is sent.
    #[must_use]
    pub fn expected_search_time_ms(&self) -> f64 {
        if self.n == 0 || self.j == 0 {
            return f64::INFINITY;
        }
        if self.j >= self.n {
            return 0.0;
        }
        let p_hit_first = self.j as f64 / self.n as f64;
        let q = self.j as f64 / (self.n as f64 - 1.0);
        // Probes sent at slot t (multiples of one-way latency) arrive at
        // t + 1. New joiners start probing the slot after they are probed;
        // timed-out searchers re-probe every timeout.
        let slots_per_timeout = (self.timeout_ms / self.one_way_ms).round().max(1.0) as usize;
        let mut expected = 0.0;
        let mut alive = 1.0 - p_hit_first; // P(search still running)
        let mut searchers = 1.0f64;
        let mut slot = 0usize;
        // Cap the walk generously; the tail beyond this is negligible for
        // the parameter ranges of Figures 8/9.
        while alive > 1e-9 && slot < 10_000 {
            // Probes in flight this slot: every active searcher sends one
            // either on join or on its timeout boundary.
            let probes = if slot.is_multiple_of(slots_per_timeout) {
                searchers
            } else {
                // Between timeouts only freshly joined searchers probe;
                // approximate their count as the previous slot's growth.
                searchers * q.mul_add(-1.0, 1.0).clamp(0.0, 1.0) * 0.5 + 1.0
            };
            let p_hit = 1.0 - (1.0 - q).powf(probes.max(1.0));
            let t_done = (slot as f64 + 1.0) * self.one_way_ms;
            expected += alive * p_hit * t_done;
            alive *= 1.0 - p_hit;
            // Each miss recruits a new searcher (the probed member joins).
            searchers = (searchers + probes).min(self.n as f64);
            slot += 1;
        }
        expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_request_probability_matches_paper_approximation() {
        // As n → ∞ the exact form approaches the paper's e^{-p}.
        for &p in &[0.1f64, 0.3, 0.5, 0.9] {
            let exact = no_request_probability(10_000, p);
            let approx = (-p).exp();
            assert!((exact - approx).abs() < 1e-3, "p={p}: exact {exact} vs approx {approx}");
        }
    }

    #[test]
    fn no_request_probability_edges() {
        assert_eq!(no_request_probability(1, 0.5), 1.0);
        assert_eq!(no_request_probability(100, 0.0), 1.0);
        let v = no_request_probability(100, 1.0);
        assert!(v > 0.0 && v < 1.0);
        // Decreases with p: more missing members, more requests.
        assert!(no_request_probability(100, 0.2) > no_request_probability(100, 0.8));
    }

    #[test]
    fn figure4_values() {
        // Paper: "When C = 6 … the probability is only 0.25%."
        let p = no_bufferer_probability(6.0);
        assert!((p - 0.0025).abs() < 2e-4, "e^-6 = {p}");
        // Monotone decreasing in C.
        for c in 1..6 {
            assert!(no_bufferer_probability(c as f64) > no_bufferer_probability(c as f64 + 1.0));
        }
        // Exact finite-n form approaches it.
        let exact = no_bufferer_probability_exact(100, 6.0);
        assert!((exact - p).abs() < 1e-3, "exact {exact} vs poisson {p}");
    }

    #[test]
    fn figure3_pmf_shapes() {
        // Poisson(C) peaks near C and sums to 1.
        for &c in &[5.0, 6.0, 7.0, 8.0] {
            let pmf: Vec<f64> = (0..30).map(|k| bufferer_count_pmf(c, k)).collect();
            let total: f64 = pmf.iter().sum();
            assert!((total - 1.0).abs() < 1e-6);
            let mode =
                pmf.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
            assert!((mode as f64 - c).abs() <= 1.0, "mode {mode} should be near C={c}");
        }
        // Exact binomial close to Poisson at n=100.
        for k in 0..15u64 {
            let b = bufferer_count_pmf_exact(100, 6.0, k);
            let p = bufferer_count_pmf(6.0, k);
            assert!((b - p).abs() < 6e-3, "k={k}: {b} vs {p}");
        }
    }

    #[test]
    fn search_model_degenerate_cases() {
        assert_eq!(SearchModel::paper(100, 100).expected_search_time_ms(), 0.0);
        assert!(SearchModel::paper(100, 0).expected_search_time_ms().is_infinite());
    }

    #[test]
    fn search_model_decreases_with_bufferers() {
        // Figure 8's qualitative shape: more bufferers, shorter search.
        let times: Vec<f64> =
            (1..=10).map(|j| SearchModel::paper(100, j).expected_search_time_ms()).collect();
        for w in times.windows(2) {
            assert!(w[0] >= w[1], "search time should not increase: {times:?}");
        }
        // Rough magnitudes: tens of ms at j=1, ~an RTT or two at j=10.
        assert!(times[0] > 10.0 && times[0] < 100.0, "j=1: {}", times[0]);
        assert!(times[9] > 2.0 && times[9] < 30.0, "j=10: {}", times[9]);
    }

    #[test]
    fn search_model_grows_slowly_with_region_size() {
        // Figure 9's qualitative shape: 10× the region, ~2–3× the time.
        let t100 = SearchModel::paper(100, 10).expected_search_time_ms();
        let t1000 = SearchModel::paper(1000, 10).expected_search_time_ms();
        assert!(t1000 > t100);
        let ratio = t1000 / t100;
        assert!((1.5..4.0).contains(&ratio), "ratio {ratio} out of the paper's qualitative band");
    }
}
