//! Combinatorial primitives: log-gamma, binomial and Poisson pmfs.
//!
//! Implemented from scratch (no external math crates) with the Lanczos
//! approximation for `ln Γ`, accurate to ~1e-13 over the ranges used by
//! the paper's models (n ≤ a few thousand).

/// Lanczos coefficients (g = 7, n = 9) — the classic Godfrey parameters.
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// # Panics
///
/// Panics in debug builds if `x <= 0`.
#[must_use]
fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula keeps accuracy for small x.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// `ln n!` via `ln Γ(n+1)`.
#[must_use]
fn ln_factorial(n: u64) -> f64 {
    ln_gamma(n as f64 + 1.0)
}

/// `ln C(n, k)`; `-inf` if `k > n`.
#[must_use]
fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Binomial pmf `P[X = k]` for `X ~ Binomial(n, p)`.
///
/// Returns 0 for impossible outcomes; handles the `p ∈ {0, 1}` edge cases
/// exactly.
#[must_use]
pub fn binomial_pmf(n: u64, p: f64, k: u64) -> f64 {
    if k > n || !(0.0..=1.0).contains(&p) {
        return 0.0;
    }
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    let ln_p = ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln();
    ln_p.exp()
}

/// Poisson pmf `P[X = k]` for `X ~ Poisson(lambda)` — the paper's Figure 3
/// distribution of the number of long-term bufferers.
#[must_use]
pub fn poisson_pmf(lambda: f64, k: u64) -> f64 {
    if lambda < 0.0 {
        return 0.0;
    }
    if lambda == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    (k as f64 * lambda.ln() - lambda - ln_factorial(k)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1.0)
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = sqrt(pi).
        assert!(close(ln_gamma(1.0), 0.0, 1e-12));
        assert!(close(ln_gamma(2.0), 0.0, 1e-12));
        assert!(close(ln_gamma(5.0), 24f64.ln(), 1e-12));
        assert!(close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12));
        // Γ(101) = 100!.
        let ln_100_fact: f64 = (1..=100u64).map(|i| (i as f64).ln()).sum();
        assert!(close(ln_gamma(101.0), ln_100_fact, 1e-12));
    }

    #[test]
    fn ln_factorial_small_values() {
        assert!(close(ln_factorial(0), 0.0, 1e-12));
        assert!(close(ln_factorial(1), 0.0, 1e-12));
        assert!(close(ln_factorial(5), 120f64.ln(), 1e-12));
    }

    #[test]
    fn ln_choose_values() {
        assert!(close(ln_choose(5, 2), 10f64.ln(), 1e-12));
        assert!(close(ln_choose(10, 0), 0.0, 1e-12));
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn binomial_pmf_exact_cases() {
        // Binomial(4, 0.5): 1/16, 4/16, 6/16, 4/16, 1/16.
        let expect = [1.0, 4.0, 6.0, 4.0, 1.0].map(|x| x / 16.0);
        for (k, &e) in expect.iter().enumerate() {
            assert!(close(binomial_pmf(4, 0.5, k as u64), e, 1e-12));
        }
        assert_eq!(binomial_pmf(4, 0.5, 5), 0.0);
        assert_eq!(binomial_pmf(4, 0.0, 0), 1.0);
        assert_eq!(binomial_pmf(4, 1.0, 4), 1.0);
        assert_eq!(binomial_pmf(4, 2.0, 1), 0.0);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let total: f64 = (0..=100).map(|k| binomial_pmf(100, 0.06, k)).sum();
        assert!(close(total, 1.0, 1e-10));
    }

    #[test]
    fn poisson_pmf_known_values() {
        // P[X=0] = e^-λ.
        assert!(close(poisson_pmf(6.0, 0), (-6.0f64).exp(), 1e-12));
        // Mode of Poisson(6) is at 5 and 6 with equal mass.
        assert!(close(poisson_pmf(6.0, 5), poisson_pmf(6.0, 6), 1e-12));
        assert_eq!(poisson_pmf(0.0, 0), 1.0);
        assert_eq!(poisson_pmf(0.0, 3), 0.0);
        assert_eq!(poisson_pmf(-1.0, 0), 0.0);
    }

    #[test]
    fn binomial_converges_to_poisson() {
        // The §3.2 argument: Binomial(n, C/n) → Poisson(C) as n → ∞.
        let c = 6.0;
        for k in 0..15u64 {
            let b = binomial_pmf(10_000, c / 10_000.0, k);
            let p = poisson_pmf(c, k);
            assert!((b - p).abs() < 2e-3, "k={k}: binomial {b} vs poisson {p}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Binomial pmf is a probability distribution for any (n, p).
        #[test]
        fn binomial_is_distribution(n in 1u64..200, p in 0.0f64..1.0) {
            let total: f64 = (0..=n).map(|k| binomial_pmf(n, p, k)).sum();
            prop_assert!((total - 1.0).abs() < 1e-8, "sum = {total}");
            for k in 0..=n {
                let v = binomial_pmf(n, p, k);
                prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
            }
        }

        /// Poisson pmf sums to ~1 over a generous support.
        #[test]
        fn poisson_is_distribution(lambda in 0.01f64..30.0) {
            let k_max = (lambda * 10.0) as u64 + 60;
            let total: f64 = (0..=k_max).map(|k| poisson_pmf(lambda, k)).sum();
            prop_assert!((total - 1.0).abs() < 1e-8, "sum = {total}");
        }
    }
}
