//! # rrmp-analysis
//!
//! Closed-form analytic models from *"Optimizing Buffer Management for
//! Reliable Multicast"* (DSN 2002): the feedback-confidence bound of §3.1,
//! the Poisson model of long-term bufferer counts of §3.2 (Figures 3 and
//! 4), and a random-probe model of the §3.3 bufferer search (the
//! qualitative shape of Figures 8 and 9).
//!
//! ```
//! use rrmp_analysis::models::no_bufferer_probability;
//!
//! // Paper §3.2: "When C = 6, for example, the probability is only 0.25%."
//! let p = no_bufferer_probability(6.0);
//! assert!((p - 0.0025).abs() < 2e-4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod combinatorics;
pub mod models;

pub use combinatorics::{binomial_pmf, poisson_pmf};
pub use models::{
    bufferer_count_pmf, bufferer_count_pmf_exact, no_bufferer_probability,
    no_bufferer_probability_exact, no_request_probability, SearchModel,
};
