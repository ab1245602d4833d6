//! # rrmp-bench
//!
//! The experiment harness that regenerates every figure of the paper's
//! evaluation (§4) and the ablation studies (see `ARCHITECTURE.md`,
//! "Benchmarks"). Each `cargo bench` target in `benches/` is a thin
//! printer around the functions here, so the experiment logic itself is
//! unit-tested.
//!
//! | bench target | reproduces |
//! |---|---|
//! | `fig3_longterm_distribution` | Figure 3 (Poisson bufferer counts) |
//! | `fig4_no_bufferer_probability` | Figure 4 (`e^{-C}`) |
//! | `fig6_feedback_buffering` | Figure 6 (buffering time vs holders) |
//! | `fig7_received_vs_buffered` | Figure 7 (received vs buffered series) |
//! | `fig8_search_time_vs_bufferers` | Figure 8 |
//! | `fig9_search_time_vs_region_size` | Figure 9 |
//! | `ablation_*` | design-choice studies A1–A6 |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod figures;
