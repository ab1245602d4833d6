//! # rrmp
//!
//! A reproduction of **"Optimizing Buffer Management for Reliable
//! Multicast"** (Zhen Xiao, Kenneth P. Birman, Robbert van Renesse — DSN
//! 2002): the RRMP randomized reliable multicast protocol with its
//! **two-phase buffer-management algorithm** — feedback-based short-term
//! buffering and randomized long-term buffering — plus every substrate the
//! paper's evaluation depends on.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] (`rrmp-core`) — the protocol: loss detection, randomized
//!   local/remote recovery, the two-phase buffer, the bufferer search,
//!   leave-time handoff, and the simulation harness.
//! * [`netsim`] (`rrmp-netsim`) — the deterministic discrete-event network
//!   simulator used by the paper's evaluation.
//! * [`membership`] (`rrmp-membership`) — region views and the
//!   gossip-style failure detector.
//! * [`baselines`] (`rrmp-baselines`) — the comparison schemes:
//!   hash-deterministic bufferers, stability detection, tree/RMTP,
//!   sender-based ACKs. Hash and sender-based also run as *policies*
//!   over the core engine (`rrmp_core::policy`); the standalone stacks
//!   here remain as differential oracles.
//! * [`analysis`] (`rrmp-analysis`) — the paper's closed-form models
//!   (Poisson bufferer counts, `e^{-C}`, search-time model).
//! * [`udp`] (`rrmp-udp`) — the same protocol core on real UDP sockets.
//! * [`trace`] (`rrmp-trace`) — the observer substrate: structured trace
//!   events, log-linear latency histograms, and the JSONL/JSON codecs
//!   behind `trace_dump` / `trace_check`.
//!
//! ## Quickstart
//!
//! ```
//! use rrmp::prelude::*;
//!
//! // A 20-member region; members 10..20 miss the initial multicast and
//! // recover it from random neighbors (paper §2.2), then buffer it under
//! // the two-phase policy (§3).
//! let topo = presets::paper_region(20);
//! let mut net = RrmpNetwork::new(topo, ProtocolConfig::paper_defaults(), 1);
//! let plan = DeliveryPlan::only(net.topology(), (0..10).map(NodeId));
//! let id = net.multicast_with_plan(b"breaking news".as_ref(), &plan);
//! net.run_until(SimTime::from_secs(1));
//! assert!(net.all_delivered(id));
//! ```
//!
//! See `ARCHITECTURE.md` for the system inventory.

#![warn(missing_docs)]

pub use rrmp_analysis as analysis;
pub use rrmp_baselines as baselines;
pub use rrmp_core as core;
pub use rrmp_membership as membership;
pub use rrmp_netsim as netsim;
pub use rrmp_trace as trace;
pub use rrmp_udp as udp;

/// The most common imports for simulation-based usage.
pub mod prelude {
    pub use rrmp_core::prelude::*;
    pub use rrmp_netsim::prelude::*;
}
