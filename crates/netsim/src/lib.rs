//! # rrmp-netsim
//!
//! Deterministic discrete-event network simulator — the evaluation substrate
//! for the RRMP reliable-multicast reproduction.
//!
//! The DSN 2002 paper *"Optimizing Buffer Management for Reliable
//! Multicast"* evaluates its two-phase buffering algorithm entirely in
//! simulation, under a simple network model: members grouped into regions
//! (constant 10 ms intra-region RTT in §4), a hierarchy of regions, loss on
//! the initial IP multicast only. This crate provides that model — and
//! generalizations of it for ablation studies — as a reusable,
//! deterministic simulator:
//!
//! * [`time`] — integer-microsecond simulated clock ([`time::SimTime`]).
//! * [`rng`] — reproducible per-node RNG streams from one experiment seed.
//! * [`event`] — the `(time, insertion-order)` event queue: a hierarchical
//!   timing wheel, the one queue every driver and the UDP runtime run on.
//! * [`topology`] — nodes, regions, the error-recovery hierarchy, latency
//!   models, and presets matching the paper's setups.
//! * [`loss`] — multicast/unicast loss models and explicit
//!   [`loss::DeliveryPlan`]s for controlled experiments.
//! * [`fault`] — deterministic fault-injection timelines
//!   ([`fault::FaultPlan`]): partitions, blackouts, crash/stall churn,
//!   loss bursts, and duplication, applied at the network edge of both
//!   engines with layout-invariant verdicts.
//! * [`sim`] — what a node sees: any [`sim::SimNode`] implementation,
//!   with timers carrying the host's own values, acting through a
//!   [`sim::Ctx`].
//! * [`shard`] — the one driver, [`shard::ShardedSim`]: one core for the
//!   whole group, or one core per region advancing under a
//!   conservative time-window barrier with traces byte-identical at every
//!   worker count. Every core is the same private per-event code
//!   (dispatch, transmit, edge verdicts, routing).
//! * [`stats`] — streaming mean/variance and percentiles for the paper's
//!   figures.
//!
//! ## Example
//!
//! ```
//! use rrmp_netsim::prelude::*;
//!
//! // The host's own timer values: `on_timer` gets back what was armed.
//! enum Timer {
//!     Ping(NodeId),
//! }
//!
//! // Node 0 pings node 1 when its timer fires; every ping is acknowledged.
//! struct Acker { acked: u32 }
//! impl SimNode<Timer> for Acker {
//!     type Msg = &'static str;
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Timer>) {
//!         if ctx.self_id() == NodeId(0) {
//!             ctx.set_timer(SimDuration::from_millis(2), Timer::Ping(NodeId(1)));
//!         }
//!     }
//!     fn on_packet(&mut self, ctx: &mut Ctx<'_, Self::Msg, Timer>, from: NodeId, msg: Self::Msg) {
//!         if msg == "ping" {
//!             ctx.send(from, "ack");
//!         } else {
//!             self.acked += 1;
//!         }
//!     }
//!     fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Timer>, timer: Timer) {
//!         match timer {
//!             Timer::Ping(peer) => ctx.send(peer, "ping"),
//!         }
//!     }
//! }
//!
//! let topo = presets::paper_region(2);
//! let mut sim = ShardedSim::one_core(topo, vec![Acker { acked: 0 }, Acker { acked: 0 }], 7);
//! assert_eq!(sim.run_until_quiescent(SimTime::from_secs(1)), SimTime::from_millis(12));
//! assert_eq!(sim.node(NodeId(0)).acked, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
pub mod event;
pub mod fault;
pub mod loss;
pub mod rng;
pub mod shard;
pub mod sim;
pub mod stats;
pub mod time;
pub mod topology;

/// Convenient glob-import of the most used simulator types.
pub mod prelude {
    pub use crate::fault::FaultPlan;
    pub use crate::loss::{DeliveryPlan, LossModel};
    pub use crate::rng::SeedSequence;
    pub use crate::shard::ShardedSim;
    pub use crate::sim::{Ctx, SimNode};
    pub use crate::stats::OnlineStats;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{presets, NodeId, RegionId, Topology, TopologyBuilder};
}
