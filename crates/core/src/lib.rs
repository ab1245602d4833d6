//! # rrmp-core
//!
//! The RRMP protocol core: randomized error recovery and the paper's
//! **two-phase buffer-management algorithm** (feedback-based short-term
//! buffering + randomized long-term buffering), implemented as sans-io
//! state machines.
//!
//! This crate reproduces *"Optimizing Buffer Management for Reliable
//! Multicast"* (Xiao, Birman, van Renesse — DSN 2002). See `ARCHITECTURE.md`
//! at the repository root for the full system inventory.
//!
//! ## Architecture
//!
//! * [`receiver::Receiver`] — one group member: loss detection, local and
//!   remote recovery, buffering, bufferer search, leave handoff. The
//!   receiver is the shared protocol *engine*; every algorithm-specific
//!   decision lives in a [`policy::BufferPolicy`].
//! * [`policy`] — the pluggable buffer-management layer: the paper's
//!   randomized two-phase algorithm (default, byte-identical to the
//!   pre-refactor receiver), fixed-time and keep-all ablations, and the
//!   comparison schemes the paper argues against: hash-based bufferers,
//!   sender-based recovery, stability detection and tree/RMTP repair
//!   servers.
//! * [`sender::Sender`] — the single multicast source: data and session
//!   messages.
//! * [`packet::Packet`] — the wire protocol with a binary codec.
//! * [`harness`] — adapters hosting the protocol on the
//!   [`rrmp_netsim`] discrete-event simulator; the basis of every
//!   experiment in the paper's evaluation, and of the
//!   [`harness::RunReport`] every scheme comparison prints.
//!
//! The core is *sans-io*: [`receiver::Receiver::handle`] maps an
//! [`events::Event`] to [`events::Action`]s and never touches sockets,
//! clocks, or threads. The same state machine runs on the simulator (for
//! the paper's figures) and on real UDP sockets (`rrmp-udp`).
//!
//! ## Example
//!
//! ```
//! use rrmp_core::prelude::*;
//! use rrmp_netsim::prelude::*;
//!
//! // One region of 8 members; the sender is node 0. Nodes 4..8 miss the
//! // initial multicast and recover it from their neighbors.
//! let topo = presets::paper_region(8);
//! let mut net = RrmpNetwork::new(topo, ProtocolConfig::paper_defaults(), 42);
//! let plan = DeliveryPlan::only(net.topology(), (0..4).map(NodeId));
//! let id = net.multicast_with_plan(b"tick".as_ref(), &plan);
//! net.run_until_quiescent(SimTime::from_secs(1));
//! assert!(net.all_delivered(id));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;
pub mod config;
pub mod delivery;
pub mod events;
pub mod harness;
pub mod history;
pub mod ids;
pub mod interval_set;
pub mod loss;
pub mod metrics;
pub mod observe;
pub mod packet;
pub mod policy;
pub mod receiver;
pub mod sender;
pub mod vecmap;

/// Convenient glob-import of the protocol types.
pub mod prelude {
    pub use crate::buffer::{MemoryBudget, MessageStore, Phase, PressureTier};
    pub use crate::config::{DampingConfig, ProtocolConfig, WatchdogConfig};
    pub use crate::delivery::FifoReorder;
    pub use crate::events::{Action, Event, TimerKind};
    pub use crate::harness::{RrmpNetwork, RrmpNode};
    pub use crate::history::{HistoryDigest, RepairRoles, StabilityTracker};
    pub use crate::ids::{MessageId, SeqNo};
    pub use crate::metrics::{BufferRecord, Counters, Metrics, ProtocolEvent};
    pub use crate::observe::{ReceiverTrace, TraceConfig};
    pub use crate::packet::{DataPacket, Packet, RepairKind};
    pub use crate::policy::{BufferPolicy, DataPath, PolicyCtx, PolicyKind};
    pub use crate::receiver::{PreloadState, Receiver};
    pub use crate::sender::{Sender, SenderAction};
}
