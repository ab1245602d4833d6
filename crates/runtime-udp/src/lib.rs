//! # rrmp-udp
//!
//! A thread-based runtime hosting the sans-io RRMP core on real
//! `std::net::UdpSocket`s. The identical [`rrmp_core::receiver::Receiver`]
//! state machine that drives the paper's simulations runs here against a
//! monotonic clock and a UDP transport; IP multicast is emulated by
//! unicast fan-out (the paper's protocol only observes *who received the
//! initial transmission*, which the fan-out preserves).
//!
//! The entry point is [`UdpRuntime`]: N event-loop threads, each
//! multiplexing many members over one shared timing wheel, one
//! MTU-bucketed [`BufferPool`], and one `poll(2)` readiness set, so a
//! process can host thousands of receivers. [`UdpRuntime::add_member`]
//! places a member and returns its [`MemberHandle`].
//!
//! See the `udp_localhost` example for a multi-node walkthrough on
//! loopback (including forced initial-multicast loss and recovery) and
//! `udp_swarm` for many members multiplexed onto few loops.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod group;
pub mod pool;
pub mod runtime;

pub use batch::{send_to_many, PollSet, RecvBatcher};
pub use group::{GroupSpec, MemberSpec};
pub use pool::{BufferPool, PoolSnapshot, PoolStats, SizeClass, DATAGRAM_MTU};
pub use runtime::{Delivery, MemberHandle, RuntimeConfig, RuntimeSnapshot, UdpRuntime};
