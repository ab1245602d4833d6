//! The sans-io event/action surface of the protocol core.
//!
//! A [`Receiver`](crate::receiver::Receiver), the sender role included, is
//! a pure state machine: the host —
//! the discrete-event simulator or the UDP runtime — feeds it [`Event`]s
//! and executes the [`Action`]s it returns. Timers are plain data: the core
//! asks for a [`TimerKind`] to be delivered after a delay and the host
//! hands it back; stale timers are simply ignored by the core, so no
//! cancellation plumbing is needed.

use std::sync::Arc;

use rrmp_netsim::time::SimDuration;
use rrmp_netsim::topology::NodeId;

use crate::ids::MessageId;
use crate::packet::Packet;

/// A timer the core asked its host to schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// Retry timer for the local recovery phase of a missing message.
    LocalRetry(MessageId),
    /// Retry timer for the remote recovery phase of a missing message.
    RemoteRetry(MessageId),
    /// Idle-threshold check for a buffered message (§3.1) — also used as
    /// the fixed-hold expiry under [`PolicyKind::FixedTime`].
    ///
    /// [`PolicyKind::FixedTime`]: crate::policy::PolicyKind::FixedTime
    IdleCheck(MessageId),
    /// Retry timer for the bufferer search (§3.3).
    SearchRetry(MessageId),
    /// Randomized back-off before multicasting a remote repair regionally.
    Backoff(MessageId),
    /// Periodic sweep discarding stale long-term entries.
    LongTermSweep,
    /// Periodic history-advertisement tick (only armed when the buffer
    /// policy's [`Rules::history_interval`] is `Some`).
    ///
    /// [`Rules::history_interval`]: crate::policy::Rules::history_interval
    HistoryTick,
    /// The sender role's session-message tick (§2.1).
    SessionTick,
    /// Recovery-liveness self-check (only armed when
    /// [`ProtocolConfig::watchdog`] is set): detects losses whose
    /// recovery wedged — no state left, no timer driving it — and
    /// re-arms them through the heal machinery.
    ///
    /// [`ProtocolConfig::watchdog`]: crate::config::ProtocolConfig::watchdog
    Watchdog,
    /// Periodic observer sampling tick (only armed when an observer is
    /// attached via [`Receiver::arm_observer`] with a sample interval):
    /// hands it a time-series [`Sample`] of buffer occupancy, store bytes
    /// vs budget, token-bucket level, and recovery backlog. Handling it
    /// makes **no RNG draws** and mutates no protocol state, so an armed
    /// sampler is trace-invariant across engines and shard counts.
    ///
    /// [`Receiver::arm_observer`]: crate::receiver::Receiver::arm_observer
    /// [`Sample`]: rrmp_trace::EventKind::Sample
    TraceSample,
}

/// An input to the protocol core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A packet arrived from `from`.
    Packet {
        /// Transport-level source of the packet.
        from: NodeId,
        /// The decoded packet.
        packet: Packet,
    },
    /// A previously requested timer fired.
    Timer(TimerKind),
    /// The application asked this member to leave the group voluntarily
    /// (§3.2: long-term buffers are handed off before departure).
    Leave,
}

/// An output of the protocol core for the host to execute.
///
/// Every member keeps an action buffer, so the enum's size is per-member
/// memory: it is pinned at 56 bytes, and a variant that would grow it
/// boxes its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send `packet` to `to` over unicast.
    Send {
        /// Destination member.
        to: NodeId,
        /// Packet to transmit.
        packet: Packet,
    },
    /// Send `packet` to every member listed in `to` other than this
    /// member: one multi-destination send instead of one [`Action::Send`]
    /// per peer. Hosts encode or clone the packet once and expand it per
    /// destination, in list order, with per-destination loss exactly as
    /// the unicasts would have had.
    SendMany {
        /// Destination members, shared with the list's owner (no copy per
        /// send). This member may appear in it; it is skipped.
        to: Arc<[NodeId]>,
        /// Packet to transmit, boxed to keep [`Action`] at 56 bytes.
        packet: Box<Packet>,
    },
    /// Multicast `packet` to every other member of this node's own region.
    MulticastRegion {
        /// Packet to transmit.
        packet: Packet,
    },
    /// Multicast `packet` to every other member of the group: the sender
    /// role's session advertisement.
    MulticastGroup {
        /// Packet to transmit.
        packet: Packet,
    },
    /// Deliver a newly received message to the application, in receipt
    /// order (RRMP offers no total ordering guarantee). Only a data-bearing
    /// packet delivers, one message at most, so the payload is the one in
    /// the packet the host just handed in: it takes the bytes from there.
    Deliver {
        /// The message id.
        id: MessageId,
    },
    /// Ask the host to fire [`Event::Timer`]`(kind)` after `delay`.
    SetTimer {
        /// How long to wait.
        delay: SimDuration,
        /// The timer identity handed back on expiry.
        kind: TimerKind,
    },
}

impl Action {
    /// The packet being transmitted, if this action transmits one.
    #[must_use]
    pub fn packet(&self) -> Option<&Packet> {
        match self {
            Action::Send { packet, .. }
            | Action::MulticastRegion { packet }
            | Action::MulticastGroup { packet } => Some(packet),
            Action::SendMany { packet, .. } => Some(&**packet),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SeqNo;

    #[test]
    fn action_packet_accessor() {
        let msg = MessageId::new(NodeId(0), SeqNo(1));
        let send = Action::Send { to: NodeId(1), packet: Packet::LocalRequest { msg } };
        assert!(send.packet().is_some());
        let fan_out = Action::SendMany {
            to: Arc::from([NodeId(1), NodeId(2)]),
            packet: Box::new(Packet::LocalRequest { msg }),
        };
        assert_eq!(fan_out.packet(), Some(&Packet::LocalRequest { msg }));
        let deliver = Action::Deliver { id: msg };
        assert!(deliver.packet().is_none());
        let timer = Action::SetTimer {
            delay: SimDuration::from_millis(1),
            kind: TimerKind::LocalRetry(msg),
        };
        assert!(timer.packet().is_none());
    }

    #[test]
    fn timer_kinds_are_hashable_and_distinct() {
        use std::collections::HashSet;
        let msg = MessageId::new(NodeId(0), SeqNo(1));
        let kinds: HashSet<TimerKind> = [
            TimerKind::LocalRetry(msg),
            TimerKind::RemoteRetry(msg),
            TimerKind::IdleCheck(msg),
            TimerKind::SearchRetry(msg),
            TimerKind::Backoff(msg),
            TimerKind::LongTermSweep,
            TimerKind::HistoryTick,
            TimerKind::SessionTick,
            TimerKind::Watchdog,
            TimerKind::TraceSample,
        ]
        .into_iter()
        .collect();
        assert_eq!(kinds.len(), 10);
    }
}
