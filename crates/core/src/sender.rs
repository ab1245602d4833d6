//! The RRMP sender.
//!
//! RRMP is designed for single-sender multicast applications (paper §2).
//! The sender assigns contiguous sequence numbers, multicasts data to the
//! whole group, and periodically multicasts *session messages* advertising
//! the highest sequence number sent so receivers can detect the loss of
//! the last message in a burst (§2.1).
//!
//! The sender is also a receiver in the group: hosts pair a [`Sender`]
//! with a [`Receiver`](crate::receiver::Receiver) on the same node and
//! feed the sender's own data packets back into the receiver so they are
//! buffered under the same two-phase policy as everyone else's.

use bytes::Bytes;
use rrmp_netsim::time::SimDuration;
use rrmp_netsim::topology::NodeId;

use crate::events::{Action, TimerKind};
use crate::ids::{MessageId, SeqNo};
use crate::packet::{DataPacket, Packet};

/// Multicast actions a sender asks its host to perform. Group-wide
/// multicast is separated from [`Action`] because only the sender uses it
/// and hosts typically implement it with different loss semantics (the
/// lossy initial IP multicast vs. reliable control traffic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SenderAction {
    /// Multicast `packet` to the whole group (lossy IP multicast).
    MulticastGroup {
        /// The packet to multicast.
        packet: Packet,
    },
    /// Ordinary protocol action (timers).
    Protocol(Action),
}

/// The single multicast source of an RRMP group.
#[derive(Debug, Clone)]
pub struct Sender {
    id: NodeId,
    next_seq: SeqNo,
    session_interval: SimDuration,
}

impl Sender {
    /// Creates a sender with the given session-message interval.
    #[must_use]
    pub fn new(id: NodeId, session_interval: SimDuration) -> Self {
        Sender { id, next_seq: SeqNo::FIRST, session_interval }
    }

    /// The sender's member id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Highest sequence number multicast so far ([`SeqNo::NONE`] if none).
    #[must_use]
    pub fn high(&self) -> SeqNo {
        SeqNo(self.next_seq.0 - 1)
    }

    /// Actions to run at start-up (arms the session tick).
    #[must_use]
    pub fn on_start(&self) -> Vec<SenderAction> {
        vec![SenderAction::Protocol(Action::SetTimer {
            delay: self.session_interval,
            kind: TimerKind::SessionTick,
        })]
    }

    /// Multicasts `payload` as the next message; returns the id it was
    /// assigned and the actions to execute.
    pub fn multicast(&mut self, payload: Bytes) -> (MessageId, Vec<SenderAction>) {
        let id = MessageId::new(self.id, self.next_seq);
        self.next_seq = self.next_seq.next();
        let actions = vec![SenderAction::MulticastGroup {
            packet: Packet::Data(DataPacket::new(id, payload)),
        }];
        (id, actions)
    }

    /// Handles the session tick: advertises the current high watermark and
    /// re-arms the timer. Nothing is advertised before the first message
    /// has been multicast.
    #[must_use]
    pub fn on_session_tick(&self) -> Vec<SenderAction> {
        let mut actions = Vec::with_capacity(2);
        if self.high() != SeqNo::NONE {
            actions.push(SenderAction::MulticastGroup {
                packet: Packet::Session { source: self.id, high: self.high() },
            });
        }
        actions.push(SenderAction::Protocol(Action::SetTimer {
            delay: self.session_interval,
            kind: TimerKind::SessionTick,
        }));
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sender() -> Sender {
        Sender::new(NodeId(0), SimDuration::from_millis(100))
    }

    #[test]
    fn sequence_numbers_are_contiguous_from_one() {
        let mut s = sender();
        assert_eq!(s.high(), SeqNo::NONE);
        let (id1, _) = s.multicast(Bytes::from_static(b"a"));
        let (id2, _) = s.multicast(Bytes::from_static(b"b"));
        assert_eq!(id1.seq, SeqNo(1));
        assert_eq!(id2.seq, SeqNo(2));
        assert_eq!(s.high(), SeqNo(2));
    }

    #[test]
    fn multicast_emits_data_packet() {
        let mut s = sender();
        let (id, actions) = s.multicast(Bytes::from_static(b"x"));
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            SenderAction::MulticastGroup { packet: Packet::Data(d) } => {
                assert_eq!(d.id, id);
                assert_eq!(&d.payload[..], b"x");
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn session_tick_is_silent_before_first_message() {
        let s = sender();
        let actions = s.on_session_tick();
        assert_eq!(actions.len(), 1, "only the timer re-arm: {actions:?}");
        assert!(matches!(
            actions[0],
            SenderAction::Protocol(Action::SetTimer { kind: TimerKind::SessionTick, .. })
        ));
    }

    #[test]
    fn session_tick_advertises_high_and_rearms() {
        let mut s = sender();
        s.multicast(Bytes::from_static(b"a"));
        let actions = s.on_session_tick();
        assert!(actions.iter().any(|a| matches!(
            a,
            SenderAction::MulticastGroup { packet: Packet::Session { source, high } }
                if *source == NodeId(0) && *high == SeqNo(1)
        )));
        assert!(actions.iter().any(|a| matches!(
            a,
            SenderAction::Protocol(Action::SetTimer { kind: TimerKind::SessionTick, .. })
        )));
    }

    #[test]
    fn on_start_arms_session_timer() {
        let s = sender();
        let actions = s.on_start();
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            actions[0],
            SenderAction::Protocol(Action::SetTimer { kind: TimerKind::SessionTick, .. })
        ));
    }
}
