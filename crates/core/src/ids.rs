//! Protocol identifiers.
//!
//! RRMP identifies a multicast message by `[source address, sequence
//! number]` (paper §1, footnote 2). [`MessageId`] is that pair; [`SeqNo`]
//! is the per-sender sequence number.

use std::fmt;

use rrmp_netsim::topology::NodeId;

/// A per-sender message sequence number. The first message a sender
/// multicasts carries sequence number `1`; `0` is reserved as "nothing
/// sent yet" in session messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNo(pub u64);

impl SeqNo {
    /// The "nothing sent yet" sentinel used in session messages.
    pub const NONE: SeqNo = SeqNo(0);
    /// The first real sequence number.
    pub const FIRST: SeqNo = SeqNo(1);

    /// The next sequence number.
    #[must_use]
    pub fn next(self) -> SeqNo {
        SeqNo(self.0 + 1)
    }

    /// The raw value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Globally unique message identifier: `[source address, sequence number]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId {
    /// The original sender of the message.
    pub source: NodeId,
    /// The sender-local sequence number.
    pub seq: SeqNo,
}

impl MessageId {
    /// Creates a message id.
    #[must_use]
    pub fn new(source: NodeId, seq: SeqNo) -> Self {
        MessageId { source, seq }
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.source, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqno_next_and_sentinels() {
        assert_eq!(SeqNo::NONE.value(), 0);
        assert_eq!(SeqNo::FIRST.value(), 1);
        assert_eq!(SeqNo::NONE.next(), SeqNo::FIRST);
        assert_eq!(SeqNo(41).next(), SeqNo(42));
    }

    #[test]
    fn message_id_ordering_groups_by_source() {
        let a = MessageId::new(NodeId(1), SeqNo(9));
        let b = MessageId::new(NodeId(2), SeqNo(1));
        assert!(a < b, "ordering is (source, seq)");
        assert!(MessageId::new(NodeId(1), SeqNo(1)) < a);
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", SeqNo(5)), "#5");
        assert_eq!(format!("{}", MessageId::new(NodeId(3), SeqNo(7))), "n3#7");
    }
}
