//! Ordered-delivery adapter.
//!
//! RRMP delivers messages in *receipt* order — repairs arrive out of
//! order by construction. Many applications want per-source FIFO order
//! instead. [`FifoReorder`] sits between [`Action::Deliver`] and the
//! application: push every delivery in, with the payload of the packet
//! the host just handed the receiver (the action names only the message),
//! and take releases out in contiguous per-source sequence order.
//!
//! [`Action::Deliver`]: crate::events::Action::Deliver
//!
//! ```
//! use bytes::Bytes;
//! use rrmp_core::delivery::FifoReorder;
//! use rrmp_core::ids::{MessageId, SeqNo};
//! use rrmp_netsim::topology::NodeId;
//!
//! let src = NodeId(0);
//! let mid = |s| MessageId::new(src, SeqNo(s));
//! let mut fifo = FifoReorder::new();
//! assert!(fifo.push(mid(2), Bytes::from_static(b"b")).is_empty()); // held
//! let out = fifo.push(mid(1), Bytes::from_static(b"a"));
//! let seqs: Vec<u64> = out.iter().map(|(id, _)| id.seq.0).collect();
//! assert_eq!(seqs, vec![1, 2]); // released together, in order
//! ```

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;
use rrmp_netsim::topology::NodeId;

use crate::ids::{MessageId, SeqNo};

#[derive(Debug, Default)]
struct SourceQueue {
    /// The next sequence number to release (starts at 1, or after the
    /// configured floor).
    next: u64,
    pending: BTreeMap<u64, Bytes>,
}

/// Per-source FIFO reordering buffer.
#[derive(Debug, Default)]
pub struct FifoReorder {
    sources: HashMap<NodeId, SourceQueue>,
}

impl FifoReorder {
    /// Creates an empty reorder buffer.
    #[must_use]
    pub fn new() -> Self {
        FifoReorder::default()
    }

    /// Starts delivery for `source` *after* `floor` — pair with
    /// [`Receiver::set_recovery_floor`] for late joiners.
    ///
    /// [`Receiver::set_recovery_floor`]: crate::receiver::Receiver::set_recovery_floor
    pub fn set_floor(&mut self, source: NodeId, floor: SeqNo) {
        let q = self.sources.entry(source).or_default();
        q.next = q.next.max(floor.0 + 1);
        // Anything at or below the floor will never be released.
        q.pending = q.pending.split_off(&(floor.0 + 1));
    }

    /// Accepts one delivery; returns every message that is now releasable
    /// in order (possibly empty, possibly several).
    pub fn push(&mut self, id: MessageId, payload: Bytes) -> Vec<(MessageId, Bytes)> {
        let q = self.sources.entry(id.source).or_default();
        if q.next == 0 {
            q.next = 1;
        }
        if id.seq.0 < q.next {
            return Vec::new(); // duplicate or below the floor
        }
        q.pending.insert(id.seq.0, payload);
        let mut out = Vec::new();
        while let Some(payload) = q.pending.remove(&q.next) {
            out.push((MessageId::new(id.source, SeqNo(q.next)), payload));
            q.next += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: NodeId = NodeId(0);

    fn mid(seq: u64) -> MessageId {
        MessageId::new(SRC, SeqNo(seq))
    }

    fn payload(seq: u64) -> Bytes {
        Bytes::from(vec![seq as u8])
    }

    /// Messages held back waiting for a gap to fill, for `source`.
    fn pending_count(f: &FifoReorder, source: NodeId) -> usize {
        f.sources.get(&source).map_or(0, |q| q.pending.len())
    }

    /// The next sequence number that would be released for `source`.
    fn next_expected(f: &FifoReorder, source: NodeId) -> SeqNo {
        SeqNo(f.sources.get(&source).map_or(1, |q| q.next.max(1)))
    }

    #[test]
    fn in_order_passthrough() {
        let mut f = FifoReorder::new();
        for seq in 1..=5 {
            let out = f.push(mid(seq), payload(seq));
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].0, mid(seq));
        }
        assert_eq!(pending_count(&f, SRC), 0);
        assert_eq!(next_expected(&f, SRC), SeqNo(6));
    }

    #[test]
    fn gap_holds_then_flushes() {
        let mut f = FifoReorder::new();
        assert!(f.push(mid(2), payload(2)).is_empty());
        assert!(f.push(mid(3), payload(3)).is_empty());
        assert_eq!(pending_count(&f, SRC), 2);
        let out = f.push(mid(1), payload(1));
        let seqs: Vec<u64> = out.iter().map(|(id, _)| id.seq.0).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(pending_count(&f, SRC), 0);
    }

    #[test]
    fn duplicates_below_watermark_dropped() {
        let mut f = FifoReorder::new();
        f.push(mid(1), payload(1));
        assert!(f.push(mid(1), payload(1)).is_empty());
        assert_eq!(next_expected(&f, SRC), SeqNo(2));
    }

    #[test]
    fn floor_skips_history() {
        let mut f = FifoReorder::new();
        f.set_floor(SRC, SeqNo(10));
        assert!(f.push(mid(5), payload(5)).is_empty());
        assert_eq!(pending_count(&f, SRC), 0, "below-floor messages never queue");
        let out = f.push(mid(11), payload(11));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, mid(11));
    }

    #[test]
    fn sources_are_independent() {
        let a = NodeId(1);
        let b = NodeId(2);
        let mut f = FifoReorder::new();
        assert!(f.push(MessageId::new(a, SeqNo(2)), payload(2)).is_empty());
        let out = f.push(MessageId::new(b, SeqNo(1)), payload(1));
        assert_eq!(out.len(), 1, "source b is not blocked by source a's gap");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any arrival permutation of 1..=n (with duplicates) releases
        /// exactly 1..=n in order.
        #[test]
        fn releases_sorted_exactly_once(
            mut order in proptest::collection::vec(1u64..30, 1..100),
        ) {
            let n = *order.iter().max().unwrap();
            // Ensure every value 1..=n appears at least once.
            order.extend(1..=n);
            let mut f = FifoReorder::new();
            let mut released = Vec::new();
            for &seq in &order {
                for (id, _) in f.push(
                    MessageId::new(NodeId(0), SeqNo(seq)),
                    Bytes::from(vec![seq as u8]),
                ) {
                    released.push(id.seq.0);
                }
            }
            let expect: Vec<u64> = (1..=n).collect();
            prop_assert_eq!(released, expect);
        }
    }
}
