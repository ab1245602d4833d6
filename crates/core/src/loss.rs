//! Loss detection.
//!
//! "A receiver detects a message loss by observing a gap in the sequence
//! number space. In addition, session messages are used to help a receiver
//! detect the loss of the last message in a burst" (paper §2.1).
//!
//! [`LossDetector`] tracks, per source, the set of sequence numbers ever
//! received (in an [`IntervalSet`], so "received but discarded" remains
//! distinguishable from "never received" — §3.3 depends on it) and the
//! highest sequence number known to exist. Because senders number messages
//! contiguously from 1, evidence that `seq` exists (a data packet, a session
//! advertisement, or a request from another member) implies every sequence
//! number below it exists too.
//!
//! Per-source state lives in a source-sorted [`VecMap`] rather than a
//! HashMap: a receiver tracking nothing holds no heap at all, its first
//! source costs one exact-sized slot, and iteration is naturally in
//! ascending source order — at a million receivers the per-instance
//! fixed cost is what dominates, and one `Vec` is three words where a
//! HashMap is a populated table.

use rrmp_netsim::topology::NodeId;

use crate::ids::{MessageId, SeqNo};
use crate::interval_set::IntervalSet;
use crate::vecmap::VecMap;

/// Outcome of feeding a data packet to the detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataOutcome {
    /// Whether this is the first time the message was received.
    pub newly_received: bool,
    /// Messages newly discovered to be missing (gaps opened by this packet).
    pub newly_missing: Vec<MessageId>,
}

#[derive(Debug, Clone, Default)]
struct SourceState {
    received: IntervalSet,
    /// Highest sequence number known to exist (0 = none yet).
    high: u64,
    /// Sequences at or below this are not recovered (late-join floor).
    floor: u64,
}

/// Per-source tracking of received and missing sequence numbers.
#[derive(Debug, Clone, Default)]
pub struct LossDetector {
    /// Per-source state, allocated lazily on first evidence: an idle
    /// source costs zero bytes.
    states: VecMap<NodeId, SourceState>,
}

impl LossDetector {
    /// Creates an empty detector.
    #[must_use]
    pub fn new() -> Self {
        LossDetector::default()
    }

    /// Sets a late-join floor: sequences of `source` at or below `floor`
    /// are treated as not wanted (never reported missing).
    pub fn set_floor(&mut self, source: NodeId, floor: SeqNo) {
        let st = self.states.get_or_default(source);
        st.floor = st.floor.max(floor.0);
        if st.high < st.floor {
            st.high = st.floor;
        }
    }

    /// Feeds a received data packet (any path: initial multicast, repair,
    /// regional repair, handoff). Returns whether it is new and which
    /// messages are newly known to be missing.
    pub fn on_data(&mut self, id: MessageId) -> DataOutcome {
        let st = self.states.get_or_default(id.source);
        let newly_received = st.received.insert(id.seq.0);
        let mut newly_missing = Vec::new();
        if id.seq.0 > st.high {
            // Everything between the old high and this packet exists; the
            // not-yet-received ones (above the floor) are newly missing.
            let lo = (st.high + 1).max(st.floor + 1);
            for seq in st.received.missing_in(lo, id.seq.0) {
                newly_missing.push(MessageId::new(id.source, SeqNo(seq)));
            }
            st.high = id.seq.0;
        }
        DataOutcome { newly_received, newly_missing }
    }

    /// Feeds a session advertisement (`high` = highest sequence the sender
    /// has multicast). Returns newly missing messages.
    pub fn on_session(&mut self, source: NodeId, high: SeqNo) -> Vec<MessageId> {
        let st = self.states.get_or_default(source);
        let mut newly_missing = Vec::new();
        if high.0 > st.high {
            let lo = (st.high + 1).max(st.floor + 1);
            for seq in st.received.missing_in(lo, high.0) {
                newly_missing.push(MessageId::new(source, SeqNo(seq)));
            }
            st.high = high.0;
        }
        newly_missing
    }

    /// Feeds indirect evidence that `msg` exists (e.g. a request for it
    /// from another member). Equivalent to a session advertisement at the
    /// message's sequence number.
    pub fn on_hint(&mut self, msg: MessageId) -> Vec<MessageId> {
        self.on_session(msg.source, msg.seq)
    }

    /// Whether `msg` has ever been received (even if later discarded).
    #[must_use]
    pub fn received_before(&self, msg: MessageId) -> bool {
        self.states.get(msg.source).is_some_and(|st| st.received.contains(msg.seq.0))
    }

    /// Whether `msg` is currently known missing (exists, above the floor,
    /// never received).
    #[must_use]
    pub fn is_missing(&self, msg: MessageId) -> bool {
        self.states.get(msg.source).is_some_and(|st| {
            msg.seq.0 > st.floor && msg.seq.0 <= st.high && !st.received.contains(msg.seq.0)
        })
    }

    /// All currently missing messages, in `(source, seq)` order (the
    /// per-source map is already sorted; no collect-and-sort needed).
    pub fn missing_iter(&self) -> impl Iterator<Item = MessageId> + '_ {
        self.states.iter().flat_map(|(source, st)| {
            let lo = st.floor + 1;
            let seqs = (st.high >= lo).then(|| st.received.missing_in(lo, st.high));
            seqs.into_iter().flatten().map(move |seq| MessageId::new(source, SeqNo(seq)))
        })
    }

    /// [`LossDetector::missing_iter`], collected.
    #[cfg(test)]
    pub fn missing(&self) -> Vec<MessageId> {
        self.missing_iter().collect()
    }

    /// Number of distinct messages ever received from `source`.
    #[must_use]
    pub fn received_count(&self, source: NodeId) -> u64 {
        self.states.get(source).map_or(0, |st| st.received.len())
    }

    /// Highest sequence number known to exist for `source`.
    #[must_use]
    pub fn high(&self, source: NodeId) -> SeqNo {
        SeqNo(self.states.get(source).map_or(0, |st| st.high))
    }

    /// The contiguous-receipt watermark for `source`: the largest `s` such
    /// that every sequence `1..=s` has been received (0 if message 1 is
    /// still missing). This is the ACK value stability-detection protocols
    /// exchange.
    #[must_use]
    pub fn contiguous_received(&self, source: NodeId) -> SeqNo {
        let Some(st) = self.states.get(source) else { return SeqNo::NONE };
        match st.received.intervals().next() {
            Some((lo, hi)) if lo <= 1 => SeqNo(hi),
            _ => SeqNo::NONE,
        }
    }

    /// Every source the detector has state for, in ascending id order.
    pub fn tracked_sources(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.states.iter().map(|(source, _)| source)
    }

    /// The inclusive `(lo, hi)` received-sequence intervals recorded for
    /// `source`, in ascending order — the raw material of a history
    /// digest (receipt is permanent, so discarded payloads still appear).
    pub fn received_intervals(&self, source: NodeId) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.states.get(source).into_iter().flat_map(|st| st.received.intervals())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: NodeId = NodeId(0);

    fn mid(seq: u64) -> MessageId {
        MessageId::new(SRC, SeqNo(seq))
    }

    #[test]
    fn in_order_delivery_reports_nothing_missing() {
        let mut d = LossDetector::new();
        for seq in 1..=5 {
            let out = d.on_data(mid(seq));
            assert!(out.newly_received);
            assert!(out.newly_missing.is_empty());
        }
        assert!(d.missing().is_empty());
        assert_eq!(d.received_count(SRC), 5);
        assert_eq!(d.high(SRC), SeqNo(5));
    }

    #[test]
    fn gap_detected() {
        let mut d = LossDetector::new();
        d.on_data(mid(1));
        let out = d.on_data(mid(4));
        assert_eq!(out.newly_missing, vec![mid(2), mid(3)]);
        assert!(d.is_missing(mid(2)));
        assert!(d.is_missing(mid(3)));
        assert!(!d.is_missing(mid(1)));
        assert!(!d.is_missing(mid(4)));
        // Recover one.
        let out = d.on_data(mid(2));
        assert!(out.newly_received);
        assert!(out.newly_missing.is_empty());
        assert_eq!(d.missing(), vec![mid(3)]);
    }

    #[test]
    fn duplicate_is_not_new() {
        let mut d = LossDetector::new();
        assert!(d.on_data(mid(1)).newly_received);
        assert!(!d.on_data(mid(1)).newly_received);
    }

    #[test]
    fn session_advertisement_exposes_tail_loss() {
        let mut d = LossDetector::new();
        d.on_data(mid(1));
        // Messages 2 and 3 were lost entirely; a session message reveals them.
        let missing = d.on_session(SRC, SeqNo(3));
        assert_eq!(missing, vec![mid(2), mid(3)]);
        // Repeat advertisement: nothing new.
        assert!(d.on_session(SRC, SeqNo(3)).is_empty());
        // Stale advertisement: nothing new.
        assert!(d.on_session(SRC, SeqNo(1)).is_empty());
    }

    #[test]
    fn hint_acts_like_session() {
        let mut d = LossDetector::new();
        let missing = d.on_hint(mid(2));
        assert_eq!(missing, vec![mid(1), mid(2)]);
        assert!(d.is_missing(mid(1)));
    }

    #[test]
    fn received_before_survives_conceptual_discard() {
        // The detector has no notion of buffers; receipt is permanent.
        let mut d = LossDetector::new();
        d.on_data(mid(7));
        assert!(d.received_before(mid(7)));
        assert!(!d.received_before(mid(6)));
    }

    #[test]
    fn floor_suppresses_old_history() {
        let mut d = LossDetector::new();
        d.set_floor(SRC, SeqNo(10));
        // A late joiner sees message 12 first: only 11..12 matter.
        let out = d.on_data(mid(12));
        assert_eq!(out.newly_missing, vec![mid(11)]);
        assert!(!d.is_missing(mid(5)));
        assert!(d.is_missing(mid(11)));
        // Session below the floor is ignored.
        assert!(d.on_session(SRC, SeqNo(9)).is_empty());
    }

    #[test]
    fn contiguous_received_watermark() {
        let mut d = LossDetector::new();
        assert_eq!(d.contiguous_received(SRC), SeqNo::NONE);
        d.on_data(mid(1));
        d.on_data(mid(2));
        d.on_data(mid(5));
        assert_eq!(d.contiguous_received(SRC), SeqNo(2));
        d.on_data(mid(3));
        d.on_data(mid(4));
        assert_eq!(d.contiguous_received(SRC), SeqNo(5));
        // Missing message 1 pins the watermark at 0.
        let mut d2 = LossDetector::new();
        d2.on_data(mid(2));
        assert_eq!(d2.contiguous_received(SRC), SeqNo::NONE);
    }

    #[test]
    fn floor_near_u64_max_leaves_one_gap() {
        let top = u64::MAX;
        let mut d = LossDetector::new();
        d.set_floor(SRC, SeqNo(top - 2));
        let out = d.on_data(mid(top));
        assert_eq!(out.newly_missing, vec![mid(top - 1)]);
        assert_eq!(d.missing(), vec![mid(top - 1)]);
        assert!(d.on_session(SRC, SeqNo(top)).is_empty());
    }

    #[test]
    fn multiple_sources_tracked_independently() {
        let mut d = LossDetector::new();
        let a = NodeId(1);
        let b = NodeId(2);
        d.on_data(MessageId::new(a, SeqNo(2)));
        d.on_data(MessageId::new(b, SeqNo(1)));
        let missing = d.missing();
        assert_eq!(missing, vec![MessageId::new(a, SeqNo(1))]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        /// For any arrival permutation and session interleaving:
        /// missing = {1..=high} \ received, and receipt is permanent.
        #[test]
        fn missing_is_complement(
            arrivals in proptest::collection::vec(1u64..40, 1..60),
            session_high in 0u64..40,
        ) {
            let mut d = LossDetector::new();
            let mut seen = BTreeSet::new();
            let mut high = 0u64;
            for &seq in &arrivals {
                let out = d.on_data(mid(seq));
                prop_assert_eq!(out.newly_received, seen.insert(seq));
                high = high.max(seq);
            }
            d.on_session(SRC, SeqNo(session_high));
            high = high.max(session_high);
            let expect: Vec<MessageId> =
                (1..=high).filter(|s| !seen.contains(s)).map(mid).collect();
            prop_assert_eq!(d.missing(), expect);
            for &s in &seen {
                prop_assert!(d.received_before(mid(s)));
                prop_assert!(!d.is_missing(mid(s)));
            }
        }
    }

    const SRC: NodeId = NodeId(0);
    fn mid(seq: u64) -> MessageId {
        MessageId::new(SRC, SeqNo(seq))
    }

    /// One step of a random per-source script.
    #[derive(Debug, Clone)]
    enum Op {
        Data { src: u32, seq: u64 },
        Session { src: u32, high: u64 },
        Floor { src: u32, floor: u64 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let data = (0u32..4, 1u64..30).prop_map(|(src, seq)| Op::Data { src, seq });
        prop_oneof![
            // Unweighted oneof: repeat the data arm to bias toward receipt.
            data.clone(),
            data,
            (0u32..4, 0u64..30).prop_map(|(src, high)| Op::Session { src, high }),
            (0u32..4, 0u64..20).prop_map(|(src, floor)| Op::Floor { src, floor }),
        ]
    }

    /// The old HashMap-shaped per-source model, state kept explicitly.
    #[derive(Debug, Clone, Default)]
    struct ModelState {
        received: BTreeSet<u64>,
        high: u64,
        floor: u64,
    }

    proptest! {
        /// The `VecMap`-backed detector is observably identical to a
        /// HashMap-of-BTreeSet model on arbitrary multi-source
        /// data/session/floor scripts — outcomes included.
        #[test]
        fn detector_matches_hashmap_model(
            ops in proptest::collection::vec(op_strategy(), 0..80),
        ) {
            use std::collections::HashMap;
            let mut d = LossDetector::new();
            let mut model: HashMap<NodeId, ModelState> = HashMap::new();
            for op in &ops {
                match *op {
                    Op::Data { src, seq } => {
                        let out = d.on_data(MessageId::new(NodeId(src), SeqNo(seq)));
                        let st = model.entry(NodeId(src)).or_default();
                        let newly = st.received.insert(seq);
                        let mut newly_missing = Vec::new();
                        if seq > st.high {
                            let lo = (st.high + 1).max(st.floor + 1);
                            for s in lo..=seq {
                                if !st.received.contains(&s) {
                                    newly_missing.push(MessageId::new(NodeId(src), SeqNo(s)));
                                }
                            }
                            st.high = seq;
                        }
                        prop_assert_eq!(out.newly_received, newly);
                        prop_assert_eq!(out.newly_missing, newly_missing);
                    }
                    Op::Session { src, high } => {
                        let out = d.on_session(NodeId(src), SeqNo(high));
                        let st = model.entry(NodeId(src)).or_default();
                        let mut newly_missing = Vec::new();
                        if high > st.high {
                            let lo = (st.high + 1).max(st.floor + 1);
                            for s in lo..=high {
                                if !st.received.contains(&s) {
                                    newly_missing.push(MessageId::new(NodeId(src), SeqNo(s)));
                                }
                            }
                            st.high = high;
                        }
                        prop_assert_eq!(out, newly_missing);
                    }
                    Op::Floor { src, floor } => {
                        d.set_floor(NodeId(src), SeqNo(floor));
                        let st = model.entry(NodeId(src)).or_default();
                        st.floor = st.floor.max(floor);
                        st.high = st.high.max(st.floor);
                    }
                }
                // Full observable state after every step.
                let mut expect_missing: Vec<MessageId> = Vec::new();
                let mut expect_sources: Vec<NodeId> = model.keys().copied().collect();
                expect_sources.sort_unstable();
                for &src in &expect_sources {
                    let st = &model[&src];
                    for s in st.floor + 1..=st.high {
                        if !st.received.contains(&s) {
                            expect_missing.push(MessageId::new(src, SeqNo(s)));
                        }
                    }
                }
                prop_assert_eq!(d.missing(), expect_missing);
                let tracked: Vec<NodeId> = d.tracked_sources().collect();
                prop_assert_eq!(&tracked, &expect_sources, "ascending source order");
                for src in (0u32..4).map(NodeId) {
                    let st = model.get(&src);
                    prop_assert_eq!(
                        d.high(src),
                        SeqNo(st.map_or(0, |st| st.high))
                    );
                    prop_assert_eq!(
                        d.received_count(src),
                        st.map_or(0, |st| st.received.len() as u64)
                    );
                    let contiguous = st.map_or(0, |st| {
                        let mut c = 0;
                        while st.received.contains(&(c + 1)) {
                            c += 1;
                        }
                        c
                    });
                    prop_assert_eq!(d.contiguous_received(src), SeqNo(contiguous));
                    for s in 1u64..=30 {
                        let msg = MessageId::new(src, SeqNo(s));
                        prop_assert_eq!(
                            d.received_before(msg),
                            st.is_some_and(|st| st.received.contains(&s))
                        );
                        prop_assert_eq!(
                            d.is_missing(msg),
                            st.is_some_and(|st| s > st.floor
                                && s <= st.high
                                && !st.received.contains(&s))
                        );
                    }
                }
            }
        }
    }
}
