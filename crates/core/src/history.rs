//! History exchange and repair-role hierarchies.
//!
//! Two families of protocols the paper's §1/§6 compares against need
//! engine surface the two-phase algorithm never uses:
//!
//! * **Stability detection** (Guo & Rhee, INFOCOM '00): every member
//!   buffers every message until it is *stable* — received by the whole
//!   group — learned by periodically exchanging message-history digests.
//!   [`HistoryDigest`] is the advertisement (the per-source interval sets
//!   of everything a member has delivered, carried in
//!   [`Packet::History`](crate::packet::Packet::History));
//!   [`StabilityTracker`] folds arriving digests into per-peer ack
//!   frontiers and answers the group-wide stability question.
//! * **Tree-based repair servers** (RMTP, JSAC '97): each region
//!   designates one member as its repair server; receivers NACK their
//!   server, servers NACK the parent region's server. [`RepairRoles`]
//!   derives those fixed roles deterministically from the membership
//!   view (lowest id per region), so every member agrees on them without
//!   any election traffic — and re-derives them when churn shrinks the
//!   view.
//!
//! Both structures are *policy state*: the
//! [`BufferPolicy`](crate::policy::BufferPolicy) implementations
//! `Stability` and `TreeRmtp` own them, and the shared receiver engine
//! only routes the new packet type and the periodic
//! [`TimerKind::HistoryTick`](crate::events::TimerKind::HistoryTick) to
//! the policy hooks.

use std::sync::Arc;

use rrmp_membership::view::HierarchyView;
use rrmp_netsim::topology::NodeId;

use crate::ids::SeqNo;
use crate::loss::LossDetector;
use crate::vecmap::VecMap;

/// One source's entry in a history digest: the inclusive sequence-number
/// intervals of everything the advertiser has delivered from that source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestEntry {
    /// The message source the intervals are about.
    pub source: NodeId,
    /// Sorted, disjoint inclusive `(lo, hi)` sequence intervals.
    pub intervals: Vec<(SeqNo, SeqNo)>,
}

impl DigestEntry {
    /// The contiguous-receipt frontier of this entry: the largest `s`
    /// such that every sequence `1..=s` is covered ([`SeqNo::NONE`] if
    /// sequence 1 is missing). Tolerates unnormalized interval lists —
    /// digests cross the wire, so hostile input must not confuse the
    /// stability computation into over-reporting.
    #[must_use]
    pub fn frontier(&self) -> SeqNo {
        match self.intervals.first() {
            Some(&(lo, hi)) if lo.0 <= 1 && hi >= lo => hi,
            _ => SeqNo::NONE,
        }
    }
}

/// A periodic history advertisement: per-source interval sets of every
/// message the advertiser has delivered (even if since discarded).
///
/// Stability protocols only need the contiguous frontier, but carrying
/// the full interval set lets peers distinguish "has a gap at `s`" from
/// "has received nothing past `s`" — the digest doubles as a loss hint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistoryDigest {
    /// One entry per advertised source, in ascending source order.
    pub entries: Vec<DigestEntry>,
}

impl HistoryDigest {
    /// An empty digest (a member that has received nothing yet still
    /// advertises, so peers learn it is alive but empty).
    #[must_use]
    pub fn new() -> Self {
        HistoryDigest::default()
    }

    /// Builds the digest of everything `detector` has ever recorded as
    /// received, in ascending source order (deterministic wire bytes).
    ///
    /// Output is always encodable: sources are capped at
    /// [`MAX_DIGEST_SOURCES`](crate::packet::MAX_DIGEST_SOURCES) and each
    /// entry's intervals at
    /// [`MAX_DIGEST_INTERVALS`](crate::packet::MAX_DIGEST_INTERVALS) —
    /// truncation keeps the **earliest** intervals, which preserves the
    /// contiguous frontier stability detection consumes (a pathologically
    /// fragmented tail only under-reports, never over-reports).
    #[must_use]
    pub fn from_detector(detector: &LossDetector) -> Self {
        let entries = detector
            .tracked_sources()
            .take(crate::packet::MAX_DIGEST_SOURCES)
            .map(|source| DigestEntry {
                source,
                intervals: detector
                    .received_intervals(source)
                    .take(crate::packet::MAX_DIGEST_INTERVALS)
                    .map(|(lo, hi)| (SeqNo(lo), SeqNo(hi)))
                    .collect(),
            })
            .filter(|e| !e.intervals.is_empty())
            .collect();
        HistoryDigest { entries }
    }

    /// The advertiser's contiguous frontier for `source`
    /// ([`SeqNo::NONE`] when the source is absent from the digest).
    #[must_use]
    pub fn frontier(&self, source: NodeId) -> SeqNo {
        self.entries.iter().find(|e| e.source == source).map_or(SeqNo::NONE, DigestEntry::frontier)
    }

    /// Whether the digest advertises nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Per-receiver stability state: the ack frontier last heard from every
/// peer, folded from arriving [`HistoryDigest`]s, and the group-wide
/// stability frontier derived from them.
///
/// A message is *stable* once every quorum member's contiguous frontier
/// has passed it; stability protocols discard exactly then — buffers
/// drain at the pace of the slowest member, the cost the paper's §6
/// holds against this design.
///
/// The group-wide minimum is maintained **incrementally**: per source
/// the tracker caches the smallest advertised frontier and how many
/// peers sit exactly on it, so folding a digest in is O(entries) and
/// [`StabilityTracker::stable_frontier`] is O(1). A full O(peers)
/// rescan happens only when the *slowest* peer advances — without this,
/// an n-member group pays O(n) per received digest, O(n³) per history
/// interval.
///
/// Layout: a peer's index is its position in the quorum, an ascending
/// id list that every receiver of the group shares, so finding it is
/// one subtraction on the usual contiguous ids and a binary search
/// otherwise (`quorum_position`). Per-source state is a pair of flat
/// arrays (frontier per peer index, plus a mentioned bitset) in a
/// source-sorted [`VecMap`], allocated lazily on first mention, so a
/// source nobody has advertised costs zero bytes.
#[derive(Debug, Clone)]
pub struct StabilityTracker {
    /// The peers digests are accepted from, ascending; shared, never
    /// copied. Indices stay valid across forget/re-record.
    quorum: Arc<[NodeId]>,
    /// Bitset over peer indices: whether a digest is currently on record
    /// (cleared by [`StabilityTracker::forget`]).
    heard: Vec<u64>,
    /// Number of set bits in `heard`.
    heard_count: usize,
    /// Per-source frontier arrays + cached minimum.
    slots: VecMap<NodeId, SourceSlot>,
}

/// One source's advertised frontiers across all peers, plus the cached
/// minimum over the mentioning peers.
#[derive(Debug, Clone, Default)]
struct SourceSlot {
    /// Highest contiguous frontier advertised, per peer index;
    /// meaningful only where the `mentioned` bit is set.
    frontiers: Vec<u64>,
    /// Bitset over peer indices: which peers have mentioned this source
    /// (a frontier of zero is still a mention — "heard from, received
    /// nothing" pins stability, unlike "never mentioned").
    mentioned: Vec<u64>,
    /// Smallest frontier any mentioning peer has advertised.
    min: u64,
    /// How many mentioning peers sit exactly at `min`.
    at_min: usize,
    /// How many peers have mentioned this source at all.
    mentions: usize,
}

fn has_bit(words: &[u64], p: usize) -> bool {
    words.get(p / 64).is_some_and(|w| w & (1 << (p % 64)) != 0)
}

fn set_bit(words: &mut [u64], p: usize) {
    words[p / 64] |= 1 << (p % 64);
}

fn clear_bit(words: &mut [u64], p: usize) {
    words[p / 64] &= !(1u64 << (p % 64));
}

/// The position of `id` in `ids`, an ascending id list. Topologies number
/// members contiguously, so `id − ids[0]` is tried first and confirmed
/// against the entry there; a list with gaps falls back to a binary
/// search.
pub(crate) fn quorum_position(ids: &[NodeId], id: NodeId) -> Option<usize> {
    let first = ids.first()?;
    let i = id.0.wrapping_sub(first.0) as usize;
    if ids.get(i) == Some(&id) {
        Some(i)
    } else {
        ids.binary_search(&id).ok()
    }
}

impl SourceSlot {
    fn ensure_peer(&mut self, p: usize) {
        if self.frontiers.len() <= p {
            self.frontiers.resize(p + 1, 0);
        }
        let w = p / 64;
        if self.mentioned.len() <= w {
            self.mentioned.resize(w + 1, 0);
        }
    }

    /// One O(peers) rescan over the mentioned bitset re-establishes the
    /// cached minimum (needed only when the slowest peer moves).
    fn recompute_min(&mut self) {
        let mut min = u64::MAX;
        let mut at_min = 0usize;
        for (w, &word) in self.mentioned.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let f = self.frontiers[w * 64 + b];
                if f < min {
                    min = f;
                    at_min = 1;
                } else if f == min {
                    at_min += 1;
                }
            }
        }
        self.min = min;
        self.at_min = at_min;
    }
}

impl StabilityTracker {
    /// Creates a tracker over `members`, the quorum in ascending id order.
    /// Nobody counts as heard until recorded. The stability policy shares
    /// the group's list instead of copying it.
    #[must_use]
    pub fn with_members(members: &[NodeId]) -> Self {
        Self::sharing(members.into())
    }

    /// Creates a tracker over the shared `quorum` (ascending ids).
    pub(crate) fn sharing(quorum: Arc<[NodeId]>) -> Self {
        debug_assert!(quorum.windows(2).all(|w| w[0] < w[1]), "quorum must ascend");
        let heard = vec![0; quorum.len().div_ceil(64)];
        StabilityTracker { quorum, heard, heard_count: 0, slots: VecMap::new() }
    }

    /// Folds `digest` from `peer` in: frontiers only ever advance (late
    /// or reordered digests cannot regress a peer's ack). A peer outside
    /// the quorum has no index, and its digest is ignored.
    pub fn record(&mut self, peer: NodeId, digest: &HistoryDigest) {
        let Some(p) = quorum_position(&self.quorum, peer) else { return };
        if !has_bit(&self.heard, p) {
            set_bit(&mut self.heard, p);
            self.heard_count += 1;
        }
        for entry in &digest.entries {
            let f = entry.frontier().0;
            // Lazy slot allocation on first mention.
            let slot = self.slots.get_or_default(entry.source);
            slot.ensure_peer(p);
            if !has_bit(&slot.mentioned, p) {
                set_bit(&mut slot.mentioned, p);
                slot.frontiers[p] = f;
                if slot.mentions == 0 || f < slot.min {
                    slot.min = f;
                    slot.at_min = 1;
                } else if f == slot.min {
                    slot.at_min += 1;
                }
                slot.mentions += 1;
            } else {
                let old = slot.frontiers[p];
                if f > old {
                    slot.frontiers[p] = f;
                    if old == slot.min {
                        slot.at_min -= 1;
                        if slot.at_min == 0 {
                            // The slowest peer advanced: one O(peers)
                            // rescan re-establishes the cache.
                            slot.recompute_min();
                        }
                    }
                }
                // else monotone: stale digests change nothing
            }
        }
    }

    /// Whether at least one digest from `peer` has been heard (a test
    /// oracle, like the next two).
    #[cfg(test)]
    fn heard_from(&self, peer: NodeId) -> bool {
        quorum_position(&self.quorum, peer).is_some_and(|p| has_bit(&self.heard, p))
    }

    /// Number of distinct peers heard from (and not since forgotten).
    #[cfg(test)]
    fn heard_count(&self) -> usize {
        self.heard_count
    }

    /// The highest contiguous frontier `peer` has advertised for
    /// `source` ([`SeqNo::NONE`] before any digest mentioned it).
    #[cfg(test)]
    fn peer_frontier(&self, peer: NodeId, source: NodeId) -> SeqNo {
        let f = quorum_position(&self.quorum, peer).and_then(|p| {
            let slot = self.slots.get(source)?;
            has_bit(&slot.mentioned, p).then(|| slot.frontiers[p])
        });
        SeqNo(f.unwrap_or(0))
    }

    /// The group-wide stability frontier for `source` over a quorum of
    /// `quorum_len` peers: the minimum of `own_frontier` and every
    /// peer's advertised frontier, or `None` while fewer than
    /// `quorum_len` peers have been heard from at all. Peers heard from
    /// but silent about `source` pin the frontier at zero (they have
    /// received nothing from it). O(1) via the cached per-source
    /// minimum.
    #[must_use]
    pub fn stable_frontier(
        &self,
        source: NodeId,
        own_frontier: SeqNo,
        quorum_len: usize,
    ) -> Option<SeqNo> {
        if self.heard_count < quorum_len {
            return None;
        }
        let peers_min = match self.slots.get(source) {
            // Every quorum peer must have mentioned the source; the
            // silent ones are at frontier zero by definition.
            Some(slot) if slot.mentions >= quorum_len => slot.min,
            // Nobody mentioned it and nobody has to: trivially stable up
            // to the caller's own frontier (a single-member group).
            None if quorum_len == 0 => u64::MAX,
            _ => 0,
        };
        Some(own_frontier.min(SeqNo(peers_min)))
    }

    /// Drops all state about `peer` — a member that left no longer gates
    /// stability (otherwise the whole group's buffers freeze on it).
    pub fn forget(&mut self, peer: NodeId) {
        let Some(p) = quorum_position(&self.quorum, peer) else { return };
        if !has_bit(&self.heard, p) {
            return;
        }
        clear_bit(&mut self.heard, p);
        self.heard_count -= 1;
        // Sources mentioned only by this peer drop their slot entirely
        // (matching the map-based behaviour, where an unmentioned source
        // is distinguishable from one mentioned at frontier zero).
        self.slots.retain(|_, slot| {
            if !has_bit(&slot.mentioned, p) {
                return true;
            }
            let f = slot.frontiers[p];
            clear_bit(&mut slot.mentioned, p);
            slot.mentions -= 1;
            if slot.mentions == 0 {
                return false;
            }
            if f == slot.min {
                slot.at_min -= 1;
                if slot.at_min == 0 {
                    slot.recompute_min();
                }
            }
            true
        });
    }
}

/// The fixed repair-server hierarchy of tree-based protocols, derived
/// deterministically from a membership view: a region's repair server is
/// its **lowest-id member**, and the parent pointer follows the region
/// hierarchy. Every member derives the same roles from a consistent
/// view; churn re-derives them as the view shrinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairRoles {
    /// This region's repair server.
    pub server: NodeId,
    /// The parent region's repair server (`None` at the hierarchy root).
    pub parent_server: Option<NodeId>,
}

impl RepairRoles {
    /// Derives the roles visible to the member owning `view`. Returns
    /// `None` only for an empty own-region view (a member always sees at
    /// least itself in practice).
    #[must_use]
    pub fn from_view(view: &HierarchyView) -> Option<RepairRoles> {
        let server = view.own().min_member()?;
        Some(RepairRoles { server, parent_server: view.parent().and_then(|p| p.min_member()) })
    }

    /// Whether `id` holds the repair-server role.
    #[must_use]
    pub fn is_server(&self, id: NodeId) -> bool {
        self.server == id
    }

    /// Whom `id` NACKs for a missing message: ordinary receivers ask
    /// their region's server, the server asks the parent region's server,
    /// and the root server has nobody above it.
    #[must_use]
    pub fn recovery_target(&self, id: NodeId) -> Option<NodeId> {
        if self.is_server(id) {
            self.parent_server.filter(|&p| p != id)
        } else {
            Some(self.server)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MessageId;
    use rrmp_membership::view::RegionView;
    use rrmp_netsim::topology::RegionId;
    use std::collections::HashMap;

    fn mid(src: u32, seq: u64) -> MessageId {
        MessageId::new(NodeId(src), SeqNo(seq))
    }

    #[test]
    fn digest_reflects_detector_intervals() {
        let mut d = LossDetector::new();
        for seq in [1, 2, 3, 7] {
            d.on_data(mid(0, seq));
        }
        d.on_data(mid(5, 1));
        let digest = HistoryDigest::from_detector(&d);
        assert_eq!(digest.entries.len(), 2);
        assert_eq!(digest.entries[0].source, NodeId(0));
        assert_eq!(digest.entries[0].intervals, vec![(SeqNo(1), SeqNo(3)), (SeqNo(7), SeqNo(7))]);
        assert_eq!(digest.frontier(NodeId(0)), SeqNo(3));
        assert_eq!(digest.frontier(NodeId(5)), SeqNo(1));
        assert_eq!(digest.frontier(NodeId(9)), SeqNo::NONE);
    }

    #[test]
    fn digest_truncates_to_wire_limits_keeping_the_frontier() {
        let mut d = LossDetector::new();
        // Every other sequence: one interval each, far past the cap.
        let n = (crate::packet::MAX_DIGEST_INTERVALS + 50) as u64;
        for seq in 0..n {
            d.on_data(mid(0, 1 + 2 * seq));
        }
        let digest = HistoryDigest::from_detector(&d);
        assert_eq!(digest.entries[0].intervals.len(), crate::packet::MAX_DIGEST_INTERVALS);
        // The earliest intervals survive, so the frontier is intact.
        assert_eq!(digest.frontier(NodeId(0)), SeqNo(1));
        // And the truncated digest still encodes/decodes cleanly.
        let p = crate::packet::Packet::History { digest: std::sync::Arc::new(digest) };
        assert_eq!(crate::packet::Packet::decode(p.encode()).unwrap(), p);
    }

    #[test]
    fn empty_and_gapped_digests_have_zero_frontier() {
        assert!(HistoryDigest::new().is_empty());
        let gapped = DigestEntry { source: NodeId(0), intervals: vec![(SeqNo(2), SeqNo(9))] };
        assert_eq!(gapped.frontier(), SeqNo::NONE);
        // Hostile unnormalized intervals never over-report.
        let bogus = DigestEntry { source: NodeId(0), intervals: vec![(SeqNo(1), SeqNo(0))] };
        assert_eq!(bogus.frontier(), SeqNo::NONE);
    }

    fn digest_to(src: NodeId, hi: u64) -> HistoryDigest {
        HistoryDigest {
            entries: vec![DigestEntry { source: src, intervals: vec![(SeqNo(1), SeqNo(hi))] }],
        }
    }

    fn tracker_over(ids: impl IntoIterator<Item = u32>) -> StabilityTracker {
        StabilityTracker::with_members(&ids.into_iter().map(NodeId).collect::<Vec<_>>())
    }

    #[test]
    fn tracker_requires_full_quorum_and_advances_monotonically() {
        let src = NodeId(0);
        let mut t = tracker_over(1..=3);
        assert_eq!(t.stable_frontier(src, SeqNo(5), 2), None);
        t.record(NodeId(1), &digest_to(src, 3));
        assert_eq!(t.stable_frontier(src, SeqNo(5), 2), None, "one quorum peer unheard");
        t.record(NodeId(2), &digest_to(src, 9));
        assert_eq!(t.stable_frontier(src, SeqNo(5), 2), Some(SeqNo(3)));
        // A stale digest cannot regress the frontier.
        t.record(NodeId(1), &digest_to(src, 1));
        assert_eq!(t.peer_frontier(NodeId(1), src), SeqNo(3));
        // The slowest peer advancing re-establishes the cached minimum.
        t.record(NodeId(1), &digest_to(src, 6));
        assert_eq!(t.stable_frontier(src, SeqNo(5), 2), Some(SeqNo(5)));
        assert_eq!(t.stable_frontier(src, SeqNo(99), 2), Some(SeqNo(6)));
        // A peer heard from but silent about `src` pins stability at 0.
        t.record(NodeId(3), &HistoryDigest::new());
        assert_eq!(t.heard_count(), 3);
        assert_eq!(t.stable_frontier(src, SeqNo(5), 3), Some(SeqNo::NONE));
    }

    #[test]
    fn tracker_forget_unblocks_stability() {
        let src = NodeId(0);
        let mut t = tracker_over(1..=2);
        t.record(NodeId(1), &digest_to(src, 4));
        t.record(NodeId(2), &HistoryDigest::new());
        assert_eq!(t.stable_frontier(src, SeqNo(9), 2), Some(SeqNo::NONE));
        t.forget(NodeId(2));
        assert_eq!(t.stable_frontier(src, SeqNo(9), 1), Some(SeqNo(4)));
        assert!(!t.heard_from(NodeId(2)));
    }

    #[test]
    fn tracker_forget_of_slowest_peer_recomputes_minimum() {
        let src = NodeId(0);
        let mut t = tracker_over(1..=3);
        t.record(NodeId(1), &digest_to(src, 2));
        t.record(NodeId(2), &digest_to(src, 7));
        t.record(NodeId(3), &digest_to(src, 5));
        assert_eq!(t.stable_frontier(src, SeqNo(9), 3), Some(SeqNo(2)));
        t.forget(NodeId(1)); // the slowest peer leaves
        assert_eq!(t.stable_frontier(src, SeqNo(9), 2), Some(SeqNo(5)));
        t.forget(NodeId(3));
        assert_eq!(t.stable_frontier(src, SeqNo(9), 1), Some(SeqNo(7)));
        t.forget(NodeId(2));
        // An empty quorum is trivially stable up to the own frontier.
        assert_eq!(t.stable_frontier(src, SeqNo(9), 0), Some(SeqNo(9)));
    }

    /// A deterministic xorshift stream for the scripted tests below.
    fn xorshift() -> impl FnMut() -> u64 {
        let mut state = 0x9E37_79B9_97F4_A7C1u64;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn incremental_min_matches_naive_model_under_random_scripts() {
        // Deterministic pseudo-random op script: record/forget against a
        // naive max-merge model, comparing the cached frontier after
        // every step (the at_min/recompute bookkeeping is the part a
        // unit test alone would miss).
        let mut next = xorshift();
        let mut t = tracker_over(0..6);
        let mut model: HashMap<NodeId, HashMap<NodeId, u64>> = HashMap::new();
        for _ in 0..4000 {
            let peer = NodeId((next() % 6) as u32);
            if next().is_multiple_of(8) {
                t.forget(peer);
                model.remove(&peer);
            } else {
                let source = NodeId(100 + (next() % 3) as u32);
                let hi = next() % 12;
                let digest = if hi == 0 { HistoryDigest::new() } else { digest_to(source, hi) };
                t.record(peer, &digest);
                let acks = model.entry(peer).or_default();
                if hi > 0 {
                    let slot = acks.entry(source).or_insert(0);
                    *slot = (*slot).max(hi);
                }
            }
            assert_eq!(t.heard_count(), model.len(), "heard_count diverged");
            for p in 0..6u32 {
                assert_eq!(t.heard_from(NodeId(p)), model.contains_key(&NodeId(p)));
            }
            for s in [100u32, 101, 102].map(NodeId) {
                for p in 0..6u32 {
                    let naive =
                        model.get(&NodeId(p)).and_then(|acks| acks.get(&s).copied()).unwrap_or(0);
                    assert_eq!(
                        t.peer_frontier(NodeId(p), s),
                        SeqNo(naive),
                        "peer_frontier diverged"
                    );
                }
                for quorum_len in 0..=6usize {
                    let naive = if model.len() < quorum_len {
                        None
                    } else {
                        let mentioned: Vec<u64> =
                            model.values().filter_map(|acks| acks.get(&s).copied()).collect();
                        let peers_min = if mentioned.len() >= quorum_len {
                            mentioned.iter().copied().min().unwrap_or(u64::MAX)
                        } else {
                            0
                        };
                        Some(SeqNo(peers_min.min(7)))
                    };
                    assert_eq!(
                        t.stable_frontier(s, SeqNo(7), quorum_len),
                        naive,
                        "tracker diverged from naive model"
                    );
                }
            }
        }
    }

    #[test]
    fn a_sparse_quorum_folds_digests_like_a_dense_one() {
        // The same script over ids 0..6 and over even ids 0..=10: the
        // sparse peers' `id − quorum[0]` lands inside the list at the wrong
        // entry (id 2 at position 2 is id 4), so only a lookup that checks
        // the entry it lands on keeps the two trackers equal.
        let sparse = |p: u32| NodeId(2 * p);
        let mut dense = tracker_over(0..6);
        let mut gapped = tracker_over((0..6).map(|p| sparse(p).0));
        let mut next = xorshift();
        for _ in 0..4000 {
            let p = (next() % 6) as u32;
            if next().is_multiple_of(8) {
                dense.forget(NodeId(p));
                gapped.forget(sparse(p));
            } else {
                let hi = next() % 12;
                let digest = if hi == 0 {
                    HistoryDigest::new()
                } else {
                    digest_to(NodeId(100 + (next() % 3) as u32), hi)
                };
                dense.record(NodeId(p), &digest);
                gapped.record(sparse(p), &digest);
            }
            assert_eq!(dense.heard_count(), gapped.heard_count());
            for s in [100u32, 101, 102].map(NodeId) {
                for p in 0..6u32 {
                    assert_eq!(dense.heard_from(NodeId(p)), gapped.heard_from(sparse(p)));
                    assert_eq!(
                        dense.peer_frontier(NodeId(p), s),
                        gapped.peer_frontier(sparse(p), s)
                    );
                }
                for quorum_len in 0..=6usize {
                    assert_eq!(
                        dense.stable_frontier(s, SeqNo(7), quorum_len),
                        gapped.stable_frontier(s, SeqNo(7), quorum_len)
                    );
                }
            }
        }
    }

    #[test]
    fn forgetting_a_sources_last_mentioner_frees_its_slot() {
        // A source nobody mentions costs nothing: its slot goes with its
        // last mention, and a later mention starts it afresh.
        let mut t = tracker_over(1..=2);
        t.record(NodeId(1), &digest_to(NodeId(100), 3));
        t.record(NodeId(2), &digest_to(NodeId(100), 5));
        t.record(NodeId(2), &digest_to(NodeId(101), 4));
        t.forget(NodeId(2));
        assert_eq!(t.slots.iter().map(|(s, _)| s).collect::<Vec<_>>(), [NodeId(100)]);
        t.forget(NodeId(1));
        assert!(t.slots.is_empty());
        t.record(NodeId(1), &digest_to(NodeId(101), 2));
        assert_eq!(t.stable_frontier(NodeId(101), SeqNo(9), 1), Some(SeqNo(2)));
    }

    #[test]
    fn a_digest_from_outside_the_quorum_changes_nothing() {
        // A peer the tracker has no index for — an odd id in an even
        // quorum, one past either end — neither counts as heard nor moves
        // a frontier.
        let src = NodeId(100);
        let mut t = tracker_over([2, 4, 6]);
        t.record(NodeId(2), &digest_to(src, 3));
        for outsider in [0u32, 3, 5, 7, 8] {
            t.record(NodeId(outsider), &digest_to(src, 9));
            assert!(!t.heard_from(NodeId(outsider)));
        }
        assert_eq!(t.heard_count(), 1);
        assert_eq!(t.stable_frontier(src, SeqNo(9), 1), Some(SeqNo(3)));
        t.forget(NodeId(5));
        assert_eq!(t.heard_count(), 1);
    }

    #[test]
    fn quorum_position_finds_members_of_dense_and_gapped_lists() {
        let dense: Vec<NodeId> = (10..20).map(NodeId).collect();
        let gapped: Vec<NodeId> = [1, 2, 3, 7, 8, 40].map(NodeId).to_vec();
        for (i, &id) in dense.iter().enumerate() {
            assert_eq!(quorum_position(&dense, id), Some(i));
        }
        for (i, &id) in gapped.iter().enumerate() {
            assert_eq!(quorum_position(&gapped, id), Some(i));
        }
        for id in [0u32, 9, 20, u32::MAX].map(NodeId) {
            assert_eq!(quorum_position(&dense, id), None);
        }
        for id in [0u32, 4, 6, 9, 41].map(NodeId) {
            assert_eq!(quorum_position(&gapped, id), None);
        }
        assert_eq!(quorum_position(&[], NodeId(0)), None);
    }

    #[test]
    fn repair_roles_derive_from_view() {
        let own = RegionView::new(RegionId(1), [NodeId(4), NodeId(5), NodeId(6)]);
        let parent = RegionView::new(RegionId(0), [NodeId(0), NodeId(1)]);
        let roles = RepairRoles::from_view(&HierarchyView::new(own, Some(parent))).unwrap();
        assert_eq!(roles.server, NodeId(4));
        assert_eq!(roles.parent_server, Some(NodeId(0)));
        assert!(roles.is_server(NodeId(4)));
        assert_eq!(roles.recovery_target(NodeId(5)), Some(NodeId(4)));
        assert_eq!(roles.recovery_target(NodeId(4)), Some(NodeId(0)));

        // The root server has nobody to NACK.
        let root = RegionView::new(RegionId(0), [NodeId(0), NodeId(1)]);
        let roles = RepairRoles::from_view(&HierarchyView::new(root, None)).unwrap();
        assert_eq!(roles.recovery_target(NodeId(0)), None);
        assert_eq!(roles.recovery_target(NodeId(1)), Some(NodeId(0)));
    }

    #[test]
    fn repair_roles_rederive_after_churn() {
        let mut own = RegionView::new(RegionId(1), [NodeId(4), NodeId(5), NodeId(6)]);
        own.remove(NodeId(4)); // the server left
        let roles = RepairRoles::from_view(&HierarchyView::new(own, None)).unwrap();
        assert_eq!(roles.server, NodeId(5), "next-lowest member takes the role");
        let empty = RegionView::new(RegionId(1), []);
        assert!(RepairRoles::from_view(&HierarchyView::new(empty, None)).is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ids::SeqNo;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// One step of a random digest/ack script: either a digest from a
    /// peer mentioning several sources (frontier 0 = "mentioned, nothing
    /// received"), or forgetting a peer.
    #[derive(Debug, Clone)]
    enum Op {
        Record { peer: u32, entries: Vec<(u32, u64)> },
        Forget { peer: u32 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // The vendored prop_oneof is unweighted; repeating the record arm
        // biases scripts toward digests over forgets.
        let record = (0u32..6, proptest::collection::vec((100u32..104, 0u64..10), 0..4))
            .prop_map(|(peer, entries)| Op::Record { peer, entries });
        prop_oneof![record.clone(), record, (0u32..6).prop_map(|peer| Op::Forget { peer }),]
    }

    fn digest_of(entries: &[(u32, u64)]) -> HistoryDigest {
        HistoryDigest {
            entries: entries
                .iter()
                .map(|&(src, hi)| DigestEntry {
                    source: NodeId(src),
                    intervals: if hi == 0 { vec![] } else { vec![(SeqNo(1), SeqNo(hi))] },
                })
                .collect(),
        }
    }

    proptest! {
        /// The compressed tracker is observably identical to the
        /// HashMap-of-HashMap model it replaced, on arbitrary digest/ack
        /// scripts over a quorum of peers 0..5 spaced `stride` apart:
        /// same heard set, same per-peer frontiers, same group-wide
        /// stability answer at every quorum size. Peer 5 is outside the
        /// quorum, so its digests and forgets change nothing.
        #[test]
        fn tracker_matches_hashmap_model(
            ops in proptest::collection::vec(op_strategy(), 0..60),
            stride in 1u32..4,
        ) {
            let id = |peer: u32| NodeId(3 + peer * stride);
            let mut t = StabilityTracker::with_members(&(0..5).map(id).collect::<Vec<_>>());
            // The model mirrors the old implementation: peer → source →
            // max-merged frontier, entries folded left to right.
            let mut model: HashMap<NodeId, HashMap<NodeId, u64>> = HashMap::new();
            for op in &ops {
                match op {
                    Op::Record { peer, entries } => {
                        t.record(id(*peer), &digest_of(entries));
                        if *peer == 5 {
                            continue;
                        }
                        let acks = model.entry(NodeId(*peer)).or_default();
                        for &(src, hi) in entries {
                            let f = digest_of(&[(src, hi)]).entries[0].frontier().0;
                            let slot = acks.entry(NodeId(src)).or_insert(f);
                            *slot = (*slot).max(f);
                        }
                    }
                    Op::Forget { peer } => {
                        t.forget(id(*peer));
                        model.remove(&NodeId(*peer));
                    }
                }
                prop_assert_eq!(t.heard_count(), model.len());
                for p in 0..6u32 {
                    prop_assert_eq!(t.heard_from(id(p)), model.contains_key(&NodeId(p)));
                }
                for s in 100u32..104 {
                    let s = NodeId(s);
                    for p in 0..6u32 {
                        let naive =
                            model.get(&NodeId(p)).and_then(|a| a.get(&s).copied()).unwrap_or(0);
                        prop_assert_eq!(t.peer_frontier(id(p), s), SeqNo(naive));
                    }
                    for quorum_len in 0..=5usize {
                        let naive = if model.len() < quorum_len {
                            None
                        } else {
                            let mentioned: Vec<u64> =
                                model.values().filter_map(|a| a.get(&s).copied()).collect();
                            let peers_min = if mentioned.len() >= quorum_len {
                                mentioned.iter().copied().min().unwrap_or(u64::MAX)
                            } else {
                                0
                            };
                            Some(SeqNo(peers_min.min(6)))
                        };
                        prop_assert_eq!(t.stable_frontier(s, SeqNo(6), quorum_len), naive);
                    }
                }
            }
        }
    }
}
