//! A compact set of `u64` values stored as disjoint inclusive intervals.
//!
//! The loss detector must remember *every* sequence number it has ever
//! received — even for messages whose payloads were discarded long ago —
//! to distinguish "received but discarded" from "never received" (paper
//! §3.3 relies on that distinction when handling remote requests). Since
//! receipt is mostly contiguous, an interval set stores this in O(#gaps)
//! space.

/// A set of `u64` values represented as sorted, disjoint, non-adjacent
/// inclusive ranges.
///
/// ```
/// use rrmp_core::interval_set::IntervalSet;
///
/// let mut s = IntervalSet::new();
/// s.insert(1);
/// s.insert(3);
/// s.insert(2); // bridges [1,1] and [3,3] into [1,3]
/// assert!(s.contains(2));
/// assert_eq!(s.intervals().count(), 1);
/// assert_eq!(s.len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    /// Sorted, disjoint, non-adjacent inclusive intervals.
    ranges: Vec<(u64, u64)>,
}

impl IntervalSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        IntervalSet { ranges: Vec::new() }
    }

    /// Whether `v` is in the set.
    #[must_use]
    pub fn contains(&self, v: u64) -> bool {
        match self.ranges.binary_search_by(|&(lo, _)| lo.cmp(&v)) {
            Ok(_) => true,
            Err(0) => false,
            Err(i) => self.ranges[i - 1].1 >= v,
        }
    }

    /// Inserts `v`; returns `true` if it was not already present.
    pub fn insert(&mut self, v: u64) -> bool {
        let idx = match self.ranges.binary_search_by(|&(lo, _)| lo.cmp(&v)) {
            Ok(_) => return false, // v is the start of an existing range
            Err(i) => i,
        };
        // Check the range before the insertion point.
        if idx > 0 && self.ranges[idx - 1].1 >= v {
            return false; // already covered
        }
        let extends_prev = idx > 0 && self.ranges[idx - 1].1 + 1 == v;
        let extends_next = idx < self.ranges.len() && v + 1 == self.ranges[idx].0;
        match (extends_prev, extends_next) {
            (true, true) => {
                // Bridge the two ranges.
                self.ranges[idx - 1].1 = self.ranges[idx].1;
                self.ranges.remove(idx);
            }
            (true, false) => self.ranges[idx - 1].1 = v,
            (false, true) => self.ranges[idx].0 = v,
            (false, false) => self.ranges.insert(idx, (v, v)),
        }
        true
    }

    /// The number of values in the set.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.ranges.iter().map(|&(lo, hi)| hi - lo + 1).sum()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The largest value in the set, if any.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        self.ranges.last().map(|&(_, hi)| hi)
    }

    /// The smallest value in the set, if any.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        self.ranges.first().map(|&(lo, _)| lo)
    }

    /// Iterates over the values **missing** from `lo..=hi`.
    pub fn missing_in<'a>(&'a self, lo: u64, hi: u64) -> impl Iterator<Item = u64> + 'a {
        MissingIter { set: self, next: lo, hi }
    }

    /// Iterates over the stored intervals.
    pub fn intervals(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().copied()
    }
}

struct MissingIter<'a> {
    set: &'a IntervalSet,
    next: u64,
    hi: u64,
}

impl Iterator for MissingIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.next <= self.hi {
            let v = self.next;
            // Find the range covering or after v.
            let idx = match self.set.ranges.binary_search_by(|&(lo, _)| lo.cmp(&v)) {
                Ok(i) => i,
                Err(0) => {
                    // v is before the first range: it is missing.
                    self.next = v + 1;
                    return Some(v);
                }
                Err(i) => i - 1,
            };
            let (lo, hi) = self.set.ranges[idx];
            if v >= lo && v <= hi {
                // Covered; skip past this range.
                self.next = hi + 1;
                continue;
            }
            self.next = v + 1;
            return Some(v);
        }
        None
    }
}

/// A compact set of [`MessageId`]s: one [`IntervalSet`] per source, in
/// sorted parallel vectors (SoA — an empty set holds no heap at all,
/// which matters when a million receivers each carry one).
///
/// Since each sender numbers messages contiguously, membership tests cost
/// O(log #gaps) after an O(log #sources) lookup — the index behind
/// `RrmpNode::has_delivered` and friends, replacing linear scans over
/// delivery logs.
///
/// [`MessageId`]: crate::ids::MessageId
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MessageIdSet {
    /// Ascending source ids, parallel to `sets`.
    source_ids: Vec<rrmp_netsim::topology::NodeId>,
    sets: Vec<IntervalSet>,
}

impl MessageIdSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        MessageIdSet::default()
    }

    /// Inserts `id`; returns `true` if it was not already present.
    pub fn insert(&mut self, id: crate::ids::MessageId) -> bool {
        let set = match self.source_ids.binary_search(&id.source) {
            Ok(i) => &mut self.sets[i],
            Err(i) => {
                self.source_ids.insert(i, id.source);
                self.sets.insert(i, IntervalSet::new());
                &mut self.sets[i]
            }
        };
        set.insert(id.seq.0)
    }

    /// Whether `id` is in the set.
    #[must_use]
    pub fn contains(&self, id: crate::ids::MessageId) -> bool {
        self.source_ids.binary_search(&id.source).is_ok_and(|i| self.sets[i].contains(id.seq.0))
    }

    /// Number of ids in the set.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.sets.iter().map(IntervalSet::len).sum()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sets.iter().all(IntervalSet::is_empty)
    }
}

impl FromIterator<u64> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut s = IntervalSet::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

impl Extend<u64> for IntervalSet {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = IntervalSet::new();
        assert!(s.is_empty());
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(!s.contains(4));
        assert!(!s.contains(6));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn coalesces_adjacent() {
        let mut s = IntervalSet::new();
        s.insert(1);
        s.insert(2);
        s.insert(3);
        assert_eq!(s.intervals().count(), 1);
        assert_eq!(s.len(), 3);
        s.insert(5);
        assert_eq!(s.intervals().count(), 2);
        s.insert(4); // bridges
        assert_eq!(s.intervals().count(), 1);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn out_of_order_inserts() {
        let mut s = IntervalSet::new();
        for v in [9, 1, 5, 3, 7, 2, 8, 4, 6] {
            assert!(s.insert(v));
        }
        assert_eq!(s.intervals().count(), 1);
        assert_eq!(s.len(), 9);
        assert_eq!(s.min(), Some(1));
        assert_eq!(s.max(), Some(9));
    }

    #[test]
    fn missing_in_reports_gaps() {
        let mut s = IntervalSet::new();
        for v in [1, 2, 5, 7] {
            s.insert(v);
        }
        let missing: Vec<u64> = s.missing_in(1, 8).collect();
        assert_eq!(missing, vec![3, 4, 6, 8]);
        let none: Vec<u64> = s.missing_in(1, 2).collect();
        assert!(none.is_empty());
        let empty = IntervalSet::new();
        let all: Vec<u64> = empty.missing_in(3, 5).collect();
        assert_eq!(all, vec![3, 4, 5]);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut s: IntervalSet = [1u64, 3, 5].into_iter().collect();
        assert_eq!(s.len(), 3);
        s.extend([2u64, 4]);
        assert_eq!(s.intervals().count(), 1);
    }

    #[test]
    fn intervals_iteration() {
        let s: IntervalSet = [1u64, 2, 9].into_iter().collect();
        let iv: Vec<(u64, u64)> = s.intervals().collect();
        assert_eq!(iv, vec![(1, 2), (9, 9)]);
    }

    #[test]
    fn message_id_set_tracks_per_source() {
        use crate::ids::{MessageId, SeqNo};
        use rrmp_netsim::topology::NodeId;

        let mid = |src: u32, seq: u64| MessageId::new(NodeId(src), SeqNo(seq));
        let mut s = MessageIdSet::new();
        assert!(s.is_empty());
        assert!(s.insert(mid(0, 1)));
        assert!(!s.insert(mid(0, 1)));
        assert!(s.insert(mid(1, 1)));
        assert!(s.insert(mid(0, 2)));
        assert!(s.contains(mid(0, 1)));
        assert!(s.contains(mid(1, 1)));
        assert!(!s.contains(mid(1, 2)));
        assert!(!s.contains(mid(2, 1)));
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        /// The interval set behaves exactly like a BTreeSet<u64> under any
        /// insertion order.
        #[test]
        fn matches_btreeset(values in proptest::collection::vec(0u64..200, 0..300)) {
            let mut iv = IntervalSet::new();
            let mut bt = BTreeSet::new();
            for &v in &values {
                prop_assert_eq!(iv.insert(v), bt.insert(v));
            }
            prop_assert_eq!(iv.len(), bt.len() as u64);
            prop_assert_eq!(iv.min(), bt.iter().next().copied());
            prop_assert_eq!(iv.max(), bt.iter().last().copied());
            for v in 0u64..200 {
                prop_assert_eq!(iv.contains(v), bt.contains(&v));
            }
            // Intervals are sorted, disjoint and non-adjacent.
            let ranges: Vec<(u64, u64)> = iv.intervals().collect();
            for w in ranges.windows(2) {
                prop_assert!(w[0].1 + 1 < w[1].0, "ranges {:?} not normalized", ranges);
            }
            // missing_in is the complement.
            let missing: Vec<u64> = iv.missing_in(0, 199).collect();
            let expected: Vec<u64> = (0u64..200).filter(|v| !bt.contains(v)).collect();
            prop_assert_eq!(missing, expected);
        }
    }
}
