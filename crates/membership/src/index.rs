//! Dense member indexing and interval-compressed id sets.
//!
//! Scaling to millions of simulated members requires per-member state to
//! stop being HashMap-of-HashMap shaped. Two primitives live here:
//!
//! - [`MemberIndex`]: an interner mapping sparse [`NodeId`]s to dense
//!   `u32` indices, so per-peer state can live in flat `Vec`s (SoA
//!   layouts) instead of nested maps.
//! - [`IdRangeSet`]: a sorted-disjoint-interval set over `u32` ids.
//!   Topologies assign contiguous ids region by region, so a whole
//!   region of any size compresses to a single `(lo, hi)` pair — the
//!   run-length compression behind [`crate::view::RegionView`].

use std::collections::HashMap;

use rrmp_netsim::topology::NodeId;

/// Interns sparse [`NodeId`]s into dense, stable `u32` indices.
///
/// Indices are assigned in first-seen order and never recycled, so a
/// `Vec` indexed by them stays valid across membership churn: a peer
/// that leaves and returns keeps its slot.
///
/// ```
/// use rrmp_membership::index::MemberIndex;
/// use rrmp_netsim::topology::NodeId;
///
/// let mut idx = MemberIndex::new();
/// assert_eq!(idx.intern(NodeId(40)), 0);
/// assert_eq!(idx.intern(NodeId(7)), 1);
/// assert_eq!(idx.intern(NodeId(40)), 0); // stable
/// assert_eq!(idx.get(NodeId(7)), Some(1));
/// assert_eq!(idx.node_at(1), Some(NodeId(7)));
/// assert_eq!(idx.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemberIndex {
    ids: Vec<NodeId>,
    lookup: HashMap<NodeId, u32>,
}

impl MemberIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        MemberIndex::default()
    }

    /// Creates an index pre-populated with `members`, indexed in
    /// iteration order (duplicates keep their first index).
    #[must_use]
    pub fn from_members<I: IntoIterator<Item = NodeId>>(members: I) -> Self {
        let mut idx = MemberIndex::new();
        for m in members {
            idx.intern(m);
        }
        idx
    }

    /// Returns the dense index for `node`, assigning the next free one
    /// if it has not been seen before.
    pub fn intern(&mut self, node: NodeId) -> u32 {
        if let Some(&i) = self.lookup.get(&node) {
            return i;
        }
        let i = u32::try_from(self.ids.len()).expect("more than u32::MAX interned members");
        self.ids.push(node);
        self.lookup.insert(node, i);
        i
    }

    /// The dense index for `node`, if it has been interned.
    #[must_use]
    pub fn get(&self, node: NodeId) -> Option<u32> {
        self.lookup.get(&node).copied()
    }

    /// The node occupying dense index `i`, if any.
    #[must_use]
    pub fn node_at(&self, i: u32) -> Option<NodeId> {
        self.ids.get(i as usize).copied()
    }

    /// Number of interned members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Interned nodes in dense-index order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids.iter().copied()
    }
}

/// A set of `u32` ids stored as sorted, disjoint, non-adjacent inclusive
/// ranges.
///
/// Equality compares the *set contents* (the normalized range list), so
/// two sets built in different insertion orders compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdRangeSet {
    ranges: Vec<(u32, u32)>,
    len: usize,
}

impl IdRangeSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        IdRangeSet::default()
    }

    /// Creates a set covering exactly `lo..=hi` — O(1) regardless of
    /// size, the fast path for contiguous regions.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lo > hi`.
    #[must_use]
    pub fn from_range(lo: u32, hi: u32) -> Self {
        debug_assert!(lo <= hi, "from_range({lo}, {hi})");
        IdRangeSet { ranges: vec![(lo, hi)], len: (hi - lo) as usize + 1 }
    }

    /// Locates the range containing `v`: `Ok(i)` if `ranges[i]` covers
    /// it, `Err(i)` with the insertion point otherwise.
    fn locate(&self, v: u32) -> Result<usize, usize> {
        self.ranges.binary_search_by(|&(lo, hi)| {
            if hi < v {
                std::cmp::Ordering::Less
            } else if lo > v {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        })
    }

    /// Whether `v` is in the set.
    #[must_use]
    pub fn contains(&self, v: u32) -> bool {
        self.locate(v).is_ok()
    }

    /// Inserts `v`; returns `true` if it was not already present.
    pub fn insert(&mut self, v: u32) -> bool {
        let i = match self.locate(v) {
            Ok(_) => return false,
            Err(i) => i,
        };
        let extends_prev = i > 0 && self.ranges[i - 1].1 + 1 == v;
        let extends_next = i < self.ranges.len() && v + 1 == self.ranges[i].0;
        match (extends_prev, extends_next) {
            (true, true) => {
                self.ranges[i - 1].1 = self.ranges[i].1;
                self.ranges.remove(i);
            }
            (true, false) => self.ranges[i - 1].1 = v,
            (false, true) => self.ranges[i].0 = v,
            (false, false) => self.ranges.insert(i, (v, v)),
        }
        self.len += 1;
        true
    }

    /// Removes `v`; returns `true` if it was present.
    pub fn remove(&mut self, v: u32) -> bool {
        let i = match self.locate(v) {
            Ok(i) => i,
            Err(_) => return false,
        };
        let (lo, hi) = self.ranges[i];
        if lo == hi {
            self.ranges.remove(i);
        } else if v == lo {
            self.ranges[i].0 = v + 1;
        } else if v == hi {
            self.ranges[i].1 = v - 1;
        } else {
            self.ranges[i].1 = v - 1;
            self.ranges.insert(i + 1, (v + 1, hi));
        }
        self.len -= 1;
        true
    }

    /// Number of ids in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The smallest id in the set, if any.
    #[must_use]
    pub fn min(&self) -> Option<u32> {
        self.ranges.first().map(|&(lo, _)| lo)
    }

    /// The `k`-th smallest id (0-based), if `k < len` — O(#ranges).
    #[must_use]
    pub fn nth(&self, mut k: usize) -> Option<u32> {
        for &(lo, hi) in &self.ranges {
            let span = (hi - lo) as usize + 1;
            if k < span {
                return Some(lo + k as u32);
            }
            k -= span;
        }
        None
    }

    /// Number of stored ids strictly below `v` — O(#ranges).
    #[must_use]
    pub fn rank(&self, v: u32) -> usize {
        let mut r = 0;
        for &(lo, hi) in &self.ranges {
            if hi < v {
                r += (hi - lo) as usize + 1;
            } else {
                if v > lo {
                    r += (v - lo) as usize;
                }
                break;
            }
        }
        r
    }

    /// Ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.ranges.iter().flat_map(|&(lo, hi)| lo..=hi)
    }

    /// The stored `(lo, hi)` inclusive ranges in ascending order.
    pub fn ranges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.ranges.iter().copied()
    }
}

impl FromIterator<u32> for IdRangeSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut s = IdRangeSet::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_is_stable_and_dense() {
        let mut idx = MemberIndex::from_members([NodeId(9), NodeId(2)]);
        assert_eq!(idx.get(NodeId(9)), Some(0));
        assert_eq!(idx.get(NodeId(2)), Some(1));
        assert_eq!(idx.get(NodeId(5)), None);
        assert_eq!(idx.intern(NodeId(5)), 2);
        assert_eq!(idx.intern(NodeId(9)), 0);
        assert_eq!(idx.node_at(2), Some(NodeId(5)));
        assert_eq!(idx.node_at(3), None);
        let order: Vec<NodeId> = idx.iter().collect();
        assert_eq!(order, vec![NodeId(9), NodeId(2), NodeId(5)]);
    }

    #[test]
    fn range_set_insert_remove_contains() {
        let mut s = IdRangeSet::new();
        assert!(s.insert(3));
        assert!(s.insert(5));
        assert!(s.insert(4)); // bridges [3,3] and [5,5]
        assert!(!s.insert(4));
        assert_eq!(s.ranges.len(), 1);
        assert_eq!(s.len(), 3);
        assert!(s.contains(4));
        assert!(!s.contains(6));
        assert!(s.remove(4)); // splits [3,5]
        assert!(!s.remove(4));
        assert_eq!(s.ranges.len(), 2);
        assert_eq!(s.len(), 2);
        let all: Vec<u32> = s.iter().collect();
        assert_eq!(all, vec![3, 5]);
    }

    #[test]
    fn range_set_nth_and_rank() {
        let s: IdRangeSet = [1u32, 2, 3, 7, 9, 10].into_iter().collect();
        assert_eq!(s.nth(0), Some(1));
        assert_eq!(s.nth(3), Some(7));
        assert_eq!(s.nth(5), Some(10));
        assert_eq!(s.nth(6), None);
        assert_eq!(s.rank(0), 0);
        assert_eq!(s.rank(1), 0);
        assert_eq!(s.rank(4), 3);
        assert_eq!(s.rank(7), 3);
        assert_eq!(s.rank(8), 4);
        assert_eq!(s.rank(11), 6);
    }

    #[test]
    fn from_range_is_one_interval() {
        let s = IdRangeSet::from_range(10, 1_000_000);
        assert_eq!(s.ranges.len(), 1);
        assert_eq!(s.len(), 999_991);
        assert!(s.contains(10) && s.contains(1_000_000));
        assert!(!s.contains(9));
        assert_eq!(s.min(), Some(10));
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a: IdRangeSet = [3u32, 1, 2].into_iter().collect();
        let b = IdRangeSet::from_range(1, 3);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        /// IdRangeSet behaves exactly like a BTreeSet<u32> under any mixed
        /// insert/remove script, including order statistics.
        #[test]
        fn matches_btreeset(ops in proptest::collection::vec((any::<bool>(), 0u32..128), 0..300)) {
            let mut s = IdRangeSet::new();
            let mut bt = BTreeSet::new();
            for &(ins, v) in &ops {
                if ins {
                    prop_assert_eq!(s.insert(v), bt.insert(v));
                } else {
                    prop_assert_eq!(s.remove(v), bt.remove(&v));
                }
            }
            prop_assert_eq!(s.len(), bt.len());
            prop_assert_eq!(s.min(), bt.iter().next().copied());
            for v in 0u32..128 {
                prop_assert_eq!(s.contains(v), bt.contains(&v));
                prop_assert_eq!(s.rank(v), bt.iter().filter(|&&m| m < v).count());
            }
            for k in 0..bt.len() + 1 {
                prop_assert_eq!(s.nth(k), bt.iter().nth(k).copied());
            }
            let iterated: Vec<u32> = s.iter().collect();
            let expected: Vec<u32> = bt.iter().copied().collect();
            prop_assert_eq!(iterated, expected);
            // Ranges stay sorted, disjoint, non-adjacent.
            let ranges: Vec<(u32, u32)> = s.ranges().collect();
            for w in ranges.windows(2) {
                prop_assert!(w[0].1 + 1 < w[1].0, "ranges {:?} not normalized", ranges);
            }
        }
    }
}
