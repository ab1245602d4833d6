//! The workspace's one interval set and its one growth rule.
//!
//! Scaling to millions of simulated members requires per-member state to
//! stop being HashMap-of-HashMap shaped. Two primitives live here:
//!
//! - [`IntervalSet`]: a sorted-disjoint-interval set over `u64`.
//!   Topologies assign contiguous ids region by region, so a whole
//!   region of any size compresses to a single `(lo, hi)` pair — the
//!   run-length compression behind [`crate::view::RegionView`]. Senders
//!   number messages contiguously, so the same set records every
//!   sequence number a member ever received from a source in O(#gaps)
//!   space (`rrmp-core`'s loss detector and delivery index): that record
//!   is how paper §3.3 tells "received but discarded" from "never
//!   received".
//! - [`reserve_doubling`]: exact 1 → 2 → 4 … growth, shared by the
//!   interval set's range vector and `rrmp-core`'s `VecMap`, so a
//!   member's first entry in either costs one slot, not `Vec`'s four.

/// Grows `v` by exact doubling (capacities 1, 2, 4, ...) instead of the
/// allocator default that starts several elements wide. Call before a
/// push/insert that may grow; a no-op while spare capacity remains.
pub fn reserve_doubling<T>(v: &mut Vec<T>) {
    if v.len() == v.capacity() {
        v.reserve_exact(v.len().max(1));
    }
}

/// A set of `u64` values represented as sorted, disjoint, non-adjacent
/// inclusive ranges.
///
/// Equality compares the *set contents* (the normalized range list), so
/// two sets built in different insertion orders compare equal.
///
/// ```
/// use rrmp_membership::index::IntervalSet;
///
/// let mut s = IntervalSet::new();
/// s.insert(1);
/// s.insert(3);
/// s.insert(2); // bridges [1,1] and [3,3] into [1,3]
/// assert!(s.contains(2));
/// assert_eq!(s.intervals().count(), 1);
/// assert_eq!(s.len(), 3);
/// assert_eq!(s, IntervalSet::from_range(1, 3));
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

    /// Creates a set covering exactly `lo..=hi` — O(1) regardless of
    /// size, the fast path for contiguous regions.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lo > hi`.
    #[must_use]
    pub fn from_range(lo: u64, hi: u64) -> Self {
        debug_assert!(lo <= hi, "from_range({lo}, {hi})");
        IntervalSet { ranges: vec![(lo, hi)] }
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
            (false, false) => {
                reserve_doubling(&mut self.ranges);
                self.ranges.insert(idx, (v, v));
            }
        }
        true
    }

    /// Removes `v`; returns `true` if it was present.
    pub fn remove(&mut self, v: u64) -> bool {
        let i = match self.ranges.binary_search_by(|&(lo, _)| lo.cmp(&v)) {
            Ok(i) => i,
            Err(i) if i > 0 && self.ranges[i - 1].1 >= v => i - 1,
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
            reserve_doubling(&mut self.ranges);
            self.ranges.insert(i + 1, (v + 1, hi));
        }
        true
    }

    /// The number of values in the set — O(#ranges).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.ranges.iter().map(|&(lo, hi)| hi - lo + 1).sum()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The smallest value in the set, if any.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        self.ranges.first().map(|&(lo, _)| lo)
    }

    /// The `k`-th smallest value (0-based), if `k < len` — O(#ranges).
    #[must_use]
    pub fn nth(&self, mut k: u64) -> Option<u64> {
        for &(lo, hi) in &self.ranges {
            let span = hi - lo + 1;
            if k < span {
                return Some(lo + k);
            }
            k -= span;
        }
        None
    }

    /// Number of stored values strictly below `v` — O(#ranges).
    #[must_use]
    pub fn rank(&self, v: u64) -> u64 {
        let mut r = 0;
        for &(lo, hi) in &self.ranges {
            if hi < v {
                r += hi - lo + 1;
            } else {
                r += v.saturating_sub(lo);
                break;
            }
        }
        r
    }

    /// Values in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.ranges.iter().flat_map(|&(lo, hi)| lo..=hi)
    }

    /// Iterates over the values **missing** from `lo..=hi`.
    pub fn missing_in(&self, lo: u64, hi: u64) -> impl Iterator<Item = u64> + '_ {
        MissingIter { set: self, next: Some(lo), hi }
    }

    /// Iterates over the stored intervals.
    pub fn intervals(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().copied()
    }
}

struct MissingIter<'a> {
    set: &'a IntervalSet,
    /// The next candidate, `None` once the walk has passed `u64::MAX`.
    next: Option<u64>,
    hi: u64,
}

impl Iterator for MissingIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while let Some(v) = self.next.filter(|&v| v <= self.hi) {
            // Find the range covering or after v.
            let idx = match self.set.ranges.binary_search_by(|&(lo, _)| lo.cmp(&v)) {
                Ok(i) => i,
                Err(0) => {
                    // v is before the first range: it is missing.
                    self.next = v.checked_add(1);
                    return Some(v);
                }
                Err(i) => i - 1,
            };
            let (lo, hi) = self.set.ranges[idx];
            if v >= lo && v <= hi {
                // Covered; skip past this range.
                self.next = hi.checked_add(1);
                continue;
            }
            self.next = v.checked_add(1);
            return Some(v);
        }
        None
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_set_insert_remove_contains() {
        let mut s = IntervalSet::new();
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(s.insert(5));
        assert!(s.insert(4)); // bridges [3,3] and [5,5]
        assert!(!s.insert(4));
        assert_eq!(s.intervals().count(), 1);
        assert_eq!(s.len(), 3);
        assert!(s.contains(4));
        assert!(!s.contains(6));
        assert!(s.remove(4)); // splits [3,5]
        assert!(!s.remove(4));
        assert_eq!(s.intervals().collect::<Vec<_>>(), vec![(3, 3), (5, 5)]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 5]);
    }

    #[test]
    fn interval_set_nth_rank_and_missing() {
        let s: IntervalSet = [1u64, 2, 3, 7, 9, 10].into_iter().collect();
        assert_eq!(s.nth(0), Some(1));
        assert_eq!(s.nth(3), Some(7));
        assert_eq!(s.nth(5), Some(10));
        assert_eq!(s.nth(6), None);
        assert_eq!(s.rank(0), 0);
        assert_eq!(s.rank(1), 0);
        assert_eq!(s.rank(4), 3);
        assert_eq!(s.rank(8), 4);
        assert_eq!(s.rank(11), 6);
        assert_eq!(s.missing_in(1, 11).collect::<Vec<_>>(), vec![4, 5, 6, 8, 11]);
        assert_eq!(IntervalSet::new().missing_in(3, 5).collect::<Vec<_>>(), vec![3, 4, 5]);
    }

    #[test]
    fn missing_in_stops_at_u64_max() {
        let top = u64::MAX;
        let empty = IntervalSet::new();
        assert_eq!(empty.missing_in(top - 1, top).collect::<Vec<_>>(), vec![top - 1, top]);
        let s: IntervalSet = [top].into_iter().collect();
        assert_eq!(s.missing_in(top - 2, top).collect::<Vec<_>>(), vec![top - 2, top - 1]);
    }

    #[test]
    fn from_range_is_one_interval() {
        let s = IntervalSet::from_range(10, 1_000_000);
        assert_eq!(s.intervals().count(), 1);
        assert_eq!(s.len(), 999_991);
        assert!(s.contains(10) && s.contains(1_000_000));
        assert!(!s.contains(9));
        assert_eq!(s.min(), Some(10));
        let b: IntervalSet = [12u64, 10, 11].into_iter().collect();
        assert_eq!(b, IntervalSet::from_range(10, 12), "equality ignores insertion order");
    }

    #[test]
    fn ranges_grow_by_exact_doubling() {
        let mut s = IntervalSet::new();
        let mut caps = Vec::new();
        for v in 0..5 {
            s.insert(2 * v);
            caps.push(s.ranges.capacity());
        }
        assert_eq!(caps, vec![1, 2, 4, 4, 8]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Values from two windows: the bottom of the range and its top,
    /// where `+ 1` would overflow.
    fn value() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..64, (0u64..64).prop_map(|d| u64::MAX - d)]
    }

    proptest! {
        /// `IntervalSet` behaves exactly like a `BTreeSet<u64>` under any
        /// mixed insert/remove script — membership, size, order
        /// statistics, iteration and the missing-value walk — with values
        /// at both ends of `u64`.
        #[test]
        fn matches_btreeset(ops in proptest::collection::vec((any::<bool>(), value()), 0..300)) {
            let mut s = IntervalSet::new();
            let mut bt = BTreeSet::new();
            for &(ins, v) in &ops {
                if ins {
                    prop_assert_eq!(s.insert(v), bt.insert(v));
                } else {
                    prop_assert_eq!(s.remove(v), bt.remove(&v));
                }
            }
            prop_assert_eq!(s.len(), bt.len() as u64);
            prop_assert_eq!(s.is_empty(), bt.is_empty());
            prop_assert_eq!(s.min(), bt.iter().next().copied());
            let probes: Vec<u64> = (0u64..65).chain((0u64..65).map(|d| u64::MAX - d)).collect();
            for &v in &probes {
                prop_assert_eq!(s.contains(v), bt.contains(&v));
                prop_assert_eq!(s.rank(v), bt.range(..v).count() as u64);
            }
            for k in 0..bt.len() + 1 {
                prop_assert_eq!(s.nth(k as u64), bt.iter().nth(k).copied());
            }
            prop_assert_eq!(s.iter().collect::<Vec<_>>(), bt.iter().copied().collect::<Vec<_>>());
            // Ranges stay sorted, disjoint, non-adjacent.
            let ranges: Vec<(u64, u64)> = s.intervals().collect();
            for w in ranges.windows(2) {
                prop_assert!(w[0].1 + 1 < w[1].0, "ranges {:?} not normalized", ranges);
            }
            // missing_in is the complement, in both windows.
            for (lo, hi) in [(0, 64), (u64::MAX - 64, u64::MAX)] {
                let missing: Vec<u64> = s.missing_in(lo, hi).collect();
                let expected: Vec<u64> = (lo..=hi).filter(|v| !bt.contains(v)).collect();
                prop_assert_eq!(missing, expected);
            }
        }
    }
}
