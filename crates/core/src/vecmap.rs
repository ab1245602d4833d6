//! A sorted-vector map for small, mostly-empty per-node tables.
//!
//! A receiver keeps one recovery record per message it is recovering or
//! still remembers (pull and remote rounds, waiters, a search, search
//! memory, a back-off). The table is empty on most nodes most of the
//! time and holds a handful of entries on the rest. A hash map spends
//! three pointers of inline space and allocates a bucket array (hundreds
//! of bytes) on first insert; at a million members those fixed costs
//! dominate the actual state. This map is a single id-sorted vector: one
//! pointer-word triple inline, nothing on the heap while empty, and
//! exact-sized doubling (1, 2, 4, ...) once entries appear. It is the
//! workspace's one key-sorted map: the recovery table, the loss
//! detector's and stability tracker's per-source state, the message
//! store's entries and use-time index, and the harness's delivery index.
//!
//! Iteration order is ascending by key — deterministic by construction,
//! so hosts never need the collect-and-sort dance hash maps force on
//! trace-sensitive code paths.

use std::ops::RangeInclusive;

use rrmp_membership::index::reserve_doubling;

/// A map from `K` to `V` stored as a key-sorted vector.
#[derive(Debug, Clone)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap { entries: Vec::new() }
    }
}

impl<K: Ord + Copy, V> VecMap<K, V> {
    /// Creates an empty map (no allocation).
    #[must_use]
    pub fn new() -> Self {
        VecMap::default()
    }

    /// Position of `key`: exactly what `binary_search_by_key` returns,
    /// found from the **tail**. Keys mostly grow (message ids per source,
    /// use times) and every hot operation touches the newest few, so the
    /// search gallops back from the last entry (probing 1, 3, 7, ... from
    /// the end) and binary-searches only the bracket it lands in: O(1) at
    /// the tail, O(log distance from the tail) behind it, never worse than
    /// twice a plain binary search.
    fn idx(&self, key: K) -> Result<usize, usize> {
        // Invariant: every entry at or after `hi` is greater than `key`.
        let mut hi = self.entries.len();
        let mut step = 1;
        while hi > 0 {
            let probe = hi.saturating_sub(step);
            match self.entries[probe].0.cmp(&key) {
                std::cmp::Ordering::Equal => return Ok(probe),
                std::cmp::Ordering::Less => {
                    let lo = probe + 1;
                    return match self.entries[lo..hi].binary_search_by_key(&key, |&(k, _)| k) {
                        Ok(i) => Ok(lo + i),
                        Err(i) => Err(lo + i),
                    };
                }
                std::cmp::Ordering::Greater => {
                    hi = probe;
                    step *= 2;
                }
            }
        }
        Err(0)
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value for `key`, if present.
    #[must_use]
    pub fn get(&self, key: K) -> Option<&V> {
        self.idx(key).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable value for `key`, if present.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        match self.idx(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Whether `key` is present.
    #[must_use]
    pub fn contains_key(&self, key: K) -> bool {
        self.idx(key).is_ok()
    }

    /// Inserts `value` under `key`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.idx(key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                reserve_doubling(&mut self.entries);
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes and returns the value under `key`, if any.
    pub fn remove(&mut self, key: K) -> Option<V> {
        self.idx(key).ok().map(|i| self.entries.remove(i).1)
    }

    /// Mutable value for `key`, inserting one from `make` on first touch.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let i = match self.idx(key) {
            Ok(i) => i,
            Err(i) => {
                reserve_doubling(&mut self.entries);
                self.entries.insert(i, (key, make()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Keeps only the entries for which `keep` returns true.
    pub fn retain(&mut self, mut keep: impl FnMut(K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(*k, v));
    }

    /// Iterates entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Iterates the entries whose keys fall in `keys`, in ascending key
    /// order: one binary search, then only the entries in range.
    pub fn range(&self, keys: RangeInclusive<K>) -> impl Iterator<Item = (K, &V)> {
        let start = self.entries.partition_point(|(k, _)| k < keys.start());
        self.entries[start..].iter().take_while(move |(k, _)| k <= keys.end()).map(|(k, v)| (*k, v))
    }
}

impl<K: Ord + Copy, V: Default> VecMap<K, V> {
    /// Mutable value for `key`, inserting a default on first touch.
    pub fn get_or_default(&mut self, key: K) -> &mut V {
        self.get_or_insert_with(key, V::default)
    }
}

#[cfg(test)]
mod tests {
    use super::VecMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: VecMap<u32, &str> = VecMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, "five"), None);
        assert_eq!(m.insert(1, "one"), None);
        assert_eq!(m.insert(5, "FIVE"), Some("five"));
        assert_eq!(m.get(5), Some(&"FIVE"));
        assert_eq!(m.get(2), None);
        assert!(m.contains_key(1));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(1), Some("one"));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_is_key_sorted() {
        let mut m: VecMap<u32, u32> = VecMap::new();
        for k in [9, 3, 7, 1, 5] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u32> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn retain_and_defaults() {
        let mut m: VecMap<u32, Vec<u32>> = VecMap::new();
        m.get_or_default(2).push(20);
        m.get_or_default(2).push(21);
        m.get_or_default(4).push(40);
        assert_eq!(m.get(2), Some(&vec![20, 21]));
        m.retain(|k, _| k != 2);
        assert_eq!(m.get(2), None);
        assert_eq!(m.get(4), Some(&vec![40]));
    }

    #[test]
    fn grows_by_exact_doubling() {
        let mut m: VecMap<u32, u8> = VecMap::new();
        let mut caps = Vec::new();
        for k in 0..5 {
            m.insert(k, 0);
            caps.push(m.entries.capacity());
        }
        assert_eq!(caps, vec![1, 2, 4, 4, 8]);
    }
}

#[cfg(test)]
mod proptests {
    use super::VecMap;
    use proptest::prelude::*;

    proptest! {
        /// The tail-first search is `binary_search_by_key`, for hits and
        /// for misses at every position — before the first key, between
        /// any two, past the last — with keys of one source and of several;
        /// and a key range is the filtered iteration.
        #[test]
        fn idx_from_tail_equals_binary_search(
            sources in 1u32..4,
            keys in proptest::collection::vec((0u32..3, 0u64..40), 0..80),
        ) {
            let mut m: VecMap<(u32, u64), ()> = VecMap::new();
            for (source, seq) in keys {
                m.insert((source % sources, seq), ());
            }
            for source in 0..=sources {
                for seq in 0..=40 {
                    let key = (source, seq);
                    prop_assert_eq!(m.idx(key), m.entries.binary_search_by_key(&key, |&(k, _)| k));
                }
                // A source's prefix, as the stability sweep reads it, is
                // the filtered iteration.
                for hi in 0..=40 {
                    let keys = (source, 0)..=(source, hi);
                    let ranged: Vec<_> = m.range(keys.clone()).map(|(k, _)| k).collect();
                    let filtered: Vec<_> =
                        m.iter().map(|(k, _)| k).filter(|k| keys.contains(k)).collect();
                    prop_assert_eq!(ranged, filtered);
                }
            }
        }
    }
}
