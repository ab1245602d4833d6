//! MTU-bucketed buffer pool for the UDP runtime's receive path.
//!
//! Modeled on the GStreamer buffer-pool pattern (size-bucketed freelists,
//! reuse for same-size allocations, a memory limit, statistics): datagrams
//! are received **directly into pooled slabs**, frozen into [`Bytes`] and
//! decoded, and every slab goes back on its freelist — the steady state
//! allocates no slab per datagram; a data packet's one allocation is its
//! exact-size payload copy.
//!
//! ## Size classes
//!
//! Three buckets: [`DATAGRAM_MTU`] (every protocol control packet and
//! MTU-sized data datagram — the common case by far), a 16 KiB middle
//! class, and a 64 KiB class (the largest UDP payload; jumbo
//! application multicasts). [`DATAGRAM_MTU`] is the single source of
//! truth for datagram sizing: the send path's encode buffer and the
//! receive slabs both start from it.
//!
//! ## Slab life cycle
//!
//! ```text
//! acquire(class)          -> BytesMut slab   (freelist hit, or fresh
//!                                             alloc = miss)
//! recvmmsg into slab      -> truncate to datagram length
//! freeze()                -> Bytes           (decode copies the payload out)
//! release(class, bytes)   -> unique?  back on the freelist
//!                            shared?  forfeited: the pool drops its handle
//! ```
//!
//! [`rrmp_core::packet::Packet::decode`] copies every payload into an
//! exact-size buffer of its own, so the protocol never keeps a reference
//! into a slab: a buffered message costs its payload, not the 2 KiB slab
//! it arrived in, and the runtime releases each slab right after decode,
//! when it is unique again. A release that still finds the slab shared
//! drops the pool's handle and counts it in `forfeited`; on the runtime's
//! receive path that count stays 0.
//!
//! Statistics are shared [`PoolStats`] atomics so operators (and the
//! runtime bench) can observe hit/miss rates and the allocation
//! high-water mark without touching the loop thread. A flat `misses`
//! count after warmup is the "flat allocation rate" success criterion
//! from the roadmap.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};

/// The runtime's datagram MTU budget: the size class every protocol
/// control packet and MTU-sized data datagram fits in, and the initial
/// capacity of the send path's encode buffer. One source of truth for
/// datagram sizing — the pool's smallest bucket is exactly this.
pub const DATAGRAM_MTU: usize = 2048;

/// The largest datagram the runtime handles: the UDP payload ceiling.
const MAX_DATAGRAM: usize = 64 * 1024;

/// Bucket sizes, ascending. `SizeClass` indexes into this ladder.
const SIZE_CLASSES: [usize; 3] = [DATAGRAM_MTU, 16 * 1024, MAX_DATAGRAM];

/// Index into `SIZE_CLASSES`, the ladder of slab sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeClass(pub usize);

impl SizeClass {
    /// The smallest class whose slab holds `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the largest class (64 KiB, the UDP payload
    /// ceiling).
    #[must_use]
    pub fn for_len(len: usize) -> SizeClass {
        let idx = SIZE_CLASSES
            .iter()
            .position(|&s| s >= len)
            .unwrap_or_else(|| panic!("datagram of {len} bytes exceeds MAX_DATAGRAM"));
        SizeClass(idx)
    }

    /// The slab size of this class in bytes.
    #[must_use]
    pub fn size(self) -> usize {
        SIZE_CLASSES[self.0]
    }

    /// The next larger class, if any.
    #[must_use]
    pub fn promote(self) -> Option<SizeClass> {
        (self.0 + 1 < SIZE_CLASSES.len()).then(|| SizeClass(self.0 + 1))
    }
}

/// Shared, lock-free pool statistics. Counters are cumulative; gauges
/// reflect the current state. All updates are `Relaxed` — they are
/// observability, never synchronization.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Acquires served straight from a freelist.
    pub hits: AtomicU64,
    /// Acquires that allocated a fresh slab (the pool grew).
    pub misses: AtomicU64,
    /// Unique slabs dropped because the freelist byte limit was reached.
    pub trimmed: AtomicU64,
    /// Slabs released while still shared: the pool dropped its handle,
    /// and the slab frees itself when its last owner drops it.
    pub forfeited: AtomicU64,
    /// Bytes currently sitting on freelists.
    pub free_bytes: AtomicU64,
    /// Bytes in slabs the pool has allocated and still tracks
    /// (freelists + slabs out with callers).
    pub tracked_bytes: AtomicU64,
    /// High-water mark of `tracked_bytes`.
    pub high_water_bytes: AtomicU64,
}

/// A plain-data copy of [`PoolStats`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Acquires served from a freelist.
    pub hits: u64,
    /// Fresh slab allocations.
    pub misses: u64,
    /// Unique slabs dropped over the freelist limit.
    pub trimmed: u64,
    /// Slabs released while still shared.
    pub forfeited: u64,
    /// Bytes on freelists now.
    pub free_bytes: u64,
    /// Bytes tracked by the pool now.
    pub tracked_bytes: u64,
    /// Peak of `tracked_bytes`.
    pub high_water_bytes: u64,
}

impl PoolStats {
    /// Reads every counter at once (each individually `Relaxed`).
    #[must_use]
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            trimmed: self.trimmed.load(Ordering::Relaxed),
            forfeited: self.forfeited.load(Ordering::Relaxed),
            free_bytes: self.free_bytes.load(Ordering::Relaxed),
            tracked_bytes: self.tracked_bytes.load(Ordering::Relaxed),
            high_water_bytes: self.high_water_bytes.load(Ordering::Relaxed),
        }
    }
}

/// The MTU-bucketed slab pool. One instance per event-loop thread — no
/// locking anywhere; only the statistics cross threads.
#[derive(Debug)]
pub struct BufferPool {
    /// One freelist of writable slabs per size class.
    free: [Vec<BytesMut>; SIZE_CLASSES.len()],
    /// Byte budget for the freelists (summed over classes).
    free_limit_bytes: usize,
    stats: Arc<PoolStats>,
}

impl BufferPool {
    /// Creates a pool whose freelists may hold up to `free_limit_bytes`.
    #[must_use]
    pub fn new(free_limit_bytes: usize) -> BufferPool {
        BufferPool::with_stats(free_limit_bytes, Arc::new(PoolStats::default()))
    }

    /// Like [`BufferPool::new`], publishing into a caller-provided stats
    /// block — how each event loop exposes its pool to runtime-level
    /// introspection without sharing the pool itself.
    #[must_use]
    pub fn with_stats(free_limit_bytes: usize, stats: Arc<PoolStats>) -> BufferPool {
        BufferPool { free: Default::default(), free_limit_bytes, stats }
    }

    /// The shared statistics handle.
    #[must_use]
    pub fn stats(&self) -> Arc<PoolStats> {
        Arc::clone(&self.stats)
    }

    fn track_alloc(&self, size: usize) {
        let now = self.stats.tracked_bytes.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        self.stats.high_water_bytes.fetch_max(now, Ordering::Relaxed);
    }

    fn untrack(&self, size: usize) {
        self.stats.tracked_bytes.fetch_sub(size as u64, Ordering::Relaxed);
    }

    /// Hands out a writable slab of `class` (capacity ≥ the class size,
    /// length 0): from the freelist, or — counted as a miss — a fresh
    /// allocation.
    pub fn acquire(&mut self, class: SizeClass) -> BytesMut {
        let size = class.size();
        if let Some(mut slab) = self.free[class.0].pop() {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            self.stats.free_bytes.fetch_sub(size as u64, Ordering::Relaxed);
            slab.clear();
            return slab;
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        self.track_alloc(size);
        BytesMut::with_capacity(size)
    }

    /// Returns a frozen slab to the pool. `class` must be the class the
    /// slab was acquired as (the receive batcher tags its datagrams). A
    /// slab that is the last reference goes back on the freelist (or is
    /// dropped over the byte limit); one still shared is forfeited — the
    /// pool stops tracking it and its last owner frees it.
    pub fn release(&mut self, class: SizeClass, bytes: Bytes) {
        match bytes.try_into_mut() {
            Ok(slab) => self.push_free(class, slab),
            Err(_) => {
                self.stats.forfeited.fetch_add(1, Ordering::Relaxed);
                self.untrack(class.size());
            }
        }
    }

    /// Returns a writable slab that was acquired but never frozen (the
    /// receive batcher hands back unfilled slabs when it switches size
    /// class). Not a hit or a miss — the acquire already counted.
    pub fn release_unused(&mut self, class: SizeClass, slab: BytesMut) {
        self.push_free(class, slab);
    }

    fn push_free(&mut self, class: SizeClass, mut slab: BytesMut) {
        let size = class.size();
        let free = self.stats.free_bytes.load(Ordering::Relaxed) as usize;
        if free + size <= self.free_limit_bytes {
            slab.clear();
            self.stats.free_bytes.fetch_add(size as u64, Ordering::Relaxed);
            self.free[class.0].push(slab);
        } else {
            self.stats.trimmed.fetch_add(1, Ordering::Relaxed);
            self.untrack(size);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_ladder_covers_the_datagram_range() {
        assert_eq!(SizeClass::for_len(0).size(), DATAGRAM_MTU);
        assert_eq!(SizeClass::for_len(DATAGRAM_MTU).size(), DATAGRAM_MTU);
        assert_eq!(SizeClass::for_len(DATAGRAM_MTU + 1).size(), 16 * 1024);
        assert_eq!(SizeClass::for_len(MAX_DATAGRAM).size(), MAX_DATAGRAM);
        assert_eq!(SizeClass(0).promote(), Some(SizeClass(1)));
        assert_eq!(SizeClass(2).promote(), None);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_DATAGRAM")]
    fn oversize_len_is_rejected() {
        let _ = SizeClass::for_len(MAX_DATAGRAM + 1);
    }

    #[test]
    fn acquire_release_cycle_is_a_hit_after_the_first_miss() {
        let mut pool = BufferPool::new(1 << 20);
        let class = SizeClass(0);
        let mut slab = pool.acquire(class);
        slab.extend_from_slice(b"datagram");
        pool.release(class, slab.freeze());
        for _ in 0..10 {
            let slab = pool.acquire(class);
            assert!(slab.capacity() >= class.size());
            assert!(slab.is_empty(), "recycled slabs come back cleared");
            pool.release(class, slab.freeze());
        }
        let s = pool.stats().snapshot();
        assert_eq!(s.misses, 1, "only the cold start allocates");
        assert_eq!(s.hits, 10);
        assert_eq!(s.tracked_bytes, class.size() as u64);
        assert_eq!(s.high_water_bytes, class.size() as u64);
    }

    #[test]
    fn a_still_shared_release_is_forfeited_and_untracked() {
        let mut pool = BufferPool::new(1 << 20);
        let class = SizeClass(0);
        let mut slab = pool.acquire(class);
        slab.extend_from_slice(b"payload-to-buffer");
        let frozen = slab.freeze();
        let payload = frozen.slice(8..); // an outside holder keeps the slab shared
        pool.release(class, frozen);
        let s = pool.stats().snapshot();
        assert_eq!(s.forfeited, 1);
        assert_eq!(s.tracked_bytes, 0, "the pool no longer counts the slab");
        assert_eq!(s.free_bytes, 0, "nor can it hand the slab out again");
        // The slab is the payload's now, and the next acquire allocates.
        assert_eq!(&payload[..], b"to-buffer");
        drop(pool.acquire(class));
        assert_eq!(pool.stats().snapshot().misses, 2);
    }

    #[test]
    fn freelist_respects_the_byte_limit() {
        let class = SizeClass(0);
        // Room for exactly one slab.
        let mut pool = BufferPool::new(class.size());
        let a = pool.acquire(class);
        let b = pool.acquire(class);
        pool.release(class, a.freeze());
        pool.release(class, b.freeze());
        let s = pool.stats().snapshot();
        assert_eq!(s.trimmed, 1, "the second slab is dropped, not pooled");
        assert_eq!(s.free_bytes, class.size() as u64);
        assert_eq!(s.tracked_bytes, class.size() as u64);
    }
}
