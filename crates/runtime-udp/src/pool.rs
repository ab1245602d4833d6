//! MTU-bucketed buffer pool for the UDP runtime's receive path.
//!
//! Modeled on the GStreamer buffer-pool pattern (size-bucketed freelists,
//! reuse for same-size allocations, a memory limit, statistics): datagrams
//! are received **directly into pooled slabs**, frozen into [`Bytes`] and
//! decoded zero-copy — the steady state allocates nothing per datagram.
//!
//! ## Size classes
//!
//! Three buckets: [`DATAGRAM_MTU`] (every protocol control packet and
//! MTU-sized data datagram — the common case by far), a 16 KiB middle
//! class, and [`MAX_DATAGRAM`] (the largest UDP payload; jumbo
//! application multicasts). [`DATAGRAM_MTU`] is the single source of
//! truth for datagram sizing: the send path's encode buffer and the
//! receive slabs both start from it.
//!
//! ## Slab life cycle
//!
//! ```text
//! acquire(class)          -> BytesMut slab   (freelist hit, scavenged
//!                                             reclaim, or fresh alloc = miss)
//! recvmmsg into slab      -> truncate to datagram length
//! freeze()                -> Bytes           (zero-copy view, decode shares it)
//! release(class, bytes)   -> unique?  back on the freelist
//!                            shared?  parked on the retained list
//!                                     (a buffered payload still points in)
//! sweep()/acquire misses  -> retained slabs whose last outside reference
//!                            dropped are reclaimed to the freelist
//! ```
//!
//! The retained list is how zero-copy coexists with the protocol's
//! buffering: a `Data` payload inserted into the receiver's
//! `MessageStore` keeps the slab alive, so the pool parks its handle and
//! reclaims the slab when the store eventually discards the message. The
//! list is bounded in proportion to the pool's byte budget (floored at
//! `RETAINED_CAP` entries) — beyond the cap the oldest handle is
//! forfeited (the slab frees itself whenever the store drops it; the pool
//! merely stops tracking it), so a pathological workload degrades to
//! plain allocation instead of growing the pool without bound, while a
//! generously budgeted pool can ride out thousands of receivers pinning
//! an in-flight window of payloads simultaneously.
//!
//! Statistics are shared [`PoolStats`] atomics so operators (and the
//! runtime bench) can observe hit/miss/reclaim rates and the allocation
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
pub const MAX_DATAGRAM: usize = 64 * 1024;

/// Bucket sizes, ascending. `SizeClass` indexes into this ladder.
pub const SIZE_CLASSES: [usize; 3] = [DATAGRAM_MTU, 16 * 1024, MAX_DATAGRAM];

/// Retained-list bound floor per class: the cap scales with the pool's
/// byte budget (`free_limit_bytes / class size` — the pool tracks as many
/// parked slabs as it would be willing to keep free) but never drops
/// below this, so small pools still ride out a buffering burst. Beyond
/// the cap, the oldest still-shared slab handle is forfeited rather than
/// tracked forever.
const RETAINED_CAP: usize = 4096;

/// How many retained entries one scavenge pass inspects.
const SCAVENGE_BUDGET: usize = 8;

/// Index into [`SIZE_CLASSES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeClass(pub usize);

impl SizeClass {
    /// The smallest class whose slab holds `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`MAX_DATAGRAM`].
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
    /// Slabs recovered from the retained list after their last outside
    /// reference dropped.
    pub reclaimed: AtomicU64,
    /// Slabs released while still shared (a buffered payload points in),
    /// parked on the retained list.
    pub parked: AtomicU64,
    /// Unique slabs dropped because the freelist byte limit was reached.
    pub trimmed: AtomicU64,
    /// Still-shared handles dropped because the retained list was full;
    /// the slab frees itself when its buffer owner drops it.
    pub forfeited: AtomicU64,
    /// Bytes currently sitting on freelists.
    pub free_bytes: AtomicU64,
    /// Bytes in slabs the pool has allocated and still tracks
    /// (freelists + slabs out with callers or parked on retained lists).
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
    /// Slabs recovered from the retained list.
    pub reclaimed: u64,
    /// Shared releases parked for later reclaim.
    pub parked: u64,
    /// Unique slabs dropped over the freelist limit.
    pub trimmed: u64,
    /// Shared handles dropped over the retained cap.
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
            reclaimed: self.reclaimed.load(Ordering::Relaxed),
            parked: self.parked.load(Ordering::Relaxed),
            trimmed: self.trimmed.load(Ordering::Relaxed),
            forfeited: self.forfeited.load(Ordering::Relaxed),
            free_bytes: self.free_bytes.load(Ordering::Relaxed),
            tracked_bytes: self.tracked_bytes.load(Ordering::Relaxed),
            high_water_bytes: self.high_water_bytes.load(Ordering::Relaxed),
        }
    }
}

/// One size class: a freelist of writable slabs plus the retained list of
/// released-but-still-shared handles awaiting reclaim.
#[derive(Debug, Default)]
struct ClassPool {
    free: Vec<BytesMut>,
    retained: std::collections::VecDeque<Bytes>,
}

/// The MTU-bucketed slab pool. One instance per event-loop thread — no
/// locking anywhere; only the statistics cross threads.
#[derive(Debug)]
pub struct BufferPool {
    classes: [ClassPool; SIZE_CLASSES.len()],
    /// Byte budget for the freelists (summed over classes). `0` disables
    /// pooling entirely: every acquire allocates, every release drops —
    /// the differential "unpooled" arm of the runtime bench.
    free_limit_bytes: usize,
    stats: Arc<PoolStats>,
}

impl BufferPool {
    /// Creates a pool whose freelists may hold up to `free_limit_bytes`.
    /// Pass `0` to disable pooling (per-datagram allocation, for
    /// differential benchmarking).
    #[must_use]
    pub fn new(free_limit_bytes: usize) -> BufferPool {
        BufferPool::with_stats(free_limit_bytes, Arc::new(PoolStats::default()))
    }

    /// Like [`BufferPool::new`], publishing into a caller-provided stats
    /// block — how each event loop exposes its pool to runtime-level
    /// introspection without sharing the pool itself.
    #[must_use]
    pub fn with_stats(free_limit_bytes: usize, stats: Arc<PoolStats>) -> BufferPool {
        BufferPool { classes: Default::default(), free_limit_bytes, stats }
    }

    /// The shared statistics handle.
    #[must_use]
    pub fn stats(&self) -> Arc<PoolStats> {
        Arc::clone(&self.stats)
    }

    /// Whether pooling is enabled (a zero byte limit disables it).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.free_limit_bytes > 0
    }

    fn track_alloc(&self, size: usize) {
        let now = self.stats.tracked_bytes.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        self.stats.high_water_bytes.fetch_max(now, Ordering::Relaxed);
    }

    fn untrack(&self, size: usize) {
        self.stats.tracked_bytes.fetch_sub(size as u64, Ordering::Relaxed);
    }

    /// Hands out a writable slab of `class` (capacity ≥ the class size,
    /// length 0). Freelist first, then a bounded scavenge of the retained
    /// list, then — counted as a miss — a fresh allocation.
    pub fn acquire(&mut self, class: SizeClass) -> BytesMut {
        let size = class.size();
        if self.enabled() {
            if let Some(mut slab) = self.classes[class.0].free.pop() {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                self.stats.free_bytes.fetch_sub(size as u64, Ordering::Relaxed);
                slab.clear();
                return slab;
            }
            if let Some(mut slab) = self.scavenge(class, SCAVENGE_BUDGET) {
                self.stats.reclaimed.fetch_add(1, Ordering::Relaxed);
                slab.clear();
                return slab;
            }
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        self.track_alloc(size);
        BytesMut::with_capacity(size)
    }

    /// Returns a frozen slab to the pool. `class` must be the class the
    /// slab was acquired as (the receive batcher tags its datagrams). A
    /// slab that is the last reference goes back on the freelist (or is
    /// dropped over the byte limit); one still shared — a decoded payload
    /// keeps it alive — is parked for a later reclaim.
    pub fn release(&mut self, class: SizeClass, bytes: Bytes) {
        let size = class.size();
        if !self.enabled() {
            // Unpooled mode never tracked the allocation.
            return;
        }
        match bytes.try_into_mut() {
            Ok(slab) => self.push_free(class, slab),
            Err(shared) => {
                self.stats.parked.fetch_add(1, Ordering::Relaxed);
                let cap = self.retained_cap(class);
                let retained = &mut self.classes[class.0].retained;
                retained.push_back(shared);
                if retained.len() > cap {
                    // Oldest first: forfeit tracking; the slab frees
                    // itself when its buffer owner drops the payload.
                    let _ = retained.pop_front();
                    self.stats.forfeited.fetch_add(1, Ordering::Relaxed);
                    self.untrack(size);
                }
            }
        }
    }

    /// Returns a writable slab that was acquired but never frozen (the
    /// receive batcher hands back unfilled slabs when it switches size
    /// class). Not a hit or a miss — the acquire already counted.
    pub fn release_unused(&mut self, class: SizeClass, slab: BytesMut) {
        if !self.enabled() {
            return;
        }
        self.push_free(class, slab);
    }

    /// Bounded maintenance pass: for each class, inspect up to `budget`
    /// parked slabs and reclaim the ones whose outside references have
    /// dropped. The event loop calls this once per wakeup so steady-state
    /// reuse never depends on an acquire happening to miss. Returns how
    /// many slabs this pass reclaimed (the runtime's scavenge trace hook
    /// reports it).
    pub fn sweep(&mut self, budget: usize) -> usize {
        if !self.enabled() {
            return 0;
        }
        let mut reclaimed = 0;
        for ci in 0..SIZE_CLASSES.len() {
            for _ in 0..budget {
                if self.classes[ci].retained.is_empty() {
                    break;
                }
                if let Some(slab) = self.scavenge(SizeClass(ci), 1) {
                    self.stats.reclaimed.fetch_add(1, Ordering::Relaxed);
                    self.push_free(SizeClass(ci), slab);
                    reclaimed += 1;
                }
            }
        }
        reclaimed
    }

    /// How many still-shared handles `class` may park: proportional to
    /// the byte budget (a pool sized for N free slabs expects up to ~N
    /// slabs pinned by buffered payloads at once), floored at
    /// [`RETAINED_CAP`].
    fn retained_cap(&self, class: SizeClass) -> usize {
        RETAINED_CAP.max(self.free_limit_bytes / class.size())
    }

    /// Pops up to `budget` retained entries of `class`, returning the
    /// first that has become unique; still-shared entries rotate to the
    /// back so successive passes cover the whole list.
    fn scavenge(&mut self, class: SizeClass, budget: usize) -> Option<BytesMut> {
        let retained = &mut self.classes[class.0].retained;
        for _ in 0..budget.min(retained.len()) {
            let candidate = retained.pop_front()?;
            match candidate.try_into_mut() {
                Ok(slab) => return Some(slab),
                Err(still_shared) => retained.push_back(still_shared),
            }
        }
        None
    }

    fn push_free(&mut self, class: SizeClass, mut slab: BytesMut) {
        let size = class.size();
        let free = self.stats.free_bytes.load(Ordering::Relaxed) as usize;
        if free + size <= self.free_limit_bytes {
            slab.clear();
            self.stats.free_bytes.fetch_add(size as u64, Ordering::Relaxed);
            self.classes[class.0].free.push(slab);
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
    fn shared_slabs_are_parked_then_reclaimed() {
        let mut pool = BufferPool::new(1 << 20);
        let class = SizeClass(0);
        let mut slab = pool.acquire(class);
        slab.extend_from_slice(b"payload-to-buffer");
        let frozen = slab.freeze();
        let payload = frozen.slice(8..); // a MessageStore would hold this
        pool.release(class, frozen);
        let s = pool.stats().snapshot();
        assert_eq!(s.parked, 1);
        // While the payload lives, acquires must allocate (or hit the
        // freelist) — the parked slab cannot be reclaimed.
        let other = pool.acquire(class);
        assert_eq!(pool.stats().snapshot().misses, 2);
        pool.release(class, other.freeze());
        // Payload dropped: the sweep reclaims the parked slab.
        drop(payload);
        pool.sweep(8);
        let s = pool.stats().snapshot();
        assert_eq!(s.reclaimed, 1);
        // Both slabs now sit on the freelist.
        assert_eq!(s.free_bytes, 2 * class.size() as u64);
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

    #[test]
    fn zero_limit_disables_pooling() {
        let mut pool = BufferPool::new(0);
        assert!(!pool.enabled());
        let class = SizeClass(0);
        for _ in 0..3 {
            let slab = pool.acquire(class);
            pool.release(class, slab.freeze());
        }
        let s = pool.stats().snapshot();
        assert_eq!(s.misses, 3, "every acquire allocates");
        assert_eq!(s.hits, 0);
        assert_eq!(s.free_bytes, 0);
    }

    #[test]
    fn retained_cap_forfeits_oldest() {
        let class = SizeClass(0);
        // A tiny byte budget keeps the retained cap at its floor.
        let mut pool = BufferPool::new(class.size());
        let mut keepers = Vec::new();
        for _ in 0..(RETAINED_CAP + 3) {
            let mut slab = pool.acquire(class);
            slab.extend_from_slice(b"x");
            let frozen = slab.freeze();
            keepers.push(frozen.clone()); // keep every slab shared
            pool.release(class, frozen);
        }
        let s = pool.stats().snapshot();
        assert_eq!(s.forfeited, 3);
        assert_eq!(s.parked, (RETAINED_CAP + 3) as u64);
        // Tracked bytes shrank by the forfeited slabs.
        assert_eq!(s.tracked_bytes, (RETAINED_CAP * class.size()) as u64);
    }

    #[test]
    fn retained_cap_scales_with_the_byte_budget() {
        let class = SizeClass(0);
        let over_floor = RETAINED_CAP + 64;
        // Budget for `over_floor` free slabs -> the same number may park.
        let mut pool = BufferPool::new(over_floor * class.size());
        let mut keepers = Vec::new();
        for _ in 0..over_floor {
            let mut slab = pool.acquire(class);
            slab.extend_from_slice(b"x");
            let frozen = slab.freeze();
            keepers.push(frozen.clone());
            pool.release(class, frozen);
        }
        assert_eq!(pool.stats().snapshot().forfeited, 0);
        // Dropping the payloads makes every parked slab reclaimable.
        drop(keepers);
        let reclaimed = std::iter::repeat_with(|| pool.acquire(class)).take(over_floor).count();
        let s = pool.stats().snapshot();
        assert_eq!(reclaimed, over_floor);
        assert_eq!(s.reclaimed, over_floor as u64, "no parked slab was lost");
    }
}
