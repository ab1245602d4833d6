//! The discrete-event queue.
//!
//! [`EventQueue`] is a hierarchical **timing wheel** (calendar queue) with
//! O(1) amortized schedule and pop at high event rates. Events pop in
//! `(time, insertion sequence)` order, so two events scheduled for the
//! same instant are always delivered in the order they were scheduled.
//! Payloads live in a generation-counted slab; the wheel itself moves only
//! small plain-data handles when cascading between levels.
//!
//! It is the one queue in the workspace: the simulator drivers and the UDP
//! runtime's per-loop timers all run on it. The differential proptest
//! below drives it in lockstep with a sorted-`Vec` model of the contract,
//! and the golden traces one layer up pin its order under the full
//! protocol.
//!
//! ## Cancellation is lazy
//!
//! The queue deliberately has no `cancel`: a calendar queue cannot remove
//! an arbitrary event without a per-event handle map, and none of the
//! hosts need eager removal. A host that multiplexes many owners over one
//! wheel (the UDP runtime hosts every member of an event-loop thread on a
//! single queue) tags each event with the owner's generation and discards
//! stale fires at pop time — the same scheme the simulator's timer slab
//! uses.
//!
//! ## Wheel geometry
//!
//! Six levels of 64 slots, level-0 granularity of one simulated microsecond
//! (the clock's native tick): level *l* slots span `64^l` ticks, so the
//! wheel covers `64^6` ticks ≈ 19.1 simulated hours ahead of its cursor.
//! Events beyond that horizon wait in a small overflow heap and migrate
//! into the wheel as the cursor advances — far-future events (idle-timer
//! sentinels, `SimTime::MAX` deadlines) are rare, so the heap stays tiny.
//!
//! Scheduling hashes the event into `levels[level_of(delta)]` by its
//! absolute tick. Popping finds the next occupied slot (per-level
//! occupancy bitmaps make the scan six `u64` inspections) and cascades
//! higher-level slots downward until a level-0 slot — one exact tick —
//! drains into a sorted pending run. Same-instant ties are resolved by
//! sorting that run on the insertion sequence.
//!
//! ## The cursor never runs ahead of the host
//!
//! The cursor is the instant of the last tick taken off the wheel. It
//! moves only inside [`EventQueue::pop_at_or_before`], and only as far as
//! the event that call returns — never past `limit`, and not at all when
//! the earliest event is later than `limit` or the pending run merely
//! empties. Every host schedules at or after the instant it last popped
//! (or the limit it last asked for), so the cursor is never ahead of the
//! host's clock and a schedule costs one bucket push wherever that clock
//! stands: an idle host whose only outstanding work is a far-off sweep
//! does not drag the cursor out to the sweep. Only a genuine `at <= cursor`
//! schedule (a same-instant re-arm, an overdue timer) pays a sorted insert
//! into the pending run.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// log2 of the slot count per wheel level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels.
const LEVELS: usize = 6;
/// Ticks (microseconds) the wheel covers ahead of its cursor.
const WHEEL_RANGE: u64 = 1 << (SLOT_BITS * LEVELS as u32);

/// A 24-byte plain-data handle stored in the wheel: the firing tick, the
/// global insertion sequence (the determinism tiebreak), and the slab slot
/// holding the payload plus that slot's generation at insertion time.
///
/// The derived ordering is lexicographic `(at, seq, …)`; `seq` is unique,
/// so `(at, seq)` already totally orders entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at: u64,
    seq: u64,
    slot: u32,
    gen: u32,
}

/// Slab of event payloads with per-slot generation counters.
///
/// A slot's generation is odd while occupied and even while free (the same
/// scheme as the simulator's timer slab); `remove` asserts the handle's
/// generation so a stale or double-freed handle is caught immediately.
/// Memory is bounded by the peak number of *concurrently pending* events.
#[derive(Debug)]
struct PayloadSlab<E> {
    slots: Vec<(u32, Option<E>)>,
    free: Vec<u32>,
}

impl<E> PayloadSlab<E> {
    fn new() -> Self {
        PayloadSlab { slots: Vec::new(), free: Vec::new() }
    }

    fn insert(&mut self, event: E) -> (u32, u32) {
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.0 = s.0.wrapping_add(1);
                debug_assert!(s.0 & 1 == 1, "occupied generation must be odd");
                debug_assert!(s.1.is_none(), "free-list slot still occupied");
                s.1 = Some(event);
                (slot, s.0)
            }
            None => {
                self.slots.push((1, Some(event)));
                ((self.slots.len() - 1) as u32, 1)
            }
        }
    }

    fn remove(&mut self, slot: u32, gen: u32) -> E {
        let s = &mut self.slots[slot as usize];
        assert_eq!(s.0, gen, "stale payload-slab handle");
        s.0 = s.0.wrapping_add(1);
        self.free.push(slot);
        s.1.take().expect("occupied slab slot holds a payload")
    }

    /// Drops all payloads but keeps the slot and free-list allocations.
    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }

    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.slots.capacity()
    }
}

/// One wheel slot: its entries and their earliest firing tick (`u64::MAX`
/// while empty), so the queue's exact earliest time is a read of each
/// level's first occupied slot rather than a walk over its entries.
#[derive(Debug)]
struct Bucket {
    min: u64,
    entries: Vec<Entry>,
}

/// What one pass over the occupancy bitmaps finds on a non-empty wheel.
#[derive(Debug, Clone, Copy)]
struct WheelFront {
    /// The exact firing tick of the wheel's earliest entry.
    earliest: u64,
    /// The slot to open next — the earliest slot start across levels —
    /// as `(start tick, level, slot index)`.
    tick: u64,
    level: usize,
    idx: usize,
}

/// The event queue: a hierarchical timing wheel.
///
/// Orders events by `(time, insertion sequence)` at O(1) amortized cost
/// per schedule and pop.
///
/// ```
/// use rrmp_netsim::event::EventQueue;
/// use rrmp_netsim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), "b");
/// q.schedule(SimTime::from_millis(1), "a");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(2), "b")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `LEVELS * SLOTS` buckets, flattened; bucket `level * SLOTS + slot`.
    levels: Vec<Bucket>,
    /// One occupancy bit per slot, per level.
    occupied: [u64; LEVELS],
    /// The instant of the last tick taken off the wheel: every entry at a
    /// tick `<= cursor` has been drained into `pending`, every entry still
    /// on the wheel is later. Moved only by `settle`, and only up to the
    /// event about to be returned, so it never passes the host's clock.
    cursor: u64,
    /// The drained tick's entries (plus anything scheduled at or before
    /// the cursor since), sorted descending by `(at, seq)` so the minimum
    /// pops from the back. All pending entries are at ticks `<= cursor`,
    /// so they precede everything still in the wheel. Empty between
    /// ticks: the next tick is drained only when a pop asks for it.
    pending: Vec<Entry>,
    /// Entries beyond the wheel horizon, ordered by `(at, seq)`.
    overflow: BinaryHeap<Reverse<Entry>>,
    /// Event payloads; the wheel only moves [`Entry`] handles.
    slab: PayloadSlab<E>,
    next_seq: u64,
    len: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            levels: (0..LEVELS * SLOTS)
                .map(|_| Bucket { min: u64::MAX, entries: Vec::new() })
                .collect(),
            occupied: [0; LEVELS],
            cursor: 0,
            pending: Vec::new(),
            overflow: BinaryHeap::new(),
            slab: PayloadSlab::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (slot, gen) = self.slab.insert(event);
        let entry = Entry { at: at.as_micros(), seq, slot, gen };
        self.len += 1;
        if entry.at <= self.cursor {
            // At or before the last tick popped (a same-instant re-arm, an
            // overdue timer): straight into the sorted pending run.
            let pos = self.pending.partition_point(|p| *p > entry);
            self.pending.insert(pos, entry);
        } else if entry.at - self.cursor >= WHEEL_RANGE {
            self.overflow.push(Reverse(entry));
        } else {
            self.insert_wheel(entry);
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Pops the earliest event only if it fires at or before `limit`.
    ///
    /// This is the horizon check `Sim::run_until` uses, and the only place
    /// the cursor moves: when the pending run is empty the next tick is
    /// drained only if it is at or before `limit`, so the cursor ends on
    /// the instant of the event returned and an event past the horizon
    /// leaves the wheel untouched.
    pub fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let limit = limit.as_micros();
        if self.pending.is_empty() {
            self.settle(limit);
        }
        let entry = *self.pending.last()?;
        if entry.at > limit {
            return None;
        }
        self.pending.pop();
        self.len -= 1;
        let event = self.slab.remove(entry.slot, entry.gen);
        Some((SimTime::from_micros(entry.at), event))
    }

    /// The firing time of the earliest pending event, if any — exact in
    /// every state. The back of the pending run when there is one (it
    /// precedes the whole wheel); otherwise one read of the six occupancy
    /// bitmaps and of the first slot's minimum on each occupied level.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        let at = match self.pending.last() {
            Some(entry) => entry.at,
            None => self.earliest_unsettled(self.wheel_front())?,
        };
        Some(SimTime::from_micros(at))
    }

    /// How long after `now` the earliest event fires: `None` when the
    /// queue is empty, [`SimDuration::ZERO`] when it is already due. Hosts
    /// that block on an external wait (the UDP runtime's `poll(2)`
    /// timeout) use this to bound the wait by the next deadline without
    /// duplicating the saturation logic.
    #[must_use]
    pub fn next_due_in(&self, now: SimTime) -> Option<SimDuration> {
        self.peek_time().map(|at| at.saturating_since(now))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events **without releasing allocations**: slot
    /// vectors, the pending run, the overflow heap, and the payload slab
    /// all keep their capacity, so a cleared queue re-fills without
    /// re-growing from empty (important for `Sim` reuse across runs).
    pub fn clear(&mut self) {
        for bucket in &mut self.levels {
            bucket.entries.clear();
            bucket.min = u64::MAX;
        }
        self.occupied = [0; LEVELS];
        self.cursor = 0;
        self.pending.clear();
        self.overflow.clear();
        self.slab.clear();
        self.len = 0;
    }

    /// Hashes `entry` (which must satisfy `cursor <= at < cursor + range`)
    /// into its wheel level by absolute tick.
    fn insert_wheel(&mut self, entry: Entry) {
        let delta = entry.at - self.cursor;
        debug_assert!(delta < WHEEL_RANGE);
        let level =
            if delta == 0 { 0 } else { (63 - delta.leading_zeros() as usize) / SLOT_BITS as usize };
        let slot = ((entry.at >> (SLOT_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize;
        self.occupied[level] |= 1 << slot;
        let bucket = &mut self.levels[level * SLOTS + slot];
        bucket.min = bucket.min.min(entry.at);
        bucket.entries.push(entry);
    }

    /// One pass over the occupancy bitmaps: each occupied level's first
    /// slot in firing order gives that level's earliest entry (its bucket
    /// minimum) and a candidate slot to open next. `None` when the wheel
    /// holds nothing.
    fn wheel_front(&self) -> Option<WheelFront> {
        let mut front: Option<WheelFront> = None;
        for level in 0..LEVELS {
            let bits = self.occupied[level];
            if bits == 0 {
                continue;
            }
            let shift = SLOT_BITS as usize * level;
            let offset = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as u32;
            let ahead = bits >> offset;
            // Slots behind the cursor's offset hold *next-rotation*
            // entries. The cursor's own slot is current-rotation only
            // while the cursor sits exactly on its start (remainder
            // zero — always true at level 0); once the cursor is
            // inside the slot's span, its current-rotation range has
            // been cascaded away and an occupied own slot means
            // entries one full rotation ahead.
            let own_is_current = self.cursor & ((1u64 << shift) - 1) == 0;
            let current = if own_is_current { ahead } else { ahead >> 1 };
            let (idx, rotations) = if current != 0 {
                let first = if own_is_current { offset } else { offset + 1 };
                (first + current.trailing_zeros(), 0)
            } else {
                (bits.trailing_zeros(), 1)
            };
            let window =
                self.cursor >> (shift + SLOT_BITS as usize) << (shift + SLOT_BITS as usize);
            let tick = window + ((u64::from(idx) + rotations * SLOTS as u64) << shift);
            let idx = idx as usize;
            let earliest = self.levels[level * SLOTS + idx].min;
            let f = front.get_or_insert(WheelFront { earliest, tick, level, idx });
            f.earliest = f.earliest.min(earliest);
            // The earliest slot start opens next; on a tie the higher
            // level wins so its entries cascade down first.
            if tick <= f.tick {
                (f.tick, f.level, f.idx) = (tick, level, idx);
            }
        }
        front
    }

    /// The exact earliest tick outside the pending run: the wheel's, or
    /// the overflow front where that is earlier (an overflow entry can
    /// precede wheel entries scheduled after the cursor moved on).
    fn earliest_unsettled(&self, front: Option<WheelFront>) -> Option<u64> {
        let overflow = self.overflow.peek().map(|e| e.0.at);
        front.map(|f| f.earliest).into_iter().chain(overflow).min()
    }

    /// With the pending run empty, drains the queue's earliest tick into
    /// it — provided that tick is at or before `limit`; otherwise (or if
    /// the queue is empty) nothing moves. Migrates newly in-range overflow
    /// entries and cascades higher levels down on the way; the cursor
    /// steps through slot starts no later than the drained tick and ends
    /// on it.
    fn settle(&mut self, limit: u64) {
        debug_assert!(self.pending.is_empty());
        let mut front = self.wheel_front();
        let Some(earliest) = self.earliest_unsettled(front) else { return };
        if earliest > limit {
            return;
        }
        if front.is_none() {
            // Wheel empty: the earliest event is the overflow front; jump
            // the cursor to it so far-future events come within range.
            self.cursor = earliest;
        }
        loop {
            let waiting = self.overflow.len();
            while let Some(next) =
                self.overflow.peek().map(|e| e.0).filter(|e| e.at - self.cursor < WHEEL_RANGE)
            {
                self.overflow.pop();
                self.insert_wheel(next);
            }
            if self.overflow.len() != waiting {
                front = self.wheel_front();
            }
            let WheelFront { tick, level, idx, .. } =
                front.expect("wheel holds an entry after overflow migration");
            debug_assert!(self.cursor <= tick && tick <= earliest, "cursor would pass the pop");
            self.cursor = tick;
            self.occupied[level] &= !(1 << idx);
            let bucket = &mut self.levels[level * SLOTS + idx];
            bucket.min = u64::MAX;
            // Empty the bucket in place (copy out, or take the vector and
            // hand it back below), so capacity stays where the workload
            // put it and cleared queues re-fill without growing.
            if level == 0 {
                // One exact tick; sort descending so the minimum (lowest
                // seq) pops first from the back.
                self.pending.extend_from_slice(&bucket.entries);
                bucket.entries.clear();
                self.pending.sort_unstable_by(|a, b| b.cmp(a));
                return;
            }
            // Cascade a higher-level slot into finer levels.
            let mut moved = std::mem::take(&mut bucket.entries);
            for entry in moved.drain(..) {
                self.insert_wheel(entry);
            }
            self.levels[level * SLOTS + idx].entries = moved;
            front = self.wheel_front();
        }
    }
}

#[cfg(test)]
impl<E> EventQueue<E> {
    /// Total number of events ever scheduled on this queue.
    pub(crate) fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// A capacity proxy: the number of payload slots plus wheel/pending
    /// entry capacity currently allocated. Tests use it to assert that
    /// [`EventQueue::clear`] keeps memory warm.
    pub(crate) fn allocated_capacity(&self) -> usize {
        self.slab.capacity()
            + self.pending.capacity()
            + self.levels.iter().map(|b| b.entries.capacity()).sum::<usize>()
    }

    /// The structural conditions every public call must leave true.
    fn check_invariants(&self) {
        let mut on_wheel = 0;
        for (b, bucket) in self.levels.iter().enumerate() {
            let occupied = self.occupied[b / SLOTS] >> (b % SLOTS) & 1 == 1;
            assert_eq!(occupied, !bucket.entries.is_empty(), "occupancy bit of bucket {b}");
            let min = bucket.entries.iter().map(|e| e.at).min().unwrap_or(u64::MAX);
            assert_eq!(bucket.min, min, "recorded minimum of bucket {b}");
            assert!(
                bucket.entries.iter().all(|e| e.at > self.cursor),
                "bucket {b} at/behind cursor"
            );
            on_wheel += bucket.entries.len();
        }
        assert!(self.pending.windows(2).all(|w| w[0] > w[1]), "pending not sorted descending");
        assert!(self.pending.iter().all(|e| e.at <= self.cursor), "pending entry past cursor");
        assert_eq!(self.len, self.pending.len() + on_wheel + self.overflow.len());
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    /// The queue contract written as plainly as it can be: every pending
    /// event in a `Vec` kept sorted descending by `(time, seq)`, so the
    /// earliest pops from the back. The oracle the wheel is checked
    /// against.
    struct SortedModel<E> {
        events: Vec<(SimTime, u64, E)>,
        next_seq: u64,
    }

    impl<E> SortedModel<E> {
        fn schedule(&mut self, at: SimTime, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            let pos = self.events.partition_point(|&(t, s, _)| (t, s) > (at, seq));
            self.events.insert(pos, (at, seq, event));
        }

        fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
            if self.peek_time()? > limit {
                return None;
            }
            self.events.pop().map(|(at, _, event)| (at, event))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.events.last().map(|&(at, ..)| at)
        }
    }

    /// The wheel and the model driven in lockstep: every call goes to
    /// both, and what comes out of the two must agree.
    pub(super) struct Lockstep<E> {
        pub(super) wheel: EventQueue<E>,
        model: SortedModel<E>,
    }

    impl<E: Clone + PartialEq + Debug> Lockstep<E> {
        pub(super) fn new() -> Self {
            Lockstep {
                wheel: EventQueue::new(),
                model: SortedModel { events: Vec::new(), next_seq: 0 },
            }
        }

        pub(super) fn schedule(&mut self, at: SimTime, event: E) {
            self.wheel.schedule(at, event.clone());
            self.model.schedule(at, event);
        }

        pub(super) fn pop(&mut self) -> Option<(SimTime, E)> {
            let popped = self.wheel.pop();
            assert_eq!(popped, self.model.pop_at_or_before(SimTime::MAX));
            popped
        }

        pub(super) fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
            let popped = self.wheel.pop_at_or_before(limit);
            assert_eq!(popped, self.model.pop_at_or_before(limit));
            popped
        }

        fn next_due_in(&self, now: SimTime) -> Option<SimDuration> {
            let due = self.wheel.next_due_in(now);
            assert_eq!(due, self.model.peek_time().map(|at| at.saturating_since(now)));
            due
        }

        /// What both report between calls, and the wheel's structure.
        pub(super) fn check(&self) {
            assert_eq!(self.wheel.peek_time(), self.model.peek_time());
            assert_eq!(self.wheel.len(), self.model.events.len());
            assert_eq!(self.wheel.scheduled_total(), self.model.next_seq);
            self.wheel.check_invariants();
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(5), 5);
        q.schedule(t(1), 1);
        q.schedule(t(3), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn next_due_in_saturates_on_overdue_events() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.next_due_in(t(0)), None);
        q.schedule(t(10), 1);
        assert_eq!(q.next_due_in(t(4)), Some(SimDuration::from_millis(6)));
        // An already-due event reports ZERO, never underflows.
        assert_eq!(q.next_due_in(t(15)), Some(SimDuration::ZERO));
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(t(9), ());
        q.schedule(t(2), ());
        assert_eq!(q.peek_time(), Some(t(2)));
        let (at, ()) = q.pop().unwrap();
        assert_eq!(at, t(2));
        assert_eq!(q.peek_time(), Some(t(9)));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn clear_keeps_allocations_warm() {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_micros(i * 131 % 50_000), i);
        }
        while q.pop().is_some() {}
        let warmed = q.allocated_capacity();
        assert!(warmed > 0);
        q.clear();
        assert_eq!(q.allocated_capacity(), warmed, "clear must not shed capacity");
        // Refilling the same workload must not grow the queue further.
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_micros(i * 131 % 50_000), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.allocated_capacity(), warmed, "warmed queue re-grew");
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), "late");
        q.schedule(t(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.schedule(t(5), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(t(10), "late");
        q.schedule(t(2), "early");
        assert_eq!(q.pop_at_or_before(t(5)).unwrap().1, "early");
        assert_eq!(q.pop_at_or_before(t(5)), None);
        assert_eq!(q.len(), 1, "the late event must not be disturbed");
        assert_eq!(q.pop_at_or_before(t(10)).unwrap().1, "late");
    }

    /// The run-dry regression: with only a far-off sweep left, a horizon
    /// pop that comes back empty must leave the cursor behind the host's
    /// clock, so the burst that follows lands on the wheel — not in a
    /// sorted pending run that every insert shifts.
    #[test]
    fn cursor_stays_behind_an_idle_hosts_clock() {
        const BURST: usize = 50_000;
        let sweep = SimTime::from_secs(5);
        let mut q = EventQueue::new();
        q.schedule(sweep, usize::MAX);
        q.schedule(t(1), 0);
        assert_eq!(q.pop_at_or_before(t(1)), Some((t(1), 0)));
        assert_eq!(q.pop_at_or_before(t(20)), None);
        assert_eq!(q.peek_time(), Some(sweep));
        assert_eq!(q.cursor, t(1).as_micros(), "cursor rests on the last tick popped");
        for i in 1..=BURST {
            q.schedule(t(45), i);
        }
        assert!(q.pending.is_empty(), "burst ahead of the host's clock went to pending");
        assert!(q.cursor <= t(20).as_micros());
        assert_eq!(q.peek_time(), Some(t(45)));
        q.check_invariants();
        for i in 1..=BURST {
            assert_eq!(q.pop(), Some((t(45), i)));
        }
        assert_eq!(q.cursor, t(45).as_micros());
        assert_eq!(q.pop(), Some((sweep, usize::MAX)));
        assert_eq!(q.pop(), None);
    }

    /// The same script shaped like the UDP runtime's loop — drain
    /// `pop_at_or_before(now)`, then bound the poll wait by
    /// `next_due_in(now)` — run on the wheel in lockstep with the model.
    #[test]
    fn idle_timer_loop_wakes_to_a_burst_on_the_wheel() {
        fn tick(
            timers: &mut Lockstep<usize>,
            now: SimTime,
            log: &mut Vec<(SimTime, Option<usize>)>,
        ) {
            while let Some((at, id)) = timers.pop_at_or_before(now) {
                log.push((at, Some(id)));
            }
            if let Some(wait) = timers.next_due_in(now) {
                log.push((now + wait, None));
            }
            timers.check();
        }
        let mut timers = Lockstep::new();
        let mut log = Vec::new();
        let sweep = SimTime::from_secs(5);
        timers.schedule(sweep, usize::MAX);
        timers.schedule(t(1), 0);
        tick(&mut timers, t(1), &mut log);
        // An idle wake-up, then a burst of datagrams arms a timer each.
        tick(&mut timers, t(20), &mut log);
        for i in 1..=50_000 {
            timers.schedule(t(20 + 25), i);
        }
        let q = &timers.wheel;
        assert!(q.pending.is_empty(), "burst ahead of the loop's clock went to pending");
        assert!(q.cursor <= t(20).as_micros());
        // One overdue timer: the wait must collapse to zero, not 25 ms.
        timers.schedule(t(15), 50_001);
        assert_eq!(timers.next_due_in(t(20)), Some(SimDuration::ZERO));
        tick(&mut timers, t(20), &mut log);
        tick(&mut timers, t(45), &mut log);
        tick(&mut timers, sweep, &mut log);
        // The waits are exact: the sweep while idle, the burst once armed.
        let waits: Vec<SimTime> =
            log.iter().filter(|(_, id)| id.is_none()).map(|&(at, _)| at).collect();
        assert_eq!(waits, [sweep, sweep, t(45), sweep]);
        assert_eq!(log.len(), 50_003 + waits.len());
        assert!(timers.wheel.is_empty());
    }

    #[test]
    fn schedule_at_or_before_cursor_still_pops_in_order() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 10);
        assert_eq!(q.pop().unwrap().1, 10);
        // The cursor sits at 10ms now; earlier instants must still pop
        // first among what remains.
        q.schedule(t(20), 20);
        q.schedule(t(3), 3);
        q.schedule(t(7), 7);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![3, 7, 20]);
    }

    #[test]
    fn own_offset_slot_holds_next_rotation_entries() {
        // Regression: advance the cursor into the middle of a level-1
        // window, then schedule an event that hashes into the slot at the
        // cursor's own level-1 offset but one rotation ahead. The settle
        // scan must read that slot as a next-rotation candidate, not as a
        // tick behind the cursor.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(100), "a");
        assert_eq!(q.pop().unwrap().1, "a"); // cursor now at tick 100
        q.schedule(SimTime::from_micros(4160), "b"); // level-1 slot 1 == offset
        q.schedule(SimTime::from_micros(150), "c");
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(150), "c"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(4160), "b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_overflow_ticks_pop_correctly() {
        let mut q = EventQueue::new();
        // Beyond the 64^6-tick wheel horizon, including the maximum instant.
        q.schedule(SimTime::MAX, "max");
        q.schedule(SimTime::from_secs(200_000), "far");
        q.schedule(t(1), "near");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop().unwrap().1, "max");
        assert_eq!(q.pop(), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::Lockstep;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popping always yields a non-decreasing time sequence, and events
        /// scheduled at equal times preserve insertion order.
        #[test]
        fn pop_order_is_stable_sort(times in proptest::collection::vec(0u64..50, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &ms) in times.iter().enumerate() {
                q.schedule(SimTime::from_micros(ms), i);
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
            expected.sort(); // stable on (time, index)
            let got: Vec<(u64, usize)> =
                std::iter::from_fn(|| q.pop().map(|(t, i)| (t.as_micros(), i))).collect();
            prop_assert_eq!(got, expected);
        }
    }

    /// One step of a random queue workload, shaped like the queue's hosts:
    /// schedule at an absolute time drawn from a band (dense ties,
    /// sim-scale, or past-the-wheel-horizon overflow), schedule relative
    /// to the host's clock — the `frontier`: the last instant popped or
    /// the last horizon asked for — ahead of it (timers and latencies,
    /// same-instant bursts, the far-off long-term sweep) or behind it (the
    /// UDP runtime's overdue timers), pop, or drain up to a horizon the
    /// way `run_until` does.
    #[derive(Debug, Clone)]
    enum QueueOp {
        Schedule(u64),
        /// `burst` events at `frontier + delta`.
        ScheduleAtFrontier {
            delta: u64,
            burst: usize,
        },
        /// One event at `frontier + 5 s + jitter`.
        FarSweep(u64),
        /// One event `back` ticks before the frontier.
        ScheduleBehindFrontier(u64),
        Pop,
        /// Pop everything at or before `frontier + delta`, then move the
        /// frontier to that horizon.
        PopAtOrBefore(u64),
    }

    fn arb_queue_op() -> impl Strategy<Value = QueueOp> {
        prop_oneof![
            // Dense band: many same-instant ties.
            (0u64..40).prop_map(QueueOp::Schedule),
            // Simulation-scale micros (multi-level wheel traffic).
            (0u64..50_000_000).prop_map(QueueOp::Schedule),
            // Far-future overflow ticks, beyond the 64^6 wheel horizon.
            (crate::event::WHEEL_RANGE..u64::MAX).prop_map(QueueOp::Schedule),
            // Timer-like relative delays from the advancing frontier,
            // spanning several wheel levels.
            (0u64..300_000).prop_map(|delta| QueueOp::ScheduleAtFrontier { delta, burst: 1 }),
            // Same-instant re-arms and bursts of equal instants.
            (1usize..6).prop_map(|burst| QueueOp::ScheduleAtFrontier { delta: 0, burst }),
            (0u64..45_000, 2usize..6)
                .prop_map(|(delta, burst)| QueueOp::ScheduleAtFrontier { delta, burst }),
            (0u64..1_000_000).prop_map(QueueOp::FarSweep),
            (0u64..50_000).prop_map(QueueOp::ScheduleBehindFrontier),
            Just(QueueOp::Pop),
            Just(QueueOp::Pop),
            Just(QueueOp::Pop),
            Just(QueueOp::PopAtOrBefore(0)),
            (0u64..40_000).prop_map(QueueOp::PopAtOrBefore),
            (0u64..10_000_000).prop_map(QueueOp::PopAtOrBefore),
        ]
    }

    /// A host-shaped driver of the lockstep pair: it tracks the host's
    /// clock (the `frontier`) and checks both sides after every step.
    struct Host {
        q: Lockstep<usize>,
        frontier: u64,
    }

    impl Host {
        fn schedule(&mut self, us: u64) {
            let payload = self.q.wheel.scheduled_total() as usize;
            self.q.schedule(SimTime::from_micros(us), payload);
            self.q.check();
        }

        /// Pops both sides — up to `limit`, or unconditionally — and
        /// returns the popped instant.
        fn pop(&mut self, limit: Option<u64>) -> Option<u64> {
            let popped = match limit {
                Some(limit) => self.q.pop_at_or_before(SimTime::from_micros(limit)),
                None => self.q.pop(),
            };
            self.q.check();
            popped.map(|(t, _)| t.as_micros())
        }

        fn apply(&mut self, op: &QueueOp) {
            match *op {
                QueueOp::Schedule(us) => self.schedule(us),
                QueueOp::ScheduleAtFrontier { delta, burst } => {
                    for _ in 0..burst {
                        self.schedule(self.frontier.saturating_add(delta));
                    }
                }
                QueueOp::FarSweep(jitter) => {
                    self.schedule(self.frontier.saturating_add(5_000_000 + jitter));
                }
                QueueOp::ScheduleBehindFrontier(back) => {
                    self.schedule(self.frontier.saturating_sub(back));
                }
                QueueOp::Pop => {
                    if let Some(at) = self.pop(None) {
                        self.frontier = at;
                    }
                }
                QueueOp::PopAtOrBefore(delta) => {
                    let limit = self.frontier.saturating_add(delta);
                    while self.pop(Some(limit)).is_some() {}
                    self.frontier = limit;
                }
            }
        }
    }

    proptest! {
        /// Differential: random interleaved host-shaped schedule/pop
        /// sequences pop the identical `(time, seq-as-payload)` stream from
        /// the timing wheel and the sorted model — same-instant ties,
        /// far-future overflow ticks, horizon pops that come back empty,
        /// schedules behind the host's clock — with `peek_time`, `len` and
        /// the wheel's structural invariants checked after every step.
        #[test]
        fn wheel_matches_sorted_model(
            ops in proptest::collection::vec(arb_queue_op(), 0..400),
        ) {
            let mut host = Host { q: Lockstep::new(), frontier: 0 };
            for op in &ops {
                host.apply(op);
            }
            // Drain both completely; the tails must agree too.
            while host.pop(None).is_some() {}
            prop_assert!(host.q.wheel.is_empty());
        }
    }
}
