//! The two-phase message store.
//!
//! Every buffered message is in one of two phases (paper §3):
//!
//! * **Short-term** — entered on receipt. The entry tracks the last time a
//!   retransmission request for the message was seen; once
//!   `now − max(received_at, last_request) ≥ T` the message is *idle* and
//!   the owner decides (with probability `C/n`) whether to promote it to
//!   long-term or discard it.
//! * **Long-term** — a small random subset of members keeps idle messages
//!   around for stragglers and downstream regions. Entries track their last
//!   use (a served request or handoff) and expire after a long disuse
//!   timeout.
//!
//! The store is purely mechanical: *when* transitions happen is decided by
//! the [`Receiver`](crate::receiver::Receiver), which owns timers and
//! randomness. The store also maintains occupancy accounting (entry counts,
//! byte counts, and a byte×time integral) used by the buffering-cost
//! experiments.

use bytes::Bytes;
use rrmp_netsim::time::{SimDuration, SimTime};

use crate::ids::MessageId;
use crate::vecmap::VecMap;

/// Which phase a buffered message is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Feedback-based short-term buffering (§3.1).
    Short,
    /// Randomized long-term buffering (§3.2).
    Long,
}

/// Overload tier derived from a [`MemoryBudget`] and the current byte
/// occupancy. Ordered: `Normal < Pressure < Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureTier {
    /// Occupancy below the pressure threshold: no degradation.
    Normal,
    /// Occupancy at or above the pressure threshold: the receiver sheds
    /// long-term entries, least recently used first.
    Pressure,
    /// Occupancy at or above the critical threshold: decline to buffer
    /// for others (admission control) while still delivering locally.
    Critical,
}

/// A per-receiver memory budget with graceful-degradation thresholds.
///
/// Besides being the store's hard byte bound (enforced by eviction), the
/// budget drives *tiers*: [`PressureTier::Pressure`] starts at half the budget,
/// [`PressureTier::Critical`] at 85 percent.
/// Both thresholds are fixed integer fractions of the configured byte
/// count, so every receiver with the same budget degrades at exactly the
/// same occupancy — deterministic across engines and shard layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    budget: usize,
}

impl MemoryBudget {
    /// Percent of the budget at which the pressure tier starts.
    const PRESSURE_PCT: usize = 50;
    /// Percent of the budget at which the critical tier starts.
    const CRITICAL_PCT: usize = 85;

    /// A budget of `bytes` (must be non-zero; config validation enforces
    /// it upstream).
    #[must_use]
    pub fn new(bytes: usize) -> Self {
        MemoryBudget { budget: bytes.max(1) }
    }

    /// The configured budget in bytes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.budget
    }

    /// The occupancy (bytes) at which [`PressureTier::Pressure`] starts.
    #[must_use]
    pub fn pressure_threshold(&self) -> usize {
        self.budget / 100 * Self::PRESSURE_PCT + self.budget % 100 * Self::PRESSURE_PCT / 100
    }

    /// The occupancy (bytes) at which [`PressureTier::Critical`] starts.
    #[must_use]
    fn critical_threshold(&self) -> usize {
        self.budget / 100 * Self::CRITICAL_PCT + self.budget % 100 * Self::CRITICAL_PCT / 100
    }

    /// The tier for an occupancy of `used` bytes.
    #[must_use]
    pub fn tier(&self, used: usize) -> PressureTier {
        if used >= self.critical_threshold() {
            PressureTier::Critical
        } else if used >= self.pressure_threshold() {
            PressureTier::Pressure
        } else {
            PressureTier::Normal
        }
    }
}

/// A buffered message with its bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferEntry {
    /// The buffered payload.
    pub data: Bytes,
    /// Current phase.
    pub phase: Phase,
    /// When the message was first buffered here.
    pub received_at: SimTime,
    /// The last time a retransmission request for it was seen (equals
    /// `received_at` until a request arrives).
    pub last_request: SimTime,
    /// When the entry became idle and was promoted (long phase only).
    pub idled_at: Option<SimTime>,
    /// Last time the entry was *used*: served a request or was handed off.
    pub last_use: SimTime,
}

impl BufferEntry {
    /// The idle clock's reference point: the latest of receipt and last
    /// request seen (§3.1's "no request … for a time interval T").
    #[must_use]
    fn last_activity(&self) -> SimTime {
        self.received_at.max(self.last_request)
    }
}

/// The two-phase buffer holding message payloads.
///
/// Entries live in an id-sorted [`VecMap`] rather than a hash map: a
/// member buffers a handful of messages at a time, so a sorted search
/// (from the tail, where the newest ids are) beats hashing, and —
/// decisive at million-member scale — a one-entry store costs one
/// exact-sized allocation instead of a hash table's bucket array.
#[derive(Debug, Clone, Default)]
pub struct MessageStore {
    /// Buffered entries, sorted by message id (searched from the tail:
    /// the hot short-term entries are the newest ids, behind them sit the
    /// cold long-term ones).
    entries: VecMap<MessageId, BufferEntry>,
    /// Use-time-ordered index over **long-phase** entries only, keyed by
    /// `(last_use, id)`. Kept in lockstep by every mutation of a long
    /// entry's `last_use`, it answers the three long-phase sweeps without
    /// scanning the whole store: `expire_long_into` walks the stale
    /// prefix, `take_all_long` enumerates exactly the long entries, and
    /// budget eviction reads the LRU long entry from the front. A
    /// [`VecMap`] rather than a `BTreeSet` for the same reason as
    /// `entries`: the population is a handful of messages, and a B-tree's
    /// first element costs a whole leaf-node allocation per member.
    long_by_use: VecMap<(SimTime, MessageId), ()>,
    short_count: usize,
    long_count: usize,
    bytes: usize,
    /// Optional overload budget with pressure/critical tiers — the
    /// store's one byte bound: eviction keeps `bytes` ≤ budget
    /// structurally, on top of driving the graceful-degradation tiers.
    budget: Option<MemoryBudget>,
    /// Integral of buffered bytes over time, in byte·microseconds.
    byte_time: u128,
    last_change: SimTime,
    /// Peak concurrent entries, for load reporting.
    peak_entries: usize,
}

impl MessageStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        MessageStore::default()
    }

    /// Creates a store with an optional overload [`MemoryBudget`] of
    /// `budget` bytes. The budget is a hard byte bound: when an insert
    /// would exceed it, the least-recently-used **long-term** entries are
    /// evicted first (short-term entries are the §3.1 feedback phase and
    /// are only evicted if no long-term entry remains). This is the
    /// memory-pressure scenario the paper's §1 raises for repair servers
    /// with bounded space.
    #[must_use]
    pub fn with_budget(budget: Option<usize>) -> Self {
        MessageStore { budget: budget.map(MemoryBudget::new), ..MessageStore::default() }
    }

    /// The configured overload budget, if any.
    #[must_use]
    pub fn budget(&self) -> Option<MemoryBudget> {
        self.budget
    }

    /// The current pressure tier ([`PressureTier::Normal`] when no budget
    /// is configured).
    #[must_use]
    pub fn tier(&self) -> PressureTier {
        self.budget.map_or(PressureTier::Normal, |b| b.tier(self.bytes))
    }

    /// The least-recently-used long-phase entry, if any — the pressure
    /// hook's default early-discard victim.
    #[must_use]
    pub fn lru_long(&self) -> Option<MessageId> {
        self.long_by_use.iter().next().map(|((_, id), ())| id)
    }

    /// The budget invariant, checked after every mutation that can grow
    /// occupancy: accounted bytes never exceed the configured budget.
    fn assert_within_budget(&self) {
        debug_assert!(
            self.budget.is_none_or(|b| self.bytes <= b.bytes()),
            "buffered bytes {} exceed the memory budget {:?}",
            self.bytes,
            self.budget
        );
    }

    /// Evicts entries (LRU, long-term before short-term) until `incoming`
    /// more bytes for `id` fit under the budget. Returns the evicted ids,
    /// or `None`, evicting nothing, when `id` is already buffered or can
    /// never fit.
    fn make_room(
        &mut self,
        id: MessageId,
        incoming: usize,
        now: SimTime,
    ) -> Option<Vec<MessageId>> {
        let cap = self.budget.map_or(usize::MAX, |b| b.bytes());
        if self.contains(id) || incoming > cap {
            return None;
        }
        let mut evicted = Vec::new();
        while self.bytes + incoming > cap && !self.entries.is_empty() {
            // Oldest last_use; long-term entries strictly before short.
            // The LRU long-term entry is the front of the use-time index;
            // only a store with no long-term entries at all scans (the
            // short population, the last-resort victims).
            let victim = match self.lru_long() {
                Some(id) => id,
                None => self
                    .entries
                    .iter()
                    .min_by_key(|&(id, e)| (e.last_use, id))
                    .map(|(id, _)| id)
                    .expect("non-empty"),
            };
            self.discard(victim, now);
            evicted.push(victim);
        }
        Some(evicted)
    }

    /// Like [`MessageStore::insert_short`], but enforcing the budget;
    /// returns `(inserted, evicted_ids)`.
    pub fn insert_short_bounded(
        &mut self,
        id: MessageId,
        data: Bytes,
        now: SimTime,
    ) -> (bool, Vec<MessageId>) {
        let Some(evicted) = self.make_room(id, data.len(), now) else { return (false, Vec::new()) };
        let inserted = self.insert_short(id, data, now);
        self.assert_within_budget();
        (inserted, evicted)
    }

    /// Like [`MessageStore::insert_long`], but enforcing the budget;
    /// returns `(inserted, evicted_ids)`.
    pub fn insert_long_bounded(
        &mut self,
        id: MessageId,
        data: Bytes,
        now: SimTime,
    ) -> (bool, Vec<MessageId>) {
        let Some(evicted) = self.make_room(id, data.len(), now) else { return (false, Vec::new()) };
        let inserted = self.insert_long(id, data, now);
        self.assert_within_budget();
        (inserted, evicted)
    }

    fn advance_accounting(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_change).as_micros();
        self.byte_time += self.bytes as u128 * dt as u128;
        self.last_change = self.last_change.max(now);
    }

    /// Inserts a freshly received message in the short-term phase.
    /// Returns `false` (and changes nothing) if it is already buffered.
    pub fn insert_short(&mut self, id: MessageId, data: Bytes, now: SimTime) -> bool {
        if self.contains(id) {
            return false;
        }
        self.advance_accounting(now);
        self.bytes += data.len();
        self.short_count += 1;
        self.entries.insert(
            id,
            BufferEntry {
                data,
                phase: Phase::Short,
                received_at: now,
                last_request: now,
                idled_at: None,
                last_use: now,
            },
        );
        self.peak_entries = self.peak_entries.max(self.entries.len());
        true
    }

    /// Inserts a message directly into the long-term phase (buffer handoff
    /// from a leaving member, §3.2). Returns `false` if already buffered.
    pub fn insert_long(&mut self, id: MessageId, data: Bytes, now: SimTime) -> bool {
        if self.contains(id) {
            return false;
        }
        self.advance_accounting(now);
        self.bytes += data.len();
        self.long_count += 1;
        self.long_by_use.insert((now, id), ());
        self.entries.insert(
            id,
            BufferEntry {
                data,
                phase: Phase::Long,
                received_at: now,
                last_request: now,
                idled_at: Some(now),
                last_use: now,
            },
        );
        self.peak_entries = self.peak_entries.max(self.entries.len());
        true
    }

    /// Records that a retransmission request for `id` was observed,
    /// refreshing the idle clock (short phase) and the use clock (both
    /// phases). Returns `true` if the message is buffered here.
    pub fn note_request(&mut self, id: MessageId, now: SimTime) -> bool {
        let Some(e) = self.entries.get_mut(id) else { return false };
        e.last_request = e.last_request.max(now);
        if now > e.last_use {
            if e.phase == Phase::Long {
                self.long_by_use.remove((e.last_use, id));
                self.long_by_use.insert((now, id), ());
            }
            e.last_use = now;
        }
        true
    }

    /// Records that the entry served some purpose (repair sent, handoff) —
    /// refreshes only the long-term use clock.
    pub fn note_use(&mut self, id: MessageId, now: SimTime) {
        let Some(e) = self.entries.get_mut(id) else { return };
        if now > e.last_use {
            if e.phase == Phase::Long {
                self.long_by_use.remove((e.last_use, id));
                self.long_by_use.insert((now, id), ());
            }
            e.last_use = now;
        }
    }

    /// The buffered payload for `id`, if present (cheap clone of [`Bytes`]).
    #[must_use]
    pub fn get(&self, id: MessageId) -> Option<Bytes> {
        self.entries.get(id).map(|e| e.data.clone())
    }

    /// Whether `id` is buffered (either phase).
    #[must_use]
    pub fn contains(&self, id: MessageId) -> bool {
        self.entries.contains_key(id)
    }

    /// The phase of `id`, if buffered.
    #[must_use]
    pub fn phase(&self, id: MessageId) -> Option<Phase> {
        self.entries.get(id).map(|e| e.phase)
    }

    /// Full entry view for `id`, if buffered.
    #[must_use]
    pub fn entry(&self, id: MessageId) -> Option<&BufferEntry> {
        self.entries.get(id)
    }

    /// The idle-clock reference (`max(received_at, last_request)`) for a
    /// short-phase entry; `None` if absent or already long-term.
    #[must_use]
    pub fn short_last_activity(&self, id: MessageId) -> Option<SimTime> {
        self.entries.get(id).filter(|e| e.phase == Phase::Short).map(BufferEntry::last_activity)
    }

    /// Promotes a short-phase entry to the long-term phase. Returns `false`
    /// if the entry is absent or already long-term.
    pub fn promote_to_long(&mut self, id: MessageId, now: SimTime) -> bool {
        let Some(e) = self.entries.get_mut(id) else { return false };
        if e.phase != Phase::Short {
            return false;
        }
        e.phase = Phase::Long;
        e.idled_at = Some(now);
        self.long_by_use.insert((e.last_use, id), ());
        self.short_count -= 1;
        self.long_count += 1;
        true
    }

    /// Removes an entry; returns it if it was present.
    pub fn discard(&mut self, id: MessageId, now: SimTime) -> Option<BufferEntry> {
        let e = self.entries.remove(id)?;
        self.advance_accounting(now);
        self.bytes -= e.data.len();
        match e.phase {
            Phase::Short => self.short_count -= 1,
            Phase::Long => {
                self.long_count -= 1;
                self.long_by_use.remove((e.last_use, id));
            }
        }
        Some(e)
    }

    /// Appends the ids of long-phase entries unused for at least
    /// `timeout` to `expired` (in ascending id order, matching the
    /// historical contract) and discards them. The periodic long-term
    /// sweep calls this with a caller-owned scratch buffer: the cost is
    /// O(expired) index walks — not a scan of every buffered entry — and
    /// zero allocation in the steady state where nothing expires.
    pub fn expire_long_into(
        &mut self,
        now: SimTime,
        timeout: SimDuration,
        expired: &mut Vec<MessageId>,
    ) {
        // `now - last_use >= timeout` ⇔ `last_use <= now - timeout`; with
        // `timeout > now` nothing can qualify (saturating arithmetic).
        let Some(cutoff) = now.as_micros().checked_sub(timeout.as_micros()) else { return };
        let cutoff = SimTime::from_micros(cutoff);
        let start = expired.len();
        for ((last_use, id), ()) in self.long_by_use.iter() {
            if last_use > cutoff {
                break; // index is use-time-ordered: the rest are fresher
            }
            expired.push(id);
        }
        expired[start..].sort_unstable();
        let (_, stale) = expired.split_at(start);
        for &id in stale {
            self.discard(id, now);
        }
    }

    /// Discards every entry (a crash losing its memory). Returns how many
    /// entries were dropped.
    pub fn drain_all(&mut self, now: SimTime) -> usize {
        let ids: Vec<MessageId> = self.entries.iter().map(|(id, _)| id).collect();
        let n = ids.len();
        for id in ids {
            self.discard(id, now);
        }
        n
    }

    /// Removes and returns every long-phase entry (for leave-time handoff),
    /// in id order. Enumerates only the long-phase index — a store full
    /// of short-term entries pays nothing for a leaver's handoff.
    pub fn take_all_long(&mut self, now: SimTime) -> Vec<(MessageId, Bytes)> {
        let mut ids: Vec<MessageId> = self.long_by_use.iter().map(|((_, id), ())| id).collect();
        ids.sort_unstable();
        ids.into_iter()
            .map(|id| {
                let e = self.discard(id, now).expect("id just enumerated");
                (id, e.data)
            })
            .collect()
    }

    /// Number of short-phase entries.
    #[must_use]
    pub fn short_count(&self) -> usize {
        self.short_count
    }

    /// Number of long-phase entries.
    #[must_use]
    pub fn long_count(&self) -> usize {
        self.long_count
    }

    /// Total entries in either phase.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total buffered payload bytes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Peak concurrent entry count observed.
    #[must_use]
    pub fn peak_entries(&self) -> usize {
        self.peak_entries
    }

    /// The byte×time integral (byte·µs) up to `now` — the buffering *cost*
    /// metric compared across policies in the ablation experiments.
    #[must_use]
    pub fn byte_time_integral(&self, now: SimTime) -> u128 {
        let dt = now.saturating_since(self.last_change).as_micros();
        self.byte_time + self.bytes as u128 * dt as u128
    }

    /// Iterates over buffered entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (MessageId, &BufferEntry)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SeqNo;
    use rrmp_netsim::topology::NodeId;

    fn mid(seq: u64) -> MessageId {
        MessageId::new(NodeId(0), SeqNo(seq))
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn payload(n: usize) -> Bytes {
        Bytes::from(vec![0u8; n])
    }

    #[test]
    fn insert_get_counts() {
        let mut s = MessageStore::new();
        assert!(s.insert_short(mid(1), payload(10), t(0)));
        assert!(!s.insert_short(mid(1), payload(10), t(1)));
        assert!(s.contains(mid(1)));
        assert_eq!(s.get(mid(1)).unwrap().len(), 10);
        assert_eq!(s.phase(mid(1)), Some(Phase::Short));
        assert_eq!(s.short_count(), 1);
        assert_eq!(s.long_count(), 0);
        assert_eq!(s.bytes(), 10);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn request_refreshes_idle_clock() {
        let mut s = MessageStore::new();
        s.insert_short(mid(1), payload(1), t(0));
        assert_eq!(s.short_last_activity(mid(1)), Some(t(0)));
        assert!(s.note_request(mid(1), t(25)));
        assert_eq!(s.short_last_activity(mid(1)), Some(t(25)));
        // Requests never move the clock backwards.
        s.note_request(mid(1), t(10));
        assert_eq!(s.short_last_activity(mid(1)), Some(t(25)));
        assert!(!s.note_request(mid(9), t(30)));
    }

    #[test]
    fn promote_and_phase_counts() {
        let mut s = MessageStore::new();
        s.insert_short(mid(1), payload(4), t(0));
        assert!(s.promote_to_long(mid(1), t(40)));
        assert!(!s.promote_to_long(mid(1), t(41)));
        assert_eq!(s.phase(mid(1)), Some(Phase::Long));
        assert_eq!(s.short_count(), 0);
        assert_eq!(s.long_count(), 1);
        assert_eq!(s.entry(mid(1)).unwrap().idled_at, Some(t(40)));
        assert_eq!(s.short_last_activity(mid(1)), None);
    }

    #[test]
    fn discard_updates_accounting() {
        let mut s = MessageStore::new();
        s.insert_short(mid(1), payload(100), t(0));
        let e = s.discard(mid(1), t(50)).unwrap();
        assert_eq!(e.data.len(), 100);
        assert!(s.is_empty());
        assert_eq!(s.bytes(), 0);
        assert!(s.discard(mid(1), t(51)).is_none());
        // 100 bytes held for 50ms.
        assert_eq!(s.byte_time_integral(t(50)), 100 * 50_000);
    }

    #[test]
    fn byte_time_integral_accumulates() {
        let mut s = MessageStore::new();
        s.insert_short(mid(1), payload(10), t(0));
        s.insert_short(mid(2), payload(10), t(10)); // 10 bytes for 10ms so far
        assert_eq!(s.byte_time_integral(t(10)), 10 * 10_000);
        // Then 20 bytes for 10 more ms.
        assert_eq!(s.byte_time_integral(t(20)), 10 * 10_000 + 20 * 10_000);
    }

    #[test]
    fn expire_long_respects_last_use() {
        let mut s = MessageStore::new();
        s.insert_short(mid(1), payload(1), t(0));
        s.promote_to_long(mid(1), t(40));
        s.insert_long(mid(2), payload(1), t(40));
        // Use message 2 at t=900.
        s.note_use(mid(2), t(900));
        let mut expired = Vec::new();
        s.expire_long_into(t(1040), SimDuration::from_millis(1000), &mut expired);
        assert_eq!(expired, vec![mid(1)]);
        assert!(s.contains(mid(2)));
        // Short entries never expire via this path.
        s.insert_short(mid(3), payload(1), t(0));
        expired.clear();
        s.expire_long_into(t(10_000), SimDuration::from_millis(1), &mut expired);
        assert_eq!(expired, vec![mid(2)]);
        assert!(s.contains(mid(3)));
    }

    #[test]
    fn expire_long_into_reuses_scratch_and_respects_refreshes() {
        let mut s = MessageStore::new();
        s.insert_long(mid(1), payload(1), t(0));
        s.insert_long(mid(2), payload(1), t(0));
        s.insert_long(mid(3), payload(1), t(0));
        // Refresh 2 late and 1 via a request (both reorder the index).
        s.note_use(mid(2), t(500));
        s.note_request(mid(1), t(600));
        let mut scratch = Vec::new();
        s.expire_long_into(t(1000), SimDuration::from_millis(1000), &mut scratch);
        assert_eq!(scratch, vec![mid(3)], "only the never-refreshed entry expires");
        scratch.clear();
        // A timeout longer than `now` can expire nothing.
        s.expire_long_into(t(1000), SimDuration::from_secs(10), &mut scratch);
        assert!(scratch.is_empty());
        s.expire_long_into(t(2000), SimDuration::from_millis(1000), &mut scratch);
        assert_eq!(scratch, vec![mid(1), mid(2)], "ascending id order");
        assert!(s.is_empty());
    }

    #[test]
    fn take_all_long_drains_only_long() {
        let mut s = MessageStore::new();
        s.insert_short(mid(1), payload(1), t(0));
        s.insert_long(mid(2), payload(2), t(0));
        s.insert_long(mid(3), payload(3), t(0));
        let taken = s.take_all_long(t(5));
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0].0, mid(2));
        assert_eq!(taken[1].0, mid(3));
        assert_eq!(s.long_count(), 0);
        assert_eq!(s.short_count(), 1);
    }

    #[test]
    fn peak_entries_tracks_high_water() {
        let mut s = MessageStore::new();
        for i in 1..=5 {
            s.insert_short(mid(i), payload(1), t(i));
        }
        for i in 1..=4 {
            s.discard(mid(i), t(10 + i));
        }
        assert_eq!(s.peak_entries(), 5);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn capacity_evicts_lru_long_term_first() {
        let mut s = MessageStore::with_budget(Some(30));
        assert_eq!(s.budget().map(|b| b.bytes()), Some(30));
        s.insert_long_bounded(mid(1), payload(10), t(0));
        s.insert_long_bounded(mid(2), payload(10), t(1));
        s.insert_short_bounded(mid(3), payload(10), t(2));
        assert_eq!(s.bytes(), 30);
        // Touch message 1 so message 2 becomes the LRU long-term entry.
        s.note_use(mid(1), t(5));
        let (inserted, evicted) = s.insert_short_bounded(mid(4), payload(10), t(6));
        assert!(inserted);
        assert_eq!(evicted, vec![mid(2)], "LRU long-term entry must go first");
        assert!(s.contains(mid(3)), "short-term survives while long-term exists");
        assert!(s.bytes() <= 30);
    }

    #[test]
    fn capacity_evicts_short_only_as_last_resort() {
        let mut s = MessageStore::with_budget(Some(20));
        s.insert_short_bounded(mid(1), payload(10), t(0));
        s.insert_short_bounded(mid(2), payload(10), t(1));
        let (inserted, evicted) = s.insert_short_bounded(mid(3), payload(10), t(2));
        assert!(inserted);
        assert_eq!(evicted, vec![mid(1)], "oldest short-term entry evicted");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn oversized_payload_is_rejected_outright() {
        let mut s = MessageStore::with_budget(Some(5));
        let (inserted, evicted) = s.insert_short_bounded(mid(1), payload(10), t(0));
        assert!(!inserted);
        assert!(evicted.is_empty());
        assert!(s.is_empty());
        let (inserted, _) = s.insert_long_bounded(mid(1), payload(10), t(0));
        assert!(!inserted);
    }

    #[test]
    fn unbounded_store_never_evicts() {
        let mut s = MessageStore::new();
        for i in 0..100 {
            let (inserted, evicted) = s.insert_short_bounded(mid(i), payload(100), t(i));
            assert!(inserted);
            assert!(evicted.is_empty());
        }
        assert_eq!(s.bytes(), 10_000);
    }

    #[test]
    fn budget_tiers_track_occupancy() {
        let b = MemoryBudget::new(100);
        assert_eq!(b.pressure_threshold(), 50);
        assert_eq!(b.critical_threshold(), 85);
        assert_eq!(b.tier(0), PressureTier::Normal);
        assert_eq!(b.tier(49), PressureTier::Normal);
        assert_eq!(b.tier(50), PressureTier::Pressure);
        assert_eq!(b.tier(84), PressureTier::Pressure);
        assert_eq!(b.tier(85), PressureTier::Critical);
        assert_eq!(b.tier(1000), PressureTier::Critical);
        assert!(PressureTier::Normal < PressureTier::Pressure);
        assert!(PressureTier::Pressure < PressureTier::Critical);
        // Threshold arithmetic stays exact for budgets that are not a
        // multiple of 100 and never overflows for huge budgets.
        let odd = MemoryBudget::new(130);
        assert_eq!(odd.pressure_threshold(), 65);
        let huge = MemoryBudget::new(usize::MAX);
        assert!(huge.pressure_threshold() < huge.critical_threshold());
    }

    #[test]
    fn budget_acts_as_capacity_and_reports_tier() {
        let mut s = MessageStore::with_budget(Some(100));
        assert_eq!(s.budget().unwrap().bytes(), 100);
        assert_eq!(s.tier(), PressureTier::Normal);
        s.insert_long_bounded(mid(1), payload(40), t(0));
        assert_eq!(s.tier(), PressureTier::Normal);
        s.insert_long_bounded(mid(2), payload(20), t(1));
        assert_eq!(s.tier(), PressureTier::Pressure);
        s.insert_short_bounded(mid(3), payload(30), t(2));
        assert_eq!(s.tier(), PressureTier::Critical);
        assert_eq!(s.lru_long(), Some(mid(1)));
        // The budget is also a hard bound: the next insert evicts the
        // LRU long entry rather than exceeding it.
        let (inserted, evicted) = s.insert_short_bounded(mid(4), payload(20), t(3));
        assert!(inserted);
        assert_eq!(evicted, vec![mid(1)]);
        assert!(s.bytes() <= 100);
        // An oversized payload is rejected against the budget too.
        let (inserted, _) = s.insert_short_bounded(mid(5), payload(200), t(4));
        assert!(!inserted);
    }

    #[test]
    fn insert_long_direct_handoff() {
        let mut s = MessageStore::new();
        assert!(s.insert_long(mid(9), payload(7), t(3)));
        assert!(!s.insert_long(mid(9), payload(7), t(4)));
        assert_eq!(s.phase(mid(9)), Some(Phase::Long));
        assert_eq!(s.entry(mid(9)).unwrap().idled_at, Some(t(3)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ids::SeqNo;
    use proptest::prelude::*;
    use rrmp_netsim::topology::NodeId;

    #[derive(Debug, Clone)]
    enum Op {
        InsertShort(u64, usize),
        InsertLong(u64, usize),
        Request(u64),
        Use(u64),
        Promote(u64),
        Discard(u64),
        ExpireLong(u64),
        TakeAllLong,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..20, 0usize..64).prop_map(|(i, n)| Op::InsertShort(i, n)),
            (0u64..20, 0usize..64).prop_map(|(i, n)| Op::InsertLong(i, n)),
            (0u64..20).prop_map(Op::Request),
            (0u64..20).prop_map(Op::Use),
            (0u64..20).prop_map(Op::Promote),
            (0u64..20).prop_map(Op::Discard),
            (0u64..50).prop_map(Op::ExpireLong),
            Just(Op::TakeAllLong),
        ]
    }

    proptest! {
        /// Counters (short/long/bytes/len) always agree with the entry
        /// map, the long-phase use-time index always mirrors the long
        /// entries exactly, and the index-driven sweeps (`expire_long_into`,
        /// `take_all_long`) match what a naive full scan would compute —
        /// under any operation sequence.
        #[test]
        fn accounting_is_consistent(ops in proptest::collection::vec(arb_op(), 0..200)) {
            let mut s = MessageStore::new();
            let mid = |i: u64| MessageId::new(NodeId(0), SeqNo(i));
            for (step, op) in ops.into_iter().enumerate() {
                let now = SimTime::from_micros(step as u64 * 3);
                match op {
                    Op::InsertShort(i, n) => { s.insert_short(mid(i), Bytes::from(vec![0; n]), now); }
                    Op::InsertLong(i, n) => { s.insert_long(mid(i), Bytes::from(vec![0; n]), now); }
                    Op::Request(i) => { s.note_request(mid(i), now); }
                    Op::Use(i) => { s.note_use(mid(i), now); }
                    Op::Promote(i) => { s.promote_to_long(mid(i), now); }
                    Op::Discard(i) => { s.discard(mid(i), now); }
                    Op::ExpireLong(timeout_us) => {
                        let timeout = SimDuration::from_micros(timeout_us);
                        // Naive model: scan every entry the way the
                        // pre-index implementation did.
                        let mut naive: Vec<MessageId> = s
                            .iter()
                            .filter(|(_, e)| {
                                e.phase == Phase::Long
                                    && now.saturating_since(e.last_use) >= timeout
                            })
                            .map(|(id, _)| id)
                            .collect();
                        naive.sort();
                        let mut expired = Vec::new();
                        s.expire_long_into(now, timeout, &mut expired);
                        prop_assert_eq!(expired, naive);
                    }
                    Op::TakeAllLong => {
                        let mut naive: Vec<MessageId> = s
                            .iter()
                            .filter(|(_, e)| e.phase == Phase::Long)
                            .map(|(id, _)| id)
                            .collect();
                        naive.sort();
                        let taken = s.take_all_long(now);
                        let ids: Vec<MessageId> = taken.iter().map(|&(id, _)| id).collect();
                        prop_assert_eq!(ids, naive);
                    }
                }
                let shorts = s.iter().filter(|(_, e)| e.phase == Phase::Short).count();
                let longs = s.iter().filter(|(_, e)| e.phase == Phase::Long).count();
                let bytes: usize = s.iter().map(|(_, e)| e.data.len()).sum();
                prop_assert_eq!(s.short_count(), shorts);
                prop_assert_eq!(s.long_count(), longs);
                prop_assert_eq!(s.bytes(), bytes);
                prop_assert_eq!(s.len(), shorts + longs);
                prop_assert!(s.peak_entries() >= s.len());
                // The use-time index holds exactly the long entries, each
                // under its current last_use key.
                let mut index_ids: Vec<(SimTime, MessageId)> = s
                    .iter()
                    .filter(|(_, e)| e.phase == Phase::Long)
                    .map(|(id, e)| (e.last_use, id))
                    .collect();
                index_ids.sort();
                let index: Vec<(SimTime, MessageId)> = s.long_by_use.iter().map(|(k, ())| k).collect();
                prop_assert_eq!(index, index_ids);
            }
        }
    }
}
