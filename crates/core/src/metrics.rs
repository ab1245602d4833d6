//! Per-receiver protocol metrics and the per-message buffering log.
//!
//! The experiment harness reconstructs every figure of the paper from
//! these: Figure 6/7 need per-message buffering intervals
//! ([`BufferRecord`]), Figure 8/9 need repair/search timestamps
//! ([`ProtocolEvent`]), and the ablations compare the counter block
//! ([`Counters`]) across policies.

use rrmp_netsim::time::SimTime;
use rrmp_netsim::topology::NodeId;

use crate::ids::MessageId;
use crate::vecmap::{reserve_doubling, search_from_tail};

/// Monotone counters of protocol activity on one receiver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Messages delivered to the application.
    pub delivered: u64,
    /// Duplicate data receptions (already had the message).
    pub duplicates: u64,
    /// Local retransmission requests sent.
    pub local_requests_sent: u64,
    /// Local retransmission requests received.
    pub local_requests_received: u64,
    /// Remote retransmission requests sent.
    pub remote_requests_sent: u64,
    /// Remote retransmission requests received.
    pub remote_requests_received: u64,
    /// Repairs sent answering local requests.
    pub repairs_sent_local: u64,
    /// Repairs sent across regions (remote answers, relays, search hits).
    pub repairs_sent_remote: u64,
    /// Repairs received (either kind).
    pub repairs_received: u64,
    /// Regional repair multicasts sent.
    pub regional_multicasts_sent: u64,
    /// Regional repair multicasts suppressed by the back-off scheme.
    pub regional_multicasts_suppressed: u64,
    /// Searches started on behalf of downstream requesters.
    pub searches_started: u64,
    /// Search requests this member joined (it had discarded the message).
    pub searches_joined: u64,
    /// Search probes forwarded.
    pub search_forwards: u64,
    /// "I have the message" announcements multicast.
    pub search_found_sent: u64,
    /// Handoff messages sent at leave time.
    pub handoffs_sent: u64,
    /// Handoff messages received.
    pub handoffs_received: u64,
    /// Short-term entries that became idle (§3.1 transitions).
    pub idle_transitions: u64,
    /// Idle messages kept as long-term bufferer (won the C/n draw).
    pub long_term_kept: u64,
    /// Idle messages discarded (lost the C/n draw).
    pub discarded_at_idle: u64,
    /// Long-term entries discarded by the disuse sweep.
    pub long_term_expired: u64,
    /// Recovery efforts abandoned after hitting a retry cap.
    pub recovery_gave_up: u64,
    /// Recovery efforts re-armed by a heal notification (exhausted
    /// searches restarted, abandoned pulls retried after a partition,
    /// blackout, or stall window ended).
    pub heal_rearms: u64,
    /// Buffer entries evicted to respect the configured byte capacity.
    pub evicted_for_capacity: u64,
    /// Waiting-list relays performed (repair forwarded on later receipt).
    pub relays_performed: u64,
    /// History digests advertised (stability detection's standing cost).
    pub history_digests_sent: u64,
    /// History digests received from peers.
    pub history_digests_received: u64,
    /// Buffer entries discarded because the group-wide stability
    /// frontier passed them.
    pub stable_discards: u64,
    /// Pull/remote-request rounds shed by the repair-storm token bucket
    /// (each round stays queued on its retry timer — shed, not lost).
    pub requests_shed: u64,
    /// Previously shed recovery efforts whose next round did fire.
    pub shed_retried: u64,
    /// Pull rounds skipped because a peer's request for the same message
    /// was overheard within the suppression window.
    pub requests_suppressed: u64,
    /// Regional re-multicasts deferred by the token bucket (the backoff
    /// state is kept and the timer re-armed — deferred, not dropped).
    pub remulticasts_shed: u64,
    /// Long-term entries discarded early by the pressure-tier hook.
    pub pressure_discards: u64,
    /// Buffering declined for others while in the critical tier (the
    /// message was still delivered locally).
    pub admission_declined: u64,
    /// Wedged recovery efforts re-armed by the liveness watchdog.
    pub watchdog_rearms: u64,
}

/// Lifecycle of one message in one member's buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferRecord {
    /// When the message was first received here.
    pub received_at: Option<SimTime>,
    /// When it transitioned to idle (short-term phase ended).
    pub idled_at: Option<SimTime>,
    /// Whether this member kept it as a long-term bufferer.
    pub kept_long_term: bool,
    /// When the payload left the buffer entirely.
    pub discarded_at: Option<SimTime>,
}

impl BufferRecord {
    /// Duration of the short-term (feedback) phase, if completed — the
    /// quantity plotted in the paper's Figure 6.
    #[must_use]
    pub fn short_term_duration(&self) -> Option<rrmp_netsim::time::SimDuration> {
        match (self.received_at, self.idled_at) {
            (Some(r), Some(i)) => Some(i.saturating_since(r)),
            _ => None,
        }
    }
}

/// A timestamped protocol event kept for experiment analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolEvent {
    /// A repair crossing regions was sent to `to`.
    RemoteRepairSent {
        /// Destination (the downstream waiter).
        to: NodeId,
    },
    /// A search was started for a discarded message.
    SearchStarted,
    /// This member joined an ongoing search.
    SearchJoined,
    /// This member answered a search (it was a bufferer).
    SearchAnswered {
        /// The downstream waiter that receives the repair.
        origin: NodeId,
    },
    /// A regional repair multicast was transmitted.
    RegionalMulticast,
}

/// One message's [`BufferRecord`], packed: a stamp is microseconds with
/// [`Slot::NONE`] for "not yet" (so a stamp of exactly `SimTime::MAX`
/// reads back as `None`), and the flags say whether any setter ever
/// touched the slot — padding inside a run is untouched — and whether
/// the message was kept long-term.
#[derive(Debug, Clone, Copy)]
struct Slot {
    received_at: u64,
    idled_at: u64,
    discarded_at: u64,
    flags: u8,
}

impl Slot {
    const NONE: u64 = u64::MAX;
    const TOUCHED: u8 = 1;
    const KEPT: u8 = 2;
    const UNTOUCHED: Slot =
        Slot { received_at: Slot::NONE, idled_at: Slot::NONE, discarded_at: Slot::NONE, flags: 0 };

    fn record(&self) -> Option<BufferRecord> {
        let stamp = |raw: u64| (raw != Slot::NONE).then(|| SimTime::from_micros(raw));
        (self.flags & Slot::TOUCHED != 0).then(|| BufferRecord {
            received_at: stamp(self.received_at),
            idled_at: stamp(self.idled_at),
            kept_long_term: self.flags & Slot::KEPT != 0,
            discarded_at: stamp(self.discarded_at),
        })
    }
}

/// A dense run of slots for consecutive sequence numbers of one source:
/// slot `i` belongs to `first_seq + i`. The first slot is inline, so a
/// run of one — all a member that saw a single message ever holds, and
/// there are a million such members in the scaling workloads — is its
/// 72 B entry in the run table and no second allocation.
#[derive(Debug, Clone)]
struct Run {
    source: NodeId,
    first_seq: u64,
    head: Slot,
    rest: Vec<Slot>,
}

impl Run {
    /// The longest hole (in slots) that extending a run pads over. A
    /// wider one — a late-join floor, a burst outage, a hostile sequence
    /// number — starts a new run instead, so a record never costs more
    /// than `MAX_GAP + 1` slots however sparse the ids are.
    const MAX_GAP: u64 = 16;

    fn key(&self) -> (NodeId, u64) {
        (self.source, self.first_seq)
    }

    /// Whether `id` lies inside this run or close enough behind its end to
    /// extend it. Only asked of the run sorted directly before `id`.
    fn reaches(&self, id: MessageId) -> bool {
        self.source == id.source
            && id.seq.0 - self.first_seq <= self.rest.len() as u64 + 1 + Run::MAX_GAP
    }

    fn slot(&self, seq: u64) -> Option<&Slot> {
        match usize::try_from(seq - self.first_seq).ok()? {
            0 => Some(&self.head),
            i => self.rest.get(i - 1),
        }
    }

    /// The slot of `seq`, which this run [`reaches`](Run::reaches);
    /// pads with untouched slots up to it.
    fn slot_mut(&mut self, seq: u64) -> &mut Slot {
        // At most `len + MAX_GAP`, by `reaches`.
        let i = (seq - self.first_seq) as usize;
        if i == 0 {
            return &mut self.head;
        }
        while self.rest.len() < i {
            reserve_doubling(&mut self.rest);
            self.rest.push(Slot::UNTOUCHED);
        }
        &mut self.rest[i - 1]
    }
}

/// Per-receiver metrics: counters, buffer log, event log.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Counter block.
    pub counters: Counters,
    /// Per-message lifecycle records as dense runs, sorted by
    /// `(source, first_seq)` and disjoint. A stream appends to the last
    /// run: one probe of the run table, then an index, no key stored per
    /// record. A hole wider than [`Run::MAX_GAP`] or another source opens
    /// a new run, found from the tail like every per-message table.
    runs: Vec<Run>,
    events: Vec<(SimTime, MessageId, ProtocolEvent)>,
    record_events: bool,
}

impl Metrics {
    /// Creates metrics; `record_events` controls whether the event log is
    /// populated (counter and buffer-log upkeep is always on).
    #[must_use]
    pub fn new(record_events: bool) -> Self {
        Metrics { record_events, ..Metrics::default() }
    }

    /// Index of the run sorted directly at or before `id` — the only one
    /// that can hold it, and the one a run opening at `id` goes after.
    fn run_before(&self, id: MessageId) -> Option<usize> {
        match search_from_tail(&self.runs, (id.source, id.seq.0), Run::key) {
            Ok(i) => Some(i),
            Err(i) => i.checked_sub(1),
        }
    }

    /// The per-message buffer lifecycle record; `None` for a message no
    /// setter was ever called for.
    #[must_use]
    pub fn buffer_record(&self, id: MessageId) -> Option<BufferRecord> {
        let run = &self.runs[self.run_before(id)?];
        if run.source != id.source {
            return None;
        }
        run.slot(id.seq.0)?.record()
    }

    /// The slot of `id`, marked touched (created on first touch).
    fn slot_mut(&mut self, id: MessageId) -> &mut Slot {
        let before = self.run_before(id);
        let i = match before {
            Some(i) if self.runs[i].reaches(id) => i,
            _ => {
                let i = before.map_or(0, |i| i + 1);
                reserve_doubling(&mut self.runs);
                let (source, first_seq) = (id.source, id.seq.0);
                self.runs
                    .insert(i, Run { source, first_seq, head: Slot::UNTOUCHED, rest: Vec::new() });
                i
            }
        };
        let slot = self.runs[i].slot_mut(id.seq.0);
        slot.flags |= Slot::TOUCHED;
        slot
    }

    /// Records when `id` was first received here.
    pub fn note_received(&mut self, id: MessageId, at: SimTime) {
        self.slot_mut(id).received_at = at.as_micros();
    }

    /// Records when `id` became idle (its short-term phase ended).
    pub fn note_idled(&mut self, id: MessageId, at: SimTime) {
        self.slot_mut(id).idled_at = at.as_micros();
    }

    /// Records that this member kept `id` as a long-term bufferer.
    pub fn note_kept(&mut self, id: MessageId) {
        self.slot_mut(id).flags |= Slot::KEPT;
    }

    /// Records when the payload of `id` left the buffer.
    pub fn note_discarded(&mut self, id: MessageId, at: SimTime) {
        self.slot_mut(id).discarded_at = at.as_micros();
    }

    /// Records that `id` is buffered again (a handoff re-delivered a
    /// payload this member had discarded).
    pub fn clear_discarded(&mut self, id: MessageId) {
        self.slot_mut(id).discarded_at = Slot::NONE;
    }

    /// Slots the buffer log holds memory for, touched or not.
    #[cfg(test)]
    pub(crate) fn slots_allocated(&self) -> usize {
        self.runs.iter().map(|r| 1 + r.rest.capacity()).sum()
    }

    /// Records a protocol event (no-op unless event recording is on).
    pub fn record_event(&mut self, at: SimTime, id: MessageId, event: ProtocolEvent) {
        if self.record_events {
            self.events.push((at, id, event));
        }
    }

    /// The recorded events in order.
    #[must_use]
    pub fn events(&self) -> &[(SimTime, MessageId, ProtocolEvent)] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SeqNo;
    use rrmp_netsim::time::SimDuration;

    fn mid(seq: u64) -> MessageId {
        MessageId::new(NodeId(0), SeqNo(seq))
    }

    #[test]
    fn buffer_record_duration() {
        let mut m = Metrics::new(true);
        m.note_received(mid(1), SimTime::from_millis(10));
        m.note_idled(mid(1), SimTime::from_millis(60));
        assert_eq!(
            m.buffer_record(mid(1)).unwrap().short_term_duration(),
            Some(SimDuration::from_millis(50))
        );
        assert_eq!(m.buffer_record(mid(2)), None);
        let incomplete = BufferRecord { received_at: Some(SimTime::ZERO), ..Default::default() };
        assert_eq!(incomplete.short_term_duration(), None);
    }

    #[test]
    fn packed_record_fits_32_bytes() {
        assert!(std::mem::size_of::<Slot>() <= 32);
    }

    #[test]
    fn setters_round_trip_and_padding_reads_none() {
        let mut m = Metrics::new(false);
        let t = SimTime::from_millis;
        m.note_received(mid(1), t(1));
        m.note_received(mid(4), t(4)); // pads #2 and #3
        m.note_idled(mid(4), t(44));
        m.note_kept(mid(4));
        m.note_discarded(mid(4), t(50));
        assert_eq!(m.buffer_record(mid(2)), None, "padding is not a record");
        assert_eq!(m.buffer_record(mid(0)), None);
        assert_eq!(m.buffer_record(MessageId::new(NodeId(1), SeqNo(1))), None);
        let full = BufferRecord {
            received_at: Some(t(4)),
            idled_at: Some(t(44)),
            kept_long_term: true,
            discarded_at: Some(t(50)),
        };
        assert_eq!(m.buffer_record(mid(4)), Some(full));
        m.clear_discarded(mid(4));
        assert_eq!(m.buffer_record(mid(4)), Some(BufferRecord { discarded_at: None, ..full }));
        // A first touch through any setter creates the record.
        m.clear_discarded(mid(3));
        assert_eq!(m.buffer_record(mid(3)), Some(BufferRecord::default()));
        assert_eq!(m.buffer_record(mid(2)), None);
        assert_eq!(m.runs.len(), 1);
    }

    #[test]
    fn one_message_costs_one_exact_allocation() {
        let mut m = Metrics::new(false);
        m.note_received(mid(1_000_000), SimTime::ZERO);
        assert_eq!(m.runs.capacity(), 1);
        assert_eq!(m.runs[0].rest.capacity(), 0, "the first slot is inline in the run table");
        assert!(std::mem::size_of::<Run>() <= 72);
    }

    #[test]
    fn wide_gaps_cost_a_run_not_the_gap() {
        let mut m = Metrics::new(false);
        for seq in [1, 2, 1 << 40, u64::MAX, (1 << 40) + 1, 3] {
            m.note_received(mid(seq), SimTime::from_micros(seq % 1000));
        }
        assert_eq!(m.runs.len(), 3);
        assert!(m.slots_allocated() <= 8, "{} slots for six records", m.slots_allocated());
        for seq in [1, 2, 3, 1 << 40, (1 << 40) + 1, u64::MAX] {
            assert!(m.buffer_record(mid(seq)).is_some(), "record {seq} lost");
        }
        // Descending arrival never pads backwards: one run per record.
        let mut m = Metrics::new(false);
        for seq in (1..=5).rev() {
            m.note_kept(mid(seq));
        }
        assert_eq!(m.slots_allocated(), 5);
        assert!((1..=5).all(|seq| m.buffer_record(mid(seq)).unwrap().kept_long_term));
    }

    #[test]
    fn event_log_respects_flag() {
        let mut on = Metrics::new(true);
        on.record_event(SimTime::ZERO, mid(1), ProtocolEvent::SearchStarted);
        assert_eq!(on.events().len(), 1);

        let mut off = Metrics::new(false);
        off.record_event(SimTime::ZERO, mid(1), ProtocolEvent::SearchStarted);
        assert!(off.events().is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ids::SeqNo;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Sequence numbers that land in order, out of order, on top of each
    /// other, a few slots apart, just past the padding limit, and at both
    /// ends of the number space.
    fn arb_seq() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..48,
            0u64..48,
            (0u64..12).prop_map(|k| k * (Run::MAX_GAP + 1)),
            (0u64..6).prop_map(|k| (1 << 40) + k * 9),
            (0u64..4).prop_map(|k| u64::MAX - k),
        ]
    }

    proptest! {
        /// Any interleaving of the five setters over three sources reads
        /// back exactly as a `BTreeMap` with default-on-first-touch
        /// entries does — by id, and for ids never touched — keeps its
        /// runs sorted, and holds memory for at most `MAX_GAP + 1` slots per
        /// record.
        #[test]
        fn runs_match_a_btreemap_model(
            ops in proptest::collection::vec((0u8..5, 0u32..3, arb_seq(), 0u64..1_000_000), 0..120)
        ) {
            let mut m = Metrics::new(false);
            let mut model: BTreeMap<MessageId, BufferRecord> = BTreeMap::new();
            for &(op, source, seq, at) in &ops {
                let id = MessageId::new(NodeId(source), SeqNo(seq));
                let at = SimTime::from_micros(at);
                let rec = model.entry(id).or_default();
                match op {
                    0 => { m.note_received(id, at); rec.received_at = Some(at); }
                    1 => { m.note_idled(id, at); rec.idled_at = Some(at); }
                    2 => { m.note_kept(id); rec.kept_long_term = true; }
                    3 => { m.note_discarded(id, at); rec.discarded_at = Some(at); }
                    _ => { m.clear_discarded(id); rec.discarded_at = None; }
                }
            }
            for &(_, source, seq, _) in &ops {
                for near in [seq.wrapping_sub(1), seq, seq.wrapping_add(1)] {
                    let id = MessageId::new(NodeId(source), SeqNo(near));
                    prop_assert_eq!(m.buffer_record(id), model.get(&id).copied());
                    let other = MessageId::new(NodeId(3), SeqNo(near));
                    prop_assert_eq!(m.buffer_record(other), None);
                }
            }
            // Doubling at most doubles the `MAX_GAP + 1` slots a record can need.
            prop_assert!(m.slots_allocated() <= model.len() * 2 * (Run::MAX_GAP as usize + 1));
            prop_assert!(m.runs.windows(2).all(|w| w[0].key() < w[1].key()));
        }
    }
}
