//! Receiver-side observer: structured trace events and latency
//! histograms, attached via optional hooks.
//!
//! The observer is **off the hot path**: an unarmed [`Receiver`] carries
//! a single `Option<Box<ReceiverTrace>>` field, so every hook compiles to
//! one branch on a `None` discriminant and the protocol's golden trace
//! fingerprints stay bit-identical. An armed observer makes **zero RNG
//! draws** and mutates no protocol state, so armed runs are themselves
//! byte-identical across engines and shard counts — the property the
//! `observer_invariance` suite pins.
//!
//! Three pillars live here:
//!
//! 1. **Structured events** — every loss detection, recovery round,
//!    repair, give-up, pressure-tier transition, and heal lands in a
//!    bounded per-node [`TraceSink`] ring on the
//!    [`streams::RECEIVER`] stream. So does every [`BufferPhase`] a
//!    message enters (received, idled, kept long-term — again after a
//!    handoff — and discarded), from which
//!    [`ReceiverTrace::buffer_record`] rebuilds its buffering lifecycle
//!    (the paper's Figure 6). The receiver keeps no per-message history
//!    of its own.
//! 2. **Time-series samples** — a [`TimerKind::TraceSample`] tick records
//!    buffer occupancy, store bytes vs budget, token-bucket level, and
//!    recovery backlog (only armed when [`TraceConfig::sample_every`] is
//!    set).
//! 3. **Latency histograms** — log-linear [`LogHistogram`]s for
//!    loss-detection → delivery recovery latency, request → repair RTT,
//!    and delivery inter-arrival gaps.
//!
//! [`Receiver`]: crate::receiver::Receiver
//! [`TimerKind::TraceSample`]: crate::events::TimerKind::TraceSample

use std::collections::BTreeMap;

use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::NodeId;
use rrmp_trace::{streams, BufferPhase, EventKind, LogHistogram, TraceEvent, TraceSink};

use crate::buffer::PressureTier;
use crate::ids::MessageId;

/// Configuration for arming the observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Events kept per `(node, stream)` ring before the oldest are
    /// evicted (evictions are counted, never silent).
    pub ring_capacity: usize,
    /// Interval of the [`TimerKind::TraceSample`] time-series tick.
    /// `None` (the default) records no samples and schedules no timer, so
    /// armed and unarmed runs process the *same number of events* — the
    /// property the `trace_path` benchmark asserts while measuring pure
    /// hook overhead.
    ///
    /// [`TimerKind::TraceSample`]: crate::events::TimerKind::TraceSample
    pub sample_every: Option<SimDuration>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { ring_capacity: 4096, sample_every: None }
    }
}

/// Lifecycle of one message in one member's buffer, as
/// [`ReceiverTrace::buffer_record`] rebuilds it.
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
    pub fn short_term_duration(&self) -> Option<SimDuration> {
        match (self.received_at, self.idled_at) {
            (Some(r), Some(i)) => Some(i.saturating_since(r)),
            _ => None,
        }
    }
}

/// Per-receiver observer state: one [`TraceSink`] on the receiver
/// stream, the three latency histograms, and the side tables that turn
/// point events into durations.
#[derive(Debug, Clone)]
pub struct ReceiverTrace {
    node: u32,
    sink: TraceSink,
    sample_every: Option<SimDuration>,
    recovery_latency: LogHistogram,
    repair_rtt: LogHistogram,
    inter_arrival: LogHistogram,
    /// When each still-missing message was first detected lost.
    detected_at: BTreeMap<MessageId, SimTime>,
    /// When the most recent recovery request for each message was sent.
    requested_at: BTreeMap<MessageId, SimTime>,
    last_delivery: Option<SimTime>,
    last_tier: PressureTier,
}

impl ReceiverTrace {
    pub(crate) fn new(node: NodeId, cfg: &TraceConfig) -> Self {
        ReceiverTrace {
            node: node.0,
            sink: TraceSink::new(cfg.ring_capacity),
            sample_every: cfg.sample_every,
            recovery_latency: LogHistogram::new(),
            repair_rtt: LogHistogram::new(),
            inter_arrival: LogHistogram::new(),
            detected_at: BTreeMap::new(),
            requested_at: BTreeMap::new(),
            last_delivery: None,
            last_tier: PressureTier::Normal,
        }
    }

    fn record(&mut self, now: SimTime, kind: EventKind) {
        self.sink.record(now.as_micros(), self.node, streams::RECEIVER, kind);
    }

    /// The configured sampling interval, if time-series sampling is on.
    #[must_use]
    pub fn sample_every(&self) -> Option<SimDuration> {
        self.sample_every
    }

    pub(crate) fn on_delivered(&mut self, id: MessageId, now: SimTime) {
        if let Some(prev) = self.last_delivery {
            self.inter_arrival.record(now.saturating_since(prev).as_micros());
        }
        self.last_delivery = Some(now);
        if let Some(detected) = self.detected_at.remove(&id) {
            let latency = now.saturating_since(detected).as_micros();
            self.recovery_latency.record(latency);
            self.record(
                now,
                EventKind::Recovered {
                    src: id.source.0,
                    mseq: id.seq.value(),
                    latency_micros: latency,
                },
            );
        }
        if let Some(requested) = self.requested_at.remove(&id) {
            self.repair_rtt.record(now.saturating_since(requested).as_micros());
        }
    }

    pub(crate) fn on_loss_detected(&mut self, id: MessageId, now: SimTime) {
        // Heal and watchdog re-arms route through the same entry point;
        // only the *first* detection opens the latency measurement (and
        // emits the event), so re-arms don't reset the clock.
        if let std::collections::btree_map::Entry::Vacant(e) = self.detected_at.entry(id) {
            e.insert(now);
            self.record(now, EventKind::LossDetected { src: id.source.0, mseq: id.seq.value() });
        }
    }

    pub(crate) fn on_recovery_round(
        &mut self,
        id: MessageId,
        remote: bool,
        attempt: u32,
        now: SimTime,
    ) {
        self.requested_at.insert(id, now);
        self.record(
            now,
            EventKind::RecoveryRound { src: id.source.0, mseq: id.seq.value(), remote, attempt },
        );
    }

    pub(crate) fn on_repair_sent(&mut self, id: MessageId, to: NodeId, now: SimTime) {
        self.record(
            now,
            EventKind::RepairSent { src: id.source.0, mseq: id.seq.value(), to: to.0 },
        );
    }

    pub(crate) fn on_gave_up(&mut self, id: MessageId, now: SimTime) {
        self.record(now, EventKind::GaveUp { src: id.source.0, mseq: id.seq.value() });
    }

    pub(crate) fn on_tier(&mut self, tier: PressureTier, now: SimTime) {
        if tier != self.last_tier {
            self.last_tier = tier;
            let tier = match tier {
                PressureTier::Normal => 0,
                PressureTier::Pressure => 1,
                PressureTier::Critical => 2,
            };
            self.record(now, EventKind::PressureTier { tier });
        }
    }

    pub(crate) fn on_heal(&mut self, now: SimTime) {
        self.record(now, EventKind::Healed);
    }

    pub(crate) fn on_sample(&mut self, kind: EventKind, now: SimTime) {
        self.record(now, kind);
    }

    pub(crate) fn on_buffer(&mut self, id: MessageId, phase: BufferPhase, now: SimTime) {
        self.record(now, EventKind::Buffer { src: id.source.0, mseq: id.seq.value(), phase });
    }

    /// `id`'s buffer lifecycle, rebuilt from the buffer-phase events in
    /// the ring; `None` if no phase of `id` was recorded.
    ///
    /// # Panics
    ///
    /// Panics if the ring has evicted any event: a record rebuilt from a
    /// truncated history could lack phases, so none is returned. Size
    /// [`TraceConfig::ring_capacity`] for the run.
    #[must_use]
    pub fn buffer_record(&self, id: MessageId) -> Option<BufferRecord> {
        let node = self.node;
        assert!(self.sink.dropped() == 0, "node {node}: ring evicted events; raise ring_capacity");
        let mut record = None;
        for e in self.sink.events() {
            let EventKind::Buffer { src, mseq, phase } = e.kind else { continue };
            if (src, mseq) != (id.source.0, id.seq.value()) {
                continue;
            }
            let rec: &mut BufferRecord = record.get_or_insert_default();
            let at = Some(SimTime::from_micros(e.at_micros));
            match phase {
                BufferPhase::Received => rec.received_at = at,
                BufferPhase::Idled => rec.idled_at = at,
                BufferPhase::Kept => {
                    rec.kept_long_term = true;
                    rec.discarded_at = None;
                }
                BufferPhase::Discarded => rec.discarded_at = at,
            }
        }
        record
    }

    /// Appends this receiver's held events to `out` (combine across
    /// nodes, then [`rrmp_trace::sort_canonical`]).
    pub fn collect_into(&self, out: &mut Vec<TraceEvent>) {
        self.sink.collect_into(out);
    }

    /// Events evicted by the ring bound since arming.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.sink.dropped()
    }

    /// Loss-detection → delivery latency histogram (microseconds).
    #[must_use]
    pub fn recovery_latency(&self) -> &LogHistogram {
        &self.recovery_latency
    }

    /// Recovery-request → repair-arrival RTT histogram (microseconds).
    #[must_use]
    pub fn repair_rtt(&self) -> &LogHistogram {
        &self.repair_rtt
    }

    /// Delivery inter-arrival gap histogram (microseconds).
    #[must_use]
    pub fn inter_arrival(&self) -> &LogHistogram {
        &self.inter_arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SeqNo;

    fn mid(seq: u64) -> MessageId {
        MessageId::new(NodeId(0), SeqNo(seq))
    }

    #[test]
    fn recovery_latency_measured_from_first_detection() {
        let mut t = ReceiverTrace::new(NodeId(1), &TraceConfig::default());
        t.on_loss_detected(mid(1), SimTime::from_millis(10));
        // A heal re-arm must not reset the clock.
        t.on_loss_detected(mid(1), SimTime::from_millis(500));
        t.on_delivered(mid(1), SimTime::from_millis(710));
        assert_eq!(t.recovery_latency().count(), 1);
        assert_eq!(t.recovery_latency().max(), 700_000);
        // Exactly one loss_detected + one recovered event.
        let mut out = Vec::new();
        t.collect_into(&mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn tier_events_only_on_transition() {
        let mut t = ReceiverTrace::new(NodeId(1), &TraceConfig::default());
        let now = SimTime::from_millis(1);
        t.on_tier(PressureTier::Normal, now);
        t.on_tier(PressureTier::Pressure, now);
        t.on_tier(PressureTier::Pressure, now);
        t.on_tier(PressureTier::Normal, now);
        let mut out = Vec::new();
        t.collect_into(&mut out);
        assert_eq!(out.len(), 2); // Normal→Pressure, Pressure→Normal
    }

    #[test]
    fn repair_rtt_uses_latest_request() {
        let mut t = ReceiverTrace::new(NodeId(1), &TraceConfig::default());
        t.on_loss_detected(mid(2), SimTime::from_millis(0));
        t.on_recovery_round(mid(2), false, 1, SimTime::from_millis(5));
        t.on_recovery_round(mid(2), false, 2, SimTime::from_millis(40));
        t.on_delivered(mid(2), SimTime::from_millis(55));
        assert_eq!(t.repair_rtt().max(), 15_000);
        assert_eq!(t.recovery_latency().max(), 55_000);
    }

    #[test]
    fn short_term_duration_needs_both_stamps() {
        let at = |ms| Some(SimTime::from_millis(ms));
        let rec = BufferRecord { received_at: at(10), idled_at: at(60), ..Default::default() };
        assert_eq!(rec.short_term_duration(), Some(SimDuration::from_millis(50)));
        assert_eq!(BufferRecord { idled_at: None, ..rec }.short_term_duration(), None);
    }

    #[test]
    #[should_panic(expected = "evicted events")]
    fn overflowed_ring_refuses_to_rebuild_a_record() {
        let cfg = TraceConfig { ring_capacity: 2, sample_every: None };
        let mut t = ReceiverTrace::new(NodeId(1), &cfg);
        t.on_buffer(mid(1), BufferPhase::Received, SimTime::ZERO);
        t.on_buffer(mid(1), BufferPhase::Idled, SimTime::from_millis(40));
        t.on_buffer(mid(1), BufferPhase::Kept, SimTime::from_millis(40));
        // The `Received` phase is gone: a record now would bend Figure 6.
        let _ = t.buffer_record(mid(1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ids::SeqNo;
    use proptest::prelude::*;

    /// Sequence numbers that land in order, out of order, on top of each
    /// other, far apart, and at both ends of the number space.
    fn arb_seq() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..48,
            (0u64..12).prop_map(|k| k * 17),
            (0u64..6).prop_map(|k| (1 << 40) + k * 9),
            (0u64..4).prop_map(|k| u64::MAX - k),
        ]
    }

    const PHASES: [BufferPhase; 4] =
        [BufferPhase::Received, BufferPhase::Idled, BufferPhase::Kept, BufferPhase::Discarded];

    proptest! {
        /// Any interleaving of the four phases over three sources,
        /// mixed with other receiver events, reads back through
        /// `buffer_record` exactly as a `BTreeMap` with
        /// default-on-first-touch entries does — by id, and `None` for
        /// ids never touched.
        #[test]
        fn buffer_records_match_a_btreemap_model(
            ops in proptest::collection::vec((0usize..4, 0u32..3, arb_seq(), 0u64..1_000_000), 0..120)
        ) {
            let mut t = ReceiverTrace::new(NodeId(9), &TraceConfig::default());
            let mut model: BTreeMap<MessageId, BufferRecord> = BTreeMap::new();
            for &(op, source, seq, at) in &ops {
                let id = MessageId::new(NodeId(source), SeqNo(seq));
                let at = SimTime::from_micros(at);
                let phase = PHASES[op];
                t.on_buffer(id, phase, at);
                t.on_gave_up(id, at); // same id, not a phase
                let rec = model.entry(id).or_default();
                match phase {
                    BufferPhase::Received => rec.received_at = Some(at),
                    BufferPhase::Idled => rec.idled_at = Some(at),
                    BufferPhase::Kept => {
                        rec.kept_long_term = true;
                        rec.discarded_at = None;
                    }
                    BufferPhase::Discarded => rec.discarded_at = Some(at),
                }
            }
            for &(_, source, seq, _) in &ops {
                for near in [seq.wrapping_sub(1), seq, seq.wrapping_add(1)] {
                    let id = MessageId::new(NodeId(source), SeqNo(near));
                    prop_assert_eq!(t.buffer_record(id), model.get(&id).copied());
                    let other = MessageId::new(NodeId(3), SeqNo(near));
                    prop_assert_eq!(t.buffer_record(other), None);
                }
            }
        }
    }
}
