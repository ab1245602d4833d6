//! Receiver-side observers: folds over the protocol events a receiver
//! emits, attached through one optional hook.
//!
//! A [`Receiver`] hands every protocol event — loss detection, recovery
//! round, repair sent, give-up, pressure tier, heal, buffer phase,
//! time-series sample — to its [`Observer`] as one `(SimTime, EventKind)`
//! call, and every delivery to [`Observer::on_delivered`]. Each observer
//! folds only what its reader needs. Two live here:
//!
//! 1. `ReceiverTrace`, the trace ring — **structured events** in a
//!    bounded per-node [`TraceSink`] ring on the [`streams::RECEIVER`]
//!    stream, **time-series samples** (the [`TimerKind::TraceSample`]
//!    tick, only armed when [`TraceConfig::sample_every`] is set), and
//!    **latency histograms** — log-linear [`LogHistogram`]s for
//!    loss-detection → delivery recovery latency, request → repair RTT,
//!    and delivery inter-arrival gaps.
//! 2. [`BufferRecords`], the buffer-lifecycle fold — one [`BufferRecord`]
//!    per message (received, idled, kept long-term — again after a
//!    handoff — and discarded), the paper's Figure 6. It keeps every
//!    message, so nothing needs sizing; the receiver keeps no
//!    per-message history of its own.
//!
//! Observers are **off the hot path**: an unarmed receiver carries one
//! `None` pointer, so every hook compiles to one branch on it and the
//! protocol's golden trace fingerprints stay bit-identical. An observer
//! makes **zero RNG draws** and mutates no protocol state, so armed runs
//! are themselves byte-identical across engines and shard counts — the
//! property the `observer_invariance` suite pins.
//!
//! [`Receiver`]: crate::receiver::Receiver
//! [`TimerKind::TraceSample`]: crate::events::TimerKind::TraceSample

use std::any::Any;
use std::collections::btree_map::{BTreeMap, Entry};

use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::NodeId;
use rrmp_trace::{streams, BufferPhase, EventKind, LogHistogram, TraceSink};

use crate::ids::{MessageId, SeqNo};
use crate::vecmap::VecMap;

/// A fold over one receiver's protocol events, armed with
/// [`Receiver::arm_observer`] and read back through
/// [`Receiver::observer`]. `Send`, because the sharded engine moves
/// receivers into its worker threads.
///
/// The receiver emits `LossDetected` each time it (re-)arms recovery
/// for a missing message — heal and watchdog re-arms included — and
/// `PressureTier` after every store change that may move the tier; an
/// observer that wants first detections or transitions filters them.
///
/// [`Receiver::arm_observer`]: crate::receiver::Receiver::arm_observer
/// [`Receiver::observer`]: crate::receiver::Receiver::observer
pub trait Observer: Any + Send + std::fmt::Debug {
    /// Folds one event the receiver emitted at `now`.
    fn on_event(&mut self, now: SimTime, kind: EventKind);

    /// `id` was delivered to the application at `now`, right after its
    /// `Buffer { phase: Received }` event.
    fn on_delivered(&mut self, _now: SimTime, _id: MessageId) {}
}

/// Configuration of the trace ring (every receiver's and the engine
/// sinks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Events kept per `(node, stream)` ring before the oldest are
    /// evicted (evictions are counted, never silent).
    pub ring_capacity: usize,
    /// Interval of the [`TimerKind::TraceSample`] time-series tick.
    /// `None` (the default) records no samples and schedules no timer, so
    /// armed and unarmed runs process the *same number of events* —
    /// what lets `perf/`'s `trace.sink.armed_ratio` compare an armed run
    /// with an unarmed one as pure hook overhead.
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
/// [`BufferRecords`] folds it.
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

/// The buffer-lifecycle fold: one [`BufferRecord`] per message that
/// entered a buffer phase on this member.
#[derive(Debug, Default)]
pub struct BufferRecords {
    records: VecMap<MessageId, BufferRecord>,
}

impl BufferRecords {
    /// `id`'s buffer lifecycle; `None` if no phase of `id` was seen.
    #[must_use]
    pub fn get(&self, id: MessageId) -> Option<BufferRecord> {
        self.records.get(id).copied()
    }
}

impl Observer for BufferRecords {
    fn on_event(&mut self, now: SimTime, kind: EventKind) {
        let EventKind::Buffer { src, mseq, phase } = kind else { return };
        let rec = self.records.get_or_default(message(src, mseq));
        match phase {
            BufferPhase::Received => rec.received_at = Some(now),
            BufferPhase::Idled => rec.idled_at = Some(now),
            BufferPhase::Kept => {
                rec.kept_long_term = true;
                rec.discarded_at = None;
            }
            BufferPhase::Discarded => rec.discarded_at = Some(now),
        }
    }
}

fn message(src: u32, mseq: u64) -> MessageId {
    MessageId::new(NodeId(src), SeqNo(mseq))
}

/// The trace ring: one [`TraceSink`] on the receiver stream, the three
/// latency histograms, and the side tables that turn point events into
/// durations. Its readers are the harness's exports
/// (`RrmpNetwork::trace_events`, `histograms_json`).
#[derive(Debug, Clone)]
pub(crate) struct ReceiverTrace {
    node: u32,
    pub(crate) sink: TraceSink,
    /// Loss-detection → delivery latency (microseconds).
    pub(crate) recovery_latency: LogHistogram,
    /// Recovery-request → repair-arrival RTT (microseconds).
    pub(crate) repair_rtt: LogHistogram,
    /// Delivery inter-arrival gaps (microseconds).
    pub(crate) inter_arrival: LogHistogram,
    /// When each still-missing message was first detected lost.
    detected_at: BTreeMap<MessageId, SimTime>,
    /// When the most recent recovery request for each message was sent.
    requested_at: BTreeMap<MessageId, SimTime>,
    last_delivery: Option<SimTime>,
    /// The last recorded pressure tier (0 = Normal).
    last_tier: u8,
}

impl ReceiverTrace {
    pub(crate) fn new(node: NodeId, ring_capacity: usize) -> Self {
        ReceiverTrace {
            node: node.0,
            sink: TraceSink::new(ring_capacity),
            recovery_latency: LogHistogram::new(),
            repair_rtt: LogHistogram::new(),
            inter_arrival: LogHistogram::new(),
            detected_at: BTreeMap::new(),
            requested_at: BTreeMap::new(),
            last_delivery: None,
            last_tier: 0,
        }
    }

    fn record(&mut self, now: SimTime, kind: EventKind) {
        self.sink.record(now.as_micros(), self.node, streams::RECEIVER, kind);
    }
}

impl Observer for ReceiverTrace {
    fn on_event(&mut self, now: SimTime, kind: EventKind) {
        let recorded = match kind {
            // Only the *first* detection opens the latency measurement
            // (and is recorded), so re-arms don't reset the clock.
            EventKind::LossDetected { src, mseq } => {
                let entry = self.detected_at.entry(message(src, mseq));
                let first = matches!(entry, Entry::Vacant(_));
                entry.or_insert(now);
                first
            }
            EventKind::RecoveryRound { src, mseq, .. } => {
                self.requested_at.insert(message(src, mseq), now);
                true
            }
            // Only tier transitions are recorded.
            EventKind::PressureTier { tier } => {
                std::mem::replace(&mut self.last_tier, tier) != tier
            }
            _ => true,
        };
        if recorded {
            self.record(now, kind);
        }
    }

    fn on_delivered(&mut self, now: SimTime, id: MessageId) {
        if let Some(prev) = self.last_delivery {
            self.inter_arrival.record(now.saturating_since(prev).as_micros());
        }
        self.last_delivery = Some(now);
        if let Some(detected) = self.detected_at.remove(&id) {
            let latency = now.saturating_since(detected).as_micros();
            self.recovery_latency.record(latency);
            let (src, mseq) = (id.source.0, id.seq.value());
            self.record(now, EventKind::Recovered { src, mseq, latency_micros: latency });
        }
        if let Some(requested) = self.requested_at.remove(&id) {
            self.repair_rtt.record(now.saturating_since(requested).as_micros());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mid(seq: u64) -> MessageId {
        MessageId::new(NodeId(0), SeqNo(seq))
    }

    fn lost(seq: u64) -> EventKind {
        EventKind::LossDetected { src: 0, mseq: seq }
    }

    fn round(seq: u64, attempt: u32) -> EventKind {
        EventKind::RecoveryRound { src: 0, mseq: seq, remote: false, attempt }
    }

    #[test]
    fn recovery_latency_measured_from_first_detection() {
        let mut t = ReceiverTrace::new(NodeId(1), 4096);
        t.on_event(SimTime::from_millis(10), lost(1));
        // A heal re-arm must not reset the clock.
        t.on_event(SimTime::from_millis(500), lost(1));
        t.on_delivered(SimTime::from_millis(710), mid(1));
        assert_eq!(t.recovery_latency.count(), 1);
        assert_eq!(t.recovery_latency.max(), 700_000);
        // Exactly one loss_detected + one recovered event.
        let mut out = Vec::new();
        t.sink.collect_into(&mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn tier_events_only_on_transition() {
        let mut t = ReceiverTrace::new(NodeId(1), 4096);
        let now = SimTime::from_millis(1);
        for tier in [0, 1, 1, 0] {
            t.on_event(now, EventKind::PressureTier { tier });
        }
        let mut out = Vec::new();
        t.sink.collect_into(&mut out);
        assert_eq!(out.len(), 2); // Normal→Pressure, Pressure→Normal
    }

    #[test]
    fn repair_rtt_uses_latest_request() {
        let mut t = ReceiverTrace::new(NodeId(1), 4096);
        t.on_event(SimTime::from_millis(0), lost(2));
        t.on_event(SimTime::from_millis(5), round(2, 1));
        t.on_event(SimTime::from_millis(40), round(2, 2));
        t.on_delivered(SimTime::from_millis(55), mid(2));
        assert_eq!(t.repair_rtt.max(), 15_000);
        assert_eq!(t.recovery_latency.max(), 55_000);
    }

    #[test]
    fn short_term_duration_needs_both_stamps() {
        let at = |ms| Some(SimTime::from_millis(ms));
        let rec = BufferRecord { received_at: at(10), idled_at: at(60), ..Default::default() };
        assert_eq!(rec.short_term_duration(), Some(SimDuration::from_millis(50)));
        assert_eq!(BufferRecord { idled_at: None, ..rec }.short_term_duration(), None);
    }
}
