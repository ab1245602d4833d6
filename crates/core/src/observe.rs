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
//!    [`streams::RECEIVER`] stream.
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
use rrmp_trace::{streams, EventKind, LogHistogram, TraceEvent, TraceSink};

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
}
