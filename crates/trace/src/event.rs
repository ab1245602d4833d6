//! Trace event model.
//!
//! A [`TraceEvent`] is a fixed-size, `Copy` record: a timestamp in
//! microseconds, the node it is attributed to, a stream tag (see
//! [`crate::sink::streams`]), a per-`(node, stream)` emission counter,
//! and a closed [`EventKind`] payload. Raw `u64`/`u32` fields keep this
//! crate dependency-free; consumers convert their `SimTime`/`NodeId`
//! newtypes at the hook site.

use crate::json::JsonObj;

/// One recorded observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event time in microseconds (simulated or wall-clock, per stream).
    pub at_micros: u64,
    /// The node the event is attributed to — always the node whose
    /// deterministic execution emitted it, so per-node order is
    /// engine-layout-invariant.
    pub node: u32,
    /// Stream tag ([`crate::sink::streams`]).
    pub stream: u8,
    /// Per-`(node, stream)` emission counter (0, 1, 2, ...).
    pub emit: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The closed set of things layers report.
///
/// `src`/`mseq` identify a multicast message by source node and
/// source-local sequence number; `to` is a destination node; times are
/// microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Engine: a packet was handed to `node`'s protocol state machine.
    Delivered,
    /// Engine: the loss model dropped a unicast from `node` to `to`.
    PacketDropped {
        /// Destination whose copy was lost.
        to: u32,
    },
    /// Engine: the fault plan vetoed a packet from `node` to `to`.
    FaultDropped {
        /// Destination whose copy was vetoed.
        to: u32,
    },
    /// Engine: the fault plan duplicated a packet from `node` to `to`.
    FaultDuplicated {
        /// Destination receiving the duplicate.
        to: u32,
    },
    /// Receiver: a gap was detected and recovery began for a message.
    LossDetected {
        /// Message source node.
        src: u32,
        /// Message sequence number.
        mseq: u64,
    },
    /// Receiver: one randomized recovery request round was sent.
    RecoveryRound {
        /// Message source node.
        src: u32,
        /// Message sequence number.
        mseq: u64,
        /// `false` = local (intra-region) round, `true` = remote.
        remote: bool,
        /// 1-based attempt number within the phase.
        attempt: u32,
    },
    /// Receiver: a repair (retransmission) was sent to `to`.
    RepairSent {
        /// Message source node.
        src: u32,
        /// Message sequence number.
        mseq: u64,
        /// Requester the repair was sent to.
        to: u32,
    },
    /// Receiver: a previously missing message was finally delivered.
    Recovered {
        /// Message source node.
        src: u32,
        /// Message sequence number.
        mseq: u64,
        /// Loss-detection → delivery latency in microseconds.
        latency_micros: u64,
    },
    /// Receiver: recovery for a message was abandoned.
    GaveUp {
        /// Message source node.
        src: u32,
        /// Message sequence number.
        mseq: u64,
    },
    /// Receiver: the memory-pressure tier changed.
    PressureTier {
        /// New tier: 0 = Normal, 1 = Pressure, 2 = Critical.
        tier: u8,
    },
    /// Receiver: a partition heal re-armed exhausted recoveries.
    Healed,
    /// Receiver: a message entered a buffer phase on this member.
    Buffer {
        /// Message source node.
        src: u32,
        /// Message sequence number.
        mseq: u64,
        /// The phase entered.
        phase: BufferPhase,
    },
    /// Receiver: periodic state sample (the time-series pillar).
    Sample {
        /// Messages currently buffered (short + long term).
        store_entries: u32,
        /// Bytes currently buffered.
        store_bytes: u64,
        /// Configured memory budget in bytes (0 = unbounded).
        budget_bytes: u64,
        /// Token-bucket level of the repair-storm damper (0 if unarmed).
        tokens: u32,
        /// Messages in the local recovery phase.
        pending_local: u32,
        /// Messages in the remote recovery phase.
        pending_remote: u32,
        /// Bufferer searches in flight.
        searches: u32,
    },
    /// Runtime: one `poll(2)` wakeup on an event-loop thread.
    PollWakeup {
        /// Number of ready sockets (0 = timer/timeout wakeup).
        ready: u32,
    },
    /// Runtime: a member socket was muted after receive errors.
    Muted {
        /// Member slot index on the loop.
        slot: u32,
    },
    /// Runtime: a muted member socket was re-enabled.
    Unmuted {
        /// Member slot index on the loop.
        slot: u32,
    },
    /// Runtime: a member was declared dead after persistent errors.
    RecvFailed {
        /// Member slot index on the loop.
        slot: u32,
    },
}

/// A phase of one message in one member's buffer (the paper's two-phase
/// lifecycle, §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferPhase {
    /// First received.
    Received,
    /// The short-term (feedback) phase ended.
    Idled,
    /// Kept as a long-term bufferer — also when a handoff re-delivers a
    /// payload this member had discarded.
    Kept,
    /// The payload left the buffer.
    Discarded,
}

impl EventKind {
    /// Stable machine-readable name, used as the JSON `kind` field.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Delivered => "delivered",
            EventKind::PacketDropped { .. } => "packet_dropped",
            EventKind::FaultDropped { .. } => "fault_dropped",
            EventKind::FaultDuplicated { .. } => "fault_duplicated",
            EventKind::LossDetected { .. } => "loss_detected",
            EventKind::RecoveryRound { .. } => "recovery_round",
            EventKind::RepairSent { .. } => "repair_sent",
            EventKind::Recovered { .. } => "recovered",
            EventKind::GaveUp { .. } => "gave_up",
            EventKind::PressureTier { .. } => "pressure_tier",
            EventKind::Healed => "healed",
            EventKind::Buffer { phase, .. } => match phase {
                BufferPhase::Received => "buffer_received",
                BufferPhase::Idled => "buffer_idled",
                BufferPhase::Kept => "buffer_kept",
                BufferPhase::Discarded => "buffer_discarded",
            },
            EventKind::Sample { .. } => "sample",
            EventKind::PollWakeup { .. } => "poll_wakeup",
            EventKind::Muted { .. } => "muted",
            EventKind::Unmuted { .. } => "unmuted",
            EventKind::RecvFailed { .. } => "recv_failed",
        }
    }

    /// Every name [`EventKind::name`] can produce (schema checkers
    /// validate the JSON `kind` field against this list).
    #[must_use]
    pub fn all_names() -> &'static [&'static str] {
        &[
            "delivered",
            "packet_dropped",
            "fault_dropped",
            "fault_duplicated",
            "loss_detected",
            "recovery_round",
            "repair_sent",
            "recovered",
            "gave_up",
            "pressure_tier",
            "healed",
            "buffer_received",
            "buffer_idled",
            "buffer_kept",
            "buffer_discarded",
            "sample",
            "poll_wakeup",
            "muted",
            "unmuted",
            "recv_failed",
        ]
    }
}

impl TraceEvent {
    /// Serializes the event as one JSON object (no trailing newline).
    ///
    /// Field order is fixed (`at`, `node`, `stream`, `emit`, `kind`,
    /// then kind-specific fields) so equal events serialize to equal
    /// bytes — the property the cross-shard byte-identity tests pin.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut o = JsonObj::new();
        o.u64("at", self.at_micros);
        o.u64("node", u64::from(self.node));
        o.u64("stream", u64::from(self.stream));
        o.u64("emit", self.emit);
        o.str("kind", self.kind.name());
        match self.kind {
            EventKind::Delivered | EventKind::Healed => {}
            EventKind::PacketDropped { to }
            | EventKind::FaultDropped { to }
            | EventKind::FaultDuplicated { to } => o.u64("to", u64::from(to)),
            EventKind::LossDetected { src, mseq }
            | EventKind::GaveUp { src, mseq }
            | EventKind::Buffer { src, mseq, .. } => {
                o.u64("src", u64::from(src));
                o.u64("mseq", mseq);
            }
            EventKind::RecoveryRound { src, mseq, remote, attempt } => {
                o.u64("src", u64::from(src));
                o.u64("mseq", mseq);
                o.bool("remote", remote);
                o.u64("attempt", u64::from(attempt));
            }
            EventKind::RepairSent { src, mseq, to } => {
                o.u64("src", u64::from(src));
                o.u64("mseq", mseq);
                o.u64("to", u64::from(to));
            }
            EventKind::Recovered { src, mseq, latency_micros } => {
                o.u64("src", u64::from(src));
                o.u64("mseq", mseq);
                o.u64("latency_micros", latency_micros);
            }
            EventKind::PressureTier { tier } => o.u64("tier", u64::from(tier)),
            EventKind::Sample {
                store_entries,
                store_bytes,
                budget_bytes,
                tokens,
                pending_local,
                pending_remote,
                searches,
            } => {
                o.u64("store_entries", u64::from(store_entries));
                o.u64("store_bytes", store_bytes);
                o.u64("budget_bytes", budget_bytes);
                o.u64("tokens", u64::from(tokens));
                o.u64("pending_local", u64::from(pending_local));
                o.u64("pending_remote", u64::from(pending_remote));
                o.u64("searches", u64::from(searches));
            }
            EventKind::PollWakeup { ready } => o.u64("ready", u64::from(ready)),
            EventKind::Muted { slot }
            | EventKind::Unmuted { slot }
            | EventKind::RecvFailed { slot } => o.u64("slot", u64::from(slot)),
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn json_line_is_stable() {
        let e = TraceEvent {
            at_micros: 1500,
            node: 3,
            stream: 2,
            emit: 7,
            kind: EventKind::Recovered { src: 0, mseq: 4, latency_micros: 250_000 },
        };
        assert_eq!(
            e.to_json_line(),
            r#"{"at":1500,"node":3,"stream":2,"emit":7,"kind":"recovered","src":0,"mseq":4,"latency_micros":250000}"#
        );
        let kind = EventKind::Buffer { src: 2, mseq: 1 << 40, phase: BufferPhase::Idled };
        assert_eq!(
            TraceEvent { kind, ..e }.to_json_line(),
            r#"{"at":1500,"node":3,"stream":2,"emit":7,"kind":"buffer_idled","src":2,"mseq":1099511627776}"#
        );
    }

    #[test]
    fn every_kind_name_is_listed() {
        let kinds = [
            EventKind::Delivered,
            EventKind::PacketDropped { to: 0 },
            EventKind::FaultDropped { to: 0 },
            EventKind::FaultDuplicated { to: 0 },
            EventKind::LossDetected { src: 0, mseq: 0 },
            EventKind::RecoveryRound { src: 0, mseq: 0, remote: false, attempt: 1 },
            EventKind::RepairSent { src: 0, mseq: 0, to: 0 },
            EventKind::Recovered { src: 0, mseq: 0, latency_micros: 0 },
            EventKind::GaveUp { src: 0, mseq: 0 },
            EventKind::PressureTier { tier: 0 },
            EventKind::Healed,
            EventKind::Buffer { src: 0, mseq: 0, phase: BufferPhase::Received },
            EventKind::Buffer { src: 0, mseq: 0, phase: BufferPhase::Idled },
            EventKind::Buffer { src: 0, mseq: 0, phase: BufferPhase::Kept },
            EventKind::Buffer { src: 0, mseq: 0, phase: BufferPhase::Discarded },
            EventKind::Sample {
                store_entries: 0,
                store_bytes: 0,
                budget_bytes: 0,
                tokens: 0,
                pending_local: 0,
                pending_remote: 0,
                searches: 0,
            },
            EventKind::PollWakeup { ready: 0 },
            EventKind::Muted { slot: 0 },
            EventKind::Unmuted { slot: 0 },
            EventKind::RecvFailed { slot: 0 },
        ];
        assert_eq!(kinds.len(), EventKind::all_names().len());
        for kind in kinds {
            assert!(EventKind::all_names().contains(&kind.name()), "{} missing", kind.name());
            // And the JSON `kind` field parses back to the same name.
            let line =
                TraceEvent { at_micros: 0, node: 0, stream: 0, emit: 0, kind }.to_json_line();
            assert_eq!(
                Value::parse(&line).unwrap().get("kind").and_then(Value::as_str),
                Some(kind.name())
            );
        }
    }
}
