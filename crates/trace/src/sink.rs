//! Bounded, deterministic trace collection.
//!
//! A [`TraceSink`] keeps one bounded ring per `(node, stream)` pair.
//! Rings are bounded *per node-stream*, not globally: a node's event
//! emission order is deterministic regardless of how the simulator is
//! sharded, so "keep the last N per node-stream" selects the same events
//! under every engine layout — the property that lets armed traces stay
//! byte-identical across shard counts even after eviction.

use std::collections::{BTreeMap, VecDeque};

use crate::event::{EventKind, TraceEvent};

/// Stream tags: each stream has an independent per-node emission
/// counter, and the canonical sort orders same-time events of one node
/// by stream then counter.
pub mod streams {
    /// Engine-side delivery events, attributed to the *receiving* node
    /// at arrival time (per-node order = the pinned delivery trace).
    pub const ENGINE_DELIVERY: u8 = 0;
    /// Engine-side wire verdicts (loss-model drops, fault drops,
    /// duplications), attributed to the *sending* node at send time
    /// (per-node order = the node's deterministic dispatch order).
    pub const ENGINE_WIRE: u8 = 1;
    /// Protocol-core events emitted by the `Receiver` state machine.
    pub const RECEIVER: u8 = 2;
    /// UDP-runtime loop events (wall-clock; no determinism claim).
    pub const RUNTIME: u8 = 3;
}

#[derive(Debug, Clone, Default)]
struct Ring {
    events: VecDeque<TraceEvent>,
    next_emit: u64,
}

/// A bounded collector of [`TraceEvent`]s.
#[derive(Debug, Clone)]
pub struct TraceSink {
    cap: usize,
    rings: BTreeMap<(u32, u8), Ring>,
    dropped: u64,
}

impl TraceSink {
    /// A sink keeping at most `cap` events per `(node, stream)` ring.
    /// `cap` of 0 keeps counters only (every event evicted immediately
    /// would be useless, so 0 is clamped to 1).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        TraceSink { cap: cap.max(1), rings: BTreeMap::new(), dropped: 0 }
    }

    /// Records one event, evicting the oldest event of the same
    /// `(node, stream)` ring when full.
    pub fn record(&mut self, at_micros: u64, node: u32, stream: u8, kind: EventKind) {
        let ring = self.rings.entry((node, stream)).or_default();
        let emit = ring.next_emit;
        ring.next_emit += 1;
        if ring.events.len() == self.cap {
            ring.events.pop_front();
            self.dropped += 1;
        }
        ring.events.push_back(TraceEvent { at_micros, node, stream, emit, kind });
    }

    /// Total events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rings.values().map(|r| r.events.len()).sum()
    }

    /// Whether no events are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rings.values().all(|r| r.events.is_empty())
    }

    /// Events evicted by ring bounds since construction.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Every held event: rings in `(node, stream)` order, each ring
    /// oldest-first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.rings.values().flat_map(|r| r.events.iter())
    }

    /// Appends every held event to `out` (in [`TraceSink::events`]
    /// order). Call [`sort_canonical`] after combining sinks.
    pub fn collect_into(&self, out: &mut Vec<TraceEvent>) {
        out.extend(self.events().copied());
    }

    /// Clears all rings and counters (used on engine reset).
    pub fn clear(&mut self) {
        self.rings.clear();
        self.dropped = 0;
    }
}

/// Sorts events into the canonical export order:
/// `(at_micros, node, stream, emit)`.
///
/// Per-node-stream emission counters are deterministic, so this total
/// order — and therefore the serialized JSONL — is identical at every
/// shard count. Windows partition simulated time, so merging per-shard
/// sinks at every window barrier and concatenating produces the same
/// sequence as one end-of-run sort.
pub fn sort_canonical(events: &mut [TraceEvent]) {
    events.sort_unstable_by_key(|e| (e.at_micros, e.node, e.stream, e.emit));
}

/// Renders events as JSONL: one JSON object per line, trailing newline
/// after every line.
#[must_use]
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_node_rings_bound_independently() {
        let mut s = TraceSink::new(2);
        for i in 0..5 {
            s.record(i, 1, streams::RECEIVER, EventKind::Delivered);
        }
        s.record(9, 2, streams::RECEIVER, EventKind::Healed);
        assert_eq!(s.len(), 3); // node 1 kept last 2, node 2 kept 1
        assert_eq!(s.dropped(), 3);
        let mut out = Vec::new();
        s.collect_into(&mut out);
        sort_canonical(&mut out);
        // Node 1 kept its *last* two emissions (emit 3 and 4).
        assert_eq!(out[0].emit, 3);
        assert_eq!(out[1].emit, 4);
        assert_eq!(out[2].node, 2);
        assert_eq!(out[2].emit, 0);
    }

    #[test]
    fn canonical_order_is_layout_invariant() {
        // Two sinks covering disjoint node sets (as two shards would)
        // must export exactly what one combined sink exports.
        let mut one = TraceSink::new(16);
        let mut a = TraceSink::new(16);
        let mut b = TraceSink::new(16);
        let script: &[(u64, u32)] = &[(5, 0), (5, 3), (1, 3), (5, 0), (2, 1), (5, 3)];
        for &(at, node) in script {
            one.record(at, node, streams::RECEIVER, EventKind::Healed);
            let shard = if node < 2 { &mut a } else { &mut b };
            shard.record(at, node, streams::RECEIVER, EventKind::Healed);
        }
        let mut merged = Vec::new();
        one.collect_into(&mut merged);
        sort_canonical(&mut merged);
        let mut split = Vec::new();
        b.collect_into(&mut split); // reversed drain order on purpose
        a.collect_into(&mut split);
        sort_canonical(&mut split);
        assert_eq!(to_jsonl(&merged), to_jsonl(&split));
    }

    #[test]
    fn streams_have_independent_counters() {
        let mut s = TraceSink::new(8);
        s.record(1, 0, streams::ENGINE_DELIVERY, EventKind::Delivered);
        s.record(1, 0, streams::ENGINE_WIRE, EventKind::PacketDropped { to: 1 });
        s.record(2, 0, streams::ENGINE_DELIVERY, EventKind::Delivered);
        let mut out = Vec::new();
        s.collect_into(&mut out);
        sort_canonical(&mut out);
        assert_eq!(out[0].stream, streams::ENGINE_DELIVERY);
        assert_eq!(out[0].emit, 0);
        assert_eq!(out[1].stream, streams::ENGINE_WIRE);
        assert_eq!(out[1].emit, 0);
        assert_eq!(out[2].emit, 1);
    }
}
