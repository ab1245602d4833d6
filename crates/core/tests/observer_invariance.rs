//! Observer invariance: arming the trace subsystem must not perturb the
//! protocol, and what it exports must not depend on engine layout.
//!
//! Three contracts, matching the three observer pillars:
//!
//! * **Unarmed zero cost** — a run with the hooks compiled in but
//!   unarmed reproduces the pinned golden-trace fingerprint bit for bit
//!   (the same constants `golden_traces.rs` guards), and arming the
//!   sinks *without* samplers still reproduces it: recording is
//!   side-effect-free on the protocol.
//!   The same holds with the buffer-lifecycle fold armed instead of the
//!   ring, and both observers fold the same buffer phases.
//! * **Shard invariance** — an armed export (trace JSONL + histogram
//!   JSON) is byte-identical at 1, 2, and 4 shards. Always via
//!   [`RrmpNetwork::with_shards`]: the one-shard run is the sequential
//!   oracle of the sharded engine. (The unsharded `RrmpNetwork::new`
//!   engine legitimately interleaves same-timestamp timer-vs-packet
//!   races differently and is *not* part of this contract.)
//! * **Merge associativity** — histogram merge is elementwise bucket
//!   addition, so any grouping of per-shard partials yields the same
//!   result as recording everything into one histogram; quantiles match
//!   a naive sorted-vec model at bucket resolution.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rrmp_core::harness::RrmpNetwork;
use rrmp_core::ids::MessageId;
use rrmp_core::observe::{BufferRecord, BufferRecords};
use rrmp_core::policy::PolicyKind;
use rrmp_core::prelude::{ProtocolConfig, TraceConfig};
use rrmp_netsim::loss::{DeliveryPlan, LossModel};
use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::{presets, NodeId};
use rrmp_trace::{BufferPhase, EventKind, LogHistogram};

/// FNV-1a over the little-endian bytes of `values`.
fn fnv(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in values.into_iter().flat_map(u64::to_le_bytes) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-node delivery traces: each node's id, then its deliveries' time,
/// source and sequence number in delivery order.
fn deliveries(net: &RrmpNetwork) -> Vec<u64> {
    let mut out = Vec::new();
    for (id, node) in net.nodes() {
        out.push(u64::from(id.0));
        for &(t, m) in node.delivered() {
            out.extend([t.as_micros(), u64::from(m.source.0), m.seq.0]);
        }
    }
    out
}

/// FNV-1a over the full observable outcome of a run — the same
/// fingerprint `golden_traces.rs` pins, so the constants below must stay
/// in lockstep with that suite.
fn fingerprint(net: &RrmpNetwork) -> u64 {
    let c = net.net_counters();
    let engine =
        [c.unicasts_sent, c.unicasts_dropped, c.timers_set, c.timers_fired, c.events_processed];
    let protocol = [
        net.total_counter(|c| c.local_requests_sent),
        net.total_counter(|c| c.remote_requests_sent),
        net.total_counter(|c| c.repairs_sent_local + c.repairs_sent_remote),
        net.total_counter(|c| c.regional_multicasts_sent),
        net.total_counter(|c| c.handoffs_sent),
        net.total_counter(|c| c.idle_transitions),
        net.total_counter(|c| c.long_term_kept),
        net.total_counter(|c| c.discarded_at_idle),
        net.total_counter(|c| c.searches_started),
    ];
    fnv(deliveries(net).into_iter().chain(engine).chain(protocol))
}

/// Delivery-only fingerprint: per-node delivery traces without the timer
/// and event counters (which samplers legitimately move).
fn delivery_fingerprint(net: &RrmpNetwork) -> u64 {
    fnv(deliveries(net))
}

/// The `single_region_recovery` golden scenario, armed by `arm`.
fn single_region_recovery(seed: u64, arm: impl FnOnce(&mut RrmpNetwork)) -> RrmpNetwork {
    let mut net =
        RrmpNetwork::new(presets::paper_region(40), ProtocolConfig::paper_defaults(), seed);
    arm(&mut net);
    let plan = DeliveryPlan::only(net.topology(), (0..10).map(NodeId));
    net.multicast_with_plan(&b"golden-a"[..], &plan);
    net.run_until(SimTime::from_millis(400));
    let plan = DeliveryPlan::all_but(net.topology(), (20..30).map(NodeId));
    net.multicast_with_plan(&b"golden-b"[..], &plan);
    net.run_until(SimTime::from_secs(1));
    net
}

/// Pinned in `golden_traces.rs`: `single_region_recovery(1)`.
const GOLDEN_SINGLE_REGION_SEED1: u64 = 0x28c8_f709_a078_be13;

#[test]
fn unarmed_run_keeps_golden_fingerprint() {
    let net = single_region_recovery(1, |_| {});
    assert_eq!(fingerprint(&net), GOLDEN_SINGLE_REGION_SEED1);
    assert!(!net.observer_armed());
}

#[test]
fn armed_sinks_do_not_perturb_the_protocol() {
    // Sinks armed, samplers off: no extra timers, so even the full
    // counter fingerprint must match the pinned golden value while the
    // trace itself is non-empty.
    let ring = TraceConfig { ring_capacity: 1 << 16, sample_every: None };
    let net = single_region_recovery(1, |n| n.arm_observer(ring));
    assert_eq!(fingerprint(&net), GOLDEN_SINGLE_REGION_SEED1);
    assert!(net.observer_armed());
    assert!(!net.trace_events().is_empty(), "armed run must record events");
    assert_eq!(net.trace_events_dropped(), 0);
    // The buffer-lifecycle fold instead of the ring: the same run.
    let net = single_region_recovery(1, RrmpNetwork::arm_buffer_records);
    assert_eq!(fingerprint(&net), GOLDEN_SINGLE_REGION_SEED1);
    assert!(net.observer_armed());
    assert!(net.node(NodeId(0)).receiver().observer::<BufferRecords>().is_some());
}

#[test]
fn samplers_move_timers_but_not_deliveries() {
    // With samplers armed, timer counters legitimately move — but every
    // delivery (time, source, seq) stays bit-identical.
    let unarmed = single_region_recovery(1, |_| {});
    let sampled = single_region_recovery(1, |n| {
        n.arm_observer(TraceConfig {
            ring_capacity: 1 << 16,
            sample_every: Some(SimDuration::from_millis(50)),
        })
    });
    assert_eq!(delivery_fingerprint(&unarmed), delivery_fingerprint(&sampled));
}

/// The golden sharded scenario (`sharded_lossy_stream`), armed, on the
/// sharded engine at the given shard count.
fn sharded_armed_export(shards: usize) -> (String, String) {
    let topo = presets::region_tree(6, 2, 2, SimDuration::from_millis(25));
    let mut net = RrmpNetwork::with_shards(topo, ProtocolConfig::paper_defaults(), 7, shards);
    net.set_multicast_loss(LossModel::RegionCorrelated { p_region: 0.3, p_member: 0.1 });
    net.set_unicast_loss(LossModel::Bernoulli { p: 0.1 });
    net.arm_observer(TraceConfig {
        ring_capacity: 1 << 16,
        sample_every: Some(SimDuration::from_millis(100)),
    });
    for _ in 0..4 {
        net.multicast(&b"golden-sharded"[..]);
        let next = net.now() + SimDuration::from_millis(40);
        net.run_until(next);
    }
    net.run_until(SimTime::from_secs(3));
    assert_eq!(net.trace_events_dropped(), 0, "ring evicted events at {shards} shards");
    (net.trace_jsonl(), net.histograms_json())
}

#[test]
fn armed_export_is_byte_identical_across_shard_counts() {
    let (trace1, hist1) = sharded_armed_export(1);
    assert!(!trace1.is_empty());
    for shards in [2usize, 4] {
        let (trace, hist) = sharded_armed_export(shards);
        assert_eq!(trace, trace1, "trace JSONL diverged at {shards} shards");
        assert_eq!(hist, hist1, "histogram export diverged at {shards} shards");
    }
}

// ---------------------------------------------------------------------------
// The ring and the buffer-lifecycle fold see the same buffer phases.
// ---------------------------------------------------------------------------

const ALL_POLICIES: [PolicyKind; 7] = [
    PolicyKind::TwoPhase,
    PolicyKind::FixedTime { hold: SimDuration::from_millis(500) },
    PolicyKind::KeepAll,
    PolicyKind::HashBufferers,
    PolicyKind::SenderBased,
    PolicyKind::Stability,
    PolicyKind::TreeRmtp,
];

/// Two regions under multicast and unicast loss, a stream of 20
/// messages, and one leave whose handoffs can land on members that
/// already discarded the message; `arm` is applied before the start.
fn handoff_run(
    policy: PolicyKind,
    arm: impl FnOnce(&mut RrmpNetwork),
) -> (RrmpNetwork, Vec<MessageId>) {
    let topo = presets::region_tree(10, 1, 1, SimDuration::from_millis(25));
    let cfg = ProtocolConfig { policy, ..ProtocolConfig::paper_defaults() };
    let mut net = RrmpNetwork::new(topo, cfg, 11);
    arm(&mut net);
    net.set_multicast_loss(LossModel::RegionCorrelated { p_region: 0.2, p_member: 0.2 });
    net.set_unicast_loss(LossModel::Bernoulli { p: 0.05 });
    net.schedule_leave(NodeId(5), SimTime::from_millis(1500));
    let mut ids = Vec::new();
    for _ in 0..20 {
        ids.push(net.multicast(&b"phases"[..]));
        let next = net.now() + SimDuration::from_millis(20);
        net.run_until(next);
    }
    net.run_until(SimTime::from_secs(4));
    (net, ids)
}

#[test]
fn ring_and_fold_see_the_same_buffer_phases() {
    let mut rekept = 0;
    for policy in ALL_POLICIES {
        let ring = TraceConfig { ring_capacity: 1 << 16, sample_every: None };
        let (ring, ids) = handoff_run(policy, |n| n.arm_observer(ring));
        assert_eq!(ring.trace_events_dropped(), 0, "{policy:?}: ring evicted events");
        let (fold, fold_ids) = handoff_run(policy, RrmpNetwork::arm_buffer_records);
        assert_eq!(ids, fold_ids);
        // The ring export's buffer phases, folded per (node, message).
        let mut model: BTreeMap<(u32, u32, u64), BufferRecord> = BTreeMap::new();
        for e in ring.trace_events() {
            let EventKind::Buffer { src, mseq, phase } = e.kind else { continue };
            let rec = model.entry((e.node, src, mseq)).or_default();
            let at = Some(SimTime::from_micros(e.at_micros));
            match phase {
                BufferPhase::Received => rec.received_at = at,
                BufferPhase::Idled => rec.idled_at = at,
                BufferPhase::Kept => {
                    rekept += usize::from(rec.discarded_at.is_some());
                    rec.kept_long_term = true;
                    rec.discarded_at = None;
                }
                BufferPhase::Discarded => rec.discarded_at = at,
            }
        }
        for (node, n) in fold.nodes() {
            let records = n.receiver().observer::<BufferRecords>().expect("fold armed");
            for &id in &ids {
                let expect = model.get(&(node.0, id.source.0, id.seq.value())).copied();
                assert_eq!(records.get(id), expect, "{policy:?}: node {node}, {id}");
            }
        }
    }
    assert!(rekept > 0, "no handoff re-kept a discarded message");
}

// ---------------------------------------------------------------------------
// Histogram merge associativity vs a naive sorted-vec model.
// ---------------------------------------------------------------------------

fn hist_of(values: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merge_is_associative_and_order_free(
        a in proptest::collection::vec(any::<u64>(), 0..200),
        b in proptest::collection::vec(any::<u64>(), 0..200),
        c in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), exactly.
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha;
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        // Any grouping equals recording the concatenation directly.
        let mut all: Vec<u64> = a;
        all.extend(b);
        all.extend(c);
        let combined = hist_of(&all);
        prop_assert_eq!(&left, &combined);

        // Naive sorted-vec model: count/sum/max are exact; each quantile
        // is the lower bound of the bucket holding the rank-target
        // observation (bucket indexing is monotone in the value, so the
        // bucket cumulative walk and the sorted vec agree on which
        // observation that is).
        all.sort_unstable();
        prop_assert_eq!(left.count(), all.len() as u64);
        prop_assert_eq!(left.sum(), all.iter().map(|&v| u128::from(v)).sum::<u128>());
        prop_assert_eq!(left.max(), all.last().copied().unwrap_or(0));
        if !all.is_empty() {
            let n = all.len() as u64;
            for q in [0.50f64, 0.90, 0.99] {
                #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
                let model = all[(rank - 1) as usize];
                let expect =
                    LogHistogram::bucket_lower_bound(LogHistogram::bucket_index(model));
                prop_assert_eq!(left.quantile(q), expect, "q={}", q);
            }
        }
    }
}
