//! Differential tests: the comparison schemes, run as policies over the
//! shared RRMP engine, must reproduce the `RunReport`s of the standalone
//! protocol stacks they were ported from. Those stacks are retired; each
//! `LEGACY_*` constant below is the report (`RunReport::to_json`) the
//! legacy stack produced on the same scenario, frozen byte for byte. The
//! legacy reports did not depend on the seed, so one string covers every
//! seed a test runs.
//!
//! The scenarios run on single-region topologies (uniform intra-region
//! latency) with every designated bufferer receiving the initial
//! multicast, or on RNG-free tree recovery, so the reported metrics —
//! delivery counts, buffer byte×time, peak occupancy, packet counts,
//! recovery latency, residual losses — are fully determined by the
//! scheme, not by which equally-viable peer a random draw picks. Any drift
//! means the algorithm changed. Every fixture must hold on the
//! single-queue engine and on the sharded one at one and two shards.

use bytes::Bytes;
use rrmp_core::harness::{RrmpNetwork, RunReport};
use rrmp_core::ids::{MessageId, SeqNo};
use rrmp_core::packet::Packet;
use rrmp_core::policy::{designated_bufferers, PolicyKind};
use rrmp_core::prelude::ProtocolConfig;
use rrmp_netsim::loss::DeliveryPlan;
use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::{presets, NodeId, Topology};

/// The legacy hash-buffering stack on [`hash_plans`].
const LEGACY_HASH: &str = r#"{"scheme":"hash-determ","fully_delivered_members":30,"members":30,"byte_time_total":136460000,"peak_entries_max":2,"peak_entries_mean":0.6000,"packets_sent":106,"mean_recovery_latency_ms":8.0460,"residual_losses":0,"residual_gave_up":0,"residual_pending":0,"recovery_gave_up":0,"faults_dropped":0,"faults_duplicated":0,"watchdog_rearms":0}"#;

/// The legacy sender-based stack: three messages, each held by nodes 0..5 only.
const LEGACY_SENDER_BASED: &str = r#"{"scheme":"sender-based","fully_delivered_members":30,"members":30,"byte_time_total":22800000,"peak_entries_max":3,"peak_entries_mean":0.1000,"packets_sent":150,"mean_recovery_latency_ms":9.3103,"residual_losses":0,"residual_gave_up":0,"residual_pending":0,"recovery_gave_up":0,"faults_dropped":0,"faults_duplicated":0,"watchdog_rearms":0}"#;

/// The legacy stability-detection stack: three messages, each missed by one member.
const LEGACY_STABILITY: &str = r#"{"scheme":"stability","fully_delivered_members":30,"members":30,"byte_time_total":36000000,"peak_entries_max":2,"peak_entries_mean":1.0333,"packets_sent":17412,"mean_recovery_latency_ms":5.1724,"residual_losses":0,"residual_gave_up":0,"residual_pending":0,"recovery_gave_up":0,"faults_dropped":0,"faults_duplicated":0,"watchdog_rearms":0}"#;

/// History packets the legacy stability stack sent in the same run.
const LEGACY_STABILITY_HISTORY: u64 = 17_400;

/// The legacy tree/RMTP stack: a whole-region loss, a scattered loss, no loss.
const LEGACY_TREE_RMTP: &str = r#"{"scheme":"tree-rmtp","fully_delivered_members":12,"members":12,"byte_time_total":67700000,"peak_entries_max":3,"peak_entries_mean":0.7500,"packets_sent":44,"mean_recovery_latency_ms":23.3333,"residual_losses":0,"residual_gave_up":0,"residual_pending":0,"recovery_gave_up":0,"faults_dropped":0,"faults_duplicated":0,"watchdog_rearms":0}"#;

const N: usize = 30;

/// The single-queue engine (`None`) and the sharded one at 1 and 2 shards.
const ENGINES: [Option<usize>; 3] = [None, Some(1), Some(2)];

fn mid(seq: u64) -> MessageId {
    MessageId::new(NodeId(0), SeqNo(seq))
}

fn topo() -> Topology {
    presets::paper_region(N)
}

/// A [`ProtocolConfig`] running `kind` the way the legacy stacks ran: no
/// periodic session ticks (they advertised once per multicast instead).
fn policy_config(kind: PolicyKind) -> ProtocolConfig {
    ProtocolConfig::builder()
        .policy(kind)
        .periodic_sessions(false)
        .build()
        .expect("legacy-scenario policy config is valid")
}

/// Multicasts `payload` with an explicit initial-delivery plan and
/// advertises it via a one-shot session message to every member the plan
/// skips (the sender excluded) — the legacy stacks' injection pattern, so
/// loss detection starts at the instant it did there.
fn multicast_with_session(
    net: &mut RrmpNetwork,
    payload: impl Into<Bytes>,
    plan: &DeliveryPlan,
) -> MessageId {
    let now = net.now();
    let sender = net.sender_node();
    let id = net.multicast_with_plan(payload, plan);
    let session = Packet::Session { source: sender, high: id.seq };
    let skipped: Vec<_> =
        net.topology().nodes().filter(|&n| !plan.receives(n) && n != sender).collect();
    for n in skipped {
        net.inject_packet(n, sender, session.clone(), now);
    }
    id
}

/// Runs `plans` one multicast per 100 ms under `kind` on `engine`, then
/// drains to 2 s — the legacy scenario shape — and reports the run under
/// the legacy stack's `scheme` name.
fn run_legacy_scenario(
    scheme: &'static str,
    topo: Topology,
    kind: PolicyKind,
    seed: u64,
    engine: Option<usize>,
    plans: &[DeliveryPlan],
) -> (RrmpNetwork, Vec<MessageId>, RunReport) {
    let cfg = policy_config(kind);
    let mut net = match engine {
        None => RrmpNetwork::new(topo, cfg, seed),
        Some(shards) => RrmpNetwork::with_shards(topo, cfg, seed, shards),
    };
    let mut ids = Vec::new();
    let mut sent = Vec::new();
    for plan in plans {
        sent.push(net.now());
        ids.push(multicast_with_session(&mut net, &b"diff"[..], plan));
        let next = net.now() + SimDuration::from_millis(100);
        net.run_until(next);
    }
    net.run_until(SimTime::from_secs(2));
    assert_eq!(ids, (1..=plans.len() as u64).map(mid).collect::<Vec<_>>(), "legacy id order");
    let report = net.run_report(scheme, &ids, &sent);
    (net, ids, report)
}

/// Per-message plans where every designated bufferer (k = 6) receives the
/// initial multicast and a fixed set of other members misses it.
fn hash_plans(messages: u64) -> Vec<DeliveryPlan> {
    let members: Vec<NodeId> = (0..N as u32).map(NodeId).collect();
    (1..=messages)
        .map(|seq| {
            let mut holders = designated_bufferers(&members, mid(seq), 6);
            holders.extend((0..8).map(NodeId)); // sender + a few more holders
            DeliveryPlan::only(&topo(), holders)
        })
        .collect()
}

#[test]
fn hash_policy_matches_legacy_reports() {
    for seed in [3u64, 21] {
        for engine in ENGINES {
            let plans = hash_plans(3);
            let (_, _, report) = run_legacy_scenario(
                "hash-determ",
                topo(),
                PolicyKind::HashBufferers,
                seed,
                engine,
                &plans,
            );
            assert_eq!(report.to_json(), LEGACY_HASH, "seed {seed}, engine {engine:?}");
        }
    }
}

#[test]
fn sender_based_policy_matches_legacy_reports() {
    for seed in [5u64, 17] {
        for engine in ENGINES {
            // Everyone except the sender and a few holders misses each
            // message: all recovery funnels through node 0, the only
            // member that buffers (peak 3 at the sender, mean 0.1).
            let plans: Vec<DeliveryPlan> =
                (0..3).map(|_| DeliveryPlan::only(&topo(), (0..5).map(NodeId))).collect();
            let (_, _, report) = run_legacy_scenario(
                "sender-based",
                topo(),
                PolicyKind::SenderBased,
                seed,
                engine,
                &plans,
            );
            assert_eq!(report.to_json(), LEGACY_SENDER_BASED, "seed {seed}, engine {engine:?}");
        }
    }
}

#[test]
fn stability_policy_matches_legacy_reports() {
    // Single-misser plans: every pull target a misser draws holds the
    // message (everyone buffers everything until stability), so request
    // and repair counts, delivery times, history traffic, and the
    // stability-driven discard times are all determined by the scheme.
    for seed in [3u64, 29] {
        for engine in ENGINES {
            let plans: Vec<DeliveryPlan> =
                (1..=3u32).map(|i| DeliveryPlan::all_but(&topo(), [NodeId(10 + i)])).collect();
            let (net, ids, report) = run_legacy_scenario(
                "stability",
                topo(),
                PolicyKind::Stability,
                seed,
                engine,
                &plans,
            );
            assert_eq!(report.to_json(), LEGACY_STABILITY, "seed {seed}, engine {engine:?}");
            // The scheme's signature costs: stable buffers drained
            // everywhere, and history traffic kept flowing even after all
            // losses were repaired.
            for &id in &ids {
                assert_eq!(net.buffered_count(id), 0, "stable {id:?} must drain");
            }
            assert_eq!(
                net.total_counter(|c| c.history_digests_sent),
                LEGACY_STABILITY_HISTORY,
                "identical standing history overhead"
            );
            assert!(net.total_counter(|c| c.stable_discards) >= (N * 3) as u64);
        }
    }
}

#[test]
fn tree_rmtp_policy_matches_legacy_reports() {
    // The tree scheme draws no randomness at all — NACK targets are the
    // fixed view-derived repair servers — so whole-region losses are
    // exactly reproducible, including the parent-server escalation.
    for seed in [7u64, 23] {
        for engine in ENGINES {
            let topo_of = || presets::figure1_chain([4, 4, 4], SimDuration::from_millis(25));
            let plans = [
                DeliveryPlan::all_but(&topo_of(), (8..12).map(NodeId)), // region 2 entirely
                DeliveryPlan::all_but(&topo_of(), [NodeId(5), NodeId(9)]), // scattered
                DeliveryPlan::all(&topo_of()),
            ];
            let (net, _, report) = run_legacy_scenario(
                "tree-rmtp",
                topo_of(),
                PolicyKind::TreeRmtp,
                seed,
                engine,
                &plans,
            );
            assert_eq!(report.to_json(), LEGACY_TREE_RMTP, "seed {seed}, engine {engine:?}");
            // The load-concentration signature: only the three repair
            // servers ever buffer, everyone else holds nothing.
            for server in [0u32, 4, 8] {
                assert_eq!(net.node(NodeId(server)).receiver().store().len(), 3);
            }
            for other in (0..12u32).filter(|n| ![0, 4, 8].contains(n)) {
                assert_eq!(net.node(NodeId(other)).receiver().store().len(), 0);
            }
        }
    }
}

#[test]
fn ported_policies_run_under_churn_and_on_the_sharded_engine() {
    // What the legacy stacks never could: hash buffering under scripted
    // churn, on the conservatively parallel engine, with identical traces
    // at every shard count.
    fn run(shards: usize) -> (usize, usize, u64) {
        let topo = presets::figure1_chain([8, 8, 8], SimDuration::from_millis(25));
        let cfg = policy_config(PolicyKind::HashBufferers);
        let mut net = RrmpNetwork::with_shards(topo, cfg, 11, shards);
        let plan = DeliveryPlan::all_but(net.topology(), (8..14).map(NodeId));
        let id = multicast_with_session(&mut net, &b"churn"[..], &plan);
        net.run_until(SimTime::from_millis(300));
        // A designated bufferer leaves: the duty hands off to the
        // best-ranked survivor instead of vanishing.
        let members: Vec<NodeId> = net.topology().nodes().collect();
        let bufferers = designated_bufferers(&members, id, 6);
        net.schedule_leave(bufferers[0], SimTime::from_millis(350));
        net.run_until(SimTime::from_secs(2));
        (net.delivered_count(id), net.buffered_count(id), net.total_counter(|c| c.handoffs_sent))
    }
    let sequential = run(1);
    assert_eq!(sequential.0, 24, "everyone delivered");
    assert!(sequential.2 >= 1, "leaver handed off its designated copy");
    // The handoff routes to the next-ranked designated member, which may
    // already hold a copy (duty merges) — so k-1 survivors is the floor.
    assert!(sequential.1 >= 5, "designated copies survive the leave: {sequential:?}");
    assert_eq!(sequential, run(2), "sharded run must match the sequential oracle");
    assert_eq!(sequential, run(4), "sharded run must match the sequential oracle");
}

#[test]
fn stability_policy_runs_under_churn_and_on_the_sharded_engine() {
    // What the legacy stability stack never could: multi-region groups on
    // the conservatively parallel engine, and churn that *shrinks the
    // stability quorum* instead of freezing every buffer on a departed
    // member's silence.
    fn run(shards: usize) -> (usize, usize, u64, u64) {
        let topo = presets::figure1_chain([6, 6, 6], SimDuration::from_millis(25));
        let cfg = policy_config(PolicyKind::Stability);
        let mut net = RrmpNetwork::with_shards(topo, cfg, 31, shards);
        let plan = DeliveryPlan::all_but(net.topology(), [NodeId(9)]);
        let id = multicast_with_session(&mut net, &b"churn"[..], &plan);
        net.run_until(SimTime::from_millis(200));
        // A member leaves mid-session. Its silence must not pin the
        // group's buffers: the quorum re-derives from the views.
        net.schedule_leave(NodeId(14), SimTime::from_millis(250));
        let id2 = {
            net.run_until(SimTime::from_millis(400));
            let plan = DeliveryPlan::all_but(net.topology(), [NodeId(3), NodeId(14)]);
            multicast_with_session(&mut net, &b"churn2"[..], &plan)
        };
        net.run_until(SimTime::from_secs(3));
        (
            net.delivered_count(id),
            // Survivors drained both messages once stable — the leaver
            // no longer gates the frontier.
            net.buffered_count(id) + net.buffered_count(id2),
            net.total_counter(|c| c.stable_discards),
            net.total_counter(|c| c.history_digests_sent),
        )
    }
    let sequential = run(1);
    assert_eq!(sequential.0, 18, "everyone delivered the pre-churn message");
    assert_eq!(sequential.1, 0, "stability must drain despite the leave: {sequential:?}");
    assert!(sequential.2 >= 17 * 2, "discards happened on survivors");
    assert!(sequential.3 > 100, "history kept flowing");
    assert_eq!(sequential, run(2), "sharded run must match the sequential oracle");
    assert_eq!(sequential, run(4), "sharded run must match the sequential oracle");
}

#[test]
fn tree_rmtp_policy_runs_under_churn_and_on_the_sharded_engine() {
    // A repair server leaves: the session hands off to the next-lowest
    // member, which inherits the role once the views drop the leaver —
    // and later losses recover through the new server, on every shard
    // layout identically.
    fn run(shards: usize) -> (usize, usize, u64, usize) {
        let topo = presets::figure1_chain([6, 6, 6], SimDuration::from_millis(25));
        let cfg = policy_config(PolicyKind::TreeRmtp);
        let mut net = RrmpNetwork::with_shards(topo, cfg, 17, shards);
        // Region 1 (nodes 6..12) misses entirely; its server (node 6)
        // fetches from region 0's server and serves its receivers.
        let plan = DeliveryPlan::all_but(net.topology(), (6..12).map(NodeId));
        let id = multicast_with_session(&mut net, &b"churn"[..], &plan);
        net.run_until(SimTime::from_millis(400));
        // The region-1 server leaves; node 7 inherits role and buffers.
        net.schedule_leave(NodeId(6), SimTime::from_millis(450));
        net.run_until(SimTime::from_millis(600));
        // A fresh loss in region 1 must now recover through node 7.
        let plan = DeliveryPlan::all_but(net.topology(), [NodeId(8)]);
        let id2 = multicast_with_session(&mut net, &b"churn2"[..], &plan);
        net.run_until(SimTime::from_secs(3));
        (
            net.delivered_count(id),
            net.delivered_count(id2),
            net.total_counter(|c| c.handoffs_sent),
            net.node(NodeId(7)).receiver().store().len(),
        )
    }
    let sequential = run(1);
    assert_eq!(sequential.0, 18, "everyone delivered the pre-churn message");
    assert_eq!(sequential.1, 17, "all survivors delivered the post-churn message");
    assert!(sequential.2 >= 1, "the leaving server handed its session off");
    assert_eq!(sequential.3, 2, "node 7 inherited the server duty and buffers");
    assert_eq!(sequential, run(2), "sharded run must match the sequential oracle");
    assert_eq!(sequential, run(4), "sharded run must match the sequential oracle");
}
