//! Pinned outcomes of the single-queue engine, and the sharded engine
//! held to itself.
//!
//! The scenarios drive the full RRMP protocol — loss detection, local and
//! remote recovery, regional repair multicasts with randomized back-off,
//! bufferer search, leave-time handoff, fault plans — through every
//! fan-out path: a batch per arrival time, pooled target vectors, shared
//! `Bytes` payloads. Each `*_is_pinned` test asserts the fingerprint of
//! its outcome ([`common::RunTrace`]). Every fingerprint was recorded
//! while a reference event loop (a fresh buffer per callback, one op and
//! one queue entry per destination) still ran beside the fan-out path and
//! produced the identical trace for the same scenario and seed, so a
//! fingerprint stands for that comparison. The `sharded_*` tests assert
//! byte-identical traces at 1, 2 and 4 workers.

mod common;

use common::{fingerprint, trace_of};
use rrmp_core::harness::RrmpNetwork;
use rrmp_core::policy::PolicyKind;
use rrmp_core::prelude::ProtocolConfig;
use rrmp_netsim::fault::FaultPlan;
use rrmp_netsim::loss::{DeliveryPlan, LossModel};
use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::{presets, NodeId, RegionId, Topology};

/// Runs `scenario` on the single-queue engine and asserts the fingerprint
/// of its outcome.
fn assert_pinned<F>(topo: Topology, cfg: ProtocolConfig, seed: u64, scenario: F, pin: u64)
where
    F: Fn(&mut RrmpNetwork),
{
    let mut net = RrmpNetwork::new(topo, cfg, seed);
    scenario(&mut net);
    let got = fingerprint(&net);
    assert_eq!(got, pin, "seed {seed}: the outcome moved (fingerprint {got:#018x})");
}

/// Multicasts `payload` `count` times, `gap` apart, then runs until `end`.
fn stream(net: &mut RrmpNetwork, payload: &'static [u8], count: usize, gap: u64, end: SimTime) {
    for _ in 0..count {
        net.multicast(payload);
        let next = net.now() + SimDuration::from_millis(gap);
        net.run_until(next);
    }
    net.run_until(end);
}

#[test]
fn single_region_recovery_is_pinned() {
    // Seeds 1 and 99 read `golden_traces.rs`' two `single_region_recovery`
    // values, which pin them there.
    for (seed, pin) in [(7u64, 0xd7dd_3e78_638d_4b9b), (1234, 0x2774_3039_5032_6496)] {
        assert_pinned(
            presets::paper_region(40),
            ProtocolConfig::paper_defaults(),
            seed,
            |net| {
                let plan = DeliveryPlan::only(net.topology(), (0..10).map(NodeId));
                net.multicast_with_plan(&b"trace-a"[..], &plan);
                net.run_until(SimTime::from_millis(400));
                let plan = DeliveryPlan::all_but(net.topology(), (20..30).map(NodeId));
                net.multicast_with_plan(&b"trace-b"[..], &plan);
                net.run_until(SimTime::from_secs(1));
            },
            pin,
        );
    }
}

#[test]
fn hierarchical_recovery_with_regional_multicast_is_pinned() {
    for (seed, pin) in [(3u64, 0x6eca_be61_6104_ebe9), (42, 0x6e68_726b_eea3_6b9f)] {
        assert_pinned(
            presets::figure1_chain([8, 8, 8], SimDuration::from_millis(25)),
            ProtocolConfig::paper_defaults(),
            seed,
            |net| {
                // Region 1 misses entirely: remote recovery + regional
                // repair multicast (a `send_many` fan-out) kick in.
                let plan = DeliveryPlan::all_but(net.topology(), (8..16).map(NodeId));
                net.multicast_with_plan(&b"regional"[..], &plan);
                net.run_until(SimTime::from_secs(2));
            },
            pin,
        );
    }
}

#[test]
fn lossy_multicast_stream_is_pinned() {
    for (seed, pin) in [(5u64, 0x7c02_2374_4fc0_cafa), (17, 0x7df3_2823_6a44_3091)] {
        assert_pinned(
            presets::paper_region(25),
            ProtocolConfig::paper_defaults(),
            seed,
            |net| {
                net.set_multicast_loss(LossModel::Bernoulli { p: 0.3 });
                stream(net, b"stream", 6, 25, SimTime::from_secs(1));
            },
            pin,
        );
    }
}

#[test]
fn lossy_unicast_fanout_is_pinned() {
    // Unicast (request/repair) loss makes the batched fan-out scheduler
    // consume the loss RNG per destination, in target order, while
    // retries exercise deep recovery paths.
    for (seed, pin) in [(11u64, 0xb655_a171_c17f_34a6), (23, 0x2bc2_95e7_156c_da29)] {
        assert_pinned(
            presets::figure1_chain([10, 10, 10], SimDuration::from_millis(25)),
            ProtocolConfig::paper_defaults(),
            seed,
            |net| {
                net.sim_mut().set_unicast_loss(LossModel::Bernoulli { p: 0.15 });
                let plan = DeliveryPlan::all_but(net.topology(), (10..20).map(NodeId));
                net.multicast_with_plan(&b"lossy-fanout"[..], &plan);
                net.run_until(SimTime::from_secs(3));
            },
            pin,
        );
    }
}

#[test]
fn region_correlated_stream_is_pinned() {
    // A multi-region stream under region-correlated initial loss: the
    // injected multicasts group holders into per-latency batches (one
    // batch per region distance) and regional repair multicasts expand
    // lazily at delivery time.
    for (seed, pin) in [(31u64, 0x66c4_e744_9d52_164f), (59, 0xf1b1_7918_e584_b6bc)] {
        assert_pinned(
            presets::figure1_chain([8, 8, 8], SimDuration::from_millis(25)),
            ProtocolConfig::paper_defaults(),
            seed,
            |net| {
                net.set_multicast_loss(LossModel::RegionCorrelated {
                    p_region: 0.3,
                    p_member: 0.1,
                });
                stream(net, b"regional-stream", 4, 40, SimTime::from_secs(3));
            },
            pin,
        );
    }
}

/// Runs `scenario` on the **sharded** engine at shard counts 1, 2, and 4
/// and asserts byte-identical traces: `shards = 1` is the sequential
/// oracle of the conservative-window engine, and every parallel layout
/// must reproduce it exactly (same per-node deliveries, same counters,
/// same RNG draws).
fn assert_sharded_trace_equal<F>(
    topo_of: impl Fn() -> Topology,
    cfg: ProtocolConfig,
    seed: u64,
    scenario: F,
) where
    F: Fn(&mut RrmpNetwork),
{
    let mut sequential = RrmpNetwork::with_shards(topo_of(), cfg.clone(), seed, 1);
    assert_eq!(sequential.shards(), 1);
    scenario(&mut sequential);
    let oracle = trace_of(&sequential);
    for shards in [2usize, 4] {
        let mut net = RrmpNetwork::with_shards(topo_of(), cfg.clone(), seed, shards);
        scenario(&mut net);
        assert_eq!(
            oracle,
            trace_of(&net),
            "sharded run diverged from the sequential oracle (shards {}, seed {seed})",
            net.shards()
        );
    }
}

#[test]
fn sharded_hierarchical_recovery_traces_match() {
    // Region 1 misses the multicast entirely: remote recovery crosses
    // region (and shard) boundaries, and the regional repair multicast
    // exercises the intra-shard batch path.
    for seed in [3u64, 42] {
        assert_sharded_trace_equal(
            || presets::figure1_chain([8, 8, 8], SimDuration::from_millis(25)),
            ProtocolConfig::paper_defaults(),
            seed,
            |net| {
                let plan = DeliveryPlan::all_but(net.topology(), (8..16).map(NodeId));
                net.multicast_with_plan(&b"regional"[..], &plan);
                net.run_until(SimTime::from_secs(2));
            },
        );
    }
}

/// A multi-region stream under region-correlated initial loss plus
/// unicast loss: every cross-shard mailbox merge and per-sender loss
/// stream is exercised over repeated windows.
fn lossy_region_stream(net: &mut RrmpNetwork) {
    net.set_multicast_loss(LossModel::RegionCorrelated { p_region: 0.3, p_member: 0.1 });
    net.set_unicast_loss(LossModel::Bernoulli { p: 0.1 });
    for _ in 0..4 {
        net.multicast(&b"sharded-stream"[..]);
        let next = net.now() + SimDuration::from_millis(40);
        net.run_until(next);
    }
    net.run_until(SimTime::from_secs(3));
}

#[test]
fn sharded_lossy_stream_traces_match() {
    for seed in [7u64, 31] {
        assert_sharded_trace_equal(
            || presets::region_tree(6, 2, 2, SimDuration::from_millis(25)),
            ProtocolConfig::paper_defaults(),
            seed,
            lossy_region_stream,
        );
    }
}

#[test]
fn sharded_lossy_remote_recovery_traces_match() {
    // Region 1 misses the multicast while unicasts are lossy: remote
    // requests and repairs that cross shards are dropped and retried.
    assert_sharded_trace_equal(
        || presets::figure1_chain([8, 8, 8], SimDuration::from_millis(25)),
        ProtocolConfig::paper_defaults(),
        5,
        |net| {
            net.set_unicast_loss(LossModel::Bernoulli { p: 0.1 });
            let plan = DeliveryPlan::all_but(net.topology(), (8..16).map(NodeId));
            net.multicast_with_plan(&b"lossy-remote"[..], &plan);
            net.run_until(SimTime::from_secs(2));
        },
    );
}

#[test]
fn sharded_churn_with_handoffs_traces_match() {
    // Leaves and crashes drive external timers and handoff unicasts
    // through the sharded engine.
    assert_sharded_trace_equal(
        || presets::figure1_chain([7, 7, 7], SimDuration::from_millis(25)),
        ProtocolConfig { c: 1000.0, ..ProtocolConfig::paper_defaults() },
        8,
        |net| {
            let plan = DeliveryPlan::all(net.topology());
            net.multicast_with_plan(&b"churn"[..], &plan);
            net.run_until(SimTime::from_millis(200));
            net.schedule_leave(NodeId(3), SimTime::from_millis(250));
            net.schedule_crash(NodeId(9), SimTime::from_millis(300));
            net.run_until(SimTime::from_millis(600));
        },
    );
}

#[test]
fn ported_policies_are_pinned() {
    // The comparison schemes run as policies on the same engines as the
    // default algorithm.
    for (kind, pin) in [
        (PolicyKind::HashBufferers, 0x9398_00dd_ba95_3d2c),
        (PolicyKind::SenderBased, 0x3e06_2e64_19a6_ba1f),
        (PolicyKind::KeepAll, 0xacc9_faea_e43a_8cb6),
        (PolicyKind::Stability, 0xa1c8_ac0a_f739_a959),
        (PolicyKind::TreeRmtp, 0xacd3_f607_16e5_d000),
    ] {
        let cfg = ProtocolConfig { policy: kind, ..ProtocolConfig::paper_defaults() };
        assert_pinned(
            presets::figure1_chain([8, 8, 8], SimDuration::from_millis(25)),
            cfg,
            19,
            |net| {
                net.set_multicast_loss(LossModel::Bernoulli { p: 0.2 });
                stream(net, b"policy-stream", 4, 40, SimTime::from_secs(2));
            },
            pin,
        );
    }
}

#[test]
fn sharded_ported_policy_traces_match() {
    // Hash placement is topology-blind: its pulls routinely cross region
    // (and therefore shard) boundaries, exercising the mailbox merge
    // under a policy the sharded engine never hosted before.
    let cfg =
        ProtocolConfig { policy: PolicyKind::HashBufferers, ..ProtocolConfig::paper_defaults() };
    assert_sharded_trace_equal(
        || presets::figure1_chain([8, 8, 8], SimDuration::from_millis(25)),
        cfg,
        23,
        |net| {
            let plan = DeliveryPlan::all_but(net.topology(), (8..16).map(NodeId));
            net.multicast_with_plan(&b"sharded-hash"[..], &plan);
            net.run_until(SimTime::from_secs(2));
        },
    );
}

#[test]
fn sharded_history_exchange_policy_traces_match() {
    // Stability detection floods every shard pair with history unicasts
    // on each tick — the densest cross-shard mailbox traffic any policy
    // generates — while the HistoryTick timer chain re-arms per member.
    let cfg = ProtocolConfig { policy: PolicyKind::Stability, ..ProtocolConfig::paper_defaults() };
    assert_sharded_trace_equal(
        || presets::figure1_chain([6, 6, 6], SimDuration::from_millis(25)),
        cfg,
        29,
        |net| {
            let plan = DeliveryPlan::all_but(net.topology(), (6..12).map(NodeId));
            net.multicast_with_plan(&b"sharded-stability"[..], &plan);
            net.run_until(SimTime::from_secs(2));
        },
    );
}

#[test]
fn sharded_tree_rmtp_policy_traces_match() {
    // Repair-server NACK escalation crosses region (and shard)
    // boundaries twice: receivers → server, server → parent server.
    let cfg = ProtocolConfig { policy: PolicyKind::TreeRmtp, ..ProtocolConfig::paper_defaults() };
    assert_sharded_trace_equal(
        || presets::figure1_chain([6, 6, 6], SimDuration::from_millis(25)),
        cfg,
        37,
        |net| {
            let plan = DeliveryPlan::all_but(net.topology(), (6..12).map(NodeId));
            net.multicast_with_plan(&b"sharded-tree"[..], &plan);
            net.schedule_leave(NodeId(6), SimTime::from_millis(400));
            net.run_until(SimTime::from_secs(2));
        },
    );
}

#[test]
fn every_policy_and_budget_is_pinned() {
    // Each policy, with and without a per-receiver memory budget, must
    // fully recover with the same outcome. The 1 MiB budget never reaches
    // the pressure tier here, so arming its accounting must not change
    // the trace. How many members
    // still hold the message at the end is each policy's signature: the
    // two-phase long-term bufferers (a random draw with mean C), the six
    // hash-designated bufferers, none once stability is detected, the one
    // repair server.
    const MIB: usize = 1 << 20;
    let topo_of = || presets::paper_region(30);
    let scenario = |net: &mut RrmpNetwork| {
        let plan = DeliveryPlan::only(net.topology(), (0..20).map(NodeId));
        let id = net.multicast_with_plan(&b"every-policy"[..], &plan);
        net.run_until(SimTime::from_secs(2));
        assert!(net.all_delivered(id), "policy must recover: {}", net.delivered_count(id));
        net.buffered_count(id)
    };
    for (policy, holders, pin) in [
        (PolicyKind::TwoPhase, 4, 0xc21e_3359_b386_6ec0),
        (PolicyKind::HashBufferers, 6, 0x6a4b_128b_1ccb_4b43),
        (PolicyKind::Stability, 0, 0x08a6_4331_d8ae_afe2),
        (PolicyKind::TreeRmtp, 1, 0xaa9e_a591_f823_f701),
    ] {
        for memory_budget in [None, Some(MIB)] {
            let cfg = ProtocolConfig { policy, memory_budget, ..ProtocolConfig::paper_defaults() };
            let mut net = RrmpNetwork::new(topo_of(), cfg, 9);
            assert_eq!(scenario(&mut net), holders, "{} holders", policy.name());
            let got = fingerprint(&net);
            assert_eq!(got, pin, "{} with budget {memory_budget:?}: {got:#018x}", policy.name());
        }
    }
}

/// A partition, a burst scoped to region 2, and duplication throughout.
fn region_burst_fault_plan() -> FaultPlan {
    FaultPlan::new(3)
        .partition(RegionId(0), RegionId(1), SimTime::from_millis(150), SimTime::from_millis(450))
        .loss_burst(0.3, Some(RegionId(2)), SimTime::from_millis(100), SimTime::from_millis(300))
        .duplicate(0.25, SimDuration::from_millis(4), SimTime::ZERO, SimTime::from_millis(600))
}

/// One fault plan exercising every episode kind: a region partition that
/// heals mid-run (driving [`Receiver::on_heal`] re-arming through the
/// harness's external heal timers), a node stall, a region-scoped loss
/// burst overriding the base model, and bounded duplication.
fn mixed_fault_plan() -> FaultPlan {
    FaultPlan::new(42)
        .partition(RegionId(0), RegionId(1), SimTime::from_millis(200), SimTime::from_millis(600))
        .stall(NodeId(20), SimTime::from_millis(300), SimTime::from_millis(500))
        .loss_burst(0.4, Some(RegionId(2)), SimTime::from_millis(100), SimTime::from_millis(400))
        .duplicate(0.2, SimDuration::from_millis(5), SimTime::ZERO, SimTime::from_millis(800))
}

#[test]
fn fault_plans_are_pinned() {
    // The fault edge sits in front of the loss model: drops, burst
    // overrides and duplicate copies consume the loss RNG and emit events
    // in destination order, and the heal notifications at 400/500/600 ms
    // re-arm recovery.
    for (seed, plan, pin) in [
        (13u64, mixed_fault_plan(), 0x1058_2e7f_293f_e318),
        (47, mixed_fault_plan(), 0xee9e_dd8e_a5ae_fc71),
        (21, region_burst_fault_plan(), 0x41c3_e090_8607_6603),
    ] {
        assert_pinned(
            presets::figure1_chain([8, 8, 8], SimDuration::from_millis(25)),
            ProtocolConfig::paper_defaults(),
            seed,
            |net| {
                net.arm_fault_plan(plan.clone());
                net.set_multicast_loss(LossModel::Bernoulli { p: 0.2 });
                stream(net, b"faulted-stream", 4, 40, SimTime::from_secs(3));
            },
            pin,
        );
    }
}

#[test]
fn sharded_fault_plan_traces_match() {
    // Fault verdicts are pure functions of (plan, send time, from, to) —
    // no engine RNG involved — so the same plan must yield byte-identical
    // traces at every shard count, including a permanent crash whose
    // protocol half (view removal, buffer drop) rides external timers.
    for seed in [19u64, 61] {
        assert_sharded_trace_equal(
            || presets::figure1_chain([8, 8, 8], SimDuration::from_millis(25)),
            ProtocolConfig::paper_defaults(),
            seed,
            |net| {
                net.arm_fault_plan(mixed_fault_plan().crash(NodeId(9), SimTime::from_millis(350)));
                let plan = DeliveryPlan::all_but(net.topology(), (8..16).map(NodeId));
                net.multicast_with_plan(&b"sharded-faults"[..], &plan);
                net.run_until(SimTime::from_secs(3));
            },
        );
    }
}

#[test]
fn inert_fault_plan_leaves_trace_unchanged() {
    // Armed, but no verdict can change: the partition and the stall sit in
    // a far-future window (scanned per copy, never active) and the
    // duplication spans the whole run at p = 0 (active, so every surviving
    // copy pays the window check and the hash-oracle draw). The fault hook
    // must then be invisible — same deliveries at the same instants, same
    // engine RNG draws — on the single-queue engine and on the sharded one
    // at one and four shards.
    let far = SimTime::from_secs(10_000);
    let inert = FaultPlan::new(11)
        .partition(RegionId(0), RegionId(1), far, far + SimDuration::from_secs(1))
        .stall(NodeId(5), far, far + SimDuration::from_secs(1))
        .duplicate(0.0, SimDuration::from_millis(5), SimTime::ZERO, far);
    let engines: [fn(Topology, ProtocolConfig, u64) -> RrmpNetwork; 3] = [
        RrmpNetwork::new,
        |topo, cfg, seed| RrmpNetwork::with_shards(topo, cfg, seed, 1),
        |topo, cfg, seed| RrmpNetwork::with_shards(topo, cfg, seed, 4),
    ];
    for build in engines {
        let topo_of = || presets::region_tree(6, 2, 2, SimDuration::from_millis(25));
        let mut unarmed = build(topo_of(), ProtocolConfig::paper_defaults(), 7);
        lossy_region_stream(&mut unarmed);
        let mut armed = build(topo_of(), ProtocolConfig::paper_defaults(), 7);
        armed.arm_fault_plan(inert.clone());
        lossy_region_stream(&mut armed);

        // The one thing arming adds: a heal notification per member for
        // each heal instant of the plan, set at arm time and still pending.
        let pending_heals = (inert.heal_times().len() * armed.topology().node_count()) as u64;
        let mut expect = trace_of(&unarmed);
        expect.timers_set += pending_heals;
        assert_eq!(expect, trace_of(&armed), "shards {}", armed.shards());
        let mut counters = unarmed.net_counters();
        counters.timers_set += pending_heals;
        assert_eq!(counters, armed.net_counters(), "shards {}", armed.shards());
        assert_eq!(counters.faults_dropped, 0);
    }
}

#[test]
fn stability_fanout_under_loss_and_faults_traces_match() {
    // Each history tick is one fan-out. Over three regions under unicast
    // loss and a fault plan, its per-destination loss draws, fault
    // verdicts and duplicates landed exactly where one unicast per peer
    // put them when the fingerprints were recorded. The two engines draw
    // unicast loss from different streams, so the single-queue engine is
    // held to its fingerprint and four shards to one; the sharded engine
    // is also held to conservation: every copy not dropped arrives,
    // duplicates included.
    let cfg = ProtocolConfig {
        policy: PolicyKind::Stability,
        session_interval: SimDuration::from_millis(50),
        ..ProtocolConfig::paper_defaults()
    };
    let topo_of = || presets::figure1_chain([8, 8, 8], SimDuration::from_millis(25));
    let scenario = |net: &mut RrmpNetwork| {
        net.arm_fault_plan(mixed_fault_plan());
        net.set_unicast_loss(LossModel::Bernoulli { p: 0.1 });
        let plan = DeliveryPlan::all_but(net.topology(), (8..16).map(NodeId));
        let injected = net.topology().nodes().filter(|&n| plan.receives(n)).count() as u64;
        net.multicast_with_plan(&b"stability-fanout"[..], &plan);
        // Recovery is long over by then, and the history and session
        // ticks fire every 100 and 50 ms: stopping 40 ms after one leaves
        // nothing in flight (25 ms latency, 5 ms duplicate delay).
        net.run_until(SimTime::from_millis(990));
        let c = net.net_counters();
        assert!(c.faults_duplicated > 0, "duplicates exercised");
        assert_eq!(
            c.delivered,
            injected + c.unicasts_sent - c.unicasts_dropped + c.faults_duplicated,
            "copies lost between send and delivery"
        );
        assert!(net.total_counter(|c| c.stable_discards) > 0, "digests drove discards");
    };
    for (seed, pin) in [(13u64, 0xf89e_2afa_aa52_c4cb), (71, 0x7a85_90dd_d181_877d)] {
        assert_pinned(topo_of(), cfg.clone(), seed, scenario, pin);
        assert_sharded_trace_equal(topo_of, cfg.clone(), seed, scenario);
    }
}

#[test]
fn session_driven_tail_loss_is_pinned() {
    assert_pinned(
        presets::paper_region(30),
        ProtocolConfig::paper_defaults(),
        77,
        |net| {
            // The last message of the burst is lost everywhere except the
            // sender; only session advertisements can expose it.
            let plan = DeliveryPlan::all(net.topology());
            net.multicast_with_plan(&b"one"[..], &plan);
            let plan = DeliveryPlan::only(net.topology(), [NodeId(0)]);
            net.multicast_with_plan(&b"two"[..], &plan);
            net.run_until(SimTime::from_secs(1));
        },
        0x5985_7a79_6380_b5d8,
    );
}
