//! Differential tests: the zero-allocation event loop (scratch op buffer,
//! slab timers, fan-out ops, shared `Bytes` payloads) must produce
//! **byte-identical delivery traces** to the straightforward reference
//! implementation (fresh `Vec` per callback, one op and one clone per
//! destination) for the same seed.
//!
//! These tests drive the full RRMP protocol — loss detection, local and
//! remote recovery, regional repair multicasts with randomized back-off,
//! bufferer search, leave-time handoff — so every fast path the refactor
//! introduced is exercised end to end.

use rrmp_core::harness::RrmpNetwork;
use rrmp_core::ids::MessageId;
use rrmp_core::policy::PolicyKind;
use rrmp_core::prelude::ProtocolConfig;
use rrmp_netsim::fault::FaultPlan;
use rrmp_netsim::loss::{DeliveryPlan, LossModel};
use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::{presets, NodeId, RegionId, Topology};

/// The full observable outcome of a run: per-node delivery traces (time,
/// message) in delivery order, plus network counters and protocol totals.
#[derive(Debug, PartialEq)]
struct RunTrace {
    deliveries: Vec<Vec<(SimTime, MessageId)>>,
    unicasts_sent: u64,
    unicasts_dropped: u64,
    timers_set: u64,
    timers_fired: u64,
    events_processed: u64,
    local_requests: u64,
    remote_requests: u64,
    repairs: u64,
    regional_multicasts: u64,
    handoffs: u64,
}

fn trace_of(net: &RrmpNetwork) -> RunTrace {
    let c = net.net_counters();
    RunTrace {
        deliveries: net.nodes().map(|(_, n)| n.delivered().to_vec()).collect(),
        unicasts_sent: c.unicasts_sent,
        unicasts_dropped: c.unicasts_dropped,
        timers_set: c.timers_set,
        timers_fired: c.timers_fired,
        events_processed: c.events_processed,
        local_requests: net.total_counter(|c| c.local_requests_sent),
        remote_requests: net.total_counter(|c| c.remote_requests_sent),
        repairs: net.total_counter(|c| c.repairs_sent_local + c.repairs_sent_remote),
        regional_multicasts: net.total_counter(|c| c.regional_multicasts_sent),
        handoffs: net.total_counter(|c| c.handoffs_sent),
    }
}

/// Runs `scenario` on both event loops and asserts identical traces.
fn assert_trace_equal<F>(
    topo_of: impl Fn() -> Topology,
    cfg: ProtocolConfig,
    seed: u64,
    scenario: F,
) where
    F: Fn(&mut RrmpNetwork),
{
    let mut optimized = RrmpNetwork::with_sender(topo_of(), cfg.clone(), seed, NodeId(0));
    scenario(&mut optimized);
    let mut reference = RrmpNetwork::new_reference(topo_of(), cfg, seed);
    scenario(&mut reference);
    assert_eq!(
        trace_of(&optimized),
        trace_of(&reference),
        "optimized and reference event loops diverged (seed {seed})"
    );
}

#[test]
fn single_region_recovery_traces_match() {
    for seed in [1u64, 7, 99, 1234] {
        assert_trace_equal(
            || presets::paper_region(40),
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
        );
    }
}

#[test]
fn hierarchical_recovery_with_regional_multicast_traces_match() {
    for seed in [3u64, 42] {
        assert_trace_equal(
            || presets::figure1_chain([8, 8, 8], SimDuration::from_millis(25)),
            ProtocolConfig::paper_defaults(),
            seed,
            |net| {
                // Region 1 misses entirely: remote recovery + regional
                // repair multicast (the send_many fast path) kick in.
                let plan = DeliveryPlan::all_but(net.topology(), (8..16).map(NodeId));
                net.multicast_with_plan(&b"regional"[..], &plan);
                net.run_until(SimTime::from_secs(2));
            },
        );
    }
}

#[test]
fn lossy_multicast_stream_traces_match() {
    for seed in [5u64, 17] {
        assert_trace_equal(
            || presets::paper_region(25),
            ProtocolConfig::paper_defaults(),
            seed,
            |net| {
                net.set_multicast_loss(LossModel::Bernoulli { p: 0.3 });
                for _ in 0..6 {
                    net.multicast(&b"stream"[..]);
                    let next = net.now() + SimDuration::from_millis(25);
                    net.run_until(next);
                }
                net.run_until(SimTime::from_secs(1));
            },
        );
    }
}

#[test]
fn churn_with_handoffs_traces_match() {
    for seed in [2u64, 8] {
        assert_trace_equal(
            || presets::paper_region(20),
            ProtocolConfig::builder().c(1000.0).build().expect("valid config"),
            seed,
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
}

#[test]
fn lossy_unicast_fanout_traces_match() {
    // Unicast (request/repair) loss forces the batched fan-out scheduler
    // to consume the loss RNG per destination — in exactly the reference
    // path's draw order — while retries exercise deep recovery paths.
    for seed in [11u64, 23] {
        assert_trace_equal(
            || presets::figure1_chain([10, 10, 10], SimDuration::from_millis(25)),
            ProtocolConfig::paper_defaults(),
            seed,
            |net| {
                net.sim_mut().set_unicast_loss(LossModel::Bernoulli { p: 0.15 });
                let plan = DeliveryPlan::all_but(net.topology(), (10..20).map(NodeId));
                net.multicast_with_plan(&b"lossy-fanout"[..], &plan);
                net.run_until(SimTime::from_secs(3));
            },
        );
    }
}

#[test]
fn region_correlated_stream_traces_match() {
    // A multi-region stream under region-correlated initial loss: the
    // injected multicasts group holders into per-latency batches (one
    // batch per region distance) and regional repair multicasts expand
    // lazily at delivery time.
    for seed in [31u64, 59] {
        assert_trace_equal(
            || presets::figure1_chain([8, 8, 8], SimDuration::from_millis(25)),
            ProtocolConfig::paper_defaults(),
            seed,
            |net| {
                net.set_multicast_loss(LossModel::RegionCorrelated {
                    p_region: 0.3,
                    p_member: 0.1,
                });
                for _ in 0..4 {
                    net.multicast(&b"regional-stream"[..]);
                    let next = net.now() + SimDuration::from_millis(40);
                    net.run_until(next);
                }
                net.run_until(SimTime::from_secs(3));
            },
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
fn env_selected_shard_count_matches_sequential_oracle() {
    // `RRMP_SIM_SHARDS` (the CI matrix knob) picks the layout for
    // `new_sharded`; whatever its value, the trace must match the
    // explicit shards=1 oracle byte for byte.
    let topo_of = || presets::figure1_chain([8, 8, 8], SimDuration::from_millis(25));
    let scenario = |net: &mut RrmpNetwork| {
        net.set_unicast_loss(LossModel::Bernoulli { p: 0.1 });
        let plan = DeliveryPlan::all_but(net.topology(), (8..16).map(NodeId));
        net.multicast_with_plan(&b"env-shards"[..], &plan);
        net.run_until(SimTime::from_secs(2));
    };
    let mut oracle = RrmpNetwork::with_shards(topo_of(), ProtocolConfig::paper_defaults(), 5, 1);
    scenario(&mut oracle);
    let mut env_net = RrmpNetwork::new_sharded(topo_of(), ProtocolConfig::paper_defaults(), 5);
    scenario(&mut env_net);
    assert_eq!(
        trace_of(&oracle),
        trace_of(&env_net),
        "RRMP_SIM_SHARDS={} diverged from the sequential oracle",
        env_net.shards()
    );
}

#[test]
fn sharded_churn_with_handoffs_traces_match() {
    // Leaves and crashes drive external timers and handoff unicasts
    // through the sharded engine.
    assert_sharded_trace_equal(
        || presets::figure1_chain([7, 7, 7], SimDuration::from_millis(25)),
        ProtocolConfig::builder().c(1000.0).build().expect("valid config"),
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
fn ported_policy_traces_match_across_event_loops() {
    // The comparison schemes run as policies on the same engines as the
    // default algorithm — and must stay byte-identical between the
    // optimized and reference event loops, like every other policy.
    for kind in [
        PolicyKind::HashBufferers,
        PolicyKind::SenderBased,
        PolicyKind::KeepAll,
        PolicyKind::Stability,
        PolicyKind::TreeRmtp,
    ] {
        let cfg = ProtocolConfig::builder().policy(kind).build().expect("valid policy config");
        assert_trace_equal(
            || presets::figure1_chain([8, 8, 8], SimDuration::from_millis(25)),
            cfg,
            19,
            |net| {
                net.set_multicast_loss(LossModel::Bernoulli { p: 0.2 });
                for _ in 0..4 {
                    net.multicast(&b"policy-stream"[..]);
                    let next = net.now() + SimDuration::from_millis(40);
                    net.run_until(next);
                }
                net.run_until(SimTime::from_secs(2));
            },
        );
    }
}

#[test]
fn sharded_ported_policy_traces_match() {
    // Hash placement is topology-blind: its pulls routinely cross region
    // (and therefore shard) boundaries, exercising the mailbox merge
    // under a policy the sharded engine never hosted before.
    let cfg = ProtocolConfig::builder()
        .policy(PolicyKind::HashBufferers)
        .build()
        .expect("valid policy config");
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
    let cfg = ProtocolConfig::builder()
        .policy(PolicyKind::Stability)
        .build()
        .expect("valid policy config");
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
    let cfg = ProtocolConfig::builder()
        .policy(PolicyKind::TreeRmtp)
        .build()
        .expect("valid policy config");
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
fn env_selected_policy_matches_reference_loop() {
    // `RRMP_POLICY` (the CI matrix knob) swaps the buffer policy for
    // every opted-in construction; whatever its value, the optimized and
    // reference event loops must agree and the group must fully recover.
    let mut cfg = ProtocolConfig::paper_defaults();
    if let Some(kind) = PolicyKind::from_env() {
        cfg.policy = kind;
    }
    let topo_of = || presets::paper_region(30);
    let scenario = |net: &mut RrmpNetwork| {
        let plan = DeliveryPlan::only(net.topology(), (0..20).map(NodeId));
        let id = net.multicast_with_plan(&b"env-policy"[..], &plan);
        net.run_until(SimTime::from_secs(2));
        assert!(net.all_delivered(id), "policy must recover: {}", net.delivered_count(id));
    };
    let mut optimized = RrmpNetwork::new_env_policy(topo_of(), ProtocolConfig::paper_defaults(), 9);
    scenario(&mut optimized);
    let mut reference = RrmpNetwork::new_reference(topo_of(), cfg, 9);
    scenario(&mut reference);
    assert_eq!(
        trace_of(&optimized),
        trace_of(&reference),
        "env-selected policy diverged between event loops"
    );
}

/// One fault plan exercising every episode kind: a region partition that
/// heals mid-run (driving [`Receiver::on_heal`] re-arming through the
/// `HEAL_TOKEN` external timers), a node stall, a region-scoped loss
/// burst overriding the base model, and bounded duplication.
fn mixed_fault_plan() -> FaultPlan {
    FaultPlan::new(42)
        .partition(RegionId(0), RegionId(1), SimTime::from_millis(200), SimTime::from_millis(600))
        .stall(NodeId(20), SimTime::from_millis(300), SimTime::from_millis(500))
        .loss_burst(0.4, Some(RegionId(2)), SimTime::from_millis(100), SimTime::from_millis(400))
        .duplicate(0.2, SimDuration::from_millis(5), SimTime::ZERO, SimTime::from_millis(800))
}

#[test]
fn fault_plan_traces_match_across_event_loops() {
    // The fault edge sits in front of the loss model in both event loops;
    // drops, burst overrides, and duplicate copies must consume RNG and
    // emit events in exactly the same order, and the heal notifications
    // at 400/500/600 ms must re-arm recovery identically.
    for seed in [13u64, 47] {
        assert_trace_equal(
            || presets::figure1_chain([8, 8, 8], SimDuration::from_millis(25)),
            ProtocolConfig::paper_defaults(),
            seed,
            |net| {
                net.arm_fault_plan(mixed_fault_plan());
                net.set_multicast_loss(LossModel::Bernoulli { p: 0.2 });
                for _ in 0..4 {
                    net.multicast(&b"faulted-stream"[..]);
                    let next = net.now() + SimDuration::from_millis(40);
                    net.run_until(next);
                }
                net.run_until(SimTime::from_secs(3));
            },
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
    // at whatever `RRMP_SIM_SHARDS` selects.
    let far = SimTime::from_secs(10_000);
    let inert = FaultPlan::new(11)
        .partition(RegionId(0), RegionId(1), far, far + SimDuration::from_secs(1))
        .stall(NodeId(5), far, far + SimDuration::from_secs(1))
        .duplicate(0.0, SimDuration::from_millis(5), SimTime::ZERO, far);
    let engines: [fn(Topology, ProtocolConfig, u64) -> RrmpNetwork; 2] =
        [RrmpNetwork::new, RrmpNetwork::new_sharded];
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
fn env_fault_plan_matches_explicit_plan() {
    // `RRMP_FAULTS` (the CI chaos knob) arms the same plan
    // `FaultPlan::parse` builds explicitly; the env-armed run must match
    // the explicitly-armed oracle byte for byte. Set the variable inside
    // the test: no other test in this binary reads it.
    const SPEC: &str = "seed=3;partition=0-1@150..450;burst=0.3:2@100..300;dup=0.25+4@0..600";
    std::env::set_var("RRMP_FAULTS", SPEC);
    let topo_of = || presets::figure1_chain([8, 8, 8], SimDuration::from_millis(25));
    let scenario = |net: &mut RrmpNetwork| {
        net.set_multicast_loss(LossModel::Bernoulli { p: 0.25 });
        for _ in 0..3 {
            net.multicast(&b"env-faults"[..]);
            let next = net.now() + SimDuration::from_millis(40);
            net.run_until(next);
        }
        net.run_until(SimTime::from_secs(2));
    };
    let mut oracle = RrmpNetwork::with_fault_plan(
        topo_of(),
        ProtocolConfig::paper_defaults(),
        21,
        FaultPlan::parse(SPEC).expect("spec parses"),
    );
    scenario(&mut oracle);
    let mut env_net = RrmpNetwork::new(topo_of(), ProtocolConfig::paper_defaults(), 21);
    assert!(env_net.arm_env_fault_plan(), "RRMP_FAULTS was set; a plan must arm");
    assert!(env_net.fault_plan().is_some_and(|p| !p.is_empty()));
    scenario(&mut env_net);
    assert_eq!(
        trace_of(&oracle),
        trace_of(&env_net),
        "RRMP_FAULTS-armed run diverged from the explicitly-armed plan"
    );
    std::env::remove_var("RRMP_FAULTS");
    let mut unarmed = RrmpNetwork::new(topo_of(), ProtocolConfig::paper_defaults(), 21);
    assert!(!unarmed.arm_env_fault_plan(), "no RRMP_FAULTS means no plan");
}

#[test]
fn session_driven_tail_loss_traces_match() {
    assert_trace_equal(
        || presets::paper_region(30),
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
    );
}
