//! Chaos harness: randomized — but fully deterministic — fault plans run
//! under every buffer-management policy, asserting run-level invariants
//! instead of exact traces:
//!
//! * **no panics** — the protocol survives partitions, blackouts, loss
//!   bursts, duplication, and crash/stall churn on any engine;
//! * **bounded buffer growth** — no member ever holds more entries than
//!   messages sent (duplication and replays must not inflate state);
//! * **post-heal convergence** — once every fault window has healed and
//!   the run has drained, every *surviving* member has either delivered
//!   each message or given up on it cleanly (`recovery_gave_up`
//!   accounting), never left it silently in limbo.
//!
//! Plans are generated from fixed seeds via `StdRng`, so a failure
//! reproduces exactly. Every run happens at each of [`SHARDS`]: the
//! sequential oracle and the parallel driver must agree outcome for
//! outcome, not just both satisfy the invariants.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrmp_core::harness::RrmpNetwork;
use rrmp_core::ids::MessageId;
use rrmp_core::policy::PolicyKind;
use rrmp_core::prelude::{Counters, DampingConfig, ProtocolConfig, WatchdogConfig};
use rrmp_netsim::fault::FaultPlan;
use rrmp_netsim::loss::LossModel;
use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::{presets, NodeId, RegionId, Topology};

const ALL_POLICIES: [PolicyKind; 7] = [
    PolicyKind::TwoPhase,
    PolicyKind::FixedTime { hold: SimDuration::from_millis(500) },
    PolicyKind::KeepAll,
    PolicyKind::HashBufferers,
    PolicyKind::SenderBased,
    PolicyKind::Stability,
    PolicyKind::TreeRmtp,
];

/// The sharded engine's sequential oracle and its parallel driver (four
/// shards clamp to the chaos topology's three regions, one per shard).
const SHARDS: [usize; 2] = [1, 4];

/// Three regions (root + two children) of four members — big enough for
/// region partitions, remote recovery, and repair hierarchies, small
/// enough that 42 policy × seed × layout runs stay fast.
fn chaos_topology() -> Topology {
    presets::region_tree(4, 2, 1, SimDuration::from_millis(15))
}

fn chaos_config(policy: PolicyKind) -> ProtocolConfig {
    ProtocolConfig {
        policy,
        // Low enough that members cut off by a fault window exhaust their
        // retries *during* the window — the post-heal re-arm path is then
        // the only way back — while still generous under transient loss.
        max_local_attempts: 12,
        max_remote_attempts: 12,
        max_search_attempts: 12,
        ..ProtocolConfig::paper_defaults()
    }
}

/// A randomized fault plan over `topo`, derived entirely from `seed`.
/// Node 0 (the sender) is never crashed or stalled — a dead source makes
/// convergence vacuous — and every window heals before `FLUSH_AT`.
fn random_plan(seed: u64, topo: &Topology) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5EED);
    let regions = topo.region_count() as u16;
    let nodes = topo.node_count() as u32;
    let window = |rng: &mut StdRng| {
        let from = rng.gen_range(100u64..600);
        let until = from + rng.gen_range(50u64..400);
        (SimTime::from_millis(from), SimTime::from_millis(until))
    };
    let mut plan = FaultPlan::new(seed);
    for _ in 0..rng.gen_range(1..=2usize) {
        let a = rng.gen_range(0..regions);
        let b = (a + rng.gen_range(1..regions)) % regions;
        let (f, u) = window(&mut rng);
        plan = plan.partition(RegionId(a), RegionId(b), f, u);
    }
    if rng.gen_bool(0.7) {
        let a = rng.gen_range(0..nodes);
        let b = (a + rng.gen_range(1..nodes)) % nodes;
        let (f, u) = window(&mut rng);
        plan = plan.blackout(NodeId(a), NodeId(b), f, u);
    }
    if rng.gen_bool(0.7) {
        let n = rng.gen_range(1..nodes);
        let (f, u) = window(&mut rng);
        plan = plan.stall(NodeId(n), f, u);
    }
    if rng.gen_bool(0.5) {
        let n = rng.gen_range(1..nodes);
        let at = SimTime::from_millis(rng.gen_range(150u64..800));
        plan = plan.crash(NodeId(n), at);
    }
    {
        let p = rng.gen_range(0.3..0.9);
        let region = rng.gen_bool(0.5).then(|| RegionId(rng.gen_range(0..regions)));
        let (f, u) = window(&mut rng);
        plan = plan.loss_burst(p, region, f, u);
    }
    if rng.gen_bool(0.7) {
        let p = rng.gen_range(0.1..0.4);
        let extra = SimDuration::from_millis(rng.gen_range(1u64..5));
        let (f, u) = window(&mut rng);
        plan = plan.duplicate(p, extra, f, u);
    }
    plan
}

/// Every fault window in [`random_plan`] ends by 1 s; flush multicasts
/// after this point guarantee post-heal traffic that exposes any gap.
const FLUSH_AT: SimTime = SimTime::from_millis(1_050);
const RUN_END: SimTime = SimTime::from_secs(6);

/// Runs one chaos scenario on `shards` shards and returns the network
/// plus the multicast ids.
fn run_chaos(policy: PolicyKind, seed: u64, shards: usize) -> (RrmpNetwork, Vec<MessageId>) {
    let topo = chaos_topology();
    let plan = random_plan(seed, &topo);
    let mut net = RrmpNetwork::with_shards(topo, chaos_config(policy), seed, shards);
    net.set_multicast_loss(LossModel::Bernoulli { p: 0.3 });
    net.arm_fault_plan(plan);

    let mut ids = Vec::new();
    // Ten multicasts spread across the fault horizon: some land mid-burst,
    // some mid-partition, some while a member is stalled or crashed.
    for k in 0..10u64 {
        net.run_until(SimTime::from_millis(k * 90));
        ids.push(net.multicast(format!("chaos-{k}").into_bytes()));
    }
    // Two flush multicasts after every window healed: their data and
    // session traffic reaches every surviving member, so any message
    // still missing is *detectably* missing.
    for k in 0..2u64 {
        net.run_until(FLUSH_AT + SimDuration::from_millis(k * 50));
        ids.push(net.multicast(format!("flush-{k}").into_bytes()));
    }
    // Drain: far beyond the retry caps (12 × ≤50 ms) plus heal re-arms,
    // so every recovery effort has either succeeded or given up.
    net.run_until(RUN_END);
    (net, ids)
}

/// Per-node delivery logs and protocol counters: what must not depend on
/// the shard layout or on a rerun.
fn outcome(net: &RrmpNetwork) -> Vec<(Vec<(SimTime, MessageId)>, Counters)> {
    net.nodes().map(|(_, n)| (n.delivered().to_vec(), n.receiver().metrics().counters)).collect()
}

/// Asserts the run-level invariants on a finished chaos run.
fn assert_invariants(net: &RrmpNetwork, ids: &[MessageId], label: &str) {
    for (id, node) in net.nodes() {
        let r = node.receiver();
        // Crashed (or departed) members hold no obligations.
        if r.has_left() {
            continue;
        }
        // Bounded buffer growth: duplication and fault replays must not
        // inflate a member's store past one entry per distinct message.
        assert!(
            r.store().len() <= ids.len(),
            "{label}: node {id} holds {} entries for {} messages",
            r.store().len(),
            ids.len()
        );
        for &msg in ids {
            if node.has_delivered(msg) {
                continue;
            }
            // Not delivered: recovery must have terminated cleanly, not
            // be silently wedged with live state and no timer driving it.
            assert!(
                !r.recovery_pending(msg),
                "{label}: node {id} still has pending recovery for {msg:?} at run end"
            );
            // And if the member *knows* the message is missing, the
            // give-up must be accounted for.
            if r.detector().is_missing(msg) {
                assert!(
                    r.metrics().counters.recovery_gave_up > 0,
                    "{label}: node {id} missing {msg:?} with no recorded give-up"
                );
            }
        }
    }
}

#[test]
fn chaos_invariants_hold_under_every_policy() {
    for policy in ALL_POLICIES {
        for seed in [11u64, 22, 33] {
            let mut oracle = None;
            for shards in SHARDS {
                let (net, ids) = run_chaos(policy, seed, shards);
                let label = format!("policy={} seed={seed} shards={shards}", policy.name());
                assert_invariants(&net, &ids, &label);
                let oracle = oracle.get_or_insert_with(|| outcome(&net));
                assert_eq!(*oracle, outcome(&net), "{label} diverged from the sequential oracle");
            }
        }
    }
}

/// The same (policy, seed) chaos run is bit-for-bit repeatable: identical
/// per-node delivery logs and protocol counters on a rerun.
#[test]
fn chaos_runs_are_deterministic_across_reruns() {
    for shards in SHARDS {
        let (a, ids_a) = run_chaos(PolicyKind::TwoPhase, 77, shards);
        let (b, ids_b) = run_chaos(PolicyKind::TwoPhase, 77, shards);
        assert_eq!(ids_a, ids_b);
        assert_eq!(outcome(&a), outcome(&b), "shards={shards}");
    }
}

/// Chaos outcomes do not depend on the engine layout: the same plan at
/// shard counts 1, 2, and 4 produces identical delivery logs.
#[test]
fn chaos_runs_are_layout_invariant() {
    let run_at = |shards: usize| {
        let topo = chaos_topology();
        let plan = random_plan(55, &topo);
        let mut net =
            RrmpNetwork::with_shards(topo, chaos_config(PolicyKind::TwoPhase), 55, shards);
        net.set_multicast_loss(LossModel::Bernoulli { p: 0.3 });
        net.arm_fault_plan(plan);
        let mut ids = Vec::new();
        for k in 0..6u64 {
            net.run_until(SimTime::from_millis(k * 120));
            ids.push(net.multicast(format!("layout-{k}").into_bytes()));
        }
        net.run_until(SimTime::from_secs(3));
        (ids, outcome(&net))
    };
    let one = run_at(1);
    assert_eq!(one, run_at(2), "shards=2 diverged from the sequential oracle");
    assert_eq!(one, run_at(4), "shards=4 diverged from the sequential oracle");
}

/// `SimTime` at `ms` milliseconds — keeps the named plans below readable.
fn ms(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// Three fixed plans over the chaos topology (nodes 0-11; node 0, the
/// sender, is never crashed): an overlapping double partition isolating
/// region 1 with a region-scoped burst and duplication; a link blackout
/// and stall churn with a permanent mid-run crash and an everywhere
/// burst; and a partition, stall, burst and duplication mix.
fn named_plans() -> [(&'static str, FaultPlan); 3] {
    [
        (
            "double-partition",
            FaultPlan::new(7)
                .partition(RegionId(0), RegionId(1), ms(100), ms(600))
                .partition(RegionId(1), RegionId(2), ms(200), ms(700))
                .loss_burst(0.6, Some(RegionId(1)), ms(100), ms(500))
                .duplicate(0.2, SimDuration::from_millis(3), ms(0), ms(800)),
        ),
        (
            "blackout-stall-crash",
            FaultPlan::new(19)
                .blackout(NodeId(1), NodeId(6), ms(150), ms(450))
                .stall(NodeId(9), ms(100), ms(550))
                .crash(NodeId(11), ms(400))
                .loss_burst(0.4, None, ms(200), ms(600)),
        ),
        (
            "partition-stall-mix",
            FaultPlan::new(5)
                .partition(RegionId(0), RegionId(1), ms(100), ms(500))
                .stall(NodeId(6), ms(200), ms(450))
                .loss_burst(0.5, Some(RegionId(2)), ms(150), ms(400))
                .duplicate(0.2, SimDuration::from_millis(3), ms(0), ms(600)),
        ),
    ]
}

/// Every named plan under every policy at every shard count: the
/// run-level invariants hold, and the parallel layout reproduces the
/// sequential oracle.
#[test]
fn named_fault_plans_hold_under_every_policy_and_layout() {
    for (name, plan) in named_plans() {
        for policy in ALL_POLICIES {
            let mut oracle = None;
            for shards in SHARDS {
                let label = format!("plan={name} policy={} shards={shards}", policy.name());
                let mut net =
                    RrmpNetwork::with_shards(chaos_topology(), chaos_config(policy), 13, shards);
                net.set_multicast_loss(LossModel::Bernoulli { p: 0.3 });
                net.arm_fault_plan(plan.clone());
                // Pace the run off the plan's horizon: mid-fault traffic, a
                // post-heal flush, and a drain past the retry caps.
                let horizon = plan.horizon();
                let step = SimDuration::from_micros((horizon - SimTime::ZERO).as_micros() / 8);
                let mut ids = Vec::new();
                for _ in 0..8 {
                    ids.push(net.multicast(&b"named-chaos"[..]));
                    let next = net.now() + step;
                    net.run_until(next);
                }
                net.run_until(horizon + SimDuration::from_millis(50));
                ids.push(net.multicast(&b"named-chaos-flush"[..]));
                net.run_until(horizon + SimDuration::from_secs(5));
                assert_invariants(&net, &ids, &label);
                let oracle = oracle.get_or_insert_with(|| outcome(&net));
                assert_eq!(*oracle, outcome(&net), "{label} diverged from the sequential oracle");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Overload episodes: the graceful-degradation machinery (memory budget,
// repair-storm damping, recovery-liveness watchdog) armed together under
// a heavy loss burst that heals.
// ---------------------------------------------------------------------------

/// Per-receiver memory budget of the overload runs: small enough that
/// ten ~200-byte chaos payloads blow through the pressure (50%) and
/// critical (85%) tiers on buffer-happy policies.
const OVERLOAD_BUDGET: usize = 2 * 1024;

fn overload_config(policy: PolicyKind) -> ProtocolConfig {
    ProtocolConfig {
        memory_budget: Some(OVERLOAD_BUDGET),
        // A tight bucket: two repair actions back-to-back, then one every
        // 40 ms — under an 80% loss burst every member wants far more,
        // so rounds *will* be shed and re-queued.
        damping: Some(DampingConfig {
            burst: 2,
            refill: SimDuration::from_millis(40),
            suppress_window: SimDuration::from_millis(15),
        }),
        watchdog: Some(WatchdogConfig {
            interval: SimDuration::from_millis(200),
            horizon: SimDuration::from_millis(400),
        }),
        ..chaos_config(policy)
    }
}

/// A repair storm in the making: 80% of unicasts (all regions) vanish
/// for half a second, then the network heals completely.
fn overload_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).loss_burst(0.8, None, SimTime::from_millis(100), SimTime::from_millis(600))
}

/// Runs one overload episode: large payloads against a small budget, a
/// loss burst that starves recovery, then a heal and a long drain, on
/// `shards` shards.
fn run_overload(policy: PolicyKind, seed: u64, shards: usize) -> (RrmpNetwork, Vec<MessageId>) {
    let topo = chaos_topology();
    let mut net = RrmpNetwork::with_shards(topo, overload_config(policy), seed, shards);
    net.set_multicast_loss(LossModel::Bernoulli { p: 0.4 });
    net.arm_fault_plan(overload_plan(seed));
    let mut ids = Vec::new();
    for k in 0..10u64 {
        net.run_until(SimTime::from_millis(k * 60));
        let mut payload = vec![0x5A_u8; 200];
        payload[0] = k as u8;
        ids.push(net.multicast(payload));
        // The budget invariant holds mid-storm, not just at the end.
        assert_budget_respected(&net, &format!("policy={} k={k}", policy.name()));
    }
    for k in 0..2u64 {
        net.run_until(SimTime::from_millis(700 + k * 50));
        ids.push(net.multicast(format!("overload-flush-{k}").into_bytes()));
    }
    net.run_until(RUN_END);
    (net, ids)
}

/// No member's store may ever hold more bytes than the armed budget.
fn assert_budget_respected(net: &RrmpNetwork, label: &str) {
    for (id, node) in net.nodes() {
        let bytes = node.receiver().store().bytes();
        assert!(
            bytes <= OVERLOAD_BUDGET,
            "{label}: node {id} buffers {bytes} bytes over the {OVERLOAD_BUDGET}-byte budget"
        );
    }
}

/// Overload invariants: the chaos convergence rules, minus the
/// no-pending-recovery-at-run-end clause (the watchdog deliberately
/// keeps re-arming a wedged loss), plus the budget and shed-accounting
/// rules.
fn assert_overload_invariants(net: &RrmpNetwork, ids: &[MessageId], label: &str) {
    assert_budget_respected(net, label);
    for (id, node) in net.nodes() {
        let r = node.receiver();
        if r.has_left() {
            continue;
        }
        assert!(
            r.store().len() <= ids.len(),
            "{label}: node {id} holds {} entries for {} messages",
            r.store().len(),
            ids.len()
        );
        let c = r.metrics().counters;
        // Shed rounds are re-queued, never silently lost: a member that
        // shed requests either retried one later, gave up cleanly at a
        // cap, or was rescued by a repair in flight (delivered all).
        let delivered_all = ids.iter().all(|&m| node.has_delivered(m));
        if c.requests_shed > 0 {
            assert!(
                c.shed_retried > 0 || c.recovery_gave_up > 0 || delivered_all,
                "{label}: node {id} shed {} requests with no retry, give-up, \
                 or full delivery, counters {c:?}",
                c.requests_shed
            );
        }
        // An undelivered message the member knows about must have live
        // recovery (watchdog keeps it alive) or an accounted give-up —
        // never a silent limbo.
        for &msg in ids {
            if !node.has_delivered(msg) && r.detector().is_missing(msg) {
                assert!(
                    r.recovery_pending(msg) || c.recovery_gave_up > 0,
                    "{label}: node {id} missing {msg:?} with neither live \
                     recovery nor a recorded give-up"
                );
            }
        }
    }
}

#[test]
fn overload_invariants_hold_under_every_policy() {
    let mut any_shed = 0u64;
    let mut any_pressure = 0u64;
    for policy in ALL_POLICIES {
        for seed in [5u64, 17] {
            let mut oracle = None;
            for shards in SHARDS {
                let (net, ids) = run_overload(policy, seed, shards);
                let label =
                    format!("overload policy={} seed={seed} shards={shards}", policy.name());
                assert_overload_invariants(&net, &ids, &label);
                let oracle = oracle.get_or_insert_with(|| outcome(&net));
                assert_eq!(*oracle, outcome(&net), "{label} diverged from the sequential oracle");
                for (_, node) in net.nodes() {
                    let c = node.receiver().metrics().counters;
                    any_shed += c.requests_shed + c.remulticasts_shed;
                    any_pressure += c.pressure_discards + c.admission_declined;
                }
            }
        }
    }
    // The episodes must actually exercise the machinery: across all
    // policies the damper shed work and the budget forced discards or
    // admission declines (a vacuous overload run would prove nothing).
    assert!(any_shed > 0, "no repair action was ever shed — storm damping never engaged");
    assert!(any_pressure > 0, "no pressure discard/decline — the budget never degraded anything");
}

/// Armed overload machinery preserves layout invariance: the same
/// episode at shard counts 1, 2, and 4 produces identical deliveries,
/// counters, and buffer bytes.
#[test]
fn overload_runs_are_layout_invariant() {
    let run_at = |shards: usize| {
        let topo = chaos_topology();
        let mut net =
            RrmpNetwork::with_shards(topo, overload_config(PolicyKind::TwoPhase), 41, shards);
        net.set_multicast_loss(LossModel::Bernoulli { p: 0.4 });
        net.arm_fault_plan(overload_plan(41));
        let mut ids = Vec::new();
        for k in 0..8u64 {
            net.run_until(SimTime::from_millis(k * 80));
            ids.push(net.multicast(vec![k as u8; 180]));
        }
        net.run_until(SimTime::from_secs(4));
        (
            ids,
            net.nodes()
                .map(|(_, n)| {
                    (
                        n.delivered().to_vec(),
                        n.receiver().metrics().counters,
                        n.receiver().store().bytes(),
                    )
                })
                .collect::<Vec<_>>(),
        )
    };
    let one = run_at(1);
    assert_eq!(one, run_at(2), "armed overload at shards=2 diverged from the sequential oracle");
    assert_eq!(one, run_at(4), "armed overload at shards=4 diverged from the sequential oracle");
}

/// The heal → re-arm path does real work: a member partitioned long
/// enough to exhaust its retry caps converges after the heal, and its
/// `heal_rearms` counter records the restart.
#[test]
fn partition_heal_rearms_exhausted_recovery() {
    use rrmp_netsim::loss::DeliveryPlan;

    let topo = chaos_topology();
    let region1: Vec<NodeId> = (4..8).map(NodeId).collect();
    // Region 1 (nodes 4..8) is cut off from both other regions for most
    // of a second — far past the retry caps below — then heals.
    let heal = SimTime::from_millis(700);
    let plan = FaultPlan::new(9)
        .partition(RegionId(0), RegionId(1), SimTime::from_millis(100), heal)
        .partition(RegionId(1), RegionId(2), SimTime::from_millis(100), heal);
    // KeepAll so the other regions are guaranteed to still hold the
    // message when the partition heals; tight retry caps so the cut-off
    // members exhaust them *during* the window.
    let cfg = ProtocolConfig {
        max_local_attempts: 6,
        max_remote_attempts: 6,
        max_search_attempts: 6,
        ..chaos_config(PolicyKind::KeepAll)
    };
    let mut net = RrmpNetwork::new(topo, cfg, 9);
    net.arm_fault_plan(plan);

    // Message `a` misses all of region 1; message `b` (delivered
    // everywhere, mid-partition — explicit delivery plans model the raw
    // multicast and bypass the fault edge) reveals the gap, so the
    // cut-off members start recovery they cannot complete: their region
    // peers never had `a`, and requests to other regions drop. Both
    // multicasts happen *inside* the window — earlier, and a repair
    // triggered by a pre-partition session ad could sneak out before the
    // cut (drops are evaluated at send time).
    let plan_a = DeliveryPlan::all_but(net.topology(), region1.iter().copied());
    net.run_until(SimTime::from_millis(120));
    let a = net.multicast_with_plan("during-partition-a", &plan_a);
    let plan_b = DeliveryPlan::all(net.topology());
    net.run_until(SimTime::from_millis(150));
    let b = net.multicast_with_plan("during-partition-b", &plan_b);

    // By just before the heal, the cut-off members must have given up.
    net.run_until(SimTime::from_millis(690));
    for &n in &region1 {
        let c = net.node(n).receiver().metrics().counters;
        assert!(!net.node(n).has_delivered(a), "node {n} got `a` through the partition");
        assert!(
            c.recovery_gave_up > 0,
            "node {n}: expected exhausted recovery before the heal, counters {c:?}"
        );
    }

    // After the heal every region-1 member converges on both messages,
    // and the restart is visible in the heal_rearms counter.
    net.run_until(SimTime::from_secs(4));
    for &n in &region1 {
        let node = net.node(n);
        assert!(
            node.has_delivered(a) && node.has_delivered(b),
            "node {n} failed to converge after the heal"
        );
        assert!(
            node.receiver().metrics().counters.heal_rearms > 0,
            "node {n} converged without a recorded heal re-arm"
        );
    }
}
