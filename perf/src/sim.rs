//! The four simulator workloads.
//!
//! A workload is a list of [`Scenario`]s (one, except
//! `sim_policy_overload` with one per policy). Every random input — the
//! per-message delivery plans, the payload bytes, the network's own seed —
//! is drawn from `--seed` before anything is timed.

use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use rand::{Rng, RngCore};
use rrmp_core::harness::RrmpNetwork;
use rrmp_core::policy::PolicyKind;
use rrmp_core::prelude::{DampingConfig, ProtocolConfig, TraceConfig, WatchdogConfig};
use rrmp_netsim::fault::FaultPlan;
use rrmp_netsim::loss::{DeliveryPlan, LossModel};
use rrmp_netsim::rng::SeedSequence;
use rrmp_netsim::sim::NetCounters;
use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::{presets, NodeId, Topology, TopologyBuilder};

use crate::measure::{cpu_seconds, Spans};
use crate::Size;

/// The `members_scale` region cycle of `sim_core_bench`: a few campuses
/// over a long tail of small sites.
const SCALE_REGION_SIZES: [usize; 8] = [4096, 1024, 1024, 256, 64, 64, 64, 64];

/// Payload carried by every simulated message.
const SIM_PAYLOAD_BYTES: usize = 256;

/// The policies `sim_policy_overload` runs, in run order.
const OVERLOAD_POLICIES: [PolicyKind; 5] = [
    PolicyKind::TwoPhase,
    PolicyKind::HashBufferers,
    PolicyKind::SenderBased,
    PolicyKind::Stability,
    PolicyKind::TreeRmtp,
];

/// One simulated group and the stream it carries.
#[derive(Clone)]
pub struct Scenario {
    /// Span/metric label (the policy name on `sim_policy_overload`).
    pub label: &'static str,
    pub topology: Rc<dyn Fn() -> Topology>,
    pub cfg: ProtocolConfig,
    /// `None` hosts the group on the unsharded `Sim`.
    pub shards: Option<usize>,
    /// Who receives the initial copy of each message.
    pub plans: Vec<DeliveryPlan>,
    pub payload: Bytes,
    pub interval: SimDuration,
    pub drain: SimDuration,
    pub fault: Option<FaultPlan>,
    pub net_seed: u64,
    /// Simulated time the group exists, with nothing to send, before the
    /// first message.
    pub idle_before: SimDuration,
}

impl Scenario {
    /// Builds the network: topology, engine, one receiver per member.
    /// This is what `setup_s` times.
    pub fn build(&self) -> RrmpNetwork {
        let topo = (self.topology)();
        let mut net = match self.shards {
            None => RrmpNetwork::new(topo, self.cfg.clone(), self.net_seed),
            Some(n) => RrmpNetwork::with_shards(topo, self.cfg.clone(), self.net_seed, n),
        };
        if let Some(plan) = &self.fault {
            net.arm_fault_plan(plan.clone());
        }
        net
    }

    /// The same scenario on another shard count (the live comparison arm
    /// of `netsim.shard.speedup_vs_1` and the shard-invariance check).
    pub fn with_shards(&self, shards: usize) -> Scenario {
        Scenario { shards: Some(shards), ..self.clone() }
    }
}

/// What one timed pass over a scenario produced.
pub struct Pass {
    pub net: RrmpNetwork,
    pub run_s: f64,
    pub cpu_s: f64,
    /// Simulated send time per message.
    pub sent_at: Vec<SimTime>,
}

/// Streams the scenario's messages through `net`: the idle time before
/// the first message if the scenario has any, then one multicast and one
/// `run_until` slice per message interval, then the drain in slices of
/// the same length.
pub fn drive(sc: &Scenario, mut net: RrmpNetwork, spans: &mut Spans) -> Pass {
    let n = sc.plans.len();
    let mut sent_at = Vec::with_capacity(n);
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    spans.enter(sc.label);
    if sc.idle_before > SimDuration::ZERO {
        let until = net.now() + sc.idle_before;
        spans.enter("core.harness.run_until");
        net.run_until(until);
        spans.exit();
    }
    for plan in &sc.plans {
        sent_at.push(net.now());
        spans.enter("core.harness.multicast");
        net.multicast_with_plan(sc.payload.clone(), plan);
        spans.exit();
        let until = net.now() + sc.interval;
        spans.enter("core.harness.run_until");
        net.run_until(until);
        spans.exit();
    }
    let end = net.now() + sc.drain;
    while net.now() < end {
        let until = (net.now() + sc.interval).min(end);
        spans.enter("core.harness.run_until");
        net.run_until(until);
        spans.exit();
    }
    spans.exit();
    let run_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    Pass { net, run_s, cpu_s, sent_at }
}

/// Outcome of a pass, read from the network's public state after timing.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    pub delivered: u64,
    pub messages: u64,
    /// Simulated recovery latency (µs) summed over recovering pairs.
    pub recovery_us_sum: u128,
    pub recovery_pairs: u64,
    /// Σ `MessageStore::byte_time_integral` over members, byte·µs.
    pub byte_time: u128,
    pub net: NetCounters,
}

impl Outcome {
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.delivered += other.delivered;
        self.messages += other.messages;
        self.recovery_us_sum += other.recovery_us_sum;
        self.recovery_pairs += other.recovery_pairs;
        self.byte_time += other.byte_time;
        let (a, b) = (&mut self.net, other.net);
        a.unicasts_sent += b.unicasts_sent;
        a.unicasts_dropped += b.unicasts_dropped;
        a.delivered += b.delivered;
        a.timers_set += b.timers_set;
        a.timers_fired += b.timers_fired;
        a.events_processed += b.events_processed;
        a.fanouts += b.fanouts;
        a.batched_deliveries += b.batched_deliveries;
        a.faults_dropped += b.faults_dropped;
        a.faults_duplicated += b.faults_duplicated;
    }

    pub fn sim_recovery_latency_mean_ms(&self) -> f64 {
        self.recovery_us_sum as f64 / 1e3 / self.recovery_pairs.max(1) as f64
    }

    pub fn sim_buffer_byte_seconds_per_msg(&self) -> f64 {
        self.byte_time as f64 / 1e6 / self.messages.max(1) as f64
    }
}

pub fn analyze(sc: &Scenario, pass: &Pass) -> Outcome {
    let messages = sc.plans.len();
    let now = pass.net.now();
    let first_seq = 1u64; // `SeqNo::FIRST`: a fresh sender numbers from 1
    let mut out = Outcome {
        attempted: (pass.net.topology().node_count() * messages) as u64,
        messages: messages as u64,
        net: pass.net.net_counters(),
        ..Outcome::default()
    };
    for (id, node) in pass.net.nodes() {
        out.byte_time += node.receiver().store().byte_time_integral(now);
        for &(at, msg) in node.delivered() {
            let k = (msg.seq.value() - first_seq) as usize;
            out.delivered += 1;
            if !sc.plans[k].receives(id) && id != pass.net.sender_node() {
                out.recovery_us_sum += u128::from(at.saturating_since(pass.sent_at[k]).as_micros());
                out.recovery_pairs += 1;
            }
        }
    }
    out
}

// ----- the workloads ---------------------------------------------------------

/// `len` payload bytes drawn from the seed.
pub fn seeded_bytes(seeds: &SeedSequence, len: usize) -> Vec<u8> {
    let mut rng = seeds.rng_for(0xBEEF);
    let mut bytes = vec![0u8; len];
    for chunk in bytes.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    bytes
}

fn payload(seeds: &SeedSequence, len: usize) -> Bytes {
    Bytes::from(seeded_bytes(seeds, len))
}

fn plans_from_model(
    topo: &Topology,
    model: &LossModel,
    messages: usize,
    seeds: &SeedSequence,
) -> Vec<DeliveryPlan> {
    let mut rng = seeds.rng_for(0x9A75);
    (0..messages).map(|_| DeliveryPlan::from_model(topo, NodeId(0), model, &mut rng)).collect()
}

/// `sim_lan_stream`: the paper's 100-member region; a seeded random half
/// of the members (the sender never) misses each initial copy.
fn lan_stream(size: Size, seed: u64) -> Vec<Scenario> {
    let seeds = SeedSequence::new(seed);
    let messages = size.messages(12_000);
    let topo = presets::paper_region(100);
    let mut rng = seeds.rng_for(0x9A75);
    let plans = (0..messages)
        .map(|_| {
            // Partial Fisher–Yates over members 1..100: the first 50
            // drawn miss this message.
            let mut members: Vec<u32> = (1..100).collect();
            for i in 0..50 {
                let j = rng.gen_range(i..members.len());
                members.swap(i, j);
            }
            DeliveryPlan::all_but(&topo, members[..50].iter().map(|&m| NodeId(m)))
        })
        .collect();
    vec![Scenario {
        label: "sim_lan_stream",
        topology: Rc::new(|| presets::paper_region(100)),
        cfg: ProtocolConfig::paper_defaults(),
        shards: None,
        plans,
        payload: payload(&seeds, SIM_PAYLOAD_BYTES),
        interval: SimDuration::from_millis(30),
        drain: SimDuration::from_millis(500),
        fault: None,
        net_seed: seeds.subseed(1),
        idle_before: SimDuration::ZERO,
    }]
}

fn wan_topology() -> Topology {
    let mut b =
        TopologyBuilder::new().inter_region_one_way(SimDuration::from_millis(25)).region(64, None);
    for _ in 1..32 {
        b = b.region(64, Some(0));
    }
    b.build().expect("valid 32-region topology")
}

/// `sim_wan_sharded`: 32 regions x 64 members under region-correlated
/// loss on the 2-shard engine.
fn wan_sharded(size: Size, seed: u64) -> Vec<Scenario> {
    let seeds = SeedSequence::new(seed);
    let topo = wan_topology();
    let model = LossModel::RegionCorrelated { p_region: 0.25, p_member: 0.05 };
    vec![Scenario {
        label: "sim_wan_sharded",
        topology: Rc::new(wan_topology),
        cfg: ProtocolConfig::paper_defaults(),
        shards: Some(2),
        plans: plans_from_model(&topo, &model, size.messages(400), &seeds),
        payload: payload(&seeds, SIM_PAYLOAD_BYTES),
        interval: SimDuration::from_millis(40),
        drain: SimDuration::from_secs(2),
        fault: None,
        net_seed: seeds.subseed(1),
        idle_before: SimDuration::ZERO,
    }]
}

fn scale_topology(target: usize) -> Topology {
    let mut b = TopologyBuilder::new().inter_region_one_way(SimDuration::from_millis(25));
    let (mut placed, mut i) = (0usize, 0usize);
    while placed < target {
        let size = SCALE_REGION_SIZES[i % SCALE_REGION_SIZES.len()].min(target - placed);
        b = b.region(size, if i == 0 { None } else { Some(0) });
        placed += size;
        i += 1;
    }
    b.build().expect("valid scaling topology")
}

/// `sim_scale_100k`: 100,000 members on the 2-shard engine under the
/// paper's defaults, periodic session ticks included. The group idles for
/// one session interval, then carries one message that each member misses
/// with probability 0.01.
///
/// The idle interval decides what this workload measures. An event queue
/// that runs dry moves its cursor to its next entry — here the long-term
/// sweeps 5 s ahead — and `EventQueue::schedule` files everything due
/// before the cursor into one sorted vector, one `Vec::insert` each. From
/// then on the run pays that for every event (≈34 µs per event against
/// ≈0.2 µs on the wheel): the regime `members_1m` spends its 8 minutes in.
/// Without the idle interval the same regime sets in on the far shard
/// when recovery ends, 120 to 160 ms in depending on the seed, at 1.6 s
/// of host time per session tick after that (`perf/README.md`).
///
/// Members miss the message one by one, never a whole region: recovering
/// a lost 4,096-member region needs over 500 ms of drain to complete,
/// which costs 18 to 30 s here depending on the seed. Whole-region loss
/// is `sim_wan_sharded`'s job.
fn scale_100k(size: Size, seed: u64) -> Vec<Scenario> {
    let seeds = SeedSequence::new(seed);
    let members = if size.quick { 10_000 } else { 100_000 };
    let topo = scale_topology(members);
    let loss = LossModel::RegionCorrelated { p_region: 0.0, p_member: 0.01 };
    let mut cfg = ProtocolConfig::paper_defaults();
    // The per-node protocol event log would dominate the footprint this
    // workload exists to measure; turning it off does not change the run.
    cfg.record_events = false;
    let idle_before = cfg.session_interval;
    vec![Scenario {
        label: "sim_scale_100k",
        topology: Rc::new(move || scale_topology(members)),
        cfg,
        shards: Some(2),
        plans: plans_from_model(&topo, &loss, size.messages(1), &seeds),
        payload: payload(&seeds, SIM_PAYLOAD_BYTES),
        interval: SimDuration::from_millis(40),
        drain: SimDuration::from_millis(40),
        fault: None,
        net_seed: seeds.subseed(1),
        idle_before,
    }]
}

/// Length of the loss burst and of the stall on `sim_policy_overload`.
const FAULT_WINDOW: SimDuration = SimDuration::from_millis(400);

/// `sim_policy_overload`: the 100-member region once per policy with the
/// overload kit armed and a fault plan of one loss burst and one stall.
fn policy_overload(size: Size, seed: u64) -> Vec<Scenario> {
    let seeds = SeedSequence::new(seed);
    let messages = size.messages(1_500);
    let interval = SimDuration::from_millis(30);
    let stream_us = interval.as_micros() * messages as u64;
    let at = |share: f64| SimTime::from_micros((stream_us as f64 * share) as u64);
    let topo = presets::paper_region(100);
    let plans = plans_from_model(&topo, &LossModel::Bernoulli { p: 0.25 }, messages, &seeds);
    let payload = payload(&seeds, SIM_PAYLOAD_BYTES);
    OVERLOAD_POLICIES
        .iter()
        .map(|&kind| {
            let mut cfg = ProtocolConfig::paper_defaults();
            cfg.policy = kind;
            cfg.memory_budget = Some(16 * 1024);
            cfg.damping = Some(DampingConfig {
                burst: 8,
                refill: SimDuration::from_millis(5),
                suppress_window: SimDuration::from_millis(15),
            });
            cfg.watchdog = Some(WatchdogConfig {
                interval: SimDuration::from_millis(200),
                horizon: SimDuration::from_millis(400),
            });
            Scenario {
                label: kind.name(),
                topology: Rc::new(|| presets::paper_region(100)),
                cfg,
                shards: None,
                plans: plans.clone(),
                payload: payload.clone(),
                interval,
                drain: SimDuration::from_secs(1),
                fault: Some(
                    FaultPlan::new(seeds.subseed(2))
                        .loss_burst(0.8, None, at(0.30), at(0.30) + FAULT_WINDOW)
                        .stall(NodeId(7), at(0.60), at(0.60) + FAULT_WINDOW),
                ),
                net_seed: seeds.subseed(1),
                idle_before: SimDuration::ZERO,
            }
        })
        .collect()
}

pub fn scenarios(workload: &str, size: Size, seed: u64) -> Vec<Scenario> {
    match workload {
        "sim_lan_stream" => lan_stream(size, seed),
        "sim_wan_sharded" => wan_sharded(size, seed),
        "sim_scale_100k" => scale_100k(size, seed),
        "sim_policy_overload" => policy_overload(size, seed),
        other => panic!("not a simulator workload: {other}"),
    }
}

/// The observer configuration of the `trace.sink.armed_ratio` arm.
pub fn observer() -> TraceConfig {
    TraceConfig { ring_capacity: 4096, sample_every: None }
}
