//! Hosting the sans-io protocol on the discrete-event simulator.
//!
//! [`RrmpNode`] adapts a [`Receiver`] (the sender role included) to the
//! [`SimNode`] interface. Both engines carry its timers as [`HostTimer`]
//! values: a protocol [`TimerKind`] goes to the simulator and comes back
//! as is, beside the experiment script's leave, crash, heal and
//! view-removal timers. [`RrmpNetwork`] wraps a whole
//! simulated group with the conveniences every experiment needs: injecting
//! multicasts with controlled loss ([`DeliveryPlan`]), preloading buffer
//! states (Figures 8/9), scripting leaves, and extracting the
//! measurements the paper's figures plot.

use bytes::Bytes;
use std::sync::Arc;

use rrmp_membership::view::HierarchyView;
use rrmp_netsim::fault::FaultPlan;
use rrmp_netsim::loss::{DeliveryPlan, LossModel};
use rrmp_netsim::shard::ShardedSim;
use rrmp_netsim::sim::{Ctx, NetCounters, Sim, SimNode};
use rrmp_netsim::time::SimTime;
use rrmp_netsim::topology::{NodeId, Topology};

use crate::config::ProtocolConfig;
use crate::events::{Action, Event, TimerKind};
use crate::ids::MessageId;
use crate::interval_set::IntervalSet;
use crate::observe::{BufferRecords, Observer, ReceiverTrace, TraceConfig};
use crate::packet::Packet;
use crate::receiver::{PreloadState, Receiver};
use crate::vecmap::VecMap;

/// A timer the harness arms on the simulator: the protocol's own timers,
/// plus the experiment script's external ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostTimer {
    /// A timer the [`Receiver`] asked for through [`Action::SetTimer`].
    Proto(TimerKind),
    /// Triggers [`Event::Leave`] on the node.
    Leave,
    /// Crashes the node (no handoff).
    Crash,
    /// A fault window healed (partition, blackout, or stall ended):
    /// exhausted recovery re-arms.
    Heal,
    /// Removes the given member from the node's views.
    ViewRemove(NodeId),
}

/// One simulated group member: the sans-io [`Receiver`] bridged onto
/// the simulator.
#[derive(Debug)]
pub struct RrmpNode {
    receiver: Receiver,
    delivered: Vec<(SimTime, MessageId)>,
    /// Per-source interval index over `delivered`, so membership checks
    /// ([`RrmpNode::has_delivered`]) are O(log #gaps) instead of a scan:
    /// each sender numbers messages contiguously.
    delivered_index: VecMap<NodeId, IntervalSet>,
    recovery_packets_received: u64,
    /// Reused action buffer: `Receiver::handle_into` fills it, `execute`
    /// drains it — no allocation per event in steady state.
    action_scratch: Vec<Action>,
}

impl RrmpNode {
    /// Creates a node around a receiver.
    #[must_use]
    pub fn new(receiver: Receiver) -> Self {
        RrmpNode {
            receiver,
            delivered: Vec::new(),
            delivered_index: VecMap::new(),
            recovery_packets_received: 0,
            // Capacity 2 up front: most events produce at most a deliver
            // plus a timer, and seeding the capacity keeps `Vec::push`'s
            // first growth from jumping straight to four 80-byte actions
            // on every one of a million nodes.
            action_scratch: Vec::with_capacity(2),
        }
    }

    /// Packets received excluding session advertisements — the per-node
    /// recovery load used by the implosion comparison.
    #[must_use]
    pub fn recovery_packets_received(&self) -> u64 {
        self.recovery_packets_received
    }

    /// The protocol receiver (instrumentation access).
    #[must_use]
    pub fn receiver(&self) -> &Receiver {
        &self.receiver
    }

    /// Mutable receiver access (experiment setup).
    pub fn receiver_mut(&mut self) -> &mut Receiver {
        &mut self.receiver
    }

    /// Messages delivered to the application on this node, in order.
    #[must_use]
    pub fn delivered(&self) -> &[(SimTime, MessageId)] {
        &self.delivered
    }

    /// Whether `id` was delivered here. O(log #gaps) via the per-source
    /// interval index, not a scan of the delivery log.
    #[must_use]
    pub fn has_delivered(&self, id: MessageId) -> bool {
        self.delivered_index.get(id.source).is_some_and(|seqs| seqs.contains(id.seq.0))
    }

    /// Drains `actions` into simulator ops. The buffer is left empty so
    /// callers can reuse it.
    fn execute(&mut self, ctx: &mut Ctx<'_, Packet, HostTimer>, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            self.execute_one(ctx, action);
        }
    }

    fn execute_one(&mut self, ctx: &mut Ctx<'_, Packet, HostTimer>, action: Action) {
        match action {
            Action::Send { to, packet } => ctx.send(to, packet),
            // One fan-out op: per-destination loss, filter and fault
            // verdicts in list order, one batch event per arrival time.
            Action::SendMany { to, packet } => ctx.send_many(to.iter().copied(), *packet),
            // One fan-out op sharing the packet (and its Bytes payload)
            // across every destination — no members Vec, no deep copies.
            Action::MulticastRegion { packet } => {
                ctx.send_many(self.receiver.view().own().members(), packet);
            }
            // Group-wide fan-out is a single op; the simulator expands it
            // over the topology.
            Action::MulticastGroup { packet } => ctx.send_group(packet),
            Action::Deliver { id } => {
                rrmp_membership::index::reserve_doubling(&mut self.delivered);
                self.delivered.push((ctx.now(), id));
                self.delivered_index.get_or_default(id.source).insert(id.seq.0);
            }
            Action::SetTimer { delay, kind } => ctx.set_timer(delay, HostTimer::Proto(kind)),
        }
    }

    /// Feeds `event` through the receiver and executes the resulting
    /// actions, reusing the node's scratch action buffer.
    fn handle_event(&mut self, ctx: &mut Ctx<'_, Packet, HostTimer>, event: Event) {
        self.with_scratch(ctx, |receiver, now, actions| receiver.handle_into(event, now, actions));
    }

    /// Lets `fill` push actions into the node's scratch buffer, then
    /// executes and drains them.
    fn with_scratch<F>(&mut self, ctx: &mut Ctx<'_, Packet, HostTimer>, fill: F)
    where
        F: FnOnce(&mut Receiver, SimTime, &mut Vec<Action>),
    {
        let mut actions = std::mem::take(&mut self.action_scratch);
        debug_assert!(actions.is_empty());
        fill(&mut self.receiver, ctx.now(), &mut actions);
        self.execute(ctx, &mut actions);
        self.action_scratch = actions;
    }
}

impl SimNode<HostTimer> for RrmpNode {
    type Msg = Packet;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Packet, HostTimer>) {
        let mut actions = self.receiver.on_start();
        self.execute(ctx, &mut actions);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Packet, HostTimer>, from: NodeId, msg: Packet) {
        self.on_packet_ref(ctx, from, &msg);
    }

    fn on_packet_ref(&mut self, ctx: &mut Ctx<'_, Packet, HostTimer>, from: NodeId, msg: &Packet) {
        if !matches!(msg, Packet::Session { .. }) {
            self.recovery_packets_received += 1;
        }
        self.with_scratch(ctx, |r, now, actions| r.handle_packet_into(from, msg, now, actions));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet, HostTimer>, timer: HostTimer) {
        match timer {
            HostTimer::Proto(kind) => self.handle_event(ctx, Event::Timer(kind)),
            HostTimer::Leave => self.handle_event(ctx, Event::Leave),
            HostTimer::Crash => self.receiver.crash(ctx.now()),
            HostTimer::Heal => self.with_scratch(ctx, Receiver::on_heal),
            // Through the receiver so the buffer policy prunes per-member
            // state — a stability quorum must stop waiting on a departed
            // member.
            HostTimer::ViewRemove(node) => self.receiver.on_membership_removed(node),
        }
    }
}

/// The simulation engine hosting an [`RrmpNetwork`]: the single-queue
/// [`Sim`], or the conservatively parallel region-sharded [`ShardedSim`].
/// Every harness operation delegates; the two engines share the node
/// type, the `Ctx` API, and the topology.
// One engine lives per network (never in collections), so the size gap
// between the variants costs nothing; boxing would put a pointer chase on
// every harness call instead.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum SimEngine {
    Single(Sim<RrmpNode, HostTimer>),
    Sharded(ShardedSim<RrmpNode, HostTimer>),
}

/// Implements each listed method by forwarding it to whichever engine
/// runs the group (both engines share the method names and signatures).
/// The `&self` methods come first, the `&mut self` ones after `mut:`.
macro_rules! delegate {
    (
        $(fn $name:ident(&self $(, $arg:ident: $ty:ty)*) $(-> $ret:ty)?;)*
        mut: $(fn $mname:ident(&mut self $(, $marg:ident: $mty:ty)*) $(-> $mret:ty)?;)*
    ) => {
        $(fn $name(&self $(, $arg: $ty)*) $(-> $ret)? {
            delegate!(@match self.$name($($arg),*))
        })*
        $(fn $mname(&mut self $(, $marg: $mty)*) $(-> $mret)? {
            delegate!(@match self.$mname($($marg),*))
        })*
    };
    (@match $self:ident.$name:ident($($arg:ident),*)) => {
        match $self {
            SimEngine::Single(s) => s.$name($($arg),*),
            SimEngine::Sharded(s) => s.$name($($arg),*),
        }
    };
}

impl SimEngine {
    delegate! {
        fn topology(&self) -> &Topology;
        fn now(&self) -> SimTime;
        fn counters(&self) -> NetCounters;
        fn node(&self, id: NodeId) -> &RrmpNode;
        fn trace_dropped(&self) -> u64;
        fn collect_trace(&self, out: &mut Vec<rrmp_trace::TraceEvent>);
    mut:
        fn node_mut(&mut self, id: NodeId) -> &mut RrmpNode;
        fn inject(&mut self, to: NodeId, from: NodeId, msg: Packet, at: SimTime);
        fn inject_multicast_plan(
            &mut self, from: NodeId, msg: &Packet, plan: &DeliveryPlan, at: SimTime
        );
        fn schedule_external_timer(&mut self, node: NodeId, timer: HostTimer, at: SimTime);
        fn run_until(&mut self, t: SimTime);
        fn run_until_quiescent(&mut self, limit: SimTime) -> SimTime;
        fn set_unicast_loss(&mut self, model: LossModel);
        fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>);
        fn reset(&mut self, nodes: Vec<RrmpNode>, seed: u64);
        fn set_trace(&mut self, ring_capacity: Option<usize>);
    }

    fn nodes(&self) -> impl Iterator<Item = (NodeId, &RrmpNode)> {
        self.topology().nodes().map(move |id| (id, self.node(id)))
    }
}

/// A complete simulated RRMP group: topology, one sender, one receiver per
/// node, and experiment conveniences.
#[derive(Debug)]
pub struct RrmpNetwork {
    sim: SimEngine,
    sender_node: NodeId,
    multicast_loss: LossModel,
    /// Retained so [`RrmpNetwork::reset`] can rebuild the protocol state.
    cfg: ProtocolConfig,
    senders: Vec<NodeId>,
    /// Armed fault plan, if any — retained so [`RrmpNetwork::reset`] can
    /// re-schedule the protocol-side crash and heal timers (the engines
    /// keep the network-edge half through their own reset).
    fault_plan: Option<Arc<FaultPlan>>,
    /// The armed observer, if any — retained so [`RrmpNetwork::reset`]
    /// can re-arm the rebuilt receivers.
    armed: Option<Armed>,
}

/// Which observer every receiver of a network carries.
#[derive(Debug, Clone, Copy)]
enum Armed {
    /// The trace ring ([`ReceiverTrace`]) and the engine sinks.
    Trace(TraceConfig),
    /// The buffer-lifecycle fold ([`BufferRecords`]).
    BufferRecords,
}

impl RrmpNetwork {
    /// Builds a group over `topo` with node 0 as the sender, every member
    /// running `cfg`, and all randomness derived from `seed`.
    #[must_use]
    pub fn new(topo: Topology, cfg: ProtocolConfig, seed: u64) -> Self {
        Self::with_senders(topo, cfg, seed, &[NodeId(0)])
    }

    /// Builds a group with **several** sender roles — an extension beyond
    /// the paper's single-sender model (§2 designs RRMP "for multicast
    /// applications with only one sender", but nothing in loss detection
    /// or buffering is sender-specific: streams are tracked per source).
    /// `senders[0]` is the default target of [`RrmpNetwork::multicast`].
    ///
    /// # Panics
    ///
    /// Panics if `senders` is empty, any sender is not in `topo`, or
    /// `cfg` fails [`ProtocolConfig::validate`] (the message carries its
    /// [`ConfigError`](crate::config::ConfigError)).
    #[must_use]
    pub fn with_senders(
        topo: Topology,
        cfg: ProtocolConfig,
        seed: u64,
        senders: &[NodeId],
    ) -> Self {
        cfg.validate().expect("invalid protocol config");
        assert!(!senders.is_empty(), "need at least one sender");
        for s in senders {
            assert!(s.index() < topo.node_count(), "sender {s} not in topology");
        }
        let nodes = Self::build_nodes(&topo, &cfg, seed, senders);
        RrmpNetwork {
            sim: SimEngine::Single(Sim::new(topo, nodes, seed)),
            sender_node: senders[0],
            multicast_loss: LossModel::None,
            cfg,
            senders: senders.to_vec(),
            fault_plan: None,
            armed: None,
        }
    }

    /// Builds a group hosted on the **conservatively parallel** sharded
    /// engine ([`ShardedSim`]): one per-event core per region, run by
    /// `shards` worker threads (the calling thread included; clamped to the
    /// region count). Traces are byte-identical at every worker count —
    /// `shards` only picks the degree of parallelism.
    ///
    /// Note the sharded engine's windowed semantics differ from
    /// [`RrmpNetwork::new`]'s single event queue (per-sender unicast-loss
    /// RNG streams, canonical cross-region merge order), so a sharded run
    /// is compared against sharded runs, not against the single-queue
    /// engine.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (as in [`RrmpNetwork::with_senders`]) or
    /// `shards` is zero.
    #[must_use]
    pub fn with_shards(topo: Topology, cfg: ProtocolConfig, seed: u64, shards: usize) -> Self {
        cfg.validate().expect("invalid protocol config");
        assert!(shards >= 1, "need at least one shard");
        let senders = [NodeId(0)];
        // Stream nodes straight into their regions — never materialize the
        // full node set twice (a `Vec` plus the per-region vectors), which
        // at a million members would briefly double peak memory.
        let sim = ShardedSim::new_from(
            &topo,
            Self::build_nodes_iter(&topo, &cfg, seed, &senders),
            seed,
            shards,
        );
        RrmpNetwork {
            sim: SimEngine::Sharded(sim),
            sender_node: senders[0],
            multicast_loss: LossModel::None,
            cfg,
            senders: senders.to_vec(),
            fault_plan: None,
            armed: None,
        }
    }

    /// Arms `plan` on whichever engine hosts the group and schedules its
    /// protocol-side consequences: partitions, blackouts, bursts and
    /// duplication apply at the network edge; plan crashes become
    /// scheduled member crashes; every heal instant notifies every node so
    /// exhausted recovery re-arms ([`Receiver::on_heal`]). The plan
    /// survives [`RrmpNetwork::reset`].
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started — fault timelines are
    /// part of the experiment setup, not something to splice into a
    /// half-run trace.
    pub fn arm_fault_plan(&mut self, plan: FaultPlan) {
        assert_eq!(self.sim.now(), SimTime::ZERO, "arm fault plans before the simulation starts");
        let plan = Arc::new(plan);
        self.sim.set_fault_plan(Some(plan.clone()));
        self.fault_plan = Some(plan);
        self.schedule_fault_protocol_timers();
    }

    /// Attaches the observer subsystem ([`crate::observe`]) to the whole
    /// group: engine-side sinks record deliveries and wire verdicts, every
    /// receiver records protocol events and latency histograms, and — when
    /// [`TraceConfig::sample_every`] is set — a per-node sampling timer
    /// records the time-series pillar. The observer survives
    /// [`RrmpNetwork::reset`].
    ///
    /// Armed traces are byte-identical across engines and shard counts
    /// (the `observer_invariance` suite pins it); an unarmed network pays
    /// one `Option` branch per hook site.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started — observers attach to
    /// whole runs, not to a half-run trace.
    pub fn arm_observer(&mut self, tc: TraceConfig) {
        self.arm(Armed::Trace(tc));
    }

    /// Attaches a [`BufferRecords`] fold to every receiver instead of the
    /// trace ring: every member's buffer lifecycle of every message (the
    /// paper's Figure 6), read through
    /// `receiver().observer::<BufferRecords>()`; kept across
    /// [`RrmpNetwork::reset`].
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started.
    pub fn arm_buffer_records(&mut self) {
        self.arm(Armed::BufferRecords);
    }

    fn arm(&mut self, armed: Armed) {
        assert_eq!(self.sim.now(), SimTime::ZERO, "arm the observer before the simulation starts");
        self.armed = Some(armed);
        self.rearm_observer();
    }

    /// Whether an observer is armed.
    #[must_use]
    pub fn observer_armed(&self) -> bool {
        self.armed.is_some()
    }

    /// Arms every receiver (and, for the ring, the engine sinks) from
    /// `armed`: when armed, and after [`RrmpNetwork::reset`] rebuilds them.
    fn rearm_observer(&mut self) {
        let Some(armed) = self.armed else { return };
        if let Armed::Trace(tc) = armed {
            self.sim.set_trace(Some(tc.ring_capacity));
        }
        let nodes: Vec<NodeId> = self.sim.topology().nodes().collect();
        for n in nodes {
            let (observer, sample_every): (Box<dyn Observer>, _) = match armed {
                Armed::Trace(tc) => {
                    (Box::new(ReceiverTrace::new(n, tc.ring_capacity)), tc.sample_every)
                }
                Armed::BufferRecords => (Box::<BufferRecords>::default(), None),
            };
            self.sim.node_mut(n).receiver_mut().arm_observer(observer, sample_every);
        }
    }

    /// Every recorded trace event — engine streams plus all receiver
    /// streams — in the canonical `(at, node, stream, emit)` order.
    /// Empty when the observer is unarmed.
    #[must_use]
    pub fn trace_events(&self) -> Vec<rrmp_trace::TraceEvent> {
        let mut out = Vec::new();
        self.sim.collect_trace(&mut out);
        self.traces().for_each(|(_, t)| t.sink.collect_into(&mut out));
        rrmp_trace::sort_canonical(&mut out);
        out
    }

    /// The full trace serialized as JSONL (one event per line, canonical
    /// order) — the `trace_dump` export format. Byte-identical across
    /// shard counts for the same run.
    #[must_use]
    pub fn trace_jsonl(&self) -> String {
        rrmp_trace::to_jsonl(&self.trace_events())
    }

    /// Trace events evicted by ring bounds across all sinks (0 means the
    /// export above is complete).
    #[must_use]
    pub fn trace_events_dropped(&self) -> u64 {
        self.sim.trace_dropped() + self.traces().map(|(_, t)| t.sink.dropped()).sum::<u64>()
    }

    /// Every receiver's trace ring, by member.
    fn traces(&self) -> impl Iterator<Item = (NodeId, &ReceiverTrace)> {
        self.sim.nodes().filter_map(|(id, n)| Some((id, n.receiver().observer()?)))
    }

    /// Group-wide latency histograms as one JSON object:
    /// `recovery_latency_micros` (loss detection → delivery),
    /// `repair_rtt_micros` (request → repair), `inter_arrival_micros`
    /// (global delivery gaps), and `inter_arrival_by_region` keyed
    /// `region_<id>`. Histogram merging is associative, so the merged
    /// quantiles are identical at every shard count.
    #[must_use]
    pub fn histograms_json(&self) -> String {
        use rrmp_trace::{JsonObj, LogHistogram};
        let mut recovery = LogHistogram::new();
        let mut rtt = LogHistogram::new();
        let mut inter = LogHistogram::new();
        let mut by_region: Vec<LogHistogram> = Vec::new();
        by_region.resize_with(self.sim.topology().region_count(), LogHistogram::new);
        for (id, t) in self.traces() {
            recovery.merge(&t.recovery_latency);
            rtt.merge(&t.repair_rtt);
            inter.merge(&t.inter_arrival);
            let region = self.sim.topology().region_of(id);
            by_region[region.index()].merge(&t.inter_arrival);
        }
        let mut regions = JsonObj::new();
        for (i, h) in by_region.iter().enumerate() {
            regions.raw(&format!("region_{i}"), &h.to_json());
        }
        let mut o = JsonObj::new();
        o.raw("recovery_latency_micros", &recovery.to_json());
        o.raw("repair_rtt_micros", &rtt.to_json());
        o.raw("inter_arrival_micros", &inter.to_json());
        o.raw("inter_arrival_by_region", &regions.finish());
        o.finish()
    }

    /// Schedules the protocol-side half of the armed fault plan: crashes
    /// (member disappears, views drop it) and heal notifications on every
    /// node at each partition/blackout/stall end.
    fn schedule_fault_protocol_timers(&mut self) {
        let Some(plan) = self.fault_plan.clone() else { return };
        for (node, at) in plan.crashes() {
            self.schedule_crash(node, at);
        }
        let heal_times = plan.heal_times();
        let nodes: Vec<NodeId> = self.sim.topology().nodes().collect();
        for at in heal_times {
            for &n in &nodes {
                self.sim.schedule_external_timer(n, HostTimer::Heal, at);
            }
        }
    }

    /// Number of worker threads the engine runs on (1 for the
    /// single-queue engine).
    #[must_use]
    pub fn shards(&self) -> usize {
        match &self.sim {
            SimEngine::Single(_) => 1,
            SimEngine::Sharded(s) => s.shards(),
        }
    }

    /// Builds the per-node protocol state for one run.
    fn build_nodes(
        topo: &Topology,
        cfg: &ProtocolConfig,
        seed: u64,
        senders: &[NodeId],
    ) -> Vec<RrmpNode> {
        let mut nodes = Vec::with_capacity(topo.node_count());
        nodes.extend(Self::build_nodes_iter(topo, cfg, seed, senders));
        nodes
    }

    /// Per-node protocol state as an iterator in `NodeId` order — hosts
    /// that can consume nodes one at a time (the sharded engine streams
    /// them into per-region vectors) avoid ever holding the full set in a
    /// second buffer.
    fn build_nodes_iter<'t>(
        topo: &'t Topology,
        cfg: &ProtocolConfig,
        seed: u64,
        senders: &[NodeId],
    ) -> impl Iterator<Item = RrmpNode> + 't {
        // Decorrelate receiver RNG streams from the simulator's own streams
        // (which are derived from the unmixed seed).
        let seq = rrmp_netsim::rng::SeedSequence::new(seed ^ 0x5EED_0F88_1122_AA55);
        // The full group in ascending id order: topology-blind policies
        // like hash placement rank every member, not just own ∪ parent.
        // Built once and shared by every receiver's policy.
        let members: Arc<[NodeId]> = topo.nodes().collect();
        // One config allocation for the whole group: every receiver holds
        // a clone of this `Arc`, not its own inline copy.
        let shared_cfg = Arc::new(cfg.clone());
        let senders = senders.to_vec();
        topo.nodes().map(move |id| {
            let mut receiver = Receiver::with_members(
                id,
                HierarchyView::from_topology(topo, id),
                Arc::clone(&shared_cfg),
                seq.subseed(id.0 as u64),
                &members,
            );
            if senders.contains(&id) {
                receiver.make_sender();
            }
            RrmpNode::new(receiver)
        })
    }

    /// Resets the network for a fresh experiment run over the same
    /// topology and configuration: protocol state is rebuilt from `seed`
    /// while the simulator keeps its event-queue and timer-slab
    /// allocations warm ([`Sim::reset`]) — the fast path for multi-run
    /// experiments and repeated benchmark iterations. The multicast loss
    /// model and any armed fault plan are retained (the engines keep the
    /// network-edge half; the crash and heal timers are re-scheduled
    /// here).
    pub fn reset(&mut self, seed: u64) {
        let nodes = Self::build_nodes(self.sim.topology(), &self.cfg, seed, &self.senders);
        self.sim.reset(nodes, seed);
        self.schedule_fault_protocol_timers();
        self.rearm_observer();
    }

    /// Sets the loss model applied to unicast sends (requests, repairs),
    /// on whichever engine hosts the group. The sharded engine draws from
    /// per-sender-node streams, the single-queue engine from one global
    /// stream — deterministic either way, but not comparable across
    /// engine kinds.
    pub fn set_unicast_loss(&mut self, model: LossModel) {
        self.sim.set_unicast_loss(model);
    }

    /// The simulated topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        self.sim.topology()
    }

    /// The underlying single-queue simulator (full control for advanced
    /// experiments).
    ///
    /// # Panics
    ///
    /// Panics for a network built with [`RrmpNetwork::with_shards`] — use
    /// the engine-agnostic harness methods (e.g.
    /// [`RrmpNetwork::set_unicast_loss`]) there.
    pub fn sim_mut(&mut self) -> &mut Sim<RrmpNode, HostTimer> {
        match &mut self.sim {
            SimEngine::Single(s) => s,
            SimEngine::Sharded(s) => panic!(
                "sim_mut(): sharded networks have no single-queue Sim \
                 (network runs on the sharded engine ({} shards))",
                s.shards()
            ),
        }
    }

    /// The sender's node id.
    #[must_use]
    pub fn sender_node(&self) -> NodeId {
        self.sender_node
    }

    /// Sets the loss model applied to group multicasts from the sender.
    pub fn set_multicast_loss(&mut self, model: LossModel) {
        self.multicast_loss = model;
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Multicasts `payload` from the sender; the initial delivery outcome
    /// is drawn from the configured multicast loss model. Returns the
    /// assigned message id.
    pub fn multicast(&mut self, payload: impl Into<Bytes>) -> MessageId {
        let plan = {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(
                self.sim.counters().events_processed ^ self.sim.now().as_micros(),
            );
            DeliveryPlan::from_model(
                self.sim.topology(),
                self.sender_node,
                &self.multicast_loss.clone(),
                &mut rng,
            )
        };
        self.multicast_with_plan(payload, &plan)
    }

    /// Multicasts `payload` from the sender with an explicit delivery
    /// plan for the initial transmission (nodes excluded by the plan miss
    /// it and must recover through the protocol).
    pub fn multicast_with_plan(
        &mut self,
        payload: impl Into<Bytes>,
        plan: &DeliveryPlan,
    ) -> MessageId {
        self.multicast_from_with_plan(self.sender_node, payload, plan)
    }

    /// Multicasts `payload` from a specific sender node (multi-sender
    /// groups built with [`RrmpNetwork::with_senders`]).
    ///
    /// # Panics
    ///
    /// Panics if `from` does not hold a sender role.
    pub fn multicast_from_with_plan(
        &mut self,
        from: NodeId,
        payload: impl Into<Bytes>,
        plan: &DeliveryPlan,
    ) -> MessageId {
        let now = self.sim.now();
        let data = self.sim.node_mut(from).receiver.multicast(payload.into());
        let data = data.expect("node holds the sender role");
        let id = data.id;
        let packet = Packet::Data(data);
        // The sender always holds its own message.
        self.sim.inject(from, from, packet.clone(), now);
        let mut plan = plan.clone();
        plan.set_receives(from, false); // avoid double delivery to sender
        self.sim.inject_multicast_plan(from, &packet, &plan, now);
        id
    }

    /// Sets up the paper's Figure 6/7 initial condition: `holders` hold
    /// the message at the current instant and **every** member
    /// simultaneously learns of its existence via an injected session
    /// advertisement, so all missing members start recovery at once.
    pub fn seed_message_with_holders(
        &mut self,
        payload: impl Into<Bytes>,
        holders: &[NodeId],
    ) -> MessageId {
        let now = self.sim.now();
        let sender_node = self.sender_node;
        let data = self.sim.node_mut(sender_node).receiver.multicast(payload.into());
        let data = data.expect("sender node holds the sender role");
        let id = data.id;
        let data = Packet::Data(data);
        for &h in holders {
            self.sim.inject(h, sender_node, data.clone(), now);
        }
        let session = Packet::Session { source: sender_node, high: id.seq };
        let holder_set: std::collections::HashSet<NodeId> = holders.iter().copied().collect();
        let all: Vec<NodeId> = self.sim.topology().nodes().collect();
        for n in all {
            if !holder_set.contains(&n) {
                self.sim.inject(n, sender_node, session.clone(), now);
            }
        }
        id
    }

    /// Preloads protocol state on `node` (see [`PreloadState`]); used by
    /// the search experiments to construct regions where `j` members
    /// buffer a message long-term and the rest have discarded it.
    pub fn preload(
        &mut self,
        node: NodeId,
        id: MessageId,
        payload: impl Into<Bytes>,
        state: PreloadState,
    ) {
        let now = self.sim.now();
        let actions = {
            let n = self.sim.node_mut(node);
            n.receiver_mut().preload(id, payload.into(), state, now)
        };
        for action in actions {
            match action {
                Action::SetTimer { delay, kind } => {
                    self.sim.schedule_external_timer(node, HostTimer::Proto(kind), now + delay);
                }
                other => panic!("preload produced unexpected action {other:?}"),
            }
        }
    }

    /// Injects a packet arriving at `to` at absolute time `at`.
    pub fn inject_packet(&mut self, to: NodeId, from: NodeId, packet: Packet, at: SimTime) {
        self.sim.inject(to, from, packet, at);
    }

    /// Schedules a voluntary leave of `node` at `at`: long-term buffers
    /// are handed off (§3.2) and every other member's view drops the
    /// leaver shortly after (as the membership layer would propagate it).
    pub fn schedule_leave(&mut self, node: NodeId, at: SimTime) {
        self.schedule_departure(node, HostTimer::Leave, at);
    }

    /// Schedules a crash of `node` at `at`: the member disappears without
    /// handing off its long-term buffers. Views drop the member as with a
    /// leave (the failure detector would propagate this).
    pub fn schedule_crash(&mut self, node: NodeId, at: SimTime) {
        self.schedule_departure(node, HostTimer::Crash, at);
    }

    /// Arms `departure` (a leave or a crash) on `node` at `at`, and the
    /// removal of `node` from every other member's views at that instant.
    fn schedule_departure(&mut self, node: NodeId, departure: HostTimer, at: SimTime) {
        self.sim.schedule_external_timer(node, departure, at);
        let others: Vec<NodeId> = self.sim.topology().nodes().filter(|&n| n != node).collect();
        for n in others {
            self.sim.schedule_external_timer(n, HostTimer::ViewRemove(node), at);
        }
    }

    /// Runs the simulation until `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Runs until quiescent or `limit`; returns the last event time.
    pub fn run_until_quiescent(&mut self, limit: SimTime) -> SimTime {
        self.sim.run_until_quiescent(limit)
    }

    /// Access to one node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &RrmpNode {
        self.sim.node(id)
    }

    /// Mutable access to one node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut RrmpNode {
        self.sim.node_mut(id)
    }

    /// Iterates over `(id, node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &RrmpNode)> {
        self.sim.nodes()
    }

    /// Network-level counters from the simulator.
    #[must_use]
    pub fn net_counters(&self) -> rrmp_netsim::sim::NetCounters {
        self.sim.counters()
    }

    /// Whether every member that has not left delivered `id`.
    #[must_use]
    pub fn all_delivered(&self, id: MessageId) -> bool {
        self.sim.nodes().all(|(_, n)| n.receiver().has_left() || n.has_delivered(id))
    }

    /// Number of members that delivered `id`.
    #[must_use]
    pub fn delivered_count(&self, id: MessageId) -> usize {
        self.sim.nodes().filter(|(_, n)| n.has_delivered(id)).count()
    }

    /// Number of members currently holding `id` in their buffer (either
    /// phase) — the "#buffered" series of Figure 7.
    #[must_use]
    pub fn buffered_count(&self, id: MessageId) -> usize {
        self.sim.nodes().filter(|(_, n)| n.receiver().store().contains(id)).count()
    }

    /// Number of members currently holding `id` in the short-term phase.
    #[must_use]
    pub fn short_buffered_count(&self, id: MessageId) -> usize {
        self.sim
            .nodes()
            .filter(|(_, n)| n.receiver().store().phase(id) == Some(crate::buffer::Phase::Short))
            .count()
    }

    /// Number of members that have ever received `id` — the "#received"
    /// series of Figure 7.
    #[must_use]
    pub fn received_count(&self, id: MessageId) -> usize {
        self.sim.nodes().filter(|(_, n)| n.receiver().detector().received_before(id)).count()
    }

    /// Number of members holding `id` long-term.
    #[must_use]
    pub fn long_term_count(&self, id: MessageId) -> usize {
        self.sim
            .nodes()
            .filter(|(_, n)| n.receiver().store().phase(id) == Some(crate::buffer::Phase::Long))
            .count()
    }

    /// The earliest time any member sent a remote repair of `msg`, to a
    /// waiter or as a search's answer — the paper's *search time*
    /// measurement for Figures 8/9 (0 when the initial request lands on a
    /// bufferer).
    #[must_use]
    pub fn first_remote_repair_at(&self, msg: MessageId) -> Option<SimTime> {
        self.sim
            .nodes()
            .filter_map(|(_, n)| {
                let log = n.receiver().metrics().remote_repairs();
                log.iter().find(|&&(_, m)| m == msg).map(|&(t, _)| t)
            })
            .min()
    }

    /// Sums a per-receiver counter over all nodes.
    #[must_use]
    pub fn total_counter<F>(&self, f: F) -> u64
    where
        F: Fn(&crate::metrics::Counters) -> u64,
    {
        self.sim.nodes().map(|(_, n)| f(&n.receiver().metrics().counters)).sum()
    }

    /// Measures the run so far as one scheme-comparison row: `scheme`
    /// names it, `ids` are the messages under test and `sent_at[i]` is
    /// when `ids[i]` was multicast.
    #[must_use]
    pub fn run_report(
        &self,
        scheme: &'static str,
        ids: &[MessageId],
        sent_at: &[SimTime],
    ) -> RunReport {
        let now = self.now();
        let fully = self.nodes().filter(|(_, n)| ids.iter().all(|&m| n.has_delivered(m))).count();
        let byte_time_total: u128 =
            self.nodes().map(|(_, n)| n.receiver().store().byte_time_integral(now)).sum();
        let peaks: Vec<usize> =
            self.nodes().map(|(_, n)| n.receiver().store().peak_entries()).collect();
        let (mut latency_ms, mut recovered) = (0.0f64, 0usize);
        let (mut residual_gave_up, mut residual_pending) = (0usize, 0usize);
        for (i, &id) in ids.iter().enumerate() {
            let sent = sent_at.get(i).copied().unwrap_or(SimTime::ZERO);
            for (_, n) in self.nodes() {
                match n.delivered().iter().find(|&&(_, d)| d == id) {
                    Some(&(at, _)) if at > sent => {
                        latency_ms += (at - sent).as_millis_f64();
                        recovered += 1;
                    }
                    Some(_) => {}
                    // A residual loss: recovery either terminated cleanly
                    // at a retry cap or is still live at run end.
                    None if n.receiver().recovery_pending(id) => residual_pending += 1,
                    None => residual_gave_up += 1,
                }
            }
        }
        let net = self.net_counters();
        RunReport {
            scheme,
            fully_delivered_members: fully,
            members: self.topology().node_count(),
            byte_time_total,
            peak_entries_max: peaks.iter().copied().max().unwrap_or(0),
            peak_entries_mean: peaks.iter().sum::<usize>() as f64 / peaks.len().max(1) as f64,
            packets_sent: net.unicasts_sent,
            mean_recovery_latency_ms: (recovered > 0).then(|| latency_ms / recovered as f64),
            residual_losses: residual_gave_up + residual_pending,
            residual_gave_up,
            residual_pending,
            recovery_gave_up: self.total_counter(|c| c.recovery_gave_up),
            faults_dropped: net.faults_dropped,
            faults_duplicated: net.faults_duplicated,
            watchdog_rearms: self.total_counter(|c| c.watchdog_rearms),
        }
    }
}

/// Cost and latency metrics of one buffering-scheme run
/// ([`RrmpNetwork::run_report`]): a row of the A1 comparison table, and
/// the form in which the policy differentials freeze each scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Scheme name for table rows.
    pub scheme: &'static str,
    /// Members that delivered every message under test.
    pub fully_delivered_members: usize,
    /// Total membership.
    pub members: usize,
    /// Sum over members of the buffer byte×time integral (byte·µs) — the
    /// aggregate buffering cost.
    pub byte_time_total: u128,
    /// Largest per-member peak buffer entry count (load concentration:
    /// repair-server schemes spike here, RRMP spreads it).
    pub peak_entries_max: usize,
    /// Mean per-member peak buffer entry count.
    pub peak_entries_mean: f64,
    /// Unicast control+repair packets handed to the network.
    pub packets_sent: u64,
    /// Mean recovery latency (ms) over members that missed the initial
    /// multicast and later delivered, if any recovered.
    pub mean_recovery_latency_ms: Option<f64>,
    /// Residual losses: `(member, message)` pairs never delivered.
    pub residual_losses: usize,
    /// Residual pairs whose recovery terminated cleanly at a retry cap
    /// (the member knows it gave up — bounded, accounted-for loss).
    pub residual_gave_up: usize,
    /// Residual pairs with recovery machinery still live at run end (the
    /// run was cut short, or something is wedged — worth investigating).
    pub residual_pending: usize,
    /// Total recovery efforts abandoned at a retry cap, summed over
    /// members (the protocol `recovery_gave_up` counter; can exceed the
    /// residual split when an abandoned effort later succeeded through
    /// another path or a heal re-arm).
    pub recovery_gave_up: u64,
    /// Unicast copies dropped by the armed fault plan at the network
    /// edge (0 when no plan is armed).
    pub faults_dropped: u64,
    /// Duplicate copies injected by the armed fault plan.
    pub faults_duplicated: u64,
    /// Wedged recovery efforts restarted by the liveness watchdog,
    /// summed over members (0 when the watchdog is unarmed).
    pub watchdog_rearms: u64,
}

impl RunReport {
    /// Renders the report as one deterministic JSON object, consumed by
    /// `trace_dump` and pinned byte for byte by the policy differentials.
    /// Field order and number formatting are fixed, so identical runs
    /// export identical bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = rrmp_trace::JsonObj::new();
        o.str("scheme", self.scheme);
        o.u64("fully_delivered_members", self.fully_delivered_members as u64);
        o.u64("members", self.members as u64);
        // u128 byte·µs totals exceed u64 in long budget runs; JSON gets
        // the exact decimal rendering either way.
        o.raw("byte_time_total", &self.byte_time_total.to_string());
        o.u64("peak_entries_max", self.peak_entries_max as u64);
        o.f64("peak_entries_mean", self.peak_entries_mean);
        o.u64("packets_sent", self.packets_sent);
        match self.mean_recovery_latency_ms {
            Some(v) => o.f64("mean_recovery_latency_ms", v),
            None => o.raw("mean_recovery_latency_ms", "null"),
        }
        o.u64("residual_losses", self.residual_losses as u64);
        o.u64("residual_gave_up", self.residual_gave_up as u64);
        o.u64("residual_pending", self.residual_pending as u64);
        o.u64("recovery_gave_up", self.recovery_gave_up);
        o.u64("faults_dropped", self.faults_dropped);
        o.u64("faults_duplicated", self.faults_duplicated);
        o.u64("watchdog_rearms", self.watchdog_rearms);
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SeqNo;
    use rrmp_netsim::time::SimDuration;
    use rrmp_netsim::topology::presets;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::paper_defaults()
    }

    #[test]
    #[should_panic(expected = "invalid protocol config")]
    fn new_rejects_an_invalid_config() {
        let _ = RrmpNetwork::new(presets::paper_region(4), ProtocolConfig { c: 0.0, ..cfg() }, 1);
    }

    #[test]
    #[should_panic(expected = "invalid protocol config")]
    fn with_shards_rejects_an_invalid_config() {
        let topo = presets::paper_region(4);
        let _ = RrmpNetwork::with_shards(topo, ProtocolConfig { c: 0.0, ..cfg() }, 1, 1);
    }

    #[test]
    fn lossless_multicast_delivers_everywhere() {
        let topo = presets::paper_region(10);
        let mut net = RrmpNetwork::new(topo, cfg(), 1);
        let plan = DeliveryPlan::all(net.topology());
        let id = net.multicast_with_plan(&b"hello"[..], &plan);
        net.run_until(SimTime::from_millis(50));
        assert_eq!(net.delivered_count(id), 10);
        assert!(net.all_delivered(id));
        // Nobody needed recovery.
        assert_eq!(net.total_counter(|c| c.local_requests_sent), 0);
    }

    #[test]
    fn local_loss_recovers_within_region() {
        let topo = presets::paper_region(10);
        let mut net = RrmpNetwork::new(topo, cfg(), 2);
        // Nodes 5..10 miss the initial multicast.
        let plan = DeliveryPlan::only(net.topology(), (0..5).map(NodeId));
        let id = net.multicast_with_plan(&b"data"[..], &plan);
        net.run_until(SimTime::from_secs(1));
        assert!(net.all_delivered(id), "delivered {}", net.delivered_count(id));
        assert!(net.total_counter(|c| c.local_requests_sent) > 0);
        assert!(net.total_counter(|c| c.repairs_sent_local) > 0);
    }

    #[test]
    fn regional_loss_recovers_through_parent() {
        let topo = presets::figure1_chain([5, 5, 5], SimDuration::from_millis(25));
        let mut net = RrmpNetwork::new(topo, cfg(), 3);
        // Region 1 (nodes 5..10) misses entirely.
        let plan = DeliveryPlan::all_but(net.topology(), (5..10).map(NodeId));
        let id = net.multicast_with_plan(&b"xyz"[..], &plan);
        net.run_until(SimTime::from_secs(2));
        assert!(net.all_delivered(id), "delivered {}", net.delivered_count(id));
        assert!(net.total_counter(|c| c.remote_requests_sent) > 0);
        assert!(net.total_counter(|c| c.repairs_sent_remote) > 0);
        // The repair got re-multicast within region 1.
        assert!(net.total_counter(|c| c.regional_multicasts_sent) > 0);
    }

    #[test]
    fn seed_message_with_holders_triggers_simultaneous_detection() {
        let topo = presets::paper_region(20);
        let mut net = RrmpNetwork::new(topo, cfg(), 4);
        let holders: Vec<NodeId> = (0..4).map(NodeId).collect();
        let id = net.seed_message_with_holders(&b"m"[..], &holders);
        net.run_until(SimTime::from_millis(1));
        // All 16 missing members detected the loss immediately.
        assert!(net.total_counter(|c| c.local_requests_sent) >= 16);
        net.run_until(SimTime::from_secs(1));
        assert_eq!(net.received_count(id), 20);
    }

    #[test]
    fn long_term_tail_approximates_c() {
        // With n=100 and C=6 the expected number of long-term bufferers is
        // 6; over a full epidemic this is statistical, so just assert the
        // tail is small but usually nonzero across this seed.
        let topo = presets::paper_region(100);
        let mut net = RrmpNetwork::new(topo, cfg(), 5);
        let id = net.seed_message_with_holders(&b"m"[..], &[NodeId(0)]);
        net.run_until(SimTime::from_secs(2));
        assert_eq!(net.received_count(id), 100);
        let long = net.long_term_count(id);
        assert!(long <= 20, "long-term tail {long} implausibly large");
        // Short-term buffers have all idled out by 2s.
        assert_eq!(net.short_buffered_count(id), 0);
    }

    #[test]
    fn preload_and_search_measurement() {
        // Region 0: 10 members; region 1: one downstream origin.
        let topo = rrmp_netsim::topology::TopologyBuilder::new()
            .region(10, None)
            .region(1, Some(0))
            .build()
            .unwrap();
        let mut net = RrmpNetwork::new(topo, cfg(), 6);
        let id = MessageId::new(NodeId(0), crate::ids::SeqNo(1));
        // Members 0..2 buffer long-term; 3..10 received-then-discarded.
        for i in 0..10u32 {
            let state =
                if i < 2 { PreloadState::LongTerm } else { PreloadState::ReceivedDiscarded };
            net.preload(NodeId(i), id, &b"m"[..], state);
        }
        // The downstream origin (node 10) sends a remote request to a
        // non-bufferer.
        net.inject_packet(NodeId(5), NodeId(10), Packet::RemoteRequest { msg: id }, SimTime::ZERO);
        net.run_until_quiescent(SimTime::from_secs(1));
        let at = net.first_remote_repair_at(id).expect("search must succeed");
        assert!(at > SimTime::ZERO, "non-bufferer entry point implies nonzero search time");
        // The origin eventually received the payload.
        assert!(net.node(NodeId(10)).has_delivered(id));
    }

    #[test]
    fn leave_preserves_recoverability() {
        let topo = presets::paper_region(10);
        let c_huge = ProtocolConfig { c: 1000.0, ..ProtocolConfig::paper_defaults() }; // all keep long-term
        let mut net = RrmpNetwork::new(topo, c_huge, 7);
        let plan = DeliveryPlan::all(net.topology());
        let _id = net.multicast_with_plan(&b"v"[..], &plan);
        net.run_until(SimTime::from_millis(200)); // all idle -> long-term
                                                  // Node 3 leaves; its buffers hand off.
        net.schedule_leave(NodeId(3), SimTime::from_millis(250));
        net.run_until(SimTime::from_millis(400));
        assert!(net.node(NodeId(3)).receiver().has_left());
        assert!(net.total_counter(|c| c.handoffs_sent) >= 1);
        // Views no longer contain node 3.
        assert!(!net.node(NodeId(0)).receiver().view().own().contains(NodeId(3)));
    }

    #[test]
    fn reset_replays_identically_with_warm_queue() {
        let topo = presets::paper_region(30);
        let mut net = RrmpNetwork::new(topo, cfg(), 21);
        let plan = DeliveryPlan::only(net.topology(), (0..10).map(NodeId));
        let id = net.multicast_with_plan(&b"reuse"[..], &plan);
        net.run_until(SimTime::from_secs(1));
        let first = (net.delivered_count(id), net.net_counters());
        net.reset(21);
        assert_eq!(net.now(), SimTime::ZERO);
        assert_eq!(net.net_counters(), Default::default());
        let id2 = net.multicast_with_plan(&b"reuse"[..], &plan);
        net.run_until(SimTime::from_secs(1));
        assert_eq!(
            first,
            (net.delivered_count(id2), net.net_counters()),
            "a reset network must replay the same seed identically"
        );
    }

    #[test]
    fn sharded_engine_recovers_identically_at_every_shard_count() {
        fn run(shards: usize) -> (usize, NetCounters, u64) {
            let topo = presets::figure1_chain([6, 6, 6], SimDuration::from_millis(25));
            let mut net = RrmpNetwork::with_shards(topo, cfg(), 9, shards);
            // Region 1 misses entirely: recovery crosses shard boundaries.
            let plan = DeliveryPlan::all_but(net.topology(), (6..12).map(NodeId));
            let id = net.multicast_with_plan(&b"shard"[..], &plan);
            net.run_until(SimTime::from_secs(2));
            assert!(net.all_delivered(id), "delivered {}", net.delivered_count(id));
            (
                net.delivered_count(id),
                net.net_counters(),
                net.total_counter(|c| c.repairs_sent_remote),
            )
        }
        let sequential = run(1);
        assert_eq!(sequential, run(2));
        assert_eq!(sequential, run(3));
        // More shards than regions clamps to the region count.
        assert_eq!(sequential, run(16));
    }

    #[test]
    fn sharded_reset_replays_identically() {
        let topo = presets::figure1_chain([5, 5, 5], SimDuration::from_millis(25));
        let mut net = RrmpNetwork::with_shards(topo, cfg(), 13, 3);
        let plan = DeliveryPlan::only(net.topology(), (0..5).map(NodeId));
        let id = net.multicast_with_plan(&b"reuse"[..], &plan);
        net.run_until(SimTime::from_secs(2));
        let first = (net.delivered_count(id), net.net_counters());
        net.reset(13);
        assert_eq!(net.now(), SimTime::ZERO);
        assert_eq!(net.net_counters(), Default::default());
        let id2 = net.multicast_with_plan(&b"reuse"[..], &plan);
        net.run_until(SimTime::from_secs(2));
        assert_eq!(first, (net.delivered_count(id2), net.net_counters()));
    }

    #[test]
    fn has_delivered_agrees_with_delivery_log_scan() {
        // The per-source interval index behind `has_delivered` must answer
        // exactly what a scan of the delivery log answers, for ids that
        // arrived in order, ids recovered out of order, and ids never seen.
        let topo = presets::paper_region(20);
        let mut net = RrmpNetwork::new(topo, cfg(), 4);
        let mut ids = Vec::new();
        for k in 0..8u32 {
            // A different half of the members misses each initial copy.
            let holders = (0..20u32).filter(|i| i % 2 == k % 2).map(NodeId);
            let plan = DeliveryPlan::only(net.topology(), holders);
            ids.push(net.multicast_with_plan(&b"indexed"[..], &plan));
            let next = net.now() + SimDuration::from_millis(10);
            net.run_until(next);
        }
        net.run_until(SimTime::from_secs(2));
        assert!(ids.iter().all(|&id| net.all_delivered(id)), "stream fully recovered");
        let never_sent = MessageId::new(NodeId(0), SeqNo(ids.len() as u64 + 5));
        let non_sender = MessageId::new(NodeId(3), SeqNo(1));
        for (node, n) in net.nodes() {
            for &id in ids.iter().chain([&never_sent, &non_sender]) {
                assert_eq!(
                    n.has_delivered(id),
                    n.delivered().iter().any(|&(_, d)| d == id),
                    "node {node} id {id:?}"
                );
            }
        }
    }

    #[test]
    fn deterministic_runs() {
        fn run(seed: u64) -> (usize, u64, u64) {
            let topo = presets::paper_region(30);
            let mut net = RrmpNetwork::new(topo, cfg(), seed);
            let id = net.seed_message_with_holders(&b"d"[..], &[NodeId(2), NodeId(7)]);
            net.run_until(SimTime::from_secs(1));
            (
                net.received_count(id),
                net.total_counter(|c| c.local_requests_sent),
                net.net_counters().unicasts_sent,
            )
        }
        assert_eq!(run(99), run(99));
        // Different seeds explore different schedules.
        let a = run(1);
        let b = run(2);
        assert_eq!(a.0, b.0, "recovery completes under both seeds");
    }

    #[test]
    fn run_report_measures_the_run_and_renders_json() {
        use rrmp_trace::Value;
        let mut net = RrmpNetwork::new(presets::paper_region(10), cfg(), 5);
        let sent = [net.now()];
        let plan = DeliveryPlan::only(net.topology(), (0..5).map(NodeId));
        let id = net.multicast_with_plan(&b"x"[..], &plan);
        net.run_until(SimTime::from_secs(1));
        let r = net.run_report("two-phase", &[id], &sent);
        assert_eq!((r.fully_delivered_members, r.members, r.residual_losses), (10, 10, 0));
        assert!(r.byte_time_total > 0 && r.packets_sent > 0, "{r:?}");
        let latency = r.mean_recovery_latency_ms.expect("five members recovered");
        // The JSON face parses back and round-trips the key numbers.
        let v = Value::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(v.get("scheme").and_then(Value::as_str), Some("two-phase"));
        assert_eq!(v.get("packets_sent").and_then(Value::as_u64), Some(r.packets_sent));
        let parsed = v.get("mean_recovery_latency_ms").and_then(Value::as_f64).unwrap();
        assert!((parsed - latency).abs() < 1e-3, "{parsed} vs {latency}");
        // No messages under test: no latency, rendered as JSON null.
        let none = net.run_report("two-phase", &[], &[]);
        assert_eq!(none.mean_recovery_latency_ms, None);
        let v = Value::parse(&none.to_json()).expect("valid JSON");
        assert_eq!(v.get("mean_recovery_latency_ms"), Some(&Value::Null));
    }
}
