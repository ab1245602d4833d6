//! The per-event core of the simulator's one driver.
//!
//! A [`Core`] owns a set of nodes, their loss streams, one event queue, the
//! [`NetCounters`], the engine trace sink and the scratch buffers, and it
//! implements every per-event step once: dispatch, draining a callback's
//! ops, transmit and fan-out, the edge verdict (drop filter, fault plan,
//! loss model), duplication and routing. The window driver
//! ([`ShardedSim`](crate::shard::ShardedSim)) runs one core for the whole
//! group or one core per region; the partition is fixed when it is built.
//! Either way a core owns one contiguous range of node ids (the builder
//! numbers nodes region by region), so a node's slot is its id minus the
//! range's first. The core does not know how the run is partitioned
//! beyond two facts its constructor fixes:
//!
//! * **the unicast-loss stream**: one global stream on the one-core
//!   partition, one stream per sender on a region core (a global stream
//!   would make a region's draws depend on how other regions' events
//!   interleave with its own);
//! * **cross-region routing**: the one core schedules every surviving copy
//!   into its own queue, while a region core groups cross-region copies by
//!   `(arrival, destination region)` and puts each group in its mailbox
//!   as one entry, which the driver merges at the window barrier in
//!   `(arrive, src_region, emission)` order.
//!
//! Routing is also the one reason the two partitions may order two
//! same-instant events of different regions differently.

use std::sync::Arc;

use rand::rngs::StdRng;
use rrmp_trace::{streams, EventKind, TraceSink};

use crate::event::EventQueue;
use crate::fault::FaultPlan;
use crate::loss::LossModel;
use crate::rng::SeedSequence;
use crate::sim::{Ctx, NetCounters, SimNode};
use crate::time::SimTime;
use crate::topology::{NodeId, Topology};

/// Buffered side effects produced during one callback.
pub(crate) enum Op<M, T> {
    /// Unicast to one destination.
    Send { to: NodeId, msg: M },
    /// One message to a contiguous range of the target arena.
    SendMany { start: u32, len: u32, msg: M },
    /// One message to every topology node except the caller.
    SendGroup { msg: M },
    /// Schedule `timer` on the caller at `at`.
    SetTimer { timer: T, at: SimTime },
}

pub(crate) enum SimEvent<M, T> {
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: M,
    },
    /// One region-timed batch: every node in `targets` receives a copy of
    /// `msg` at this event's instant, in target order. Scheduled by the
    /// fan-out path (one queue entry per distinct arrival time instead of
    /// one per destination) and by a region core for each mailbox entry
    /// that carries a group, and expanded lazily at delivery; the target
    /// vector is recycled through the core's pool (one that came from
    /// another region only while the pool is short, [`FOREIGN_KEEP`]).
    DeliverBatch {
        from: NodeId,
        targets: Vec<NodeId>,
        msg: M,
    },
    Timer {
        node: NodeId,
        timer: T,
    },
}

/// The per-node unicast-loss RNG stream id on a region core: disjoint
/// from the per-node protocol streams (`0..n`) and from the one-core
/// partition's global loss stream ([`GLOBAL_LOSS_STREAM`]).
fn loss_stream(node: NodeId) -> u64 {
    (1u64 << 63) | u64::from(node.0)
}

/// The one-core partition's unicast-loss RNG stream id.
const GLOBAL_LOSS_STREAM: u64 = u64::MAX / 2;

/// The group key of copies for a node the core owns: they are scheduled
/// on its own queue, while a cross-region group is keyed by its
/// destination region's index.
pub(crate) const LOCAL: u32 = u32::MAX;

/// Target vectors that came from another region a core keeps in its pool.
/// A core that receives more batches than it sends would otherwise keep
/// one vector per batch it ever received.
pub(crate) const FOREIGN_KEEP: usize = 8;

/// One mailbox entry: the copies of one fan-out that a region core sends
/// to one other region with one arrival time, buffered until the next
/// barrier.
///
/// `to` is the first destination; `targets` is empty for a single copy
/// and otherwise lists every destination (`to` first) in emission order,
/// the order the receiving core delivers them in. The canonical merge
/// order is `(arrive, src_region, emission)`, an entry standing at its
/// first copy's emission: the driver appends the mailboxes in region
/// order, each in emission order, and sorts the batch stably by
/// `arrive`. That order is fixed by each *sending region's* deterministic
/// execution, so it cannot depend on which thread ran which region. It
/// is the order one entry per copy would merge in: the copies a fan-out
/// sends to one region at one arrival are consecutive there, so a batch
/// expands them at the same instant in the same order.
pub(crate) struct CrossEvent<M> {
    pub(crate) arrive: SimTime,
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) targets: Vec<NodeId>,
    pub(crate) msg: M,
}

/// A deterministic per-packet drop predicate (return `true` to drop).
/// Region cores consult it concurrently, hence `Fn + Send + Sync`.
pub(crate) type DropFilter<M> = dyn Fn(NodeId, NodeId, &M) -> bool + Send + Sync;

/// What a core reads but does not own: the topology and the network
/// settings. The driver holds them; every core reads them during a
/// window, and none writes them.
pub(crate) struct Env<M> {
    pub(crate) topo: Topology,
    pub(crate) unicast_loss: LossModel,
    /// Armed fault timeline. Verdicts are pure functions of
    /// `(plan, send time, endpoints)` — no RNG state — so region cores
    /// can consult it concurrently and the outcome is layout-invariant.
    pub(crate) fault: Option<Arc<FaultPlan>>,
    pub(crate) drop_filter: Option<Box<DropFilter<M>>>,
}

/// Nodes, loss streams, one event queue, counters, the trace sink and the
/// scratch buffers, with every per-event step (see the module docs).
pub(crate) struct Core<N: SimNode<T>, T> {
    pub(crate) nodes: Vec<N>,
    /// The run's seed, lent to callbacks ([`Ctx::seed`]).
    seed: u64,
    /// Unicast-loss streams: one global stream on the one core, one per
    /// local node on a region core.
    loss_rngs: Vec<StdRng>,
    /// Maps a local sender index to its loss stream without a branch:
    /// `0` on the one core (every sender draws from stream 0), all ones on
    /// a region core (each sender draws from its own).
    loss_stream_mask: usize,
    pub(crate) queue: EventQueue<SimEvent<N::Msg, T>>,
    pub(crate) counters: NetCounters,
    pub(crate) now: SimTime,
    /// Armed observer sink fed by the engine hooks (deliveries against
    /// the receiving node, wire verdicts against the sender, in per-node
    /// rings, so the collected events do not depend on the layout).
    /// `None` costs one branch on the hot path.
    pub(crate) trace: Option<Box<TraceSink>>,
    started: bool,
    /// Reused callback side-effect buffer (empty between dispatches).
    scratch_ops: Vec<Op<N::Msg, T>>,
    /// Reused fan-out target arena (empty between dispatches).
    scratch_targets: Vec<NodeId>,
    /// Recycled target vectors for batch delivery events.
    target_pool: Vec<Vec<NodeId>>,
    /// Groups of the fan-out being scheduled (empty between fan-outs),
    /// keyed by arrival time and [`LOCAL`] or the destination region: the
    /// first target inline, and from the second on every target in a
    /// vector from `target_pool`.
    groups: Vec<(SimTime, u32, NodeId, Vec<NodeId>)>,
    /// The id of the first node this core owns: it owns
    /// `first..first + nodes.len()` (0 on the one core, which owns them
    /// all).
    first: u32,
    /// `Some` on a region core: its cross-region sends awaiting the next
    /// barrier, in emission order.
    outbox: Option<Vec<CrossEvent<N::Msg>>>,
}

impl<N: SimNode<T>, T> Core<N, T> {
    /// An empty core: the one core of the whole group (`region_first`
    /// `None`) or that of the region whose first node id is
    /// `region_first`. [`Core::reset`] and [`Core::push_node`] load it.
    pub(crate) fn new(region_first: Option<u32>) -> Self {
        Core {
            nodes: Vec::new(),
            seed: 0,
            loss_rngs: Vec::new(),
            loss_stream_mask: if region_first.is_some() { usize::MAX } else { 0 },
            queue: EventQueue::new(),
            counters: NetCounters::default(),
            now: SimTime::ZERO,
            trace: None,
            started: false,
            scratch_ops: Vec::new(),
            scratch_targets: Vec::new(),
            target_pool: Vec::new(),
            groups: Vec::new(),
            first: region_first.unwrap_or(0),
            outbox: region_first.map(|_| Vec::new()),
        }
    }

    /// Empties the core for a fresh run, keeping every allocation but the
    /// node vector warm ([`EventQueue::clear`]), and loads `nodes`: all of
    /// them on the one core; on a region core none, in a vector sized for
    /// the region, whose nodes then stream in through [`Core::push_node`].
    /// An armed observer stays armed, but the previous run's events are
    /// discarded.
    pub(crate) fn reset(&mut self, seq: &SeedSequence, nodes: Vec<N>) {
        self.nodes = nodes;
        self.seed = seq.seed();
        self.loss_rngs.clear();
        match &mut self.outbox {
            None => self.loss_rngs.push(seq.rng_for(GLOBAL_LOSS_STREAM)),
            Some(outbox) => {
                debug_assert!(self.nodes.is_empty(), "a region's nodes stream in");
                self.loss_rngs.reserve_exact(self.nodes.capacity());
                outbox.clear();
            }
        }
        self.queue.clear();
        self.counters = NetCounters::default();
        self.now = SimTime::ZERO;
        self.started = false;
        if let Some(t) = self.trace.as_deref_mut() {
            t.clear();
        }
    }

    /// Appends the region node with id `id` (in ascending id order),
    /// deriving its unicast-loss stream from `seq`.
    pub(crate) fn push_node(&mut self, id: NodeId, node: N, seq: &SeedSequence) {
        debug_assert_eq!(self.local(id), self.nodes.len());
        self.nodes.push(node);
        self.loss_rngs.push(seq.rng_for(loss_stream(id)));
    }

    fn local(&self, id: NodeId) -> usize {
        (id.0 - self.first) as usize
    }

    /// Whether `id` is one of this core's nodes.
    fn owns(&self, id: NodeId) -> bool {
        (id.0.wrapping_sub(self.first) as usize) < self.nodes.len()
    }

    pub(crate) fn node(&self, id: NodeId) -> &N {
        &self.nodes[self.local(id)]
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut N {
        let local = self.local(id);
        &mut self.nodes[local]
    }

    /// Whether this is a region core, which mails its cross-region sends.
    pub(crate) fn has_mailbox(&self) -> bool {
        self.outbox.is_some()
    }

    /// The mailbox: `Some` on a region core, `None` on the one core.
    pub(crate) fn outbox(&mut self) -> Option<&mut Vec<CrossEvent<N::Msg>>> {
        self.outbox.as_mut()
    }

    /// Target vectors in the pool.
    #[cfg(test)]
    pub(crate) fn pooled_targets(&self) -> usize {
        self.target_pool.len()
    }

    /// Unicast-loss streams held.
    #[cfg(test)]
    pub(crate) fn loss_streams(&self) -> usize {
        self.loss_rngs.len()
    }

    /// Pending events: the queue plus the undelivered mailbox.
    pub(crate) fn pending(&self) -> usize {
        self.queue.len() + self.outbox.as_ref().map_or(0, Vec::len)
    }

    /// Schedules `msg` from `from` to arrive at `to` at `at`, bypassing
    /// latency, loss and the mailboxes.
    pub(crate) fn inject(&mut self, to: NodeId, from: NodeId, msg: N::Msg, at: SimTime) {
        self.queue.schedule(at, SimEvent::Deliver { to, from, msg });
    }

    /// Schedules a mailbox entry that another region sent this core: a
    /// plain delivery for a single copy, a batch otherwise.
    pub(crate) fn accept(&mut self, e: CrossEvent<N::Msg>) {
        let CrossEvent { arrive, from, to, targets, msg } = e;
        if targets.is_empty() {
            self.inject(to, from, msg, arrive);
        } else {
            self.queue.schedule(arrive, SimEvent::DeliverBatch { from, targets, msg });
        }
    }

    pub(crate) fn schedule_timer(&mut self, node: NodeId, timer: T, at: SimTime) {
        self.counters.timers_set += 1;
        self.queue.schedule(at, SimEvent::Timer { node, timer });
    }

    /// Runs each owned node's [`SimNode::on_start`] callback (at most once).
    pub(crate) fn start(&mut self, env: &Env<N::Msg>) {
        if std::mem::replace(&mut self.started, true) {
            return;
        }
        for local in 0..self.nodes.len() as u32 {
            self.dispatch_with(env, NodeId(self.first + local), |node, ctx| node.on_start(ctx));
        }
    }

    /// Dispatches every queued event at or before `limit`. The horizon
    /// check is a peek-gated pop: an event past `limit` is never removed
    /// from the queue (and so never re-inserted).
    pub(crate) fn run_until(&mut self, env: &Env<N::Msg>, limit: SimTime) {
        while let Some((at, event)) = self.queue.pop_at_or_before(limit) {
            self.dispatch_event(env, at, event);
        }
    }

    /// Dispatches one popped event.
    pub(crate) fn dispatch_event(
        &mut self,
        env: &Env<N::Msg>,
        at: SimTime,
        event: SimEvent<N::Msg, T>,
    ) {
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        match event {
            SimEvent::Deliver { to, from, msg } => self.deliver(env, to, from, &msg),
            SimEvent::DeliverBatch { from, mut targets, msg } => {
                // Lazy expansion: the per-destination deliveries run here
                // back to back, in target order — the order their
                // one-per-destination entries would have popped in. Each
                // target borrows the one message, dropped once after.
                for &to in &targets {
                    self.counters.batched_deliveries += 1;
                    self.deliver(env, to, from, &msg);
                }
                // A vector that came from another region joins the pool only
                // while the pool is short.
                if self.owns(from) || self.target_pool.len() < FOREIGN_KEEP {
                    targets.clear();
                    self.target_pool.push(targets);
                }
            }
            SimEvent::Timer { node, timer } => {
                self.counters.timers_fired += 1;
                self.counters.events_processed += 1;
                self.dispatch_with(env, node, |n, ctx| n.on_timer(ctx, timer));
            }
        }
    }

    fn deliver(&mut self, env: &Env<N::Msg>, to: NodeId, from: NodeId, msg: &N::Msg) {
        self.counters.delivered += 1;
        self.counters.events_processed += 1;
        if let Some(t) = self.trace.as_deref_mut() {
            t.record(self.now.as_micros(), to.0, streams::ENGINE_DELIVERY, EventKind::Delivered);
        }
        self.dispatch_with(env, to, |node, ctx| node.on_packet_ref(ctx, from, msg));
    }

    /// Runs one callback of node `from`, then drains the ops it buffered.
    fn dispatch_with<F>(&mut self, env: &Env<N::Msg>, from: NodeId, f: F)
    where
        F: FnOnce(&mut N, &mut Ctx<'_, N::Msg, T>),
    {
        let local = self.local(from);
        // Take the (empty) scratch buffers, keeping their capacity across
        // dispatches.
        debug_assert!(self.scratch_ops.is_empty() && self.scratch_targets.is_empty());
        let mut ops = std::mem::take(&mut self.scratch_ops);
        let mut targets = std::mem::take(&mut self.scratch_targets);
        f(
            &mut self.nodes[local],
            &mut Ctx {
                now: self.now,
                self_id: from,
                topo: &env.topo,
                seed: self.seed,
                ops: &mut ops,
                targets: &mut targets,
            },
        );
        for op in ops.drain(..) {
            match op {
                Op::Send { to, msg } => {
                    self.transmit_fanout(env, local, from, std::iter::once(to), msg);
                }
                Op::SendMany { start, len, msg } => {
                    self.counters.fanouts += 1;
                    let range = start as usize..(start + len) as usize;
                    self.transmit_fanout(env, local, from, targets[range].iter().copied(), msg);
                }
                Op::SendGroup { msg } => {
                    self.counters.fanouts += 1;
                    let all = (0..env.topo.node_count() as u32).map(NodeId);
                    self.transmit_fanout(env, local, from, all.filter(|&to| to != from), msg);
                }
                Op::SetTimer { timer, at } => self.schedule_timer(from, timer, at),
            }
        }
        targets.clear();
        self.scratch_ops = ops;
        self.scratch_targets = targets;
    }

    /// Sends `msg` to every destination — a unicast is the one-target
    /// case. Counters, the drop filter and the edge verdict apply **in
    /// destination order**, so the loss stream is drawn the same way
    /// however the sends are grouped; each survivor (and its duplicate)
    /// is then routed, and the groups are flushed as one event or one
    /// mailbox entry each.
    ///
    /// Forced inline with its helpers (each instantiation has one call
    /// site): out of line, a unicast paid ≈5 % per null-node event.
    #[inline(always)]
    fn transmit_fanout(
        &mut self,
        env: &Env<N::Msg>,
        local_from: usize,
        from: NodeId,
        targets: impl Iterator<Item = NodeId>,
        msg: N::Msg,
    ) {
        debug_assert!(self.groups.is_empty());
        // Verdicts are pure functions of the send instant and endpoints,
        // so a plan with no episode live now answers `None` for every copy.
        let fault = env.fault.as_deref().filter(|p| p.active_at(self.now));
        for to in targets {
            self.counters.unicasts_sent += 1;
            let filtered = env.drop_filter.as_ref().is_some_and(|f| f(from, to, &msg));
            if filtered || self.edge_loses(env, fault, local_from, from, to) {
                self.counters.unicasts_dropped += 1;
                self.wire(from, EventKind::PacketDropped { to: to.0 });
                continue;
            }
            let arrive = self.now + env.topo.one_way_latency(from, to);
            self.route(&env.topo, arrive, to);
            if let Some(extra) = fault.and_then(|p| p.duplicate_delay(self.now, from, to)) {
                // The duplicate is routed after the primary, so its place
                // in its group is the later one at every layout; its
                // not-earlier arrival keeps the conservative window rule
                // intact.
                self.counters.faults_duplicated += 1;
                self.wire(from, EventKind::FaultDuplicated { to: to.0 });
                self.route(&env.topo, arrive + extra, to);
            }
        }
        self.flush(from, msg);
    }

    /// Routes one surviving copy to its group. On a region core, a copy
    /// for another region (a destination outside the core's id range)
    /// joins the mailbox group for `(arrive, its region)`. Every other
    /// copy joins the local group for `arrive`.
    #[inline(always)]
    fn route(&mut self, topo: &Topology, arrive: SimTime, to: NodeId) {
        let key = if self.outbox.is_some() && !self.owns(to) {
            u32::from(topo.region_of(to).0)
        } else {
            LOCAL
        };
        self.group(arrive, key, to);
    }

    /// The edge loss decision for one copy the drop filter passed: a fault
    /// plan live at the send instant gets the first say (an active loss
    /// burst overrides the base model, with no stream draw); otherwise the
    /// base loss model draws from the core's loss stream.
    fn edge_loses(
        &mut self,
        env: &Env<N::Msg>,
        fault: Option<&FaultPlan>,
        local_from: usize,
        from: NodeId,
        to: NodeId,
    ) -> bool {
        match fault.and_then(|p| p.drops(self.now, from, to, &env.topo)) {
            Some(true) => {
                self.counters.faults_dropped += 1;
                // The verdict event; the caller records the PacketDropped
                // (both counters increment on a fault drop, so both
                // events record).
                self.wire(from, EventKind::FaultDropped { to: to.0 });
                true
            }
            Some(false) => false,
            None => {
                let stream = local_from & self.loss_stream_mask;
                env.unicast_loss.drops_unicast(&mut self.loss_rngs[stream])
            }
        }
    }

    /// Records a wire verdict against the sender while the observer is
    /// armed.
    fn wire(&mut self, from: NodeId, kind: EventKind) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.record(self.now.as_micros(), from.0, streams::ENGINE_WIRE, kind);
        }
    }

    /// Appends `to` to the group for `(arrive, key)`, opening a new group
    /// if this is the first destination with that key; `key` is
    /// [`LOCAL`] for a node this core owns. The grouping decides batch
    /// membership and batch order, which the byte-identical-trace
    /// guarantees depend on. The search runs newest group first:
    /// destinations come region by region, so the match is almost always
    /// the last group opened.
    #[inline(always)]
    pub(crate) fn group(&mut self, arrive: SimTime, key: u32, to: NodeId) {
        match self.groups.iter_mut().rev().find(|(t, k, ..)| (*t, *k) == (arrive, key)) {
            Some((.., first, batch)) => {
                // A second target makes the group a pooled batch vector.
                if batch.is_empty() {
                    *batch = self.target_pool.pop().unwrap_or_default();
                    batch.push(*first);
                }
                batch.push(to);
            }
            None => self.groups.push((arrive, key, to, Vec::new())),
        }
    }

    /// Emits each group in first-destination order, the last group taking
    /// `msg` and the rest shallow clones: a local group is scheduled as
    /// one event (a plain delivery for a single destination, a batch
    /// otherwise), and a cross-region group is appended to the mailbox as
    /// one entry. Leaves the groups empty with their capacity intact.
    #[inline(always)]
    pub(crate) fn flush(&mut self, from: NodeId, msg: N::Msg) {
        let Some(last) = self.groups.pop() else { return };
        let (queue, outbox) = (&mut self.queue, &mut self.outbox);
        let mut emit = |(arrive, key, to, targets): (SimTime, u32, NodeId, Vec<NodeId>), msg| {
            if key != LOCAL {
                let outbox = outbox.as_mut().expect("only a region core routes across regions");
                outbox.push(CrossEvent { arrive, from, to, targets, msg });
            } else if targets.is_empty() {
                queue.schedule(arrive, SimEvent::Deliver { to, from, msg });
            } else {
                queue.schedule(arrive, SimEvent::DeliverBatch { from, targets, msg });
            }
        };
        for group in self.groups.drain(..) {
            emit(group, msg.clone());
        }
        emit(last, msg);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use rrmp_trace::{EventKind, TraceEvent};

    use super::{loss_stream, GLOBAL_LOSS_STREAM};
    use crate::fault::FaultPlan;
    use crate::loss::LossModel;
    use crate::rng::SeedSequence;
    use crate::shard::ShardedSim;
    use crate::sim::{Ctx, NetCounters, SimNode};
    use crate::time::{SimDuration, SimTime};
    use crate::topology::{NodeId, TopologyBuilder};

    /// Sends its `(to, payload)` list on start, each by `send` or by a
    /// one-target `send_many`, and logs what it receives.
    struct Script {
        sends: Vec<(NodeId, u32)>,
        many: bool,
        log: Vec<(SimTime, NodeId, u32)>,
    }

    impl SimNode for Script {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            for &(to, payload) in &self.sends {
                if self.many {
                    ctx.send_many([to], payload);
                } else {
                    ctx.send(to, payload);
                }
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
            self.log.push((ctx.now(), from, msg));
        }
        fn on_timer(&mut self, _: &mut Ctx<'_, u32>, _: u64) {}
    }

    /// What one run left: node `watch`'s log, the counters (`fanouts`
    /// zeroed) and the engine trace.
    type Run = (Vec<(SimTime, NodeId, u32)>, NetCounters, Vec<TraceEvent>);

    /// Runs the scripts of nodes 0 and 1 over two regions of two nodes, on
    /// one core (`shards` `None`) or one core per region, with `plan`
    /// armed, Bernoulli(0.5) unicast loss if `lossy`, and the observer on.
    fn run(
        sends: [Vec<(NodeId, u32)>; 2],
        many: bool,
        shards: Option<usize>,
        plan: FaultPlan,
        lossy: bool,
        watch: NodeId,
    ) -> Run {
        let topo = TopologyBuilder::new().region(2, None).region(2, Some(0)).build().unwrap();
        let [a, b] = sends;
        let nodes = [a, b, vec![], vec![]].map(|sends| Script { sends, many, log: Vec::new() });
        let loss = if lossy { LossModel::Bernoulli { p: 0.5 } } else { LossModel::None };
        let mut sim = match shards {
            None => ShardedSim::one_core(topo, nodes.into(), 9),
            Some(shards) => ShardedSim::new(topo, nodes.into(), 9, shards),
        };
        sim.set_fault_plan(Some(Arc::new(plan)));
        sim.set_unicast_loss(loss);
        sim.set_trace(Some(64));
        sim.run_until_quiescent(SimTime::MAX);
        let mut trace = Vec::new();
        sim.collect_trace(&mut trace);
        let (log, mut counters) = (std::mem::take(&mut sim.node_mut(watch).log), sim.counters());
        rrmp_trace::sort_canonical(&mut trace);
        counters.fanouts = 0;
        (log, counters, trace)
    }

    const ENGINES: [Option<usize>; 3] = [None, Some(1), Some(2)];

    #[test]
    fn send_is_the_one_target_fanout() {
        // Every copy duplicated with no extra delay. Node 1 shares node
        // 0's region, node 2 does not.
        let dup =
            || FaultPlan::new(3).duplicate(1.0, SimDuration::ZERO, SimTime::ZERO, SimTime::MAX);
        for to in [NodeId(1), NodeId(2)] {
            for shards in ENGINES {
                let sends = || [vec![(to, 7)], vec![]];
                let unicast = run(sends(), false, shards, dup(), false, to);
                assert_eq!(unicast.0.len(), 2, "to={to} shards={shards:?}: primary and duplicate");
                assert_eq!(unicast.1.faults_duplicated, 1);
                let fanout = run(sends(), true, shards, dup(), false, to);
                assert_eq!(unicast, fanout, "to={to} shards={shards:?}");
            }
        }
    }

    #[test]
    fn loss_streams_are_global_on_sim_and_per_sender_on_shards() {
        // Nodes 0 and 1 each send 20 numbered unicasts to node 2. The one
        // core draws every verdict from one stream in send order; a region
        // core draws each sender's verdicts from that sender's own stream.
        let seq = SeedSequence::new(9);
        let model = LossModel::Bernoulli { p: 0.5 };
        let sends = |s: u32| (0..20).map(move |k| (NodeId(2), 100 * s + k)).collect::<Vec<_>>();
        let survivors = |rngs: &mut [rand::rngs::StdRng]| -> Vec<u32> {
            let all = sends(0).into_iter().chain(sends(1)).map(|(_, p)| p);
            let n = rngs.len();
            all.filter(|&p| !model.drops_unicast(&mut rngs[(p / 100) as usize % n])).collect()
        };
        let on_sim = survivors(&mut [seq.rng_for(GLOBAL_LOSS_STREAM)]);
        let on_shards = survivors(&mut [0, 1].map(|s| seq.rng_for(loss_stream(NodeId(s)))));
        assert_ne!(on_sim, on_shards);
        for shards in ENGINES {
            let (log, ..) =
                run([sends(0), sends(1)], false, shards, FaultPlan::new(1), true, NodeId(2));
            let got: Vec<u32> = log.iter().map(|&(_, _, p)| p).collect();
            let expected = if shards.is_none() { &on_sim } else { &on_shards };
            assert_eq!(&got, expected, "shards={shards:?}");
        }
    }

    #[test]
    fn fault_drop_records_the_verdict_and_the_drop() {
        let blackout =
            || FaultPlan::new(1).blackout(NodeId(0), NodeId(1), SimTime::ZERO, SimTime::MAX);
        for shards in ENGINES {
            let (log, counters, trace) =
                run([vec![(NodeId(1), 7)], vec![]], false, shards, blackout(), false, NodeId(1));
            assert!(log.is_empty());
            assert_eq!((counters.faults_dropped, counters.unicasts_dropped), (1, 1));
            let kinds: Vec<EventKind> = trace.iter().map(|e| e.kind).collect();
            let to = 1;
            assert_eq!(kinds, [EventKind::FaultDropped { to }, EventKind::PacketDropped { to }]);
        }
    }
}
