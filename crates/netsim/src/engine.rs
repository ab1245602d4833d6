//! The per-event core both simulation engines drive.
//!
//! A [`Core`] owns a set of nodes, their RNG streams, one event queue, the
//! [`NetCounters`], the engine trace sink and the scratch buffers, and it
//! implements every per-event step once: dispatch, draining a callback's
//! ops, transmit and fan-out, the edge verdict (drop filter, fault plan,
//! loss model), duplication and routing. [`Sim`](crate::sim::Sim) drives
//! one core over the whole topology; every shard of a
//! [`ShardedSim`](crate::shard::ShardedSim) is one core over its regions.
//! The core does not know how the run is partitioned beyond two facts its
//! constructor fixes:
//!
//! * **the unicast-loss stream**: one global stream on `Sim`, one stream
//!   per sender on a shard (a global stream would make a shard's draws
//!   depend on how other shards' events interleave with its own);
//! * **cross-region routing**: `Sim` schedules every surviving copy into
//!   its own queue, while a shard sends cross-region copies through
//!   per-shard mailboxes that the driver merges at the window barrier in
//!   `(arrive, src_region, emit_seq)` order.
//!
//! Routing is also the one reason the two engines may order two
//! same-instant events of different regions differently.

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
    /// one per destination) and expanded lazily at delivery; the target
    /// vector is recycled through the core's pool.
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

/// The per-node unicast-loss RNG stream id on a shard: disjoint from the
/// per-node protocol streams (`0..n`) and from `Sim`'s one global loss
/// stream ([`GLOBAL_LOSS_STREAM`]).
fn loss_stream(node: NodeId) -> u64 {
    (1u64 << 63) | u64::from(node.0)
}

/// `Sim`'s one unicast-loss RNG stream id.
const GLOBAL_LOSS_STREAM: u64 = u64::MAX / 2;

/// A cross-region send buffered in a mailbox until the next barrier.
///
/// `(arrive, src_region, emit_seq)` is the canonical merge key: it is
/// assigned by the *sending region's* deterministic execution, so the
/// merged order cannot depend on the shard layout or thread scheduling.
pub(crate) struct CrossEvent<M> {
    pub(crate) arrive: SimTime,
    src_region: u16,
    emit_seq: u64,
    from: NodeId,
    to: NodeId,
    msg: M,
}

impl<M> CrossEvent<M> {
    /// The canonical merge key.
    pub(crate) fn key(&self) -> (SimTime, u16, u64) {
        (self.arrive, self.src_region, self.emit_seq)
    }
}

/// What makes a core one shard of a `ShardedSim`: the global ids of the
/// nodes it owns and its outgoing mailboxes.
pub(crate) struct Shard<M> {
    /// Global ids of the owned nodes, ascending.
    node_ids: Vec<NodeId>,
    /// Global node index → local index (`u32::MAX` when not owned).
    local_of: Vec<u32>,
    /// Cross-region sends awaiting the next barrier, one mailbox per
    /// destination shard. Each mailbox has a single producer (this shard)
    /// and a single consumer (the destination, via the driver).
    outboxes: Vec<Vec<CrossEvent<M>>>,
    /// Per-source-region emission counters (indexed by global region id;
    /// only this shard's regions ever advance).
    emit_seqs: Vec<u64>,
}

impl<M> Shard<M> {
    /// Shard `shard` of a layout assigning node `i` to `node_shard[i]`.
    pub(crate) fn new(
        shard: u32,
        node_shard: &[u32],
        shard_count: usize,
        region_count: usize,
    ) -> Self {
        let mut node_ids = Vec::with_capacity(node_shard.iter().filter(|&&s| s == shard).count());
        let mut local_of = vec![u32::MAX; node_shard.len()];
        for (i, _) in node_shard.iter().enumerate().filter(|&(_, &s)| s == shard) {
            local_of[i] = node_ids.len() as u32;
            node_ids.push(NodeId(i as u32));
        }
        Shard {
            node_ids,
            local_of,
            outboxes: (0..shard_count).map(|_| Vec::new()).collect(),
            emit_seqs: vec![0; region_count],
        }
    }
}

/// A drop predicate consulted for every copy (return `true` to drop).
pub(crate) type Filter<'a, M> = dyn FnMut(NodeId, NodeId, &M) -> bool + 'a;

/// What a core reads but does not own, lent by its driver for one call:
/// the topology and the network settings. Shards read one set
/// concurrently, so the drop filter is the only borrowed-mutably part
/// (`Sim`'s is a stateful `FnMut`; a shard lends its shared `Fn`).
pub(crate) struct Env<'a, M> {
    pub(crate) topo: &'a Topology,
    pub(crate) unicast_loss: &'a LossModel,
    /// Armed fault timeline. Verdicts are pure functions of
    /// `(plan, send time, endpoints)` — no RNG state — so shards can
    /// consult it concurrently and the outcome is layout-invariant.
    pub(crate) fault: Option<&'a FaultPlan>,
    pub(crate) drop_filter: Option<&'a mut Filter<'a, M>>,
    /// Region index → owning shard (empty on `Sim`, which has no
    /// mailboxes).
    pub(crate) region_shard: &'a [u32],
}

/// Nodes, RNG streams, one event queue, counters, the trace sink and the
/// scratch buffers, with every per-event step (see the module docs).
pub(crate) struct Core<N: SimNode<T>, T> {
    pub(crate) nodes: Vec<N>,
    rngs: Vec<StdRng>,
    /// Unicast-loss streams: one global stream on `Sim`, one per local
    /// node on a shard.
    loss_rngs: Vec<StdRng>,
    /// Maps a local sender index to its loss stream without a branch:
    /// `0` on `Sim` (every sender draws from stream 0), all ones on a
    /// shard (each sender draws from its own).
    loss_stream_mask: usize,
    pub(crate) queue: EventQueue<SimEvent<N::Msg, T>>,
    pub(crate) counters: NetCounters,
    pub(crate) now: SimTime,
    /// Armed observer sink fed by the engine hooks (deliveries against
    /// the receiving node, wire verdicts against the sender, in per-node
    /// rings, so the collected events do not depend on the shard layout).
    /// `None` costs one branch on the hot path.
    pub(crate) trace: Option<Box<TraceSink>>,
    started: bool,
    /// Reused callback side-effect buffer (empty between dispatches).
    scratch_ops: Vec<Op<N::Msg, T>>,
    /// Reused fan-out target arena (empty between dispatches).
    scratch_targets: Vec<NodeId>,
    /// Recycled target vectors for batch delivery events.
    target_pool: Vec<Vec<NodeId>>,
    /// Arrival-time groups of the fan-out being scheduled (empty between
    /// fan-outs): the first target inline, and from the second on every
    /// target in a vector from `target_pool`.
    groups: Vec<(SimTime, NodeId, Vec<NodeId>)>,
    /// False in reference mode: allocate per callback, one op per
    /// destination (see [`Sim::new_reference`](crate::sim::Sim::new_reference)).
    pub(crate) optimized: bool,
    /// `Some` on a shard: its node table and cross-region mailboxes.
    shard: Option<Shard<N::Msg>>,
}

impl<N: SimNode<T>, T> Core<N, T> {
    /// An empty core; [`Core::reset`] and [`Core::push_node`] load it.
    pub(crate) fn new(optimized: bool, shard: Option<Shard<N::Msg>>) -> Self {
        Core {
            nodes: Vec::new(),
            rngs: Vec::new(),
            loss_rngs: Vec::new(),
            loss_stream_mask: if shard.is_some() { usize::MAX } else { 0 },
            queue: EventQueue::new(),
            counters: NetCounters::default(),
            now: SimTime::ZERO,
            trace: None,
            started: false,
            scratch_ops: Vec::new(),
            scratch_targets: Vec::new(),
            target_pool: Vec::new(),
            groups: Vec::new(),
            optimized,
            shard,
        }
    }

    /// Empties the core for a fresh run, keeping every allocation but the
    /// node vector warm ([`EventQueue::clear`]), and loads `nodes`: all of
    /// them on `Sim`, none on a shard, whose nodes stream in through
    /// [`Core::push_node`]. An armed observer stays armed, but the
    /// previous run's events are discarded.
    pub(crate) fn reset(&mut self, seq: &SeedSequence, nodes: Vec<N>) {
        let count = self.shard.as_ref().map_or(nodes.len(), |s| s.node_ids.len());
        self.nodes = nodes;
        self.nodes.reserve_exact(count - self.nodes.len());
        self.rngs.clear();
        self.rngs.reserve_exact(count);
        self.rngs.extend((0..self.nodes.len() as u64).map(|i| seq.rng_for(i)));
        self.loss_rngs.clear();
        match &mut self.shard {
            None => self.loss_rngs.push(seq.rng_for(GLOBAL_LOSS_STREAM)),
            Some(shard) => {
                debug_assert!(self.nodes.is_empty(), "a shard's nodes stream in");
                self.loss_rngs.reserve_exact(count);
                shard.outboxes.iter_mut().for_each(Vec::clear);
                shard.emit_seqs.fill(0);
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

    /// Appends the shard node with global id `id` (in ascending id
    /// order), deriving its RNG streams from `seq`.
    pub(crate) fn push_node(&mut self, id: NodeId, node: N, seq: &SeedSequence) {
        debug_assert_eq!(self.local(id), self.nodes.len());
        self.nodes.push(node);
        self.rngs.push(seq.rng_for(u64::from(id.0)));
        self.loss_rngs.push(seq.rng_for(loss_stream(id)));
    }

    fn local(&self, id: NodeId) -> usize {
        match &self.shard {
            None => id.index(),
            Some(shard) => shard.local_of[id.index()] as usize,
        }
    }

    pub(crate) fn node(&self, id: NodeId) -> &N {
        &self.nodes[self.local(id)]
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut N {
        let local = self.local(id);
        &mut self.nodes[local]
    }

    /// The mailboxes, one per destination shard (none on `Sim`).
    pub(crate) fn outboxes(&mut self) -> &mut [Vec<CrossEvent<N::Msg>>] {
        self.shard.as_mut().map_or(&mut [], |s| &mut s.outboxes)
    }

    /// Pending events: the queue plus undelivered mailboxes.
    pub(crate) fn pending(&self) -> usize {
        let mail = self.shard.as_ref().map_or(0, |s| s.outboxes.iter().map(Vec::len).sum());
        self.queue.len() + mail
    }

    /// Schedules `msg` from `from` to arrive at `to` at `at`, bypassing
    /// latency, loss and the mailboxes.
    pub(crate) fn inject(&mut self, to: NodeId, from: NodeId, msg: N::Msg, at: SimTime) {
        self.queue.schedule(at, SimEvent::Deliver { to, from, msg });
    }

    /// Schedules a sorted inbox batch — the barrier half of the mailbox
    /// protocol.
    pub(crate) fn accept(&mut self, inbox: impl IntoIterator<Item = CrossEvent<N::Msg>>) {
        for e in inbox {
            self.inject(e.to, e.from, e.msg, e.arrive);
        }
    }

    pub(crate) fn schedule_timer(&mut self, node: NodeId, timer: T, at: SimTime) {
        self.counters.timers_set += 1;
        self.queue.schedule(at, SimEvent::Timer { node, timer });
    }

    /// Runs each owned node's [`SimNode::on_start`] callback (at most once).
    pub(crate) fn start(&mut self, env: &mut Env<'_, N::Msg>) {
        if std::mem::replace(&mut self.started, true) {
            return;
        }
        for local in 0..self.nodes.len() {
            let id = self.shard.as_ref().map_or(NodeId(local as u32), |s| s.node_ids[local]);
            self.dispatch_with(env, id, |node, ctx| node.on_start(ctx));
        }
    }

    /// Dispatches every queued event at or before `limit`. The horizon
    /// check is a peek-gated pop: an event past `limit` is never removed
    /// from the queue (and so never re-inserted).
    pub(crate) fn run_until(&mut self, env: &mut Env<'_, N::Msg>, limit: SimTime) {
        while let Some((at, event)) = self.queue.pop_at_or_before(limit) {
            self.dispatch_event(env, at, event);
        }
    }

    /// Dispatches one popped event.
    pub(crate) fn dispatch_event(
        &mut self,
        env: &mut Env<'_, N::Msg>,
        at: SimTime,
        event: SimEvent<N::Msg, T>,
    ) {
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        match event {
            SimEvent::Deliver { to, from, msg } => self.deliver(env, to, from, msg),
            SimEvent::DeliverBatch { from, mut targets, msg } => {
                // Lazy expansion: the per-destination deliveries run here
                // back to back, in target order — the order their
                // one-per-destination entries would have popped in. Every
                // target but the last gets a shallow clone.
                let last = targets.len() - 1;
                let mut msg = Some(msg);
                for (i, &to) in targets.iter().enumerate() {
                    let copy = if i == last { msg.take() } else { msg.clone() };
                    self.counters.batched_deliveries += 1;
                    self.deliver(env, to, from, copy.expect("taken only at the end"));
                }
                targets.clear();
                self.target_pool.push(targets);
            }
            SimEvent::Timer { node, timer } => {
                self.counters.timers_fired += 1;
                self.counters.events_processed += 1;
                self.dispatch_with(env, node, |n, ctx| n.on_timer(ctx, timer));
            }
        }
    }

    fn deliver(&mut self, env: &mut Env<'_, N::Msg>, to: NodeId, from: NodeId, msg: N::Msg) {
        self.counters.delivered += 1;
        self.counters.events_processed += 1;
        if let Some(t) = self.trace.as_deref_mut() {
            t.record(self.now.as_micros(), to.0, streams::ENGINE_DELIVERY, EventKind::Delivered);
        }
        self.dispatch_with(env, to, |node, ctx| node.on_packet(ctx, from, msg));
    }

    /// Runs one callback of node `from`, then drains the ops it buffered.
    fn dispatch_with<F>(&mut self, env: &mut Env<'_, N::Msg>, from: NodeId, f: F)
    where
        F: FnOnce(&mut N, &mut Ctx<'_, N::Msg, T>),
    {
        let local = self.local(from);
        // Optimized, these take the (empty) scratch buffers, keeping their
        // capacity across dispatches; in reference mode every callback
        // allocates fresh vectors.
        let (mut ops, mut targets) = if self.optimized {
            debug_assert!(self.scratch_ops.is_empty() && self.scratch_targets.is_empty());
            (std::mem::take(&mut self.scratch_ops), std::mem::take(&mut self.scratch_targets))
        } else {
            (Vec::new(), Vec::new())
        };
        f(
            &mut self.nodes[local],
            &mut Ctx {
                now: self.now,
                self_id: from,
                topo: env.topo,
                rng: &mut self.rngs[local],
                ops: &mut ops,
                targets: &mut targets,
                fanout_ops: self.optimized,
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
        if self.optimized {
            targets.clear();
            self.scratch_ops = ops;
            self.scratch_targets = targets;
        }
    }

    /// Sends `msg` to every destination — a unicast is the one-target
    /// case. Counters, the drop filter and the edge verdict apply **in
    /// destination order**, so the loss stream is drawn the same way
    /// however the sends are grouped; each survivor (and its duplicate)
    /// is then routed, and the local arrival-time groups are flushed as
    /// one event each.
    ///
    /// Forced inline with its helpers (each instantiation has one call
    /// site): out of line, a unicast paid ≈5 % per null-node event.
    #[inline(always)]
    fn transmit_fanout(
        &mut self,
        env: &mut Env<'_, N::Msg>,
        local_from: usize,
        from: NodeId,
        targets: impl Iterator<Item = NodeId>,
        msg: N::Msg,
    ) {
        debug_assert!(self.groups.is_empty());
        for to in targets {
            self.counters.unicasts_sent += 1;
            let filtered = env.drop_filter.as_mut().is_some_and(|f| f(from, to, &msg));
            if filtered || self.edge_loses(env, local_from, from, to) {
                self.counters.unicasts_dropped += 1;
                self.wire(from, EventKind::PacketDropped { to: to.0 });
                continue;
            }
            let arrive = self.now + env.topo.one_way_latency(from, to);
            self.route(env, arrive, from, to, &msg);
            if let Some(extra) = env.fault.and_then(|p| p.duplicate_delay(self.now, from, to)) {
                // The duplicate is routed after the primary, so its group
                // or mailbox emission sequence is the later one at every
                // shard layout; its not-earlier arrival keeps the
                // conservative window rule intact.
                self.counters.faults_duplicated += 1;
                self.wire(from, EventKind::FaultDuplicated { to: to.0 });
                self.route(env, arrive + extra, from, to, &msg);
            }
        }
        self.flush(from, msg);
    }

    /// Routes one surviving copy. On a shard, a cross-region copy goes to
    /// the mailbox of the destination's shard (even when that is this
    /// shard: the canonical barrier order must not depend on the layout).
    /// Every other copy joins the arrival-time group for `arrive`.
    #[inline(always)]
    fn route(
        &mut self,
        env: &Env<'_, N::Msg>,
        arrive: SimTime,
        from: NodeId,
        to: NodeId,
        msg: &N::Msg,
    ) {
        if let Some(shard) = &mut self.shard {
            let (src_region, dest_region) = (env.topo.region_of(from), env.topo.region_of(to));
            if dest_region != src_region {
                let emit = &mut shard.emit_seqs[src_region.index()];
                let emit_seq = *emit;
                *emit += 1;
                let dest = env.region_shard[dest_region.index()] as usize;
                shard.outboxes[dest].push(CrossEvent {
                    arrive,
                    src_region: src_region.0,
                    emit_seq,
                    from,
                    to,
                    msg: msg.clone(),
                });
                return;
            }
        }
        self.group(arrive, to);
    }

    /// The edge loss decision for one copy the drop filter passed: an
    /// armed fault plan gets the first say (an active loss burst
    /// overrides the base model, with no stream draw); otherwise the base
    /// loss model draws from the core's loss stream.
    fn edge_loses(
        &mut self,
        env: &Env<'_, N::Msg>,
        local_from: usize,
        from: NodeId,
        to: NodeId,
    ) -> bool {
        match env.fault.and_then(|p| p.drops(self.now, from, to, env.topo)) {
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

    /// Appends `to` to the arrival-time group for `arrive`, opening a new
    /// group if this is the first destination with that arrival.
    /// The grouping decides batch membership and batch order, which the
    /// byte-identical-trace guarantees depend on.
    #[inline(always)]
    pub(crate) fn group(&mut self, arrive: SimTime, to: NodeId) {
        match self.groups.iter_mut().find(|(t, ..)| *t == arrive) {
            Some((_, first, batch)) => {
                // A second target makes the group a pooled batch vector.
                if batch.is_empty() {
                    *batch = self.target_pool.pop().unwrap_or_default();
                    batch.push(*first);
                }
                batch.push(to);
            }
            None => self.groups.push((arrive, to, Vec::new())),
        }
    }

    /// Schedules one event per arrival-time group — a plain delivery for a
    /// single destination, a batch otherwise — in first-destination order,
    /// the last group taking `msg` and the rest shallow clones. Leaves the
    /// groups empty with their capacity intact.
    #[inline(always)]
    pub(crate) fn flush(&mut self, from: NodeId, msg: N::Msg) {
        let Some((arrive, to, targets)) = self.groups.pop() else { return };
        let event = |to, targets: Vec<NodeId>, msg| {
            if targets.is_empty() {
                SimEvent::Deliver { to, from, msg }
            } else {
                SimEvent::DeliverBatch { from, targets, msg }
            }
        };
        for (arrive, to, targets) in self.groups.drain(..) {
            self.queue.schedule(arrive, event(to, targets, msg.clone()));
        }
        self.queue.schedule(arrive, event(to, targets, msg));
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
    use crate::sim::{Ctx, NetCounters, Sim, SimNode};
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

    /// Runs the scripts of nodes 0 and 1 over two regions of two nodes,
    /// on `Sim` (`shards` `None`) or on `ShardedSim`, with `plan` armed,
    /// Bernoulli(0.5) unicast loss if `lossy`, and the observer on.
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
        let mut trace = Vec::new();
        // The two engines share these methods but no trait.
        macro_rules! drive {
            ($sim:expr) => {{
                let mut sim = $sim;
                sim.set_fault_plan(Some(Arc::new(plan)));
                sim.set_unicast_loss(loss);
                sim.set_trace(Some(64));
                sim.run_until_quiescent(SimTime::MAX);
                sim.collect_trace(&mut trace);
                (std::mem::take(&mut sim.node_mut(watch).log), sim.counters())
            }};
        }
        let (log, mut counters) = match shards {
            None => drive!(Sim::new(topo, nodes.into(), 9)),
            Some(shards) => drive!(ShardedSim::new(topo, nodes.into(), 9, shards)),
        };
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
        // Nodes 0 and 1 each send 20 numbered unicasts to node 2. `Sim`
        // draws every verdict from one stream in send order; a shard
        // draws each sender's verdicts from that sender's own stream.
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
