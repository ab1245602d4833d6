//! What a simulated node sees: the [`SimNode`] callbacks, the [`Ctx`]
//! handed to them, and the run's [`NetCounters`].
//!
//! The simulator's one driver, [`ShardedSim`], owns the nodes, a
//! [`Topology`] and the per-event cores that run them. Nodes interact with
//! the world exclusively through a [`Ctx`] handed to their callbacks:
//! sending packets (delivered after the topology's latency, subject to an
//! optional loss model, fault plan or deterministic drop filter) and
//! setting timers. [`Sim`] is a shim: the driver's one-core partition
//! under its old name.
//!
//! Determinism: all randomness is derived from the run's seed; events at
//! equal instants fire in scheduling order. Running the same simulation
//! twice produces byte-identical traces.
//!
//! ## Hot-path design
//!
//! Every core of the driver (the crate's `engine` module) runs the same
//! per-event code. On the one-core partition the core draws unicast loss
//! from one global stream and schedules every send into its own queue.
//! The event loop is allocation-free and queue-cheap in steady state:
//!
//! * Events are ordered by a **hierarchical timing wheel**
//!   ([`crate::event::EventQueue`], the one queue of every core): O(1)
//!   amortized schedule/pop, event payloads in a generation-counted slab,
//!   exact `(time, seq)` pop order.
//! * Side effects buffered during a callback go into a **reused scratch
//!   op buffer** that is drained after the callback, instead of a fresh
//!   `Vec` per callback.
//! * Timers only fire: [`Ctx::set_timer`] schedules the host's own timer
//!   value (any `T`, see [`SimNode`]) and every armed timer fires exactly
//!   once. A host whose state moved on since it armed one ignores it when
//!   it fires, as the protocol's own timers do (they re-check their state
//!   on expiry).
//! * Every send is a fan-out (a unicast is the one-target case), and
//!   multi-destination sends ([`Ctx::send_many`], [`Ctx::send_group`]) and
//!   injected multicast plans schedule **one region-timed batch event per
//!   distinct arrival time** instead of one queue entry per destination.
//!   Loss and drop-filter decisions are made per destination at schedule
//!   time, in target order, so the loss stream is drawn as one unicast
//!   per destination would draw it; the batch expands lazily when it
//!   fires, lending its one message to each destination back to back in
//!   target order (the unit test
//!   `batch_delivers_in_target_order_at_each_arrival` writes one out).
//!   Target vectors are pooled, and a node that overrides
//!   [`SimNode::on_packet_ref`] clones nothing per delivered copy.
//! * [`ShardedSim::reset`] re-arms the same simulator for another run
//!   while the queues and scratch buffers keep their allocations warm.

use std::ops::{Deref, DerefMut};

use crate::engine::Op;
use crate::shard::ShardedSim;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, Topology};
/// Application logic hosted on a simulated node.
///
/// Implementations receive packets and timer expirations and react through
/// the [`Ctx`]. All callbacks are synchronous; the simulator is
/// single-threaded and deterministic.
///
/// `T` is the host's timer value: whatever [`Ctx::set_timer`] arms comes
/// back to [`SimNode::on_timer`] as is, so a host with several kinds of
/// timer names them with its own enum instead of mapping integer tokens.
/// It defaults to a bare `u64`.
pub trait SimNode<T = u64> {
    /// The packet type exchanged between nodes.
    type Msg: Clone;

    /// Called once before the first event is processed.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, T>) {
        let _ = ctx;
    }

    /// Called with an owned copy of a packet from `from`, by the default
    /// [`SimNode::on_packet_ref`].
    fn on_packet(&mut self, ctx: &mut Ctx<'_, Self::Msg, T>, from: NodeId, msg: Self::Msg);

    /// The engine's one delivery entry: a packet from `from` arrives, lent
    /// for the call (a batch lends its one message to each target in turn).
    /// The default clones it into [`SimNode::on_packet`].
    fn on_packet_ref(&mut self, ctx: &mut Ctx<'_, Self::Msg, T>, from: NodeId, msg: &Self::Msg) {
        self.on_packet(ctx, from, msg.clone());
    }

    /// Called when a timer set through [`Ctx::set_timer`] (or
    /// [`ShardedSim::schedule_external_timer`]) fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, T>, timer: T);
}

/// The execution context handed to node callbacks.
///
/// Provides the current time, the node's own identity, the run's seed,
/// the shared topology, and the means to send packets and set timers.
pub struct Ctx<'a, M, T = u64> {
    pub(crate) now: SimTime,
    pub(crate) self_id: NodeId,
    pub(crate) topo: &'a Topology,
    pub(crate) seed: u64,
    pub(crate) ops: &'a mut Vec<Op<M, T>>,
    pub(crate) targets: &'a mut Vec<NodeId>,
}

impl<'a, M, T> Ctx<'a, M, T> {
    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node whose callback is running.
    #[must_use]
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// The shared network topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// The run's seed: a node that draws randomness derives its own
    /// stream from it, e.g. `SeedSequence::new(ctx.seed()).rng_for(id)`
    /// ([`SeedSequence`](crate::rng::SeedSequence)), the same on every
    /// partition and worker count.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sends `msg` to `to`; it arrives after the topology's one-way latency
    /// unless the simulator's loss model or drop filter discards it.
    pub fn send(&mut self, to: NodeId, msg: M) {
        debug_assert_ne!(to, self.self_id, "protocol bug: node sent a packet to itself");
        self.ops.push(Op::Send { to, msg });
    }

    /// Fan-out send: a copy of `msg` to every node in `to` other than the
    /// caller (loss and latency apply per destination).
    ///
    /// It enqueues **one** op holding `msg` once and the target list in a
    /// reused arena; each delivery event scheduled (one per arrival time)
    /// holds a shallow clone that it lends to its targets. Use this for
    /// regional multicasts.
    pub fn send_many<I: IntoIterator<Item = NodeId>>(&mut self, to: I, msg: M)
    where
        M: Clone,
    {
        let start = self.targets.len();
        let self_id = self.self_id;
        self.targets.extend(to.into_iter().filter(|&n| n != self_id));
        let len = self.targets.len() - start;
        if len == 0 {
            return; // nothing was appended to the arena
        }
        self.ops.push(Op::SendMany { start: start as u32, len: len as u32, msg });
    }

    /// Group-wide fan-out: a copy of `msg` to every topology node except
    /// the caller. One op regardless of group size.
    pub fn send_group(&mut self, msg: M)
    where
        M: Clone,
    {
        self.ops.push(Op::SendGroup { msg });
    }

    /// Schedules `timer` to fire on this node after `delay`. Timers
    /// cannot be cancelled: the node ignores a timer it no longer wants
    /// when it fires.
    pub fn set_timer(&mut self, delay: SimDuration, timer: T) {
        self.ops.push(Op::SetTimer { timer, at: self.now + delay });
    }
}

/// Aggregate network-level counters for one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Unicast packets handed to the network.
    pub unicasts_sent: u64,
    /// Unicast packets discarded by the loss model or drop filter.
    pub unicasts_dropped: u64,
    /// Packets delivered to nodes.
    pub delivered: u64,
    /// Timers set.
    pub timers_set: u64,
    /// Timers fired (at quiescence, equal to [`NetCounters::timers_set`]).
    pub timers_fired: u64,
    /// Total events processed.
    pub events_processed: u64,
    /// Multi-destination fan-out operations executed
    /// ([`Ctx::send_many`] / [`Ctx::send_group`] with at least one target).
    pub fanouts: u64,
    /// Packets delivered by expanding a region-timed batch event (a subset
    /// of [`NetCounters::delivered`]): a fan-out's copies with one arrival
    /// time, and with one core per region also the copies one mailbox
    /// entry carries into another region.
    pub batched_deliveries: u64,
    /// Unicast copies dropped by an armed
    /// [`FaultPlan`](crate::fault::FaultPlan) (a subset of
    /// [`NetCounters::unicasts_dropped`]).
    pub faults_dropped: u64,
    /// Extra copies created by an armed
    /// [`FaultPlan`](crate::fault::FaultPlan)'s duplication episodes
    /// (each also counts in [`NetCounters::delivered`] when it
    /// arrives, but not in [`NetCounters::unicasts_sent`] — the network
    /// duplicated it, the sender did not send it).
    pub faults_duplicated: u64,
}

/// The one-core simulator under its old name: a shim kept only because
/// `perf/`'s null-node probe builds it. ROADMAP item 1(d) moves that probe
/// to [`ShardedSim::one_core`] and deletes this type. Every method is the
/// driver's, through `Deref`.
#[derive(Debug)]
pub struct Sim<N: SimNode<T>, T = u64>(ShardedSim<N, T>);

impl<N, T> Sim<N, T>
where
    N: SimNode<T> + Send,
    N::Msg: Send,
    T: Send,
{
    /// [`ShardedSim::one_core`].
    #[must_use]
    pub fn new(topo: Topology, nodes: Vec<N>, seed: u64) -> Self {
        Sim(ShardedSim::one_core(topo, nodes, seed))
    }
}

impl<N: SimNode<T>, T> Deref for Sim<N, T> {
    type Target = ShardedSim<N, T>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<N: SimNode<T>, T> DerefMut for Sim<N, T> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<M, T> std::fmt::Debug for Ctx<'_, M, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("now", &self.now)
            .field("self_id", &self.self_id)
            .field("buffered_ops", &self.ops.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    use super::*;
    use crate::engine::SimEvent;
    use crate::loss::{DeliveryPlan, LossModel};
    use crate::rng::SeedSequence;
    use crate::topology::presets::paper_region;
    use crate::topology::TopologyBuilder;

    /// Node that records everything it observes.
    #[derive(Default)]
    struct Probe {
        packets: Vec<(SimTime, NodeId, u32)>,
        timers: Vec<(SimTime, u64)>,
        started: bool,
    }

    impl SimNode for Probe {
        type Msg = u32;
        fn on_start(&mut self, _ctx: &mut Ctx<'_, u32>) {
            self.started = true;
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
            self.packets.push((ctx.now(), from, msg));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, token: u64) {
            self.timers.push((ctx.now(), token));
        }
    }

    fn probes(n: usize) -> Vec<Probe> {
        (0..n).map(|_| Probe::default()).collect()
    }

    #[test]
    fn unicast_latency_applied() {
        let topo = paper_region(3);
        let mut sim = ShardedSim::one_core(topo, probes(3), 1);
        sim.inject(NodeId(1), NodeId(0), 7, SimTime::ZERO);
        sim.run_until_quiescent(SimTime::from_secs(1));
        assert_eq!(sim.node(NodeId(1)).packets, vec![(SimTime::ZERO, NodeId(0), 7)]);
        assert!(sim.node(NodeId(0)).started);
    }

    /// Responder sends an ack back on first packet.
    struct Echo;
    impl SimNode for Echo {
        type Msg = u32;
        fn on_packet(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
            if msg == 0 {
                ctx.send(from, 1);
            }
        }
        fn on_timer(&mut self, _: &mut Ctx<'_, u32>, _: u64) {}
    }

    #[test]
    fn round_trip_takes_rtt() {
        let topo = paper_region(2);
        let mut sim = ShardedSim::one_core(topo, vec![Echo, Echo], 2);
        sim.inject(NodeId(1), NodeId(0), 0, SimTime::ZERO);
        let end = sim.run_until_quiescent(SimTime::from_secs(1));
        // Echo reply travels one intra-region hop: 5ms.
        assert_eq!(end, SimTime::from_millis(5));
    }

    #[test]
    fn timers_fire_in_time_order_exactly_once() {
        struct TimerNode {
            fired: Vec<(SimTime, u64)>,
        }
        impl SimNode for TimerNode {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(3), 3);
                ctx.set_timer(SimDuration::from_millis(1), 1);
                ctx.set_timer(SimDuration::from_millis(2), 2);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, token: u64) {
                if token == 1 {
                    // Armed from a firing timer, due at the same instant as
                    // token 2: equal instants fire in scheduling order.
                    ctx.set_timer(SimDuration::from_millis(1), 4);
                }
                self.fired.push((ctx.now(), token));
            }
        }
        let topo = paper_region(1);
        let mut sim = ShardedSim::one_core(topo, vec![TimerNode { fired: vec![] }], 3);
        sim.run_until_quiescent(SimTime::from_secs(1));
        let ms = SimTime::from_millis;
        assert_eq!(sim.node(NodeId(0)).fired, vec![(ms(1), 1), (ms(2), 2), (ms(2), 4), (ms(3), 3)]);
        // Every armed timer fires exactly once: the engine's whole timer
        // contract.
        assert_eq!(sim.counters().timers_set, 4);
        assert_eq!(sim.counters().timers_fired, sim.counters().timers_set);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn drop_filter_discards() {
        struct Sender;
        impl SimNode for Sender {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                if ctx.self_id() == NodeId(0) {
                    ctx.send(NodeId(1), 1);
                    ctx.send(NodeId(1), 2);
                }
            }
            fn on_packet(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, u32>, _: u64) {}
        }
        let topo = paper_region(2);
        let mut sim = ShardedSim::one_core(topo, vec![Sender, Sender], 4);
        sim.set_drop_filter(|_, _, &msg| msg == 1);
        sim.run_until_quiescent(SimTime::from_secs(1));
        assert_eq!(sim.counters().unicasts_sent, 2);
        assert_eq!(sim.counters().unicasts_dropped, 1);
        assert_eq!(sim.counters().delivered, 1);
    }

    #[test]
    fn unicast_loss_model_applies() {
        struct Spammer;
        impl SimNode for Spammer {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                if ctx.self_id() == NodeId(0) {
                    for i in 0..1000 {
                        ctx.send(NodeId(1), i);
                    }
                }
            }
            fn on_packet(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, u32>, _: u64) {}
        }
        let topo = paper_region(2);
        let mut sim = ShardedSim::one_core(topo, vec![Spammer, Spammer], 5);
        sim.set_unicast_loss(LossModel::Bernoulli { p: 0.5 });
        sim.run_until_quiescent(SimTime::from_secs(1));
        let dropped = sim.counters().unicasts_dropped;
        assert!((300..700).contains(&dropped), "dropped {dropped} of 1000");
    }

    #[test]
    fn multicast_plan_delivery() {
        let topo = TopologyBuilder::new()
            .intra_region_one_way(SimDuration::from_millis(5))
            .inter_region_one_way(SimDuration::from_millis(20))
            .region(2, None)
            .region(2, Some(0))
            .build()
            .unwrap();
        let mut sim = ShardedSim::one_core(topo, probes(4), 6);
        let plan = DeliveryPlan::all_but(sim.topology(), [NodeId(2)]);
        sim.inject_multicast_plan(NodeId(0), &9, &plan, SimTime::ZERO);
        sim.run_until_quiescent(SimTime::from_secs(1));
        // Node 1 (same region): 5ms. Node 3 (other region): 20ms. Node 2 missed.
        assert_eq!(sim.node(NodeId(1)).packets, vec![(SimTime::from_millis(5), NodeId(0), 9)]);
        assert!(sim.node(NodeId(2)).packets.is_empty());
        assert_eq!(sim.node(NodeId(3)).packets, vec![(SimTime::from_millis(20), NodeId(0), 9)]);
    }

    #[test]
    fn run_until_advances_clock_exactly() {
        let topo = paper_region(2);
        let mut sim = ShardedSim::one_core(topo, probes(2), 8);
        sim.inject(NodeId(1), NodeId(0), 1, SimTime::from_millis(10));
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.now(), SimTime::from_millis(5));
        assert!(sim.node(NodeId(1)).packets.is_empty());
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.node(NodeId(1)).packets.len(), 1);
    }

    #[test]
    fn external_timer_reaches_node() {
        let topo = paper_region(1);
        let mut sim = ShardedSim::one_core(topo, probes(1), 9);
        sim.schedule_external_timer(NodeId(0), 42, SimTime::from_millis(3));
        sim.run_until_quiescent(SimTime::from_secs(1));
        assert_eq!(sim.node(NodeId(0)).timers, vec![(SimTime::from_millis(3), 42)]);
    }

    #[test]
    fn deterministic_across_runs() {
        fn run() -> Vec<(SimTime, NodeId, u32)> {
            #[derive(Default)]
            struct Gossiper(Option<rand::rngs::StdRng>);
            impl SimNode for Gossiper {
                type Msg = u32;
                fn on_packet(&mut self, ctx: &mut Ctx<'_, u32>, _: NodeId, msg: u32) {
                    if msg > 0 {
                        use rand::Rng;
                        let n = ctx.topology().node_count() as u32;
                        let (seed, id) = (ctx.seed(), u64::from(ctx.self_id().0));
                        let rng = self.0.get_or_insert_with(|| SeedSequence::new(seed).rng_for(id));
                        let mut to = NodeId(rng.gen_range(0..n));
                        if to == ctx.self_id() {
                            to = NodeId((to.0 + 1) % n);
                        }
                        ctx.send(to, msg - 1);
                    }
                }
                fn on_timer(&mut self, _: &mut Ctx<'_, u32>, _: u64) {}
            }
            let topo = paper_region(10);
            let mut sim =
                ShardedSim::one_core(topo, (0..10).map(|_| Gossiper::default()).collect(), 1234);
            sim.inject(NodeId(0), NodeId(9), 50, SimTime::ZERO);
            // Track deliveries via a probe wrapper would need more machinery;
            // instead assert on counters + final time.
            sim.run_until_quiescent(SimTime::from_secs(10));
            vec![(sim.now(), NodeId(0), sim.counters().delivered as u32)]
        }
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "one node implementation per topology node")]
    fn node_count_mismatch_panics() {
        let topo = paper_region(3);
        let _ = ShardedSim::one_core(topo, probes(2), 0);
    }

    /// A node that fans out to the whole region on start.
    struct RegionCaster;
    impl SimNode for RegionCaster {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.self_id() == NodeId(0) {
                let n = ctx.topology().node_count() as u32;
                ctx.send_many((0..n).map(NodeId), 9);
            }
        }
        fn on_packet(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}
        fn on_timer(&mut self, _: &mut Ctx<'_, u32>, _: u64) {}
    }

    #[test]
    fn far_future_timer_crosses_wheel_horizon() {
        // ~27.8 simulated hours: past the 64^6-microsecond wheel range, so
        // the event takes the overflow path.
        let far = SimTime::from_secs(100_000);
        let mut sim = ShardedSim::one_core(paper_region(1), probes(1), 11);
        sim.schedule_external_timer(NodeId(0), 9, far);
        sim.schedule_external_timer(NodeId(0), 1, SimTime::from_millis(1));
        sim.run_until_quiescent(SimTime::MAX);
        assert_eq!(sim.node(NodeId(0)).timers, vec![(SimTime::from_millis(1), 1), (far, 9)]);
    }

    #[test]
    fn reset_reuses_queue_capacity() {
        fn run(sim: &mut ShardedSim<RegionCaster>) -> NetCounters {
            sim.run_until_quiescent(SimTime::from_secs(1));
            sim.counters()
        }
        let topo = paper_region(40);
        let mut sim = ShardedSim::one_core(topo, (0..40).map(|_| RegionCaster).collect(), 12);
        let first = run(&mut sim);
        let warmed = sim.cores[0].queue.allocated_capacity();
        sim.reset((0..40).map(|_| RegionCaster), 12);
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.counters(), NetCounters::default());
        let second = run(&mut sim);
        assert_eq!(first, second, "identical seed must replay identically");
        let after = sim.cores[0].queue.allocated_capacity();
        assert_eq!(after, warmed, "reset must keep the queue's allocations warm");
    }

    /// A message that counts its clones and logs each `(time, receiver)`
    /// it is handed to, across engine threads.
    struct Counted {
        clones: Arc<AtomicUsize>,
        seen: Arc<Mutex<Vec<(SimTime, NodeId)>>>,
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.clones.fetch_add(1, Ordering::Relaxed);
            Counted { clones: Arc::clone(&self.clones), seen: Arc::clone(&self.seen) }
        }
    }

    impl Counted {
        fn seen_by(&self, ctx: &Ctx<'_, Counted>) {
            self.seen.lock().unwrap().push((ctx.now(), ctx.self_id()));
        }
    }

    /// The holder of the message sends it to [`LENT_TO`] at start; every
    /// node logs what it is handed. `Taker` keeps the default borrowed
    /// entry, `Lender` overrides it.
    struct Taker(Option<Counted>);
    struct Lender(Taker);

    const LENT_TO: [NodeId; 5] = [NodeId(5), NodeId(3), NodeId(1), NodeId(4), NodeId(2)];

    impl SimNode for Taker {
        type Msg = Counted;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Counted>) {
            if let Some(msg) = self.0.take() {
                ctx.send_many(LENT_TO, msg);
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_, Counted>, _: NodeId, msg: Counted) {
            msg.seen_by(ctx);
        }
        fn on_timer(&mut self, _: &mut Ctx<'_, Counted>, _: u64) {}
    }

    impl SimNode for Lender {
        type Msg = Counted;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Counted>) {
            self.0.on_start(ctx);
        }
        fn on_packet(&mut self, _: &mut Ctx<'_, Counted>, _: NodeId, _: Counted) {
            unreachable!("the engine lends every copy");
        }
        fn on_packet_ref(&mut self, ctx: &mut Ctx<'_, Counted>, _: NodeId, msg: &Counted) {
            msg.seen_by(ctx);
        }
        fn on_timer(&mut self, _: &mut Ctx<'_, Counted>, _: u64) {}
    }

    /// Runs one fan-out from node 0 (region 0) to the five nodes of region
    /// 1 on the one-core engine (`shards` `None`) or one core per region;
    /// returns the clones made and the delivery log.
    fn lend<N>(wrap: fn(Taker) -> N, shards: Option<usize>) -> (usize, Vec<(SimTime, NodeId)>)
    where
        N: SimNode<Msg = Counted> + Send,
    {
        let (clones, seen) = (Arc::default(), Arc::default());
        let mut msg = Some(Counted { clones: Arc::clone(&clones), seen: Arc::clone(&seen) });
        let nodes: Vec<N> = (0..6).map(|_| wrap(Taker(msg.take()))).collect();
        let topo = TopologyBuilder::new().region(1, None).region(5, Some(0)).build().unwrap();
        let mut sim = match shards {
            None => ShardedSim::one_core(topo, nodes, 3),
            Some(s) => ShardedSim::new(topo, nodes, 3, s),
        };
        sim.run_until_quiescent(SimTime::MAX);
        let seen = std::mem::take(&mut *seen.lock().unwrap());
        (clones.load(Ordering::Relaxed), seen)
    }

    #[test]
    fn a_batch_lends_one_message_to_every_target() {
        for shards in [None, Some(1), Some(2)] {
            let (lent, seen) = lend(Lender, shards);
            assert_eq!(lent, 0, "{shards:?}: an overriding node is lent every copy");
            let at = seen.first().expect("delivered").0;
            assert_eq!(seen, LENT_TO.map(|to| (at, to)), "{shards:?}: target order, one instant");
            let (taken, taken_seen) = lend(|taker| taker, shards);
            assert_eq!(taken, LENT_TO.len(), "{shards:?}: the default clones once per copy");
            assert_eq!(taken_seen, seen, "{shards:?}");
        }
    }

    #[test]
    fn batch_delivers_in_target_order_at_each_arrival() {
        // Node 0 fans out to two regions, then sends to the whole group;
        // every node logs into one shared log, so the log is the global
        // delivery order.
        type Log = Arc<Mutex<Vec<(SimTime, NodeId, u32)>>>;
        struct Caster(Log);
        impl SimNode for Caster {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                if ctx.self_id() == NodeId(0) {
                    ctx.send_many([4, 0, 2, 3, 1].map(NodeId), 7);
                    ctx.send_group(8);
                }
            }
            fn on_packet(&mut self, ctx: &mut Ctx<'_, u32>, _: NodeId, msg: u32) {
                self.0.lock().unwrap().push((ctx.now(), ctx.self_id(), msg));
            }
            fn on_timer(&mut self, _: &mut Ctx<'_, u32>, _: u64) {}
        }
        let topo = TopologyBuilder::new()
            .intra_region_one_way(SimDuration::from_millis(5))
            .inter_region_one_way(SimDuration::from_millis(20))
            .region(3, None)
            .region(2, Some(0))
            .build()
            .unwrap();
        let log = Log::default();
        let mut sim =
            ShardedSim::one_core(topo, (0..5).map(|_| Caster(Arc::clone(&log))).collect(), 13);
        // Scheduled before the fan-outs, so it pops first at 5 ms.
        sim.inject(NodeId(2), NodeId(1), 1, SimTime::from_millis(5));
        sim.run_until_quiescent(SimTime::MAX);
        // At each arrival time the fan-out's batch delivers in target
        // order, the caller skipped; a later fan-out's batch follows it.
        let (ms, n) = (SimTime::from_millis, NodeId);
        assert_eq!(
            *log.lock().unwrap(),
            [
                (ms(5), n(2), 1),
                (ms(5), n(2), 7),
                (ms(5), n(1), 7),
                (ms(5), n(1), 8),
                (ms(5), n(2), 8),
                (ms(20), n(4), 7),
                (ms(20), n(3), 7),
                (ms(20), n(3), 8),
                (ms(20), n(4), 8),
            ]
        );
        let c = sim.counters();
        assert_eq!((c.fanouts, c.unicasts_sent, c.batched_deliveries, c.delivered), (2, 8, 8, 9));
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn host_timer_payload_does_not_grow_the_event() {
        // A 48 B message sizes the event through `DeliverBatch`; a 24 B
        // host timer enum fits beside it, so typed timers cost no queue
        // bytes over `u64` tokens.
        #[allow(dead_code)]
        enum Timer24 {
            Keyed(u32, u64, u64),
            Bare,
        }
        type Msg48 = [u64; 6];
        assert_eq!(std::mem::size_of::<Timer24>(), 24);
        assert_eq!(
            std::mem::size_of::<SimEvent<Msg48, Timer24>>(),
            std::mem::size_of::<SimEvent<Msg48, u64>>()
        );
    }

    #[test]
    fn run_until_never_dispatches_past_horizon() {
        // run_until must not dispatch an event scheduled after its horizon.
        struct DecoyNode {
            fired: Vec<SimTime>,
        }
        impl SimNode for DecoyNode {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(50), 2);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: u64) {
                self.fired.push(ctx.now());
            }
        }
        let mut sim = ShardedSim::one_core(paper_region(1), vec![DecoyNode { fired: vec![] }], 1);
        // Horizon before the timer (50ms): nothing may fire, and the clock
        // lands exactly on 10ms.
        sim.run_until(SimTime::from_millis(10));
        assert!(sim.node(NodeId(0)).fired.is_empty(), "fired early");
        assert_eq!(sim.now(), SimTime::from_millis(10));
        sim.run_until(SimTime::from_millis(60));
        assert_eq!(sim.node(NodeId(0)).fired, vec![SimTime::from_millis(50)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::topology::TopologyBuilder;
    use proptest::prelude::*;

    /// One scripted reaction to a timer firing: arm new timers with the
    /// given delays (microseconds; zero means "this same instant").
    #[derive(Debug, Clone)]
    struct ScriptStep {
        delays: Vec<u64>,
    }

    /// A timer value with a payload, standing in for a host's own timer
    /// enum: the engines must hand it back exactly as it was armed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Typed {
        Even(u64),
        Odd { node: NodeId, half: u64 },
    }

    fn typed(node: NodeId, token: u64) -> Typed {
        if token.is_multiple_of(2) {
            Typed::Even(token)
        } else {
            Typed::Odd { node, half: token / 2 }
        }
    }

    /// A node that replays a [`ScriptStep`] script, one step per timer
    /// firing, recording the observable `(time, timer)` trace. The `k`-th
    /// timer it arms carries `make(self, k)`.
    struct ScriptNode<T> {
        script: Vec<ScriptStep>,
        step: usize,
        armed: u64,
        make: fn(NodeId, u64) -> T,
        fired: Vec<(SimTime, T)>,
    }

    impl<T> ScriptNode<T> {
        fn new(script: Vec<ScriptStep>, make: fn(NodeId, u64) -> T) -> Self {
            ScriptNode { script, step: 0, armed: 0, make, fired: Vec::new() }
        }

        fn arm(&mut self, ctx: &mut Ctx<'_, (), T>, delay_us: u64) {
            let timer = (self.make)(ctx.self_id(), self.armed);
            ctx.set_timer(SimDuration::from_micros(delay_us), timer);
            self.armed += 1;
        }
    }

    impl<T> SimNode<T> for ScriptNode<T> {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, (), T>) {
            self.arm(ctx, 1);
        }
        fn on_packet(&mut self, _: &mut Ctx<'_, (), T>, _: NodeId, _: ()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, (), T>, timer: T) {
            self.fired.push((ctx.now(), timer));
            let Some(step) = self.script.get(self.step).cloned() else { return };
            self.step += 1;
            for d in step.delays {
                self.arm(ctx, d);
            }
        }
    }

    fn arb_script_step() -> impl Strategy<Value = ScriptStep> {
        proptest::collection::vec(0u64..5_000, 0..4).prop_map(|delays| ScriptStep { delays })
    }

    /// Where a script runs: on one core, or on one core per region at a
    /// worker count.
    #[derive(Debug, Clone, Copy)]
    enum Engine {
        Single,
        Sharded(usize),
    }

    type Fired<T> = Vec<Vec<(SimTime, T)>>;

    /// Runs `script` on both nodes of a two-region topology (so two
    /// shards really split it) and returns each node's fired timers.
    fn run<T: Send>(
        script: &[ScriptStep],
        make: fn(NodeId, u64) -> T,
        engine: Engine,
    ) -> (Fired<T>, NetCounters) {
        let topo = TopologyBuilder::new().region(1, None).region(1, Some(0)).build().unwrap();
        let nodes = (0..2).map(|_| ScriptNode::new(script.to_vec(), make)).collect();
        let ids = [NodeId(0), NodeId(1)];
        let mut sim = match engine {
            Engine::Single => ShardedSim::one_core(topo, nodes, 77),
            Engine::Sharded(shards) => {
                let sim = ShardedSim::new(topo, nodes, 77, shards);
                assert_eq!(sim.shards(), shards);
                sim
            }
        };
        sim.run_until_quiescent(SimTime::MAX);
        (ids.map(|id| std::mem::take(&mut sim.node_mut(id).fired)).into(), sim.counters())
    }

    proptest! {
        /// Differential: random interleaved timer schedule/fire scripts
        /// observe the identical `(time, timer)` trace and counters on one
        /// core and on one core per region at one and two workers, with
        /// `u64` tokens and with a payload-carrying timer enum alike; every
        /// armed timer fires exactly once.
        #[test]
        fn timer_scripts_match_reference(
            script in proptest::collection::vec(arb_script_step(), 0..30),
        ) {
            let (tokens, counters) = run(&script, |_, token| token, Engine::Single);
            prop_assert_eq!(counters.timers_fired, counters.timers_set);
            let expected: Fired<Typed> = tokens
                .iter()
                .zip([NodeId(0), NodeId(1)])
                .map(|(fired, node)| fired.iter().map(|&(t, k)| (t, typed(node, k))).collect())
                .collect();
            for engine in [Engine::Single, Engine::Sharded(1), Engine::Sharded(2)] {
                prop_assert_eq!(&run(&script, |_, token| token, engine), &(tokens.clone(), counters));
                prop_assert_eq!(&run(&script, typed, engine), &(expected.clone(), counters));
            }
        }
    }
}
