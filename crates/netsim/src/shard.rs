//! The simulator's one driver: per-event cores run window by window
//! under a conservative time-window barrier.
//!
//! A [`ShardedSim`] partitions the group over cores when it is built, and
//! the partition is fixed from then on:
//!
//! * **one core for the whole group** ([`ShardedSim::one_core`]): one
//!   global unicast-loss stream, no mailbox and no lookahead, so every
//!   send goes into the one queue and a run is one window;
//! * **one core per region** ([`ShardedSim::new`]): regions only interact
//!   through inter-region latencies, so a region can advance
//!   independently up to `global_lower_bound + lookahead`, where the
//!   lookahead is the minimum one-way latency between any two distinct
//!   regions ([`Topology::lookahead`]): no cross-region packet sent inside
//!   the current window can arrive before the window ends. This is
//!   classic conservative (Chandy–Misra-style) parallel discrete-event
//!   simulation, specialized to the region hierarchy of the RRMP system
//!   model.
//!
//! The two partitions differ in two ways only, both in the core (see the
//! `engine` module): the loss stream and cross-region routing.
//!
//! ## Execution model
//!
//! Every core implements dispatch, transmit and the edge verdicts once
//! for both partitions. A region's core owns the region's nodes, their
//! loss streams, its own timing wheel, its scratch buffers and one
//! outgoing mailbox: there is **no shared mutable state** between regions
//! during a window. A mailbox entry is a batch: the copies one fan-out
//! sends to one other region with one arrival time, which the receiving
//! core schedules as one event and expands in emission order, as the one
//! core does with any fan-out. `shards` is the number of worker threads,
//! the calling thread included, clamped to the core count. The run loop
//! is a sequence of windows:
//!
//! 1. the calling thread merges every mailbox into its destination
//!    region's inbox in `(arrive, source region, emission)` order (a batch
//!    stands at its first copy's emission), then takes the global lower
//!    bound `lb`: the earliest pending event across all cores;
//! 2. the workers claim cores from one shared cursor over a fixed
//!    heaviest-first order (member count, ties by region index); each
//!    schedules a claimed core's inbox on its wheel and runs its events
//!    in `[lb, lb + lookahead)` — the largest region starts first, and the
//!    small ones fill in around it;
//! 3. the workers meet at one barrier, and the next window begins.
//!
//! With one worker the calling thread runs the same loop alone. Helper
//! threads live for one `run_until` call. A panic in a node callback is
//! caught where its core ran, ends the run at the next barrier, and is
//! rethrown on the calling thread with its original payload.
//!
//! ## Determinism
//!
//! A per-region run's trace is **byte-identical at every worker count**,
//! by construction:
//!
//! * every region has a core and a wheel of its own, so its events are
//!   scheduled and popped in an order determined only by the region's own
//!   deterministic history — which thread runs the region, and what runs
//!   beside it, cannot reorder two of its events;
//! * every RNG stream is per-node (a region core draws unicast loss from
//!   the sender's own stream, where the one core draws from one global
//!   generator), so no draw depends on cross-region event interleaving;
//! * cross-region messages are merged at barriers in the canonical order
//!   above, which the sending regions' histories fix, not thread
//!   scheduling. Batching does not change that order: the copies of one
//!   fan-out for one region and arrival would merge consecutively, so
//!   their batch delivers them at the same instant in the same order;
//! * window boundaries themselves are a function of the global event-time
//!   structure only, so the barrier at which a message merges is also
//!   independent of the threads.
//!
//! The price of the windowed semantics is that they are *not* the
//! single-queue semantics of the one-core partition. Routing is what
//! orders their events differently: the one core schedules a cross-region
//! send at once, a region core at the next barrier. So two same-instant
//! events in different regions may dispatch in a different relative
//! order (which no per-node observable can see), and cross-region ties at
//! one instant resolve in canonical merge order rather than global send
//! order. The per-region partition therefore has one worker as its
//! sequential oracle; the trace-equality suite asserts byte-identical
//! traces at 1, 2 and 4 workers.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

use rrmp_trace::TraceSink;

use crate::engine::{Core, CrossEvent, Env, LOCAL};
use crate::fault::FaultPlan;
use crate::loss::{DeliveryPlan, LossModel};
use crate::rng::SeedSequence;
use crate::sim::{NetCounters, SimNode};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, RegionId, Topology};

/// The inclusive end of a window opening at the global lower bound `lb`,
/// capped at `limit`.
fn window_end(lookahead: Option<SimDuration>, lb: SimTime, limit: SimTime) -> SimTime {
    match lookahead {
        // `lb + L - 1` inclusive: a message sent at `s <= lb + L - 1`
        // arrives at `s + d >= lb + L`, strictly after the window.
        Some(l) if !l.is_zero() => lb.saturating_add(l - SimDuration::from_micros(1)).min(limit),
        // Zero lookahead: degrade to one instant per window (correct,
        // sequentially slow — conservative parallelism has nothing to
        // exploit). `None` means one core or a single region: no traffic
        // crosses between cores, so the window may span the whole run.
        Some(_) => lb,
        None => limit,
    }
}

/// The simulator's one driver: the group partitioned over per-event
/// cores, run window by window by `shards` worker threads.
///
/// [`ShardedSim::one_core`] hosts the whole group on one core (one window
/// per run, on the calling thread); [`ShardedSim::new`] gives each region
/// its own core. With one core per region, one worker is the sequential
/// special case: the calling thread runs every region itself, and that
/// run defines the canonical trace every parallel run reproduces byte for
/// byte. See the [module docs](self) for the windowed execution model and
/// the determinism argument.
pub struct ShardedSim<N: SimNode<T>, T = u64> {
    /// The one core, or one core per region indexed by region.
    pub(crate) cores: Vec<Core<N, T>>,
    /// Each region's merged cross-region events, in canonical order, that
    /// its wheel has not scheduled yet (empty between calls).
    inboxes: Vec<Vec<CrossEvent<N::Msg>>>,
    env: Env<N::Msg>,
    /// Worker threads per window, the calling thread included.
    workers: usize,
    /// Core indices heaviest first (member count, ties by index): the
    /// order in which workers claim cores.
    claim_order: Vec<usize>,
    lookahead: Option<SimDuration>,
    now: SimTime,
    /// Reused staging buffer for the barrier merge: one entry per batch.
    merge_scratch: Vec<CrossEvent<N::Msg>>,
}

impl<N: SimNode<T>, T> std::fmt::Debug for ShardedSim<N, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSim")
            .field("now", &self.now)
            .field("workers", &self.workers)
            .field("cores", &self.cores.len())
            .field("lookahead", &self.lookahead)
            .field("pending_events", &self.cores.iter().map(Core::pending).sum::<usize>())
            .finish_non_exhaustive()
    }
}

/// A region's core and inbox, as a worker claims them.
type Region<'a, N, T> = (&'a mut Core<N, T>, &'a mut Vec<CrossEvent<<N as SimNode<T>>::Msg>>);

/// What the workers share while one `run_until` call runs its windows.
/// The atomics are `Relaxed`: each store happens before a barrier wait
/// that the loads on other threads follow, and the barrier orders them.
struct Windows<'a, N: SimNode<T>, T> {
    /// Every region's core and inbox, locked by the worker that claims
    /// them.
    regions: Vec<Mutex<Region<'a, N, T>>>,
    claim_order: &'a [usize],
    /// The next position in `claim_order` to claim.
    cursor: AtomicUsize,
    /// The current window's inclusive end, in microseconds.
    end: AtomicU64,
    /// Set once no window is left: the helpers return.
    done: AtomicBool,
    barrier: Barrier,
    /// The payload of the first panic a claimed core raised.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<N, T> ShardedSim<N, T>
where
    N: SimNode<T> + Send,
    N::Msg: Send,
    T: Send,
{
    /// Creates the one-core simulator over `topo` hosting `nodes` (one per
    /// [`NodeId`], in order): one core holds the whole group, draws
    /// unicast loss from one global stream and schedules every send on
    /// its own queue. With no mailbox and no lookahead, a run is one
    /// window on the calling thread. The topology and the node vector are
    /// moved in; all randomness derives from `seed`.
    ///
    /// ```
    /// use rrmp_netsim::shard::ShardedSim;
    /// use rrmp_netsim::sim::{Ctx, SimNode};
    /// use rrmp_netsim::topology::{presets, NodeId};
    /// use rrmp_netsim::time::SimTime;
    ///
    /// // Each node forwards a counter to the next node until it reaches 3.
    /// struct Relay;
    /// impl SimNode for Relay {
    ///     type Msg = u32;
    ///     fn on_packet(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, msg: u32) {
    ///         if msg < 3 {
    ///             let next = NodeId((ctx.self_id().0 + 1) % 4);
    ///             ctx.send(next, msg + 1);
    ///         }
    ///     }
    ///     fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32>, _token: u64) {}
    /// }
    ///
    /// let topo = presets::paper_region(4);
    /// let mut sim = ShardedSim::one_core(topo, (0..4).map(|_| Relay).collect(), 42);
    /// sim.inject(NodeId(1), NodeId(0), 1, SimTime::ZERO);
    /// let end = sim.run_until_quiescent(SimTime::from_secs(1));
    /// // Two hops of 5ms each after the injected packet.
    /// assert_eq!(end, SimTime::from_millis(10));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` does not match the topology's node count.
    #[must_use]
    pub fn one_core(topo: Topology, nodes: Vec<N>, seed: u64) -> Self {
        let mut sim = Self::over(topo, vec![Core::new(None)], vec![0], None, 1);
        sim.reset(nodes, seed);
        sim
    }

    /// Creates a sharded simulator over `topo` hosting `nodes` (one per
    /// [`NodeId`], in order): one core per region, run by `shards` worker
    /// threads (the calling thread included; clamped to the region
    /// count). All randomness derives from `seed`; traces are identical
    /// for every value of `shards`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` does not match the topology's node count.
    #[must_use]
    pub fn new(topo: Topology, nodes: Vec<N>, seed: u64, shards: usize) -> Self {
        Self::new_from(&topo, nodes, seed, shards)
    }

    /// Like [`ShardedSim::new`], taking the nodes as an iterator that is
    /// streamed straight into the per-region vectors — the million-member
    /// construction path. A pre-built `Vec<N>` plus the per-region copies
    /// would briefly double the node set's footprint; here at most one
    /// node is in flight at a time. The iterator may borrow the caller's
    /// topology (this constructor stores its own clone).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` does not yield exactly one node per topology
    /// node (in `NodeId` order).
    #[must_use]
    pub fn new_from<I: IntoIterator<Item = N>>(
        topo: &Topology,
        nodes: I,
        seed: u64,
        shards: usize,
    ) -> Self {
        let regions = topo.region_count();
        let members = |r: usize| topo.members_of(RegionId(r as u16));
        let cores: Vec<_> = (0..regions)
            .map(|r| {
                // The builder numbers nodes region by region, so a region
                // is the id range starting at its first member.
                let m = members(r);
                debug_assert_eq!((m[m.len() - 1].0 - m[0].0) as usize + 1, m.len());
                Core::new(Some(m[0].0))
            })
            .collect();
        let mut claim_order: Vec<usize> = (0..regions).collect();
        claim_order.sort_by_key(|&r| (std::cmp::Reverse(members(r).len()), r));
        let workers = shards.clamp(1, regions.max(1));
        let mut sim = Self::over(topo.clone(), cores, claim_order, topo.lookahead(), workers);
        sim.reset(nodes, seed);
        sim
    }

    /// An empty driver over `cores`, with default network settings.
    fn over(
        topo: Topology,
        cores: Vec<Core<N, T>>,
        claim_order: Vec<usize>,
        lookahead: Option<SimDuration>,
        workers: usize,
    ) -> Self {
        ShardedSim {
            inboxes: cores.iter().map(|_| Vec::new()).collect(),
            cores,
            env: Env { topo, unicast_loss: LossModel::None, drop_filter: None, fault: None },
            workers,
            claim_order,
            lookahead,
            now: SimTime::ZERO,
            merge_scratch: Vec::new(),
        }
    }

    /// Resets for a fresh run over the same topology and partition:
    /// replaces the nodes (one per topology node, in `NodeId` order; the
    /// one core takes them as they come, region cores stream them into
    /// exactly-sized per-region vectors), re-derives every RNG stream from
    /// `seed`, and clears queues, mailboxes, and counters while keeping
    /// their allocations warm (per-core [`EventQueue::clear`] semantics),
    /// so a reused simulator starts its next run at full capacity. The
    /// loss model, drop filter, armed fault plan and armed observer are
    /// retained.
    ///
    /// [`EventQueue::clear`]: crate::event::EventQueue::clear
    ///
    /// # Panics
    ///
    /// Panics if `nodes` does not yield exactly one node per topology
    /// node.
    pub fn reset<I: IntoIterator<Item = N>>(&mut self, nodes: I, seed: u64) {
        const ONE_EACH: &str = "need exactly one node implementation per topology node";
        let seq = SeedSequence::new(seed);
        let topo = &self.env.topo;
        match &mut self.cores[..] {
            // A `Vec` collects into itself: the nodes are moved, not copied.
            [core] if !core.has_mailbox() => {
                let nodes: Vec<N> = nodes.into_iter().collect();
                assert_eq!(nodes.len(), topo.node_count(), "{ONE_EACH}");
                core.reset(&seq, nodes);
            }
            cores => {
                for (r, core) in cores.iter_mut().enumerate() {
                    core.reset(&seq, Vec::with_capacity(topo.members_of(RegionId(r as u16)).len()));
                }
                let mut total = 0usize;
                for (i, node) in nodes.into_iter().enumerate() {
                    assert!(i < topo.node_count(), "{ONE_EACH}");
                    let id = NodeId(i as u32);
                    cores[topo.region_of(id).index()].push_node(id, node, &seq);
                    total += 1;
                }
                assert_eq!(total, topo.node_count(), "{ONE_EACH}");
            }
        }
        self.now = SimTime::ZERO;
    }

    /// Number of worker threads per window, the calling thread included.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.workers
    }

    /// The window length: `Some(min inter-region one-way latency)` with
    /// one core per region, or `None` for the one core and for a
    /// single-region topology (one unbounded window).
    #[must_use]
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }

    /// Sets the loss model applied to every unicast send (default: none —
    /// the paper's assumption that requests and repairs are not lost).
    /// The one core draws from one global stream; region cores draw from
    /// **per-sender-node** streams (a global stream would make draws
    /// depend on event interleaving across regions).
    pub fn set_unicast_loss(&mut self, model: LossModel) {
        self.env.unicast_loss = model;
    }

    /// Installs a deterministic drop filter consulted for every packet
    /// (return `true` to drop). Workers consult it concurrently, so it
    /// must be `Fn + Send + Sync`; a filter with state keeps it in an
    /// atomic.
    pub fn set_drop_filter<F>(&mut self, f: F)
    where
        F: Fn(NodeId, NodeId, &N::Msg) -> bool + Send + Sync + 'static,
    {
        self.env.drop_filter = Some(Box::new(f));
    }

    /// Arms (or with `None` disarms) a [`FaultPlan`], consulted for
    /// every unicast copy at transmit time. Verdicts are pure functions
    /// of `(plan, send time, endpoints)` — stateless by construction —
    /// so traces stay byte-identical at every worker count.
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.env.fault = plan;
    }

    /// Arms (with `Some(ring_capacity)`) or disarms (with `None`) the
    /// engine observer: one [`TraceSink`] per core, recording deliveries
    /// against the receiving node and wire verdicts against the sender.
    /// Per-node rings and emission counters make the combined, canonically
    /// sorted event set byte-identical at every worker count.
    pub fn set_trace(&mut self, ring_capacity: Option<usize>) {
        for core in &mut self.cores {
            core.trace = ring_capacity.map(|cap| Box::new(TraceSink::new(cap)));
        }
    }

    /// Trace events evicted by ring bounds across all core sinks.
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.cores.iter().filter_map(|c| c.trace.as_deref()).map(TraceSink::dropped).sum()
    }

    /// Appends every engine-recorded event across all cores to `out`
    /// (unsorted; callers combine sinks and sort canonically).
    pub fn collect_trace(&self, out: &mut Vec<rrmp_trace::TraceEvent>) {
        for t in self.cores.iter().filter_map(|c| c.trace.as_deref()) {
            t.collect_into(out);
        }
    }

    /// Current simulated time (the conservative global clock).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology being simulated.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.env.topo
    }

    /// Aggregated network counters across all cores.
    #[must_use]
    pub fn counters(&self) -> NetCounters {
        let mut total = NetCounters::default();
        for core in &self.cores {
            // Exhaustive destructuring: adding a field to `NetCounters`
            // without aggregating it here is a compile error, not a
            // silent zero.
            let NetCounters {
                unicasts_sent,
                unicasts_dropped,
                delivered,
                timers_set,
                timers_fired,
                events_processed,
                fanouts,
                batched_deliveries,
                faults_dropped,
                faults_duplicated,
            } = core.counters;
            total.unicasts_sent += unicasts_sent;
            total.unicasts_dropped += unicasts_dropped;
            total.delivered += delivered;
            total.timers_set += timers_set;
            total.timers_fired += timers_fired;
            total.events_processed += events_processed;
            total.fanouts += fanouts;
            total.batched_deliveries += batched_deliveries;
            total.faults_dropped += faults_dropped;
            total.faults_duplicated += faults_duplicated;
        }
        total
    }

    /// Number of pending events (wheels plus undelivered mailboxes).
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.cores.iter().map(Core::pending).sum()
    }

    /// The index of the core that holds `id`: the one core, or its
    /// region's.
    fn core_of(&self, id: NodeId) -> usize {
        if self.cores.len() == 1 {
            0
        } else {
            self.env.topo.region_of(id).index()
        }
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &N {
        self.cores[self.core_of(id)].node(id)
    }

    /// Mutable access to a node (between runs).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        let c = self.core_of(id);
        self.cores[c].node_mut(id)
    }

    /// Iterates over all nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> {
        self.env.topo.nodes().map(move |id| (id, self.node(id)))
    }

    /// Injects a packet from `from` arriving at `to` at absolute time
    /// `at`, bypassing latency, loss, and the mailboxes (injection order
    /// is the experiment script's call order, which is layout-invariant)
    /// — used to set up experiment initial conditions such as "these
    /// members hold the message at time zero".
    pub fn inject(&mut self, to: NodeId, from: NodeId, msg: N::Msg, at: SimTime) {
        let c = self.core_of(to);
        self.cores[c].inject(to, from, msg, at);
    }

    /// Injects one multicast transmission according to a
    /// [`DeliveryPlan`]: every plan holder other than `from` receives
    /// `msg` at `at + one_way_latency(from, holder)`. Each core gets one
    /// batch event per arrival time that holds one shallow clone of `msg`
    /// and lends it to each of its holders.
    pub fn inject_multicast_plan(
        &mut self,
        from: NodeId,
        msg: &N::Msg,
        plan: &DeliveryPlan,
        at: SimTime,
    ) {
        // The core that holds groups not yet flushed.
        let mut open: Option<usize> = None;
        for to in plan.holders().filter(|&to| to != from) {
            let c = self.core_of(to);
            if let Some(o) = open.filter(|&o| o != c) {
                self.cores[o].flush(from, msg.clone());
            }
            open = Some(c);
            self.cores[c].group(at + self.env.topo.one_way_latency(from, to), LOCAL, to);
        }
        if let Some(c) = open {
            self.cores[c].flush(from, msg.clone());
        }
    }

    /// Schedules an external timer on `node` at absolute time `at` — used
    /// by experiments to trigger scripted actions (e.g. a member leaving).
    pub fn schedule_external_timer(&mut self, node: NodeId, timer: T, at: SimTime) {
        let c = self.core_of(node);
        self.cores[c].schedule_timer(node, timer, at);
    }

    /// Processes every event at or before `t`, then advances the clock to
    /// exactly `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.advance(t);
        if self.now < t {
            self.now = t;
        }
    }

    /// Runs until no events remain or the clock would pass `limit`.
    /// Returns the time of the last processed event (or the current time
    /// if nothing ran).
    pub fn run_until_quiescent(&mut self, limit: SimTime) -> SimTime {
        self.advance(limit);
        self.now
    }

    /// The window loop: runs each node's [`SimNode::on_start`] on the
    /// first call (cross-region sends wait in the mailboxes for the first
    /// barrier), then runs windows until no event is due at or before
    /// `limit`. Helper threads are spawned only when a window is due.
    fn advance(&mut self, limit: SimTime) {
        let ShardedSim {
            cores, inboxes, env, workers, claim_order, lookahead, merge_scratch, ..
        } = self;
        for core in cores.iter_mut() {
            core.start(env);
        }
        let windows = Windows {
            regions: cores.iter_mut().zip(inboxes.iter_mut()).map(Mutex::new).collect(),
            claim_order,
            cursor: AtomicUsize::new(0),
            end: AtomicU64::new(0),
            done: AtomicBool::new(false),
            barrier: Barrier::new(*workers),
            panic: Mutex::new(None),
        };
        let mut next = || merge(&windows.regions, &env.topo, merge_scratch, *lookahead, limit);
        if let Some(first) = next() {
            let windows = &windows;
            let env = &*env;
            std::thread::scope(|scope| {
                for _ in 1..*workers {
                    scope.spawn(move || loop {
                        windows.barrier.wait();
                        if windows.done.load(Relaxed) {
                            break;
                        }
                        windows.claim(env);
                        windows.barrier.wait();
                    });
                }
                let mut end = first;
                loop {
                    windows.end.store(end.as_micros(), Relaxed);
                    windows.cursor.store(0, Relaxed);
                    windows.barrier.wait();
                    windows.claim(env);
                    windows.barrier.wait();
                    if lock(&windows.panic).is_some() {
                        break;
                    }
                    let Some(next_end) = next() else { break };
                    end = next_end;
                }
                windows.done.store(true, Relaxed);
                windows.barrier.wait();
            });
        }
        if let Some(payload) = lock(&windows.panic).take() {
            panic::resume_unwind(payload);
        }
        // Events past `limit` go on the wheels now, ahead of anything the
        // host schedules before the next call.
        for region in windows.regions {
            let (core, inbox) = region.into_inner().expect(UNPOISONED);
            accept(core, inbox);
        }
        // Monotone global clock: `processed` only reflects events at or
        // before past limits, and a run with an earlier horizon than a
        // previous one must not rewind `now`.
        let processed = self.cores.iter().map(|c| c.now).max().unwrap_or(SimTime::ZERO);
        self.now = self.now.max(processed);
    }
}

impl<N: SimNode<T>, T> Windows<'_, N, T> {
    /// One worker's share of a window: claims cores in heaviest-first
    /// order until none is left, schedules each one's inbox and runs it to
    /// the window's end. A panic is caught and kept, so this worker still
    /// reaches the barrier.
    fn claim(&self, env: &Env<N::Msg>) {
        let end = SimTime::from_micros(self.end.load(Relaxed));
        while let Some(&r) = self.claim_order.get(self.cursor.fetch_add(1, Relaxed)) {
            let (core, inbox) = &mut *lock(&self.regions[r]);
            let ran = panic::catch_unwind(AssertUnwindSafe(|| {
                accept(core, inbox);
                core.run_until(env, end);
            }));
            if let Err(payload) = ran {
                lock(&self.panic).get_or_insert(payload);
            }
        }
    }
}

/// Why no lock here is ever poisoned.
const UNPOISONED: &str = "a claimed region's panic is caught before its lock is released";

fn lock<X>(m: &Mutex<X>) -> MutexGuard<'_, X> {
    m.lock().expect(UNPOISONED)
}

/// Schedules a region's inbox on its wheel, in inbox order: one event per
/// entry.
fn accept<N: SimNode<T>, T>(core: &mut Core<N, T>, inbox: &mut Vec<CrossEvent<N::Msg>>) {
    for e in inbox.drain(..) {
        core.accept(e);
    }
}

/// The barrier's serial step: appends every region core's mailbox in
/// region order, sorts the entries stably by arrival — which gives the
/// canonical `(arrive, src_region, emission)` order — and deals each entry
/// (one batch of copies for one region) to its destination region's
/// inbox. Returns the end of the next window, or `None` when no event is
/// due at or before `limit`.
fn merge<N: SimNode<T>, T>(
    cells: &[Mutex<Region<'_, N, T>>],
    topo: &Topology,
    batch: &mut Vec<CrossEvent<N::Msg>>,
    lookahead: Option<SimDuration>,
    limit: SimTime,
) -> Option<SimTime> {
    let mut regions: Vec<_> = cells.iter().map(lock).collect();
    for region in &mut regions {
        if let Some(outbox) = region.0.outbox() {
            batch.append(outbox);
        }
    }
    batch.sort_by_key(|e| e.arrive);
    for e in batch.drain(..) {
        regions[topo.region_of(e.to).index()].1.push(e);
    }
    // An inbox is in arrival order, so its head is its earliest event.
    let heads = regions.iter().flat_map(|region| {
        let (core, inbox) = &**region;
        [core.queue.peek_time(), inbox.first().map(|e| e.arrive)].into_iter().flatten()
    });
    let lb = heads.min()?;
    (lb <= limit).then(|| window_end(lookahead, lb, limit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FOREIGN_KEEP;
    use crate::sim::Ctx;
    use crate::topology::{presets, TopologyBuilder};
    use rand::Rng;

    /// Node that records everything it observes.
    #[derive(Default)]
    struct Probe {
        packets: Vec<(SimTime, NodeId, u32)>,
        timers: Vec<(SimTime, u64)>,
    }

    impl SimNode for Probe {
        type Msg = u32;
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

    fn two_region_topo() -> Topology {
        TopologyBuilder::new()
            .intra_region_one_way(SimDuration::from_millis(5))
            .inter_region_one_way(SimDuration::from_millis(20))
            .region(2, None)
            .region(2, Some(0))
            .build()
            .unwrap()
    }

    #[test]
    fn latencies_respected_across_regions() {
        for shards in [1usize, 2] {
            let mut sim = ShardedSim::new(two_region_topo(), probes(4), 1, shards);
            assert_eq!(sim.shards(), shards);
            assert_eq!(sim.lookahead(), Some(SimDuration::from_millis(20)));
            sim.inject(NodeId(1), NodeId(0), 7, SimTime::ZERO);
            sim.run_until_quiescent(SimTime::from_secs(1));
            assert_eq!(sim.node(NodeId(1)).packets, vec![(SimTime::ZERO, NodeId(0), 7)]);
        }
    }

    /// Forwards a hop counter to a pseudo-random node (often crossing
    /// regions), exercising cross-region routing, per-node RNG streams,
    /// and mailbox merges.
    #[derive(Default)]
    struct Gossiper {
        log: Vec<(SimTime, NodeId, u32)>,
        /// Seeded from the run's seed and the node's id on first use.
        rng: Option<rand::rngs::StdRng>,
    }

    impl SimNode for Gossiper {
        type Msg = u32;
        fn on_packet(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
            self.log.push((ctx.now(), from, msg));
            if msg > 0 {
                let n = ctx.topology().node_count() as u32;
                let (seed, id) = (ctx.seed(), u64::from(ctx.self_id().0));
                let rng = self.rng.get_or_insert_with(|| SeedSequence::new(seed).rng_for(id));
                let mut to = NodeId(rng.gen_range(0..n));
                if to == ctx.self_id() {
                    to = NodeId((to.0 + 1) % n);
                }
                ctx.send(to, msg - 1);
            }
        }
        fn on_timer(&mut self, _: &mut Ctx<'_, u32>, _: u64) {}
    }

    type Trace = Vec<Vec<(SimTime, NodeId, u32)>>;

    fn gossip_trace(shards: usize, seed: u64, loss: bool) -> (Trace, NetCounters) {
        let topo = presets::region_tree(4, 2, 2, SimDuration::from_millis(25));
        let n = topo.node_count();
        let nodes = (0..n).map(|_| Gossiper::default()).collect();
        let mut sim = ShardedSim::new(topo, nodes, seed, shards);
        if loss {
            sim.set_unicast_loss(LossModel::Bernoulli { p: 0.2 });
        }
        sim.inject(NodeId(0), NodeId(3), 200, SimTime::ZERO);
        sim.inject(NodeId(9), NodeId(0), 150, SimTime::from_millis(3));
        sim.run_until_quiescent(SimTime::from_secs(60));
        let traces = (0..n as u32).map(|i| sim.node(NodeId(i)).log.clone()).collect();
        (traces, sim.counters())
    }

    #[test]
    fn gossip_traces_identical_across_shard_counts() {
        for seed in [1u64, 42, 99] {
            let one = gossip_trace(1, seed, true);
            for shards in [2usize, 3, 4, 7] {
                assert_eq!(one, gossip_trace(shards, seed, true), "shards={shards} seed={seed}");
            }
        }
    }

    /// Heavily skewed region sizes: one dominant region, a mid-sized one,
    /// and a tail of small ones — the regime where heaviest-first claiming
    /// and claiming by region index order the work differently.
    fn skewed_topo() -> Topology {
        let mut b = TopologyBuilder::new()
            .intra_region_one_way(SimDuration::from_millis(5))
            .inter_region_one_way(SimDuration::from_millis(25))
            .region(13, None)
            .region(6, Some(0));
        for _ in 0..4 {
            b = b.region(2, Some(0));
        }
        b.build().unwrap()
    }

    fn skewed_gossip_trace(shards: usize) -> (Trace, NetCounters) {
        let topo = skewed_topo();
        let n = topo.node_count();
        let nodes = (0..n).map(|_| Gossiper::default()).collect();
        let mut sim = ShardedSim::new(topo, nodes, 23, shards);
        sim.set_unicast_loss(LossModel::Bernoulli { p: 0.15 });
        sim.inject(NodeId(0), NodeId(20), 250, SimTime::ZERO);
        sim.inject(NodeId(14), NodeId(2), 120, SimTime::from_millis(7));
        sim.run_until_quiescent(SimTime::from_secs(60));
        let traces = (0..n as u32).map(|i| sim.node(NodeId(i)).log.clone()).collect();
        (traces, sim.counters())
    }

    #[test]
    fn placement_is_trace_invariant_on_skewed_regions() {
        // Each worker count spreads the skewed regions over its threads
        // differently, and all must reproduce the single-worker oracle
        // byte for byte: which thread runs a region is a load-balancing
        // decision only.
        let oracle = skewed_gossip_trace(1);
        for shards in [2usize, 4] {
            assert_eq!(oracle, skewed_gossip_trace(shards), "shards={shards}");
        }
    }

    /// Fans out to the whole group on start; exercises cross-region
    /// fan-out splitting (local batch + mailbox per remote destination).
    struct GroupCaster {
        got: Vec<(SimTime, NodeId, u32)>,
    }

    impl SimNode for GroupCaster {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.self_id() == NodeId(0) {
                ctx.send_group(9);
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
            self.got.push((ctx.now(), from, msg));
        }
        fn on_timer(&mut self, _: &mut Ctx<'_, u32>, _: u64) {}
    }

    #[test]
    fn group_fanout_crosses_shards() {
        for shards in [1usize, 2, 4] {
            let topo = TopologyBuilder::new()
                .inter_region_one_way(SimDuration::from_millis(25))
                .region(3, None)
                .region(3, Some(0))
                .region(3, Some(0))
                .region(3, Some(1))
                .build()
                .unwrap();
            let nodes = (0..12).map(|_| GroupCaster { got: Vec::new() }).collect();
            let mut sim = ShardedSim::new(topo, nodes, 5, shards);
            sim.run_until_quiescent(SimTime::from_secs(1));
            let c = sim.counters();
            assert_eq!(c.unicasts_sent, 11, "shards={shards}");
            assert_eq!(c.delivered, 11, "shards={shards}");
            // Same-region destinations arrive at 5ms, the rest at 25ms.
            assert_eq!(sim.node(NodeId(1)).got, vec![(SimTime::from_millis(5), NodeId(0), 9)]);
            assert_eq!(sim.node(NodeId(11)).got, vec![(SimTime::from_millis(25), NodeId(0), 9)]);
        }
    }

    /// Four regions (3, 4, 4 and 4 members), 5 ms within a region and
    /// 25 ms between two.
    fn four_region_topo() -> Topology {
        TopologyBuilder::new()
            .intra_region_one_way(SimDuration::from_millis(5))
            .inter_region_one_way(SimDuration::from_millis(25))
            .region(3, None)
            .region(4, Some(0))
            .region(4, Some(0))
            .region(4, Some(1))
            .build()
            .unwrap()
    }

    /// Node 0's group send under Bernoulli(0.3) loss and a plan that
    /// duplicates half the copies 2 ms late, on `shards` workers.
    fn lossy_group_send(shards: usize) -> ShardedSim<GroupCaster> {
        let nodes = (0..15).map(|_| GroupCaster { got: Vec::new() }).collect();
        let mut sim = ShardedSim::new(four_region_topo(), nodes, 31, shards);
        sim.set_unicast_loss(LossModel::Bernoulli { p: 0.3 });
        let dup = FaultPlan::new(4).duplicate(
            0.5,
            SimDuration::from_millis(2),
            SimTime::ZERO,
            SimTime::from_secs(1),
        );
        sim.set_fault_plan(Some(Arc::new(dup)));
        sim
    }

    #[test]
    fn a_cross_region_send_is_one_mailbox_entry_per_region_and_arrival() {
        let mut sim = lossy_group_send(1);
        // Run region 0's start callbacks alone, so its mailbox holds the
        // group send before any barrier.
        let ShardedSim { cores, env, .. } = &mut sim;
        cores[0].start(env);
        let topo = &env.topo;
        let counters = cores[0].counters;
        let (mut keys, mut copies, mut batches) = (Vec::new(), 0, 0);
        for e in cores[0].outbox().expect("a region core mails").iter() {
            let region = topo.region_of(e.to);
            assert_ne!(region, RegionId(0));
            assert!(e.targets.is_empty() || e.targets[0] == e.to);
            assert!(e.targets.iter().all(|&t| topo.region_of(t) == region), "one region each");
            keys.push((region, e.arrive));
            copies += e.targets.len().max(1) as u64;
            batches += usize::from(e.targets.len() > 1);
        }
        let entries = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), entries, "one entry per (destination region, arrival)");
        // The draws leave a batch, and one region a primary and a
        // duplicate arrival.
        assert!(batches > 0);
        let ms = SimTime::from_millis;
        assert!(keys.contains(&(RegionId(1), ms(25))) && keys.contains(&(RegionId(1), ms(27))));
        sim.run_until_quiescent(SimTime::from_secs(1));
        // Every surviving copy for another region is in the mailbox.
        let local: usize = (1..3).map(|t| sim.node(NodeId(t)).got.len()).sum();
        let survivors = counters.unicasts_sent - counters.unicasts_dropped;
        assert_eq!(copies, survivors + counters.faults_duplicated - local as u64);
        assert_eq!(sim.counters().delivered, survivors + counters.faults_duplicated);
        let logs = |sim: &ShardedSim<GroupCaster>| -> Vec<_> {
            sim.nodes().map(|(_, n)| n.got.clone()).collect()
        };
        let one = logs(&sim);
        for shards in [2usize, 4] {
            let mut other = lossy_group_send(shards);
            other.run_until_quiescent(SimTime::from_secs(1));
            assert_eq!(logs(&other), one, "shards={shards}");
            assert_eq!(other.counters(), sim.counters(), "shards={shards}");
        }
    }

    /// Node 0 sends to the group on each of `SENDS` 1 ms ticks.
    struct Ticker {
        sent: u32,
    }

    const SENDS: u32 = 1_000;

    impl SimNode for Ticker {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.self_id() == NodeId(0) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
        fn on_packet(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _: u64) {
            ctx.send_group(self.sent);
            self.sent += 1;
            if self.sent < SENDS {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
    }

    #[test]
    fn a_receiving_region_keeps_a_bounded_pool() {
        // Region 1 sends nothing and receives a three-target batch per
        // tick, each in a vector region 0 allocated.
        let topo = TopologyBuilder::new()
            .inter_region_one_way(SimDuration::from_millis(25))
            .region(1, None)
            .region(3, Some(0))
            .build()
            .unwrap();
        let nodes = (0..4).map(|_| Ticker { sent: 0 }).collect();
        let mut sim = ShardedSim::new(topo, nodes, 2, 2);
        sim.run_until_quiescent(SimTime::from_secs(5));
        let c = sim.counters();
        assert_eq!((c.delivered, c.batched_deliveries), (3_000, 3_000));
        assert!(sim.cores[1].pooled_targets() <= FOREIGN_KEEP, "{}", sim.cores[1].pooled_targets());
    }

    #[test]
    fn single_region_matches_plain_sim() {
        // No cross-region traffic and no loss draws: one core per region
        // and one core for the group see identical schedules.
        let run = |mut sim: ShardedSim<Probe>| {
            sim.inject(NodeId(2), NodeId(0), 4, SimTime::from_millis(1));
            sim.schedule_external_timer(NodeId(5), 77, SimTime::from_millis(2));
            sim.run_until_quiescent(SimTime::from_secs(1));
            (sim.node(NodeId(2)).packets.clone(), sim.node(NodeId(5)).timers.clone())
        };
        let sharded = ShardedSim::new(presets::paper_region(6), probes(6), 3, 4);
        assert_eq!(sharded.shards(), 1, "single region clamps to one shard");
        let one_core = ShardedSim::one_core(presets::paper_region(6), probes(6), 3);
        assert_eq!(run(sharded), run(one_core));
    }

    #[test]
    fn one_core_holds_one_loss_stream_and_no_mailbox() {
        // Four regions on one core: the one global loss stream, no
        // mailbox and no lookahead, also after a reset. One core per
        // region holds a stream per member and a mailbox each.
        let mut sim = ShardedSim::one_core(four_region_topo(), probes(15), 1);
        for _ in 0..2 {
            assert_eq!((sim.cores.len(), sim.shards(), sim.lookahead()), (1, 1, None));
            assert_eq!(sim.cores[0].loss_streams(), 1);
            assert!(!sim.cores[0].has_mailbox());
            sim.reset(probes(15), 2);
        }
        let regional = ShardedSim::new(four_region_topo(), probes(15), 1, 1);
        assert_eq!(regional.lookahead(), Some(SimDuration::from_millis(25)));
        assert_eq!(regional.cores.len(), 4);
        for core in &regional.cores {
            assert!(core.has_mailbox());
            assert_eq!(core.loss_streams(), core.nodes.len());
        }
    }

    #[test]
    fn run_until_advances_clock_exactly() {
        let mut sim = ShardedSim::new(two_region_topo(), probes(4), 8, 2);
        sim.inject(NodeId(1), NodeId(0), 1, SimTime::from_millis(10));
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.now(), SimTime::from_millis(5));
        assert!(sim.node(NodeId(1)).packets.is_empty());
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.node(NodeId(1)).packets.len(), 1);
        assert_eq!(sim.now(), SimTime::from_millis(10));
    }

    #[test]
    fn clock_is_monotone_across_run_calls() {
        for shards in [1usize, 2] {
            let mut sim = ShardedSim::new(two_region_topo(), probes(4), 8, shards);
            sim.run_until(SimTime::from_millis(10));
            assert_eq!(sim.now(), SimTime::from_millis(10));
            // A run with an earlier horizon must not rewind the clock.
            sim.run_until(SimTime::from_millis(5));
            assert_eq!(sim.now(), SimTime::from_millis(10), "shards={shards}");
            let end = sim.run_until_quiescent(SimTime::from_millis(3));
            assert_eq!(end, SimTime::from_millis(10), "shards={shards}");
        }
    }

    /// What a [`Bomb`] panics with on the calling thread and on a helper.
    const BOOM: [&str; 2] = ["boom on the caller", "boom on a helper"];

    /// The worker-failure path. On its first packet a bomb marks its side
    /// — 0 on the calling thread, 1 on a helper — and waits until a node
    /// on the other side runs too, so each side holds a claimed region.
    /// Then it panics if `fire` arms its side.
    struct Bomb {
        caller: std::thread::ThreadId,
        fire: [bool; 2],
        running: Arc<[AtomicBool; 2]>,
    }

    impl SimNode for Bomb {
        type Msg = u32;
        fn on_packet(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {
            let side = usize::from(std::thread::current().id() != self.caller);
            self.running[side].store(true, Relaxed);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while !self.running[1 - side].load(Relaxed) {
                assert!(std::time::Instant::now() < deadline, "the other side never ran");
                std::thread::yield_now();
            }
            if self.fire[side] {
                std::panic::panic_any(BOOM[side]);
            }
        }
        fn on_timer(&mut self, _: &mut Ctx<'_, u32>, _: u64) {}
    }

    /// Runs one packet into each of `2 * workers` one-node regions — more
    /// regions than workers, so no side can hold every region while it
    /// waits — and returns the payload the run panicked with.
    fn bombed_run(workers: usize, fire: [bool; 2]) -> &'static str {
        let regions = 2 * workers as u32;
        let mut b = TopologyBuilder::new().inter_region_one_way(SimDuration::from_millis(20));
        for r in 0..regions {
            b = b.region(1, (r > 0).then_some(0));
        }
        let running = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
        let caller = std::thread::current().id();
        let nodes = (0..regions).map(|_| Bomb { caller, fire, running: running.clone() }).collect();
        let mut sim = ShardedSim::new(b.build().unwrap(), nodes, 1, workers);
        for r in 0..regions {
            sim.inject(NodeId(r), NodeId((r + 1) % regions), 1, SimTime::from_millis(1));
        }
        let run = panic::catch_unwind(AssertUnwindSafe(|| sim.run_until(SimTime::from_secs(1))));
        *run.expect_err("a bomb fired").downcast().expect("the original payload")
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        // A panic in a region claimed by a helper thread, by the calling
        // thread, or by both must reach the caller with its original
        // payload instead of hanging the barrier. Each case runs on its own
        // thread, so a hang fails the test instead of stalling the suite.
        for workers in [2usize, 4] {
            for fire in [[true, false], [false, true], [true, true]] {
                let (tx, rx) = std::sync::mpsc::channel();
                let run = std::thread::spawn(move || tx.send(bombed_run(workers, fire)));
                let payload = rx
                    .recv_timeout(std::time::Duration::from_secs(60))
                    .expect("the driver hung or lost the panic");
                run.join().expect("the run returned").expect("the payload was received");
                let side = BOOM.iter().position(|&p| p == payload);
                assert!(side.is_some_and(|s| fire[s]), "workers={workers}: {payload}");
            }
        }
    }

    #[test]
    fn reset_replays_identically() {
        let topo = presets::region_tree(3, 2, 1, SimDuration::from_millis(25));
        let n = topo.node_count();
        let mk = || (0..n).map(|_| Gossiper::default()).collect::<Vec<_>>();
        let mut sim = ShardedSim::new(topo, mk(), 11, 3);
        sim.inject(NodeId(0), NodeId(1), 60, SimTime::ZERO);
        sim.run_until_quiescent(SimTime::from_secs(30));
        let first: Vec<_> = (0..n as u32).map(|i| sim.node(NodeId(i)).log.clone()).collect();
        let counters = sim.counters();
        sim.reset(mk(), 11);
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.counters(), NetCounters::default());
        sim.inject(NodeId(0), NodeId(1), 60, SimTime::ZERO);
        sim.run_until_quiescent(SimTime::from_secs(30));
        let second: Vec<_> = (0..n as u32).map(|i| sim.node(NodeId(i)).log.clone()).collect();
        assert_eq!(first, second);
        assert_eq!(counters, sim.counters());
    }

    #[test]
    fn drop_filter_applies_in_every_layout() {
        for shards in [1usize, 2] {
            let nodes = (0..4).map(|_| GroupCaster { got: Vec::new() }).collect();
            let mut sim = ShardedSim::new(two_region_topo(), nodes, 9, shards);
            sim.set_drop_filter(|_, to, _| to == NodeId(3));
            sim.run_until_quiescent(SimTime::from_secs(1));
            let c = sim.counters();
            assert_eq!(c.unicasts_sent, 3, "shards={shards}");
            assert_eq!(c.unicasts_dropped, 1, "shards={shards}");
            assert!(sim.node(NodeId(3)).got.is_empty());
            assert_eq!(sim.node(NodeId(2)).got.len(), 1);
        }
    }

    #[test]
    fn fault_blackout_applies_in_every_layout() {
        // Node 0 fans out to the group at t=0; the armed blackout cuts
        // the 0-3 link, so only node 3 misses out — identically at every
        // shard layout, and with the fault accounted separately from
        // base-model loss.
        let plan = Arc::new(FaultPlan::new(1).blackout(
            NodeId(0),
            NodeId(3),
            SimTime::ZERO,
            SimTime::from_millis(1),
        ));
        for shards in [1usize, 2] {
            let nodes = (0..4).map(|_| GroupCaster { got: Vec::new() }).collect();
            let mut sim = ShardedSim::new(two_region_topo(), nodes, 9, shards);
            sim.set_fault_plan(Some(plan.clone()));
            sim.run_until_quiescent(SimTime::from_secs(1));
            let c = sim.counters();
            assert_eq!(c.unicasts_sent, 3, "shards={shards}");
            assert_eq!(c.unicasts_dropped, 1, "shards={shards}");
            assert_eq!(c.faults_dropped, 1, "shards={shards}");
            assert!(sim.node(NodeId(3)).got.is_empty());
            assert_eq!(sim.node(NodeId(2)).got.len(), 1);
        }
    }

    #[test]
    fn fault_duplication_arrives_twice_in_every_layout() {
        // A p=1 duplication episode with a 2ms extra delay: every
        // destination sees the packet twice, the copies 2ms apart, and
        // cross-region copies still respect the lookahead rule.
        let plan = Arc::new(FaultPlan::new(1).duplicate(
            1.0,
            SimDuration::from_millis(2),
            SimTime::ZERO,
            SimTime::from_secs(1),
        ));
        for shards in [1usize, 2] {
            let nodes = (0..4).map(|_| GroupCaster { got: Vec::new() }).collect();
            let mut sim = ShardedSim::new(two_region_topo(), nodes, 9, shards);
            sim.set_fault_plan(Some(plan.clone()));
            sim.run_until_quiescent(SimTime::from_secs(1));
            let c = sim.counters();
            assert_eq!(c.unicasts_sent, 3, "shards={shards}");
            assert_eq!(c.faults_duplicated, 3, "shards={shards}");
            assert_eq!(c.delivered, 6, "shards={shards}");
            // Same-region copy at 5ms + dup at 7ms; cross-region at 20ms + 22ms.
            assert_eq!(
                sim.node(NodeId(1)).got,
                vec![
                    (SimTime::from_millis(5), NodeId(0), 9),
                    (SimTime::from_millis(7), NodeId(0), 9)
                ],
                "shards={shards}"
            );
            assert_eq!(
                sim.node(NodeId(3)).got,
                vec![
                    (SimTime::from_millis(20), NodeId(0), 9),
                    (SimTime::from_millis(22), NodeId(0), 9)
                ],
                "shards={shards}"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::fault::arb::{arb_fault, build_plan};
    use crate::sim::Ctx;
    use crate::topology::TopologyBuilder;
    use proptest::prelude::*;

    /// One scripted action: after `delay_us`, send `payload` to the
    /// `target`-th other node (unicast) or fan out to `fanout` successive
    /// nodes — targets freely cross region and shard boundaries.
    #[derive(Debug, Clone)]
    struct Step {
        delay_us: u64,
        target: u32,
        fanout: u8,
        payload: u32,
    }

    /// Replays its script one step per timer fire and logs every packet
    /// it receives — the observable `(time, seq)` pop order.
    struct ScriptNode {
        script: Vec<Step>,
        step: usize,
        log: Vec<(SimTime, NodeId, u32)>,
    }

    impl SimNode for ScriptNode {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if !self.script.is_empty() {
                ctx.set_timer(SimDuration::from_micros(self.script[0].delay_us), 0);
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
            self.log.push((ctx.now(), from, msg));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _: u64) {
            let Some(step) = self.script.get(self.step).cloned() else { return };
            self.step += 1;
            let n = ctx.topology().node_count() as u32;
            let me = ctx.self_id();
            if step.fanout == 0 {
                let mut to = NodeId(step.target % n);
                if to == me {
                    to = NodeId((to.0 + 1) % n);
                }
                ctx.send(to, step.payload);
            } else {
                let targets: Vec<NodeId> = (0..u32::from(step.fanout) + 1)
                    .map(|k| NodeId((step.target + k) % n))
                    .filter(|&t| t != me)
                    .collect();
                ctx.send_many(targets, step.payload);
            }
            if let Some(next) = self.script.get(self.step) {
                ctx.set_timer(SimDuration::from_micros(next.delay_us), 0);
            }
        }
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        (0u64..120_000, 0u32..64, 0u8..4, 0u32..1000).prop_map(
            |(delay_us, target, fanout, payload)| Step { delay_us, target, fanout, payload },
        )
    }

    fn arb_scripts() -> impl Strategy<Value = Vec<Vec<Step>>> {
        // 12 nodes over 4 regions (3 each); up to 6 steps per node.
        proptest::collection::vec(proptest::collection::vec(arb_step(), 0..6), 12..13)
    }

    type Trace = Vec<Vec<(SimTime, NodeId, u32)>>;

    fn run_scripts(scripts: &[Vec<Step>], shards: usize, lossy: bool) -> (Trace, NetCounters) {
        let topo = TopologyBuilder::new()
            .intra_region_one_way(SimDuration::from_millis(1))
            .inter_region_one_way(SimDuration::from_millis(10))
            .region(3, None)
            .region(3, Some(0))
            .region(3, Some(0))
            .region(3, Some(2))
            .build()
            .unwrap();
        let nodes = scripts
            .iter()
            .map(|s| ScriptNode { script: s.clone(), step: 0, log: Vec::new() })
            .collect();
        let mut sim = ShardedSim::new(topo, nodes, 4242, shards);
        if lossy {
            sim.set_unicast_loss(LossModel::Bernoulli { p: 0.25 });
        }
        sim.run_until_quiescent(SimTime::from_secs(5));
        let traces = (0..12u32).map(|i| sim.node(NodeId(i)).log.clone()).collect();
        (traces, sim.counters())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The satellite contract: random cross-region send scripts pop
        /// in identical `(time, seq)` order — observed as byte-identical
        /// per-node `(time, from, payload)` traces — under 1, 2, and 4
        /// shards, with and without unicast loss.
        #[test]
        fn mailbox_merge_is_layout_invariant(scripts in arb_scripts(), lossy in any::<bool>()) {
            let sequential = run_scripts(&scripts, 1, lossy);
            let two = run_scripts(&scripts, 2, lossy);
            prop_assert_eq!(&sequential, &two, "2 shards diverged");
            let four = run_scripts(&scripts, 4, lossy);
            prop_assert_eq!(&sequential, &four, "4 shards diverged");
        }
    }

    fn run_scripts_faulted(
        scripts: &[Vec<Step>],
        plan: &FaultPlan,
        shards: usize,
        lossy: bool,
    ) -> (Trace, NetCounters) {
        let topo = TopologyBuilder::new()
            .intra_region_one_way(SimDuration::from_millis(1))
            .inter_region_one_way(SimDuration::from_millis(10))
            .region(3, None)
            .region(3, Some(0))
            .region(3, Some(0))
            .region(3, Some(2))
            .build()
            .unwrap();
        let nodes = scripts
            .iter()
            .map(|s| ScriptNode { script: s.clone(), step: 0, log: Vec::new() })
            .collect();
        let mut sim = ShardedSim::new(topo, nodes, 4242, shards);
        sim.set_fault_plan(Some(Arc::new(plan.clone())));
        if lossy {
            sim.set_unicast_loss(LossModel::Bernoulli { p: 0.25 });
        }
        sim.run_until_quiescent(SimTime::from_secs(5));
        let traces = (0..12u32).map(|i| sim.node(NodeId(i)).log.clone()).collect();
        (traces, sim.counters())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The fault-determinism contract: an armed random fault plan
        /// (partition/heal, blackout, stall, crash, burst, duplication
        /// scripts) leaves traces byte-identical under 1, 2, and 4
        /// shards — fault verdicts are pure functions of
        /// `(plan, send time, endpoints)`, so no layout can reorder them.
        #[test]
        fn fault_plans_are_layout_invariant(
            scripts in arb_scripts(),
            events in proptest::collection::vec(arb_fault(), 1..6),
            plan_seed in any::<u64>(),
            lossy in any::<bool>(),
        ) {
            let plan = build_plan(plan_seed, &events);
            let sequential = run_scripts_faulted(&scripts, &plan, 1, lossy);
            let two = run_scripts_faulted(&scripts, &plan, 2, lossy);
            prop_assert_eq!(&sequential, &two, "2 shards diverged under faults");
            let four = run_scripts_faulted(&scripts, &plan, 4, lossy);
            prop_assert_eq!(&sequential, &four, "4 shards diverged under faults");
        }
    }
}
