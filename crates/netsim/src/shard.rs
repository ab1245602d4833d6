//! Parallel per-region simulation under a conservative time-window barrier.
//!
//! Regions only interact through inter-region latencies, so a shard that
//! owns a subset of regions can advance independently up to
//! `global_lower_bound + lookahead`, where the lookahead is the minimum
//! one-way latency between any two distinct regions
//! ([`Topology::lookahead`]): no cross-region packet sent inside the
//! current window can arrive before the window ends. This is classic
//! conservative (Chandy–Misra-style) parallel discrete-event simulation,
//! specialized to the region hierarchy of the RRMP system model.
//!
//! ## Execution model
//!
//! A [`ShardedSim`] partitions the topology's regions over `shards` shards
//! (LPT bin packing over region member counts; a region never splits).
//! Each shard is one per-event core — the same one
//! [`Sim`](crate::sim::Sim) drives, implementing dispatch, transmit and
//! the edge verdicts once for both engines — that owns its own timing
//! wheel, scratch buffers, and the RNG streams of its nodes: there is
//! **no shared mutable state** between shards during a window. This
//! module adds only the driver. The run loop is a sequence of windows:
//!
//! 1. the coordinator computes the global lower bound `lb` (earliest
//!    pending event across all shards and undelivered mailboxes);
//! 2. every shard processes its local events in `[lb, lb + lookahead)`
//!    (one scoped worker thread per shard when `shards > 1`, inline
//!    otherwise);
//! 3. cross-region sends produced during the window were buffered into
//!    per-shard-pair **mailboxes** (each written by exactly one shard and
//!    read by exactly one shard); at the barrier they are merged into the
//!    destination shard's wheel in `(arrive, source region, emission
//!    seq)` order.
//!
//! ## Determinism
//!
//! A parallel run's trace is **byte-identical to the sequential
//! (`shards = 1`) run at any shard count**, by construction:
//!
//! * a region is always wholly inside one shard, so intra-region events
//!   are scheduled and popped in an order determined only by that
//!   region's own deterministic history — interleaving with other
//!   regions hosted on the same shard cannot reorder two events of the
//!   same region (the wheel's `(time, seq)` order restricted to one
//!   region's events is the region's own insertion order);
//! * every RNG stream is per-node (the core a shard runs draws unicast
//!   loss from the sender's own stream, where `Sim`'s draws from one
//!   global generator), so no draw depends on cross-region event
//!   interleaving;
//! * cross-region messages are tagged with their source region and a
//!   per-source-region emission counter and merged at barriers in that
//!   canonical order, which does not depend on how regions are grouped
//!   into shards, or on thread scheduling;
//! * window boundaries themselves are a function of the global event-time
//!   structure only, so the barrier at which a message merges is also
//!   layout-independent.
//!
//! The price of the windowed semantics is that they are *not* the
//! single-queue semantics of [`Sim`](crate::sim::Sim). Both engines run
//! the same core, and routing is what orders their events differently:
//! `Sim` schedules a cross-region send at once, a shard at the next
//! barrier. So two
//! same-instant events in different regions may dispatch in a different
//! relative order (which no per-node observable can see), and
//! cross-region ties at one instant resolve in canonical merge order
//! rather than global send order. `ShardedSim` is therefore its own
//! engine with `shards = 1` as its sequential oracle; the trace-equality
//! suite asserts byte-identical traces across shard counts 1/2/4.

use std::sync::mpsc;
use std::sync::Arc;

use rrmp_trace::TraceSink;

use crate::engine::{Core, CrossEvent, Env, Filter, Shard};
use crate::fault::FaultPlan;
use crate::loss::{DeliveryPlan, LossModel};
use crate::rng::SeedSequence;
use crate::sim::{NetCounters, SimNode};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, RegionId, Topology};

/// A deterministic per-packet drop predicate (return `true` to drop).
/// Shards consult it concurrently, hence `Fn + Send + Sync`.
pub type DropFilter<M> = dyn Fn(NodeId, NodeId, &M) -> bool + Send + Sync;

/// The topology and network settings: read by every shard during a
/// window, written by none.
struct Shared<M> {
    topo: Topology,
    /// Region index → owning shard.
    region_shard: Vec<u32>,
    unicast_loss: LossModel,
    drop_filter: Option<Box<DropFilter<M>>>,
    fault: Option<Arc<FaultPlan>>,
}

impl<M> Shared<M> {
    /// The environment a shard's core reads; `slot` holds the lent drop
    /// filter for as long as the environment lives.
    fn env<'a>(&'a self, slot: &'a mut Option<&'a DropFilter<M>>) -> Env<'a, M> {
        *slot = self.drop_filter.as_deref();
        Env {
            topo: &self.topo,
            unicast_loss: &self.unicast_loss,
            fault: self.fault.as_deref(),
            drop_filter: slot.as_mut().map(|f| f as &mut Filter<'a, M>),
            region_shard: &self.region_shard,
        }
    }
}

/// The inclusive end of a window opening at the global lower bound `lb`,
/// capped at `limit` — shared by the inline and threaded drivers so the
/// conservative bound can never diverge between the sequential oracle and
/// a parallel run.
fn window_end(lookahead: Option<SimDuration>, lb: SimTime, limit: SimTime) -> SimTime {
    match lookahead {
        // `lb + L - 1` inclusive: a message sent at `s <= lb + L - 1`
        // arrives at `s + d >= lb + L`, strictly after the window.
        Some(l) if !l.is_zero() => lb.saturating_add(l - SimDuration::from_micros(1)).min(limit),
        // Zero lookahead: degrade to one instant per window (correct,
        // sequentially slow — conservative parallelism has nothing to
        // exploit). `None` means a single region: no cross-region traffic
        // can exist, so the window may span the whole run.
        Some(_) => lb,
        None => limit,
    }
}

/// One window command sent to a shard worker: schedule the (pre-sorted)
/// inbox batch, then process everything at or before `limit`.
struct WindowCmd<M> {
    limit: SimTime,
    inbox: Vec<CrossEvent<M>>,
}

/// A worker's barrier report: its drained mailboxes and the time of its
/// next local event.
struct WindowReport<M> {
    shard: usize,
    outboxes: Vec<Vec<CrossEvent<M>>>,
    next_time: Option<SimTime>,
}

/// The conservatively parallel, region-sharded discrete-event simulator.
///
/// Hosts the same [`SimNode`] implementations as [`Sim`](crate::sim::Sim)
/// with the same [`Ctx`](crate::sim::Ctx) API. `shards = 1` is the
/// sequential special case: no worker threads are spawned and the
/// (single) mailbox is drained inline — it defines the canonical trace
/// that every parallel run reproduces byte for byte. See the
/// [module docs](self) for the windowed execution model and the
/// determinism argument.
pub struct ShardedSim<N: SimNode<T>, T = u64> {
    states: Vec<Core<N, T>>,
    shared: Shared<N::Msg>,
    /// Node index → owning shard.
    node_shard: Vec<u32>,
    lookahead: Option<SimDuration>,
    now: SimTime,
    /// Reused cross-event staging buffer for inline barrier merges.
    merge_scratch: Vec<CrossEvent<N::Msg>>,
}

impl<N: SimNode<T>, T> std::fmt::Debug for ShardedSim<N, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSim")
            .field("now", &self.now)
            .field("shards", &self.states.len())
            .field("lookahead", &self.lookahead)
            .field("pending_events", &self.states.iter().map(Core::pending).sum::<usize>())
            .finish_non_exhaustive()
    }
}

/// Assigns regions to shards by greedy LPT (longest-processing-time) bin
/// packing over region member counts: regions are placed heaviest-first
/// onto the currently lightest shard. Within a factor 4/3 of the optimal
/// makespan and exact when regions are equal-sized; by region index the
/// largest regions could share a shard, and cost is dominated by the
/// largest region (cf. the hierarchical-makespan result). The assignment
/// is purely a load-balancing decision: any deterministic one yields
/// byte-identical traces (that is the point of the canonical mailbox
/// order). Shard ids in the result are dense (`ShardedSim::new_from`
/// sizes its state table from the max id), which LPT guarantees because
/// the first `shards` placements each pick a distinct empty bin.
fn partition_regions(topo: &Topology, shards: usize) -> Vec<u32> {
    let shards = shards.clamp(1, topo.region_count().max(1));
    let weight = |r: usize| topo.members_of(RegionId(r as u16)).len();
    // Heaviest first; equal weights keep ascending region order so the
    // assignment is deterministic.
    let mut order: Vec<usize> = (0..topo.region_count()).collect();
    order.sort_by_key(|&r| (std::cmp::Reverse(weight(r)), r));
    let mut load = vec![0usize; shards];
    let mut assign = vec![0u32; topo.region_count()];
    for r in order {
        let lightest = (0..shards).min_by_key(|&s| (load[s], s)).unwrap_or(0);
        load[lightest] += weight(r);
        assign[r] = lightest as u32;
    }
    assign
}

impl<N, T> ShardedSim<N, T>
where
    N: SimNode<T> + Send,
    N::Msg: Send,
    T: Send,
{
    /// Creates a sharded simulator over `topo` hosting `nodes` (one per
    /// [`NodeId`], in order), partitioned into at most `shards` shards
    /// (clamped to the region count; a region never splits). All
    /// randomness derives from `seed`; traces are identical for every
    /// value of `shards`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` does not match the topology's node count.
    #[must_use]
    pub fn new(topo: Topology, nodes: Vec<N>, seed: u64, shards: usize) -> Self {
        Self::new_from(&topo, nodes, seed, shards)
    }

    /// Like [`ShardedSim::new`], taking the nodes as an iterator that is
    /// streamed straight into the per-shard vectors — the million-member
    /// construction path. A pre-built `Vec<N>` plus the per-shard copies
    /// would briefly double the node set's footprint; here at most one
    /// node is in flight at a time. The iterator may borrow the caller's
    /// topology (this constructor stores its own clone).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` does not yield exactly one node per topology
    /// node (in `NodeId` order), or if `shards` is zero.
    #[must_use]
    pub fn new_from<I: IntoIterator<Item = N>>(
        topo: &Topology,
        nodes: I,
        seed: u64,
        shards: usize,
    ) -> Self {
        let region_shard = partition_regions(topo, shards);
        let shard_count = region_shard.iter().map(|&s| s as usize + 1).max().unwrap_or(1);
        let node_shard: Vec<u32> =
            topo.nodes().map(|n| region_shard[topo.region_of(n).index()]).collect();
        let states = (0..shard_count as u32)
            .map(|s| {
                let shard = Shard::new(s, &node_shard, shard_count, topo.region_count());
                Core::new(true, Some(shard))
            })
            .collect();
        let mut sim = ShardedSim {
            states,
            shared: Shared {
                topo: topo.clone(),
                region_shard,
                unicast_loss: LossModel::None,
                drop_filter: None,
                fault: None,
            },
            node_shard,
            lookahead: topo.lookahead(),
            now: SimTime::ZERO,
            merge_scratch: Vec::new(),
        };
        sim.reset(nodes, seed);
        sim
    }

    /// Resets for a fresh run over the same topology and shard layout:
    /// replaces the nodes (one per topology node, in `NodeId` order,
    /// streamed into exactly-sized per-shard vectors), re-derives every
    /// RNG stream from `seed`, and clears queues, mailboxes, and counters
    /// while keeping their allocations warm (per-shard
    /// [`EventQueue::clear`] semantics). The loss model, drop filter,
    /// armed fault plan and armed observer are retained.
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
        for st in &mut self.states {
            st.reset(&seq, Vec::new());
        }
        let mut total = 0usize;
        for (i, node) in nodes.into_iter().enumerate() {
            let shard = *self.node_shard.get(i).expect(ONE_EACH) as usize;
            self.states[shard].push_node(NodeId(i as u32), node, &seq);
            total += 1;
        }
        assert_eq!(total, self.node_shard.len(), "{ONE_EACH}");
        self.now = SimTime::ZERO;
    }

    /// Number of shards actually in use.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.states.len()
    }

    /// The window length: `Some(min inter-region one-way latency)`, or
    /// `None` for a single-region topology (one unbounded window).
    #[must_use]
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }

    /// Sets the loss model applied to every unicast send. Unlike the
    /// single-queue engine, draws come from **per-sender-node** streams
    /// (a global stream would make draws depend on the shard layout).
    pub fn set_unicast_loss(&mut self, model: LossModel) {
        self.shared.unicast_loss = model;
    }

    /// Installs a deterministic drop filter consulted for every packet
    /// (return `true` to drop). Shards consult it concurrently, so it
    /// must be `Fn + Send + Sync` — pure decision logic only.
    pub fn set_drop_filter<F>(&mut self, f: F)
    where
        F: Fn(NodeId, NodeId, &N::Msg) -> bool + Send + Sync + 'static,
    {
        self.shared.drop_filter = Some(Box::new(f));
    }

    /// Arms (or with `None` disarms) a [`FaultPlan`], consulted for
    /// every unicast copy at transmit time. Verdicts are pure functions
    /// of `(plan, send time, endpoints)` — stateless by construction —
    /// so traces stay byte-identical at every shard count.
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.shared.fault = plan;
    }

    /// Arms (with `Some(ring_capacity)`) or disarms (with `None`) the
    /// engine observer: one [`TraceSink`] per shard, recording deliveries
    /// against the receiving node and wire verdicts against the sender.
    /// Per-node rings and emission counters make the combined, canonically
    /// sorted event set byte-identical at every shard count.
    pub fn set_trace(&mut self, ring_capacity: Option<usize>) {
        for st in &mut self.states {
            st.trace = ring_capacity.map(|cap| Box::new(TraceSink::new(cap)));
        }
    }

    /// Trace events evicted by ring bounds across all shard sinks.
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.states.iter().filter_map(|st| st.trace.as_deref()).map(TraceSink::dropped).sum()
    }

    /// Appends every engine-recorded event across all shards to `out`
    /// (unsorted; callers combine sinks and sort canonically).
    pub fn collect_trace(&self, out: &mut Vec<rrmp_trace::TraceEvent>) {
        for t in self.states.iter().filter_map(|st| st.trace.as_deref()) {
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
        &self.shared.topo
    }

    /// Aggregated network counters across all shards.
    #[must_use]
    pub fn counters(&self) -> NetCounters {
        let mut total = NetCounters::default();
        for st in &self.states {
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
            } = st.counters;
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
        self.states.iter().map(Core::pending).sum()
    }

    /// The core of the shard that owns `id`.
    fn state(&mut self, id: NodeId) -> &mut Core<N, T> {
        &mut self.states[self.node_shard[id.index()] as usize]
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &N {
        self.states[self.node_shard[id.index()] as usize].node(id)
    }

    /// Mutable access to a node (between runs).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        self.state(id).node_mut(id)
    }

    /// Iterates over all nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> {
        self.shared.topo.nodes().map(move |id| (id, self.node(id)))
    }

    /// Injects a packet from `from` arriving at `to` at absolute time
    /// `at`, bypassing latency, loss, and the mailboxes (injection order
    /// is the experiment script's call order, which is layout-invariant).
    pub fn inject(&mut self, to: NodeId, from: NodeId, msg: N::Msg, at: SimTime) {
        self.state(to).inject(to, from, msg, at);
    }

    /// Injects one multicast transmission according to a
    /// [`DeliveryPlan`]: every plan holder other than `from` receives
    /// `msg` at `at + one_way_latency(from, holder)`.
    pub fn inject_multicast_plan(
        &mut self,
        from: NodeId,
        msg: &N::Msg,
        plan: &DeliveryPlan,
        at: SimTime,
    ) {
        for to in plan.holders().filter(|&to| to != from) {
            let arrive = at + self.shared.topo.one_way_latency(from, to);
            self.inject(to, from, msg.clone(), arrive);
        }
    }

    /// Schedules an external timer on `node` at absolute time `at`.
    pub fn schedule_external_timer(&mut self, node: NodeId, timer: T, at: SimTime) {
        self.state(node).schedule_timer(node, timer, at);
    }

    /// Earliest pending wheel event across shards (mailboxes must have
    /// been routed first).
    fn min_peek(&self) -> Option<SimTime> {
        self.states.iter().filter_map(|s| s.queue.peek_time()).min()
    }

    /// Drains every mailbox into its destination wheel in canonical
    /// `(arrive, src_region, emit_seq)` order — the inline barrier.
    fn route_mailboxes(&mut self) {
        for j in 0..self.states.len() {
            let mut batch = std::mem::take(&mut self.merge_scratch);
            debug_assert!(batch.is_empty());
            for i in 0..self.states.len() {
                batch.append(&mut self.states[i].outboxes()[j]);
            }
            batch.sort_unstable_by_key(CrossEvent::key);
            self.states[j].accept(batch.drain(..));
            self.merge_scratch = batch;
        }
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
    /// barrier), then picks the sequential or threaded driver.
    fn advance(&mut self, limit: SimTime) {
        let mut slot = None;
        let mut env = self.shared.env(&mut slot);
        for st in &mut self.states {
            st.start(&mut env);
        }
        if self.states.len() == 1 {
            self.advance_inline(limit);
        } else {
            self.advance_parallel(limit);
        }
        // Monotone global clock: `processed` only reflects events at or
        // before past limits, and a run with an earlier horizon than a
        // previous one must not rewind `now` (matching `Sim`).
        let processed = self.states.iter().map(|s| s.now).max().unwrap_or(SimTime::ZERO);
        self.now = self.now.max(processed);
    }

    /// Sequential window loop: the `shards = 1` special case (also used
    /// as the oracle in tests). No threads, no channel traffic; the
    /// mailbox merge is an inline sort of this shard's own cross-region
    /// sends.
    fn advance_inline(&mut self, limit: SimTime) {
        loop {
            self.route_mailboxes();
            let Some(lb) = self.min_peek() else { break };
            if lb > limit {
                break;
            }
            let end = window_end(self.lookahead, lb, limit);
            let mut slot = None;
            let mut env = self.shared.env(&mut slot);
            for st in &mut self.states {
                st.run_until(&mut env, end);
            }
        }
    }

    /// Threaded window loop: one scoped worker per shard, coordinated by
    /// this thread through per-shard command channels and one report
    /// channel. Shard cores move into the workers for the duration of the
    /// call and return through the scope's join handles; the shared
    /// settings are borrowed by all of them.
    fn advance_parallel(&mut self, limit: SimTime) {
        self.route_mailboxes();
        match self.min_peek() {
            // Nothing to run before the horizon: don't pay shards x
            // (thread spawn + channel setup + join) for zero windows —
            // the cost profile scripts that step a sim in small
            // increments would otherwise hit on every no-op call.
            None => return,
            Some(lb) if lb > limit => return,
            Some(_) => {}
        }
        let n = self.states.len();
        let mut next_times: Vec<Option<SimTime>> =
            self.states.iter().map(|s| s.queue.peek_time()).collect();
        let mut pending: Vec<Vec<CrossEvent<N::Msg>>> = (0..n).map(|_| Vec::new()).collect();
        let states = std::mem::take(&mut self.states);
        let shared = &self.shared;
        let lookahead = self.lookahead;

        let recovered = std::thread::scope(|scope| {
            let (report_tx, report_rx) = mpsc::channel::<WindowReport<N::Msg>>();
            let mut cmd_txs = Vec::with_capacity(n);
            let mut handles = Vec::with_capacity(n);
            for (i, mut st) in states.into_iter().enumerate() {
                let (cmd_tx, cmd_rx) = mpsc::channel::<WindowCmd<N::Msg>>();
                let report = report_tx.clone();
                handles.push(scope.spawn(move || {
                    let mut slot = None;
                    let mut env = shared.env(&mut slot);
                    while let Ok(cmd) = cmd_rx.recv() {
                        st.accept(cmd.inbox);
                        st.run_until(&mut env, cmd.limit);
                        let outboxes = st.outboxes().iter_mut().map(std::mem::take).collect();
                        let sent = report.send(WindowReport {
                            shard: i,
                            outboxes,
                            next_time: st.queue.peek_time(),
                        });
                        if sent.is_err() {
                            break;
                        }
                    }
                    st
                }));
                cmd_txs.push(cmd_tx);
            }
            drop(report_tx);

            'windows: loop {
                let mut lb = next_times.iter().flatten().min().copied();
                for batch in &pending {
                    // Batches are sorted: the head holds the minimum arrival.
                    if let Some(e) = batch.first() {
                        lb = Some(lb.map_or(e.arrive, |t| t.min(e.arrive)));
                    }
                }
                let Some(lb) = lb else { break };
                if lb > limit {
                    break;
                }
                let end = window_end(lookahead, lb, limit);
                for (j, tx) in cmd_txs.iter().enumerate() {
                    let cmd = WindowCmd { limit: end, inbox: std::mem::take(&mut pending[j]) };
                    if tx.send(cmd).is_err() {
                        // The worker's receiver is gone: it panicked. Bail
                        // out to the joins below, which rethrow its panic.
                        break 'windows;
                    }
                }
                let mut reported = 0;
                while reported < n {
                    match report_rx.recv_timeout(std::time::Duration::from_millis(50)) {
                        Ok(rep) => {
                            next_times[rep.shard] = rep.next_time;
                            for (j, mut out) in rep.outboxes.into_iter().enumerate() {
                                pending[j].append(&mut out);
                            }
                            reported += 1;
                        }
                        // A worker that finished before its command channel
                        // closed has panicked; waiting for its report would
                        // hang forever. Fall through to the joins, which
                        // rethrow the panic.
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            if handles.iter().any(|h| h.is_finished()) {
                                break 'windows;
                            }
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => break 'windows,
                    }
                }
                for batch in &mut pending {
                    batch.sort_unstable_by_key(CrossEvent::key);
                }
            }

            drop(cmd_txs); // closes the command channels; workers return
            let mut states = Vec::with_capacity(n);
            for h in handles {
                match h.join() {
                    Ok(st) => states.push(st),
                    // Propagate a node-callback panic with its original
                    // payload instead of deadlocking the barrier.
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            (states, pending)
        });
        let (mut states, pending) = recovered;
        // Leftover cross-region events past `limit`: schedule them now so
        // the wheel insertion order matches the inline driver's final
        // barrier (batches are already canonically sorted).
        for (j, batch) in pending.into_iter().enumerate() {
            states[j].accept(batch);
        }
        self.states = states;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Ctx, Sim};
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
    struct Gossiper {
        log: Vec<(SimTime, NodeId, u32)>,
    }

    impl SimNode for Gossiper {
        type Msg = u32;
        fn on_packet(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
            self.log.push((ctx.now(), from, msg));
            if msg > 0 {
                let n = ctx.topology().node_count() as u32;
                let mut to = NodeId(ctx.rng().gen_range(0..n));
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
        let nodes = (0..n).map(|_| Gossiper { log: Vec::new() }).collect();
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
    /// and a tail of small ones — the regime where LPT and assignment by
    /// region index disagree maximally.
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
        let nodes = (0..n).map(|_| Gossiper { log: Vec::new() }).collect();
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
        // Each shard count groups the skewed regions differently, and all
        // must reproduce the single-shard oracle byte for byte: which
        // shard hosts a region is a load-balancing decision only.
        let oracle = skewed_gossip_trace(1);
        for shards in [2usize, 4] {
            assert_eq!(oracle, skewed_gossip_trace(shards), "shards={shards}");
        }
    }

    #[test]
    fn lpt_placement_balances_skewed_regions() {
        let topo = skewed_topo(); // weights [13, 6, 2, 2, 2, 2]
        let mut load = [0usize; 2];
        for (r, &s) in partition_regions(&topo, 2).iter().enumerate() {
            load[s as usize] += topo.members_of(RegionId(r as u16)).len();
        }
        // 13 alone vs 6+2+2+2+2 = 14. By region index it would be
        // 13+2+2 = 17 vs 10.
        assert_eq!(load.iter().max(), Some(&14));
        // Shard ids stay dense (ShardedSim sizes its state table from the
        // max id), and every region is assigned.
        for shards in 1..=6 {
            let assign = partition_regions(&topo, shards);
            assert_eq!(assign.len(), topo.region_count());
            let used: std::collections::BTreeSet<u32> = assign.iter().copied().collect();
            let expect: std::collections::BTreeSet<u32> = (0..shards as u32).collect();
            assert_eq!(used, expect, "shards={shards}");
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

    #[test]
    fn single_region_matches_plain_sim() {
        // No cross-region traffic and no loss draws: the sharded engine
        // and the single-queue engine see identical schedules.
        let run_sharded = || {
            let mut sim = ShardedSim::new(presets::paper_region(6), probes(6), 3, 4);
            assert_eq!(sim.shards(), 1, "single region clamps to one shard");
            sim.inject(NodeId(2), NodeId(0), 4, SimTime::from_millis(1));
            sim.schedule_external_timer(NodeId(5), 77, SimTime::from_millis(2));
            sim.run_until_quiescent(SimTime::from_secs(1));
            (sim.node(NodeId(2)).packets.clone(), sim.node(NodeId(5)).timers.clone())
        };
        let run_plain = || {
            let mut sim = Sim::new(presets::paper_region(6), probes(6), 3);
            sim.inject(NodeId(2), NodeId(0), 4, SimTime::from_millis(1));
            sim.schedule_external_timer(NodeId(5), 77, SimTime::from_millis(2));
            sim.run_until_quiescent(SimTime::from_secs(1));
            (sim.node(NodeId(2)).packets.clone(), sim.node(NodeId(5)).timers.clone())
        };
        assert_eq!(run_sharded(), run_plain());
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
            // A run with an earlier horizon must not rewind the clock
            // (matching `Sim::run_until`).
            sim.run_until(SimTime::from_millis(5));
            assert_eq!(sim.now(), SimTime::from_millis(10), "shards={shards}");
            let end = sim.run_until_quiescent(SimTime::from_millis(3));
            assert_eq!(end, SimTime::from_millis(10), "shards={shards}");
        }
    }

    /// Panics on its first packet — the worker-failure path.
    struct Bomb;
    impl SimNode for Bomb {
        type Msg = u32;
        fn on_packet(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {
            panic!("boom: node callback failed");
        }
        fn on_timer(&mut self, _: &mut Ctx<'_, u32>, _: u64) {}
    }

    #[test]
    #[should_panic(expected = "boom: node callback failed")]
    fn worker_panic_propagates_instead_of_deadlocking() {
        let nodes = (0..4).map(|_| Bomb).collect();
        let mut sim = ShardedSim::new(two_region_topo(), nodes, 1, 2);
        // Deliver into the second shard so a worker thread panics
        // mid-window; the coordinator must rethrow, not hang at the
        // barrier.
        sim.inject(NodeId(2), NodeId(0), 1, SimTime::from_millis(1));
        sim.run_until_quiescent(SimTime::from_secs(1));
    }

    #[test]
    fn reset_replays_identically() {
        let topo = presets::region_tree(3, 2, 1, SimDuration::from_millis(25));
        let n = topo.node_count();
        let mk = || (0..n).map(|_| Gossiper { log: Vec::new() }).collect::<Vec<_>>();
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

    /// One randomized fault episode over the 4-region/12-node proptest
    /// topology. Ids and windows are normalized in `build_plan` so every
    /// generated value is a valid episode.
    #[derive(Debug, Clone)]
    enum FaultScript {
        Partition { a: u16, b_off: u16, start_ms: u64, len_ms: u64 },
        Blackout { a: u32, b_off: u32, start_ms: u64, len_ms: u64 },
        Stall { node: u32, start_ms: u64, len_ms: u64 },
        Crash { node: u32, at_ms: u64 },
        Burst { percent: u8, region: Option<u16>, start_ms: u64, len_ms: u64 },
        Dup { percent: u8, extra_ms: u64, start_ms: u64, len_ms: u64 },
    }

    fn arb_fault() -> impl Strategy<Value = FaultScript> {
        let win = || (0u64..3000, 1u64..1500);
        prop_oneof![
            (0u16..4, 0u16..3, win()).prop_map(|(a, b_off, (start_ms, len_ms))| {
                FaultScript::Partition { a, b_off, start_ms, len_ms }
            }),
            (0u32..12, 0u32..11, win()).prop_map(|(a, b_off, (start_ms, len_ms))| {
                FaultScript::Blackout { a, b_off, start_ms, len_ms }
            }),
            (0u32..12, win()).prop_map(|(node, (start_ms, len_ms))| FaultScript::Stall {
                node,
                start_ms,
                len_ms
            }),
            (0u32..12, 0u64..3000).prop_map(|(node, at_ms)| FaultScript::Crash { node, at_ms }),
            (0u8..=100, any::<bool>(), 0u16..4, win()).prop_map(
                |(percent, scoped, r, (start_ms, len_ms))| FaultScript::Burst {
                    percent,
                    region: scoped.then_some(r),
                    start_ms,
                    len_ms
                }
            ),
            (0u8..=100, 0u64..40, win()).prop_map(|(percent, extra_ms, (start_ms, len_ms))| {
                FaultScript::Dup { percent, extra_ms, start_ms, len_ms }
            }),
        ]
    }

    fn build_plan(seed: u64, events: &[FaultScript]) -> FaultPlan {
        use crate::fault::FaultPlan;
        let ms = SimTime::from_millis;
        let mut plan = FaultPlan::new(seed);
        for ev in events {
            plan = match *ev {
                FaultScript::Partition { a, b_off, start_ms, len_ms } => {
                    let b = (a + 1 + b_off) % 4;
                    plan.partition(RegionId(a), RegionId(b), ms(start_ms), ms(start_ms + len_ms))
                }
                FaultScript::Blackout { a, b_off, start_ms, len_ms } => {
                    let b = (a + 1 + b_off) % 12;
                    plan.blackout(NodeId(a), NodeId(b), ms(start_ms), ms(start_ms + len_ms))
                }
                FaultScript::Stall { node, start_ms, len_ms } => {
                    plan.stall(NodeId(node), ms(start_ms), ms(start_ms + len_ms))
                }
                FaultScript::Crash { node, at_ms } => plan.crash(NodeId(node), ms(at_ms)),
                FaultScript::Burst { percent, region, start_ms, len_ms } => plan.loss_burst(
                    f64::from(percent) / 100.0,
                    region.map(RegionId),
                    ms(start_ms),
                    ms(start_ms + len_ms),
                ),
                FaultScript::Dup { percent, extra_ms, start_ms, len_ms } => plan.duplicate(
                    f64::from(percent) / 100.0,
                    SimDuration::from_millis(extra_ms),
                    ms(start_ms),
                    ms(start_ms + len_ms),
                ),
            };
        }
        plan
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
