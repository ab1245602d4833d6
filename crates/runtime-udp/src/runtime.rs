//! The multiplexed UDP runtime hosting many sans-io protocol cores on a
//! small, fixed set of event-loop threads.
//!
//! A [`UdpRuntime`] spawns `loop_threads` **event loops**. Each loop
//! multiplexes every member placed on it over:
//!
//! * one **`poll(2)` readiness set** ([`crate::batch::PollSet`]) covering
//!   all member sockets plus a waker socket commands knock on;
//! * one shared hierarchical **timing wheel** —
//!   [`rrmp_netsim::event::EventQueue`], the identical queue the
//!   simulator runs on — holding *every* member's protocol timers, each
//!   event tagged with its member's slot id (slot ids are never reused, so
//!   a removed member's pending timers are **lazily cancelled**: they pop,
//!   find no slot, and vanish — see the [`rrmp_netsim::event`] module
//!   docs);
//! * one **MTU-bucketed buffer pool** ([`crate::pool::BufferPool`]) the
//!   batched receive path ([`crate::batch::RecvBatcher`], `recvmmsg` on
//!   Linux) fills directly, so the steady-state hot path is
//!   pool slab → [`Bytes`] → [`Packet::decode`] → slab back on the
//!   freelist, with no slab allocated per datagram: the decoder copies a
//!   data packet's payload into an exact-size buffer (its one
//!   allocation), so a buffered message costs its payload rather than
//!   pinning the slab it arrived in;
//! * one **`Outbox`** (reused encode buffer + `sendmmsg` fan-out list)
//!   shared by every member on the loop.
//!
//! Members are placed on the least-loaded loop at
//! [`UdpRuntime::add_member`] time; a process can host thousands of
//! receivers this way with thread count decoupled from member count.
//!
//! IP multicast is emulated by unicast fan-out (no multicast routing is
//! assumed): each packet is **encoded once** and the same wire bytes are
//! written to every destination, mirroring the zero-copy fan-out of the
//! simulator. A test hook can drop the initial transmission to selected
//! members to exercise recovery over real sockets.

use std::collections::HashMap;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver as ChanReceiver, Sender as ChanSender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};

use rrmp_core::events::{Action, Event, TimerKind};
use rrmp_core::ids::MessageId;
use rrmp_core::packet::Packet;
use rrmp_core::prelude::ProtocolConfig;
use rrmp_core::receiver::Receiver;
use rrmp_netsim::event::EventQueue;
use rrmp_netsim::time::SimTime;
use rrmp_netsim::topology::NodeId;
use rrmp_trace::{sort_canonical, streams, EventKind, TraceEvent, TraceSink};

use crate::batch::{PollSet, RecvBatcher};
use crate::group::GroupSpec;
use crate::pool::{BufferPool, PoolStats, DATAGRAM_MTU};

// ---------------------------------------------------------------------------
// Public surface: configuration, events, handles.
// ---------------------------------------------------------------------------

/// Tuning knobs for a [`UdpRuntime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of event-loop threads. Defaults to the machine's available
    /// parallelism (capped at 8 — loops are I/O-bound, not compute).
    pub loop_threads: usize,
    /// Per-loop cap on *idle* pooled bytes (freelist slabs).
    pub pool_limit_bytes: usize,
    /// Capacity of each member's delivery channel; a member whose
    /// application stops draining sheds deliveries (counted in
    /// [`MemberHandle::send_drops`]) rather than stalling its whole loop.
    pub delivery_capacity: usize,
    /// `Some(capacity)` arms a per-loop [`TraceSink`] on the
    /// [`streams::RUNTIME`] stream recording poll wakeups, socket
    /// mute/unmute, and fatal receive failures (collect
    /// with [`UdpRuntime::trace_events`]). `None` — the default — keeps
    /// the loops trace-free: every hook site is one branch on a `None`
    /// discriminant.
    pub trace_ring: Option<usize>,
}

/// Default per-loop freelist budget: enough for two full receive batches
/// of jumbo slabs with room left for MTU-class churn.
const DEFAULT_POOL_LIMIT: usize = 8 * 1024 * 1024;

impl Default for RuntimeConfig {
    fn default() -> Self {
        let loops = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(8);
        RuntimeConfig {
            loop_threads: loops,
            pool_limit_bytes: DEFAULT_POOL_LIMIT,
            delivery_capacity: 4096,
            trace_ring: None,
        }
    }
}

/// Shared, lock-free per-loop health statistics — the runtime-path
/// mirror of [`PoolStats`]. Counters are cumulative; all updates are
/// `Relaxed` — they are observability, never synchronization.
#[derive(Debug, Default)]
pub(crate) struct RuntimeStats {
    /// Poll returns with at least one readable socket.
    pub poll_wakeups: AtomicU64,
    /// Poll returns with nothing readable (timer or idle sweeps).
    pub idle_ticks: AtomicU64,
    /// Sockets muted after a non-transient receive error (backoff).
    pub mutes: AtomicU64,
    /// Sockets re-admitted to the readiness set after backoff.
    pub unmutes: AtomicU64,
    /// Fatal receive failures: sockets permanently retired (each also
    /// surfaced to its application through
    /// [`MemberHandle::recv_failure`]).
    pub recv_failures: AtomicU64,
    /// Loop-wide fold of every member's send-path drops: datagrams the
    /// outbox could not put on the wire plus deliveries shed on full
    /// application channels (the per-member split stays on
    /// [`MemberHandle::send_drops`]).
    pub send_drops: AtomicU64,
}

/// A plain-data copy of one loop's health counters at one instant —
/// uniform with [`crate::pool::PoolSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeSnapshot {
    /// Poll returns with at least one readable socket.
    pub poll_wakeups: u64,
    /// Poll returns with nothing readable.
    pub idle_ticks: u64,
    /// Sockets muted into receive-error backoff.
    pub mutes: u64,
    /// Sockets re-admitted after backoff.
    pub unmutes: u64,
    /// Sockets permanently retired by fatal receive errors.
    pub recv_failures: u64,
    /// Send-path work dropped loop-wide.
    pub send_drops: u64,
}

impl RuntimeStats {
    /// Reads every counter at once (each individually `Relaxed`).
    #[must_use]
    pub fn snapshot(&self) -> RuntimeSnapshot {
        RuntimeSnapshot {
            poll_wakeups: self.poll_wakeups.load(Ordering::Relaxed),
            idle_ticks: self.idle_ticks.load(Ordering::Relaxed),
            mutes: self.mutes.load(Ordering::Relaxed),
            unmutes: self.unmutes.load(Ordering::Relaxed),
            recv_failures: self.recv_failures.load(Ordering::Relaxed),
            send_drops: self.send_drops.load(Ordering::Relaxed),
        }
    }
}

/// One event loop's observer surface: the always-on health counters plus
/// the optional [`streams::RUNTIME`] trace sink. The sink sits behind a
/// mutex only the loop thread touches while running (collection happens
/// from the runtime handle), so an armed record is an uncontended lock
/// and an unarmed one is a branch on `None`.
struct LoopMon {
    loop_idx: u32,
    stats: Arc<RuntimeStats>,
    trace: Option<Arc<Mutex<TraceSink>>>,
}

impl LoopMon {
    fn record(&self, at: SimTime, kind: EventKind) {
        if let Some(t) = &self.trace {
            t.lock().expect("trace sink lock").record(
                at.as_micros(),
                self.loop_idx,
                streams::RUNTIME,
                kind,
            );
        }
    }
}

/// A message delivered to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The message id.
    pub id: MessageId,
    /// The payload.
    pub payload: Bytes,
}

/// Everything the runtime surfaces to the application: message
/// deliveries, and terminal runtime failures that would otherwise be
/// silent (a member whose socket died keeps sending and looks healthy
/// from the outside).
#[derive(Debug)]
pub(crate) enum RuntimeEvent {
    /// A message delivered to the application.
    Delivery(Delivery),
    /// The member's socket hit a fatal receive error and was retired from
    /// the readiness set: the member is deaf to the network even though
    /// its send path may keep working. Tear the member down.
    RecvFailed(std::io::Error),
}

/// Socket errors the receive path always retries: `EINTR`, and the
/// ICMP port-unreachable feedback some stacks report on UDP sockets as
/// `ECONNREFUSED`/`ECONNRESET` when a peer is briefly down — normal
/// churn in a group, not a reason to go deaf.
fn recv_error_is_transient(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
    )
}

/// Consecutive non-transient receive errors tolerated (with backoff)
/// before a member's socket is declared dead and
/// [`RuntimeEvent::RecvFailed`] is surfaced.
const MAX_RECV_ERROR_STREAK: u32 = 8;

/// Backoff before re-polling a socket after a receive error: exponential
/// in the error streak, capped so the loop stays responsive. Implemented
/// as an unmute timer on the shared wheel — a faulty socket never makes
/// its loop sleep, it is just excluded from the readiness set until the
/// timer fires.
fn recv_backoff(streak: u32) -> Duration {
    Duration::from_millis(1u64 << streak.min(5))
}

type DropFilter = dyn Fn(NodeId) -> bool + Send;

// ---------------------------------------------------------------------------
// Loop-internal plumbing.
// ---------------------------------------------------------------------------

/// Everything one event loop can find on its timing wheel. Every entry
/// carries the owning member's slot id; slot ids are allocated
/// monotonically and never reused, so an entry whose slot is gone is a
/// lazily-cancelled timer (see the [`rrmp_netsim::event`] module docs)
/// and is dropped at pop time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopEvent {
    /// A protocol timer for the member at `slot`.
    Proto { slot: u32, kind: TimerKind },
    /// End of a receive-error backoff: re-admit `slot`'s socket to the
    /// readiness set.
    Unmute { slot: u32 },
}

/// The shared wheel type: one per loop, multiplexing every member.
type TimerWheel = EventQueue<LoopEvent>;

/// Commands accepted by an event loop, delivered over its mpsc channel
/// with a datagram knock on the waker socket (one per batch of commands,
/// see [`LoopLink::send`]).
enum LoopCmd {
    Add(Box<MemberInit>),
    Multicast(u32, Bytes),
    SetDrop(u32, Option<Box<DropFilter>>),
    Leave(u32),
    Remove(u32),
    Shutdown,
    /// Test hook: reply with a member's protocol counters.
    #[cfg(test)]
    Counters(u32, SyncSender<rrmp_core::metrics::Counters>),
}

/// Everything a loop needs to install a new member.
struct MemberInit {
    slot: u32,
    socket: UdpSocket,
    spec: Arc<GroupSpec>,
    node: NodeId,
    cfg: ProtocolConfig,
    is_sender: bool,
    seed: u64,
    delivered_tx: SyncSender<RuntimeEvent>,
    send_drops: Arc<AtomicU64>,
}

/// One member hosted on an event loop: the sans-io protocol core plus
/// its socket and application channel.
struct MemberSlot {
    socket: UdpSocket,
    spec: Arc<GroupSpec>,
    node: NodeId,
    receiver: Receiver,
    delivered_tx: SyncSender<RuntimeEvent>,
    initial_drop: Option<Box<DropFilter>>,
    send_drops: Arc<AtomicU64>,
    /// Consecutive non-transient receive errors (reset by any success).
    error_streak: u32,
    /// Excluded from the readiness set until an `Unmute` timer fires.
    muted: bool,
    /// Fatal receive failure surfaced; the socket is permanently retired.
    dead: bool,
}

/// The reused send path: one wire buffer and one fan-out list shared by
/// every member of a loop. Each outgoing packet is encoded exactly once
/// onto `wire`; fan-out hands the same bytes to the batched send path
/// (`sendmmsg` on Linux) in one call per [`crate::batch::BATCH`]
/// destinations.
struct Outbox {
    /// Reused encode buffer: cleared (capacity kept) per packet. Sized to
    /// the MTU bucket so a control packet never grows it.
    wire: BytesMut,
    /// Reused fan-out destination list.
    fanout_addrs: Vec<std::net::SocketAddr>,
    /// Loop-wide drop fold: every per-member drop also lands in
    /// [`RuntimeStats::send_drops`] so the operator sees the loop's
    /// health without enumerating member handles.
    loop_drops: Arc<RuntimeStats>,
}

impl Outbox {
    fn new(loop_drops: Arc<RuntimeStats>) -> Outbox {
        Outbox { wire: BytesMut::with_capacity(DATAGRAM_MTU), fanout_addrs: Vec::new(), loop_drops }
    }

    fn count_drops(&self, drops: &AtomicU64, n: u64) {
        drops.fetch_add(n, Ordering::Relaxed);
        self.loop_drops.send_drops.fetch_add(n, Ordering::Relaxed);
    }

    /// Unicast: encode onto the reused buffer and transmit to one member.
    fn send(
        &mut self,
        socket: &UdpSocket,
        spec: &GroupSpec,
        drops: &AtomicU64,
        to: NodeId,
        packet: &Packet,
    ) {
        let Some(addr) = spec.addr_of(to) else {
            self.count_drops(drops, 1);
            return;
        };
        self.wire.clear();
        packet.encode_into(&mut self.wire);
        if socket.send_to(&self.wire, addr).is_err() {
            self.count_drops(drops, 1);
        }
    }

    /// Fan-out: encode once, write the same wire bytes to every listed
    /// member (the caller excluded) for which `keep` returns true.
    /// Every datagram that cannot be put on the wire (unaddressable
    /// destination or local send error) bumps `drops`.
    #[allow(clippy::too_many_arguments)]
    fn fan_out(
        &mut self,
        socket: &UdpSocket,
        spec: &GroupSpec,
        node: NodeId,
        drops: &AtomicU64,
        packet: &Packet,
        members: &mut dyn Iterator<Item = NodeId>,
        keep: &dyn Fn(NodeId) -> bool,
    ) {
        self.wire.clear();
        packet.encode_into(&mut self.wire);
        self.fanout_addrs.clear();
        for m in members {
            if m != node && keep(m) {
                match spec.addr_of(m) {
                    Some(addr) => self.fanout_addrs.push(addr),
                    None => {
                        self.count_drops(drops, 1);
                    }
                }
            }
        }
        let sent = crate::batch::send_to_many(socket, &self.wire, &self.fanout_addrs);
        let lost = self.fanout_addrs.len() - sent;
        if lost > 0 {
            self.count_drops(drops, lost as u64);
        }
    }
}

/// Executes (and drains) a batch of receiver actions for one member.
/// `handled` is the packet just handed to the receiver: a delivery takes its payload.
fn execute(
    actions: &mut Vec<Action>,
    outbox: &mut Outbox,
    timers: &mut TimerWheel,
    slot_id: u32,
    slot: &MemberSlot,
    now: SimTime,
    mut handled: Option<Packet>,
) {
    for action in actions.drain(..) {
        match action {
            Action::Send { to, packet } => {
                outbox.send(&slot.socket, &slot.spec, &slot.send_drops, to, &packet);
            }
            Action::SendMany { to, packet } => {
                outbox.fan_out(
                    &slot.socket,
                    &slot.spec,
                    slot.node,
                    &slot.send_drops,
                    &packet,
                    &mut to.iter().copied(),
                    &|_| true,
                );
            }
            Action::MulticastRegion { packet } => {
                outbox.fan_out(
                    &slot.socket,
                    &slot.spec,
                    slot.node,
                    &slot.send_drops,
                    &packet,
                    &mut slot.receiver.view().own().members(),
                    &|_| true,
                );
            }
            Action::MulticastGroup { packet } => {
                outbox.fan_out(
                    &slot.socket,
                    &slot.spec,
                    slot.node,
                    &slot.send_drops,
                    &packet,
                    &mut slot.spec.members().iter().map(|m| m.node),
                    &|_| true,
                );
            }
            Action::Deliver { id } => {
                let data = match handled.take() {
                    Some(Packet::Data(d) | Packet::Repair { data: d, .. }) => d,
                    Some(Packet::RegionalRepair { data: d } | Packet::Handoff { data: d }) => d,
                    _ => unreachable!("only a data-bearing packet delivers"),
                };
                // A full (or closed) application channel sheds the
                // delivery; count it so a stalled consumer is visible
                // through `MemberHandle::send_drops`.
                if slot
                    .delivered_tx
                    .try_send(RuntimeEvent::Delivery(Delivery { id, payload: data.payload }))
                    .is_err()
                {
                    outbox.count_drops(&slot.send_drops, 1);
                }
            }
            Action::SetTimer { delay, kind } => {
                timers.schedule(now + delay, LoopEvent::Proto { slot: slot_id, kind });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The event loop.
// ---------------------------------------------------------------------------

/// Upper bound on how long a loop blocks in `poll` even with no timer
/// due — keeps the shutdown flag polled.
const MAX_IDLE_WAIT: Duration = Duration::from_millis(20);

/// How many `recvmmsg` batches one socket may drain per wakeup before
/// the loop moves to the next readable socket — bounds how long one
/// flooded member can starve its loop-mates.
const MAX_RECV_ROUNDS: usize = 4;

struct LoopCtx {
    waker: UdpSocket,
    knocked: Arc<AtomicBool>,
    cmd_rx: ChanReceiver<LoopCmd>,
    pool_limit: usize,
    shutdown: Arc<AtomicBool>,
    stats: Arc<PoolStats>,
    mon: LoopMon,
}

fn loop_main(ctx: LoopCtx) {
    let LoopCtx { waker, knocked, cmd_rx, pool_limit, shutdown, stats, mon } = ctx;
    let epoch = Instant::now();
    let now_sim = || SimTime::from_micros(epoch.elapsed().as_micros() as u64);

    let mut slots: HashMap<u32, MemberSlot> = HashMap::new();
    let mut timers = TimerWheel::new();
    let mut pool = BufferPool::with_stats(pool_limit, stats);
    let mut batcher = RecvBatcher::new();
    let mut pollset = PollSet::new();
    // Poll indices 1.. map onto this list (index 0 is the waker).
    let mut poll_slots: Vec<u32> = Vec::new();
    let mut poll_dirty = true;
    let mut outbox = Outbox::new(Arc::clone(&mon.stats));
    // Reused action scratch: `handle_into` fills it, `execute` drains it.
    let mut actions: Vec<Action> = Vec::new();

    'run: loop {
        if shutdown.load(Ordering::Relaxed) {
            break;
        }

        // 1. Fire due timers across every member. Timers armed while
        // handling one (including zero delays) are picked up within the
        // same sweep.
        let now = now_sim();
        while let Some((at, ev)) = timers.pop_at_or_before(now) {
            match ev {
                LoopEvent::Unmute { slot } => {
                    if let Some(s) = slots.get_mut(&slot) {
                        if !s.dead && s.muted {
                            s.muted = false;
                            poll_dirty = true;
                            mon.stats.unmutes.fetch_add(1, Ordering::Relaxed);
                            mon.record(at, EventKind::Unmuted { slot });
                        }
                    }
                }
                LoopEvent::Proto { slot, kind } => {
                    // Lazily-cancelled timer of a removed member.
                    let Some(s) = slots.get_mut(&slot) else { continue };
                    s.receiver.handle_into(Event::Timer(kind), at, &mut actions);
                    execute(&mut actions, &mut outbox, &mut timers, slot, s, now, None);
                }
            }
        }

        // 2. Drain pending commands (the waker datagram made `poll`
        // return if we were blocked). The flag is cleared first, so a
        // command this drain misses was sent after it and knocks again.
        knocked.swap(false, Ordering::AcqRel);
        while let Ok(cmd) = cmd_rx.try_recv() {
            let now = now_sim();
            match cmd {
                LoopCmd::Shutdown => break 'run,
                LoopCmd::Add(init) => {
                    let MemberInit {
                        slot,
                        socket,
                        spec,
                        node,
                        cfg,
                        is_sender,
                        seed,
                        delivered_tx,
                        send_drops,
                    } = *init;
                    // Build the policy over the *full* group membership
                    // (the spec knows it, sorted once per spec) so
                    // topology-blind policies like hash placement rank
                    // every member — mirroring the simulation harness.
                    let view = spec.view_for(node);
                    let mut receiver =
                        Receiver::with_members(node, view, Arc::new(cfg), seed, spec.ids());
                    if is_sender {
                        receiver.make_sender();
                    }
                    actions.extend(receiver.on_start());
                    let s = MemberSlot {
                        socket,
                        spec,
                        node,
                        receiver,
                        delivered_tx,
                        initial_drop: None,
                        send_drops,
                        error_streak: 0,
                        muted: false,
                        dead: false,
                    };
                    execute(&mut actions, &mut outbox, &mut timers, slot, &s, now, None);
                    slots.insert(slot, s);
                    poll_dirty = true;
                }
                LoopCmd::Multicast(slot, payload) => {
                    let Some(s) = slots.get_mut(&slot) else { continue };
                    let Some(data) = s.receiver.multicast(payload) else { continue };
                    let packet = Packet::Data(data);
                    let filter = &s.initial_drop;
                    outbox.fan_out(
                        &s.socket,
                        &s.spec,
                        s.node,
                        &s.send_drops,
                        &packet,
                        &mut s.spec.members().iter().map(|m| m.node),
                        &|m| !filter.as_ref().is_some_and(|f| f(m)),
                    );
                    // The sender holds its own message.
                    s.receiver.handle_packet_into(s.node, &packet, now, &mut actions);
                    execute(&mut actions, &mut outbox, &mut timers, slot, s, now, Some(packet));
                }
                LoopCmd::SetDrop(slot, filter) => {
                    if let Some(s) = slots.get_mut(&slot) {
                        s.initial_drop = filter;
                    }
                }
                LoopCmd::Leave(slot) => {
                    let Some(s) = slots.get_mut(&slot) else { continue };
                    s.receiver.handle_into(Event::Leave, now, &mut actions);
                    execute(&mut actions, &mut outbox, &mut timers, slot, s, now, None);
                }
                LoopCmd::Remove(slot) => {
                    if slots.remove(&slot).is_some() {
                        // Pending wheel entries for this slot are now
                        // lazily cancelled: they pop, miss, and vanish.
                        poll_dirty = true;
                    }
                }
                #[cfg(test)]
                LoopCmd::Counters(slot, reply) => {
                    if let Some(s) = slots.get(&slot) {
                        let _ = reply.send(s.receiver.metrics().counters);
                    }
                }
            }
        }

        // 3. Rebuild the readiness set after membership/mute changes.
        if poll_dirty {
            pollset.clear();
            poll_slots.clear();
            let widx = pollset.register(&waker);
            debug_assert_eq!(widx, 0, "waker owns poll index 0");
            for (&id, s) in &slots {
                if s.muted || s.dead {
                    continue;
                }
                pollset.register(&s.socket);
                poll_slots.push(id);
            }
            poll_dirty = false;
        }

        // 4. Block until a socket is readable, a command knocks, or the
        // next timer is due.
        let timeout = timers
            .next_due_in(now_sim())
            .map_or(MAX_IDLE_WAIT, |d| Duration::from_micros(d.as_micros()).min(MAX_IDLE_WAIT));
        let ready = match pollset.wait(timeout) {
            Ok(n) => n,
            Err(_) => {
                // A failing poll (resource pressure) degrades to a paced
                // sweep rather than a spin.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        if ready == 0 {
            mon.stats.idle_ticks.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        mon.stats.poll_wakeups.fetch_add(1, Ordering::Relaxed);
        mon.record(now_sim(), EventKind::PollWakeup { ready: ready as u32 });

        // 5. Drain the waker (commands are picked up next iteration).
        if pollset.is_readable(0) {
            let mut knock = [0u8; 8];
            while waker.recv_from(&mut knock).is_ok() {}
        }

        // 6. Drain every readable member socket through the pooled
        // batcher, bounded per socket so a flooded member cannot starve
        // its loop-mates.
        for (i, &id) in poll_slots.iter().enumerate() {
            if !pollset.is_readable(i + 1) {
                continue;
            }
            drain_socket(
                id,
                &mut slots,
                &mut batcher,
                &mut pool,
                &mut outbox,
                &mut timers,
                &mut actions,
                &mut poll_dirty,
                &now_sim,
                &mon,
            );
        }
    }

    batcher.park(&mut pool);
}

/// Drains up to [`MAX_RECV_ROUNDS`] receive batches from one member's
/// socket, feeding decoded packets straight into its protocol core.
#[allow(clippy::too_many_arguments)]
fn drain_socket(
    id: u32,
    slots: &mut HashMap<u32, MemberSlot>,
    batcher: &mut RecvBatcher,
    pool: &mut BufferPool,
    outbox: &mut Outbox,
    timers: &mut TimerWheel,
    actions: &mut Vec<Action>,
    poll_dirty: &mut bool,
    now_sim: &dyn Fn() -> SimTime,
    mon: &LoopMon,
) {
    for _ in 0..MAX_RECV_ROUNDS {
        let Some(s) = slots.get_mut(&id) else { return };
        match batcher.recv_batch(&s.socket, pool) {
            Ok(_) => {
                s.error_streak = 0;
                let now = now_sim();
                for (bytes, from_addr, class) in batcher.drain() {
                    let Some(from) = s.spec.node_at(from_addr) else {
                        pool.release(class, bytes);
                        continue;
                    };
                    // The decoder copies the payload out, so once it
                    // returns this handle is the slab's only one and the
                    // release puts it straight back on the freelist.
                    let packet = Packet::decode(bytes.clone());
                    pool.release(class, bytes);
                    if let Ok(packet) = packet {
                        s.receiver.handle_packet_into(from, &packet, now, actions);
                        execute(actions, outbox, timers, id, s, now, Some(packet));
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return;
            }
            Err(e) if recv_error_is_transient(e.kind()) => {
                // Retried forever: normal group churn, not a socket
                // death. Move on for this wakeup.
                return;
            }
            Err(e) => {
                s.error_streak += 1;
                if s.error_streak >= MAX_RECV_ERROR_STREAK {
                    // Fatal: tell the application through the delivery
                    // channel (try_send — if the channel is full or
                    // closed, the member is being torn down anyway) and
                    // retire the socket.
                    let _ = s.delivered_tx.try_send(RuntimeEvent::RecvFailed(e));
                    s.dead = true;
                    mon.stats.recv_failures.fetch_add(1, Ordering::Relaxed);
                    mon.record(now_sim(), EventKind::RecvFailed { slot: id });
                } else {
                    // Mute instead of sleeping: the wheel wakes the
                    // socket back up, the loop keeps serving everyone
                    // else.
                    s.muted = true;
                    mon.stats.mutes.fetch_add(1, Ordering::Relaxed);
                    mon.record(now_sim(), EventKind::Muted { slot: id });
                    let delay = recv_backoff(s.error_streak);
                    timers.schedule(
                        now_sim()
                            + rrmp_netsim::time::SimDuration::from_micros(delay.as_micros() as u64),
                        LoopEvent::Unmute { slot: id },
                    );
                }
                *poll_dirty = true;
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The runtime: loop threads + placement.
// ---------------------------------------------------------------------------

/// One loop's control surface, shared between the runtime and every
/// member handle placed on it.
struct LoopLink {
    cmd_tx: ChanSender<LoopCmd>,
    /// Connected to the loop's waker socket; one datagram per command
    /// batch pops the loop out of `poll`.
    waker: UdpSocket,
    /// Set by the sender that knocks, cleared by the loop just before it
    /// drains its commands: while it is set a knock is already pending.
    /// Both sides swap with `AcqRel`: the loop's clear acquires from the
    /// last sender's release, so every command queued before a swap that
    /// found the flag set is visible to the drain that follows the clear.
    knocked: Arc<AtomicBool>,
    /// Members currently placed here (least-loaded placement key).
    members: AtomicUsize,
    /// Monotonic slot allocator — ids are never reused, which is what
    /// makes lazy timer cancellation safe.
    next_slot: AtomicU32,
    /// This loop's buffer-pool statistics (shared with the loop thread).
    stats: Arc<PoolStats>,
    /// This loop's runtime-health statistics (shared with the loop
    /// thread).
    rt_stats: Arc<RuntimeStats>,
    /// The loop's optional [`streams::RUNTIME`] trace sink; `None` when
    /// [`RuntimeConfig::trace_ring`] was unset.
    trace: Option<Arc<Mutex<TraceSink>>>,
}

impl LoopLink {
    /// Queues `cmd` and knocks only if no knock is pending, so a burst
    /// of commands (a group being built) costs one `send(2)`, not one
    /// each.
    fn send(&self, cmd: LoopCmd) {
        if self.cmd_tx.send(cmd).is_ok() && !self.knocked.swap(true, Ordering::AcqRel) {
            let _ = self.waker.send(&[1u8]);
        }
    }
}

struct RuntimeShared {
    links: Vec<LoopLink>,
    delivery_capacity: usize,
    shutdown: Arc<AtomicBool>,
}

/// A multiplexed UDP runtime: `loop_threads` event loops hosting many
/// group members each. See the module docs for the architecture.
pub struct UdpRuntime {
    shared: Arc<RuntimeShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for UdpRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpRuntime")
            .field("loops", &self.shared.links.len())
            .field("members", &self.member_count())
            .finish_non_exhaustive()
    }
}

impl UdpRuntime {
    /// Starts the event-loop threads.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if a waker socket cannot be created.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.loop_threads` is zero.
    pub fn start(cfg: RuntimeConfig) -> std::io::Result<UdpRuntime> {
        assert!(cfg.loop_threads > 0, "at least one event loop is required");
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut links = Vec::with_capacity(cfg.loop_threads);
        let mut handles = Vec::with_capacity(cfg.loop_threads);
        for i in 0..cfg.loop_threads {
            // The waker pair: the loop polls `waker_rx`; every command
            // sender knocks via the connected `waker_tx`.
            let waker_rx = UdpSocket::bind("127.0.0.1:0")?;
            waker_rx.set_nonblocking(true)?;
            let waker_tx = UdpSocket::bind("127.0.0.1:0")?;
            waker_tx.connect(waker_rx.local_addr()?)?;
            let knocked = Arc::new(AtomicBool::new(false));
            let (cmd_tx, cmd_rx) = mpsc::channel::<LoopCmd>();
            let stats = Arc::new(PoolStats::default());
            let rt_stats = Arc::new(RuntimeStats::default());
            let trace = cfg.trace_ring.map(|cap| Arc::new(Mutex::new(TraceSink::new(cap))));
            let ctx = LoopCtx {
                waker: waker_rx,
                knocked: Arc::clone(&knocked),
                cmd_rx,
                pool_limit: cfg.pool_limit_bytes,
                shutdown: Arc::clone(&shutdown),
                stats: Arc::clone(&stats),
                mon: LoopMon {
                    loop_idx: i as u32,
                    stats: Arc::clone(&rt_stats),
                    trace: trace.clone(),
                },
            };
            let handle = std::thread::Builder::new()
                .name(format!("rrmp-udp-loop-{i}"))
                .spawn(move || loop_main(ctx))
                .expect("spawn event loop thread");
            links.push(LoopLink {
                cmd_tx,
                waker: waker_tx,
                knocked,
                members: AtomicUsize::new(0),
                next_slot: AtomicU32::new(0),
                stats,
                rt_stats,
                trace,
            });
            handles.push(handle);
        }
        Ok(UdpRuntime {
            shared: Arc::new(RuntimeShared {
                links,
                delivery_capacity: cfg.delivery_capacity,
                shutdown,
            }),
            handles,
        })
    }

    /// Number of event-loop threads.
    #[must_use]
    pub fn loop_count(&self) -> usize {
        self.shared.links.len()
    }

    /// Members currently hosted across all loops.
    #[must_use]
    pub fn member_count(&self) -> usize {
        self.shared.links.iter().map(|l| l.members.load(Ordering::Relaxed)).sum()
    }

    /// Per-loop buffer-pool statistics snapshots (index = loop).
    #[must_use]
    pub fn pool_snapshots(&self) -> Vec<crate::pool::PoolSnapshot> {
        self.shared.links.iter().map(|l| l.stats.snapshot()).collect()
    }

    /// Per-loop runtime-health snapshots (index = loop) — poll wakeups,
    /// mute/unmute churn, fatal receive failures, and
    /// the loop-wide send-drop fold, uniform with
    /// [`UdpRuntime::pool_snapshots`].
    #[must_use]
    pub fn runtime_snapshots(&self) -> Vec<RuntimeSnapshot> {
        self.shared.links.iter().map(|l| l.rt_stats.snapshot()).collect()
    }

    /// Collects every loop's [`streams::RUNTIME`] trace events in
    /// canonical order (empty when unarmed). Timestamps are wall-clock
    /// microseconds since each loop's epoch — diagnostic, not
    /// deterministic like the simulator streams.
    #[must_use]
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for link in &self.shared.links {
            if let Some(t) = &link.trace {
                t.lock().expect("trace sink lock").collect_into(&mut out);
            }
        }
        sort_canonical(&mut out);
        out
    }

    /// Places a member on the least-loaded event loop. `socket` must
    /// already be bound to the spec's address for `node`; `is_sender`
    /// grants the multicast source role. The spec is shared by `Arc`, so
    /// hosting thousands of members of one group costs one spec total.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the socket cannot be configured.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in `spec`, or if `cfg` fails
    /// [`ProtocolConfig::validate`] (the message carries its
    /// [`ConfigError`](rrmp_core::config::ConfigError)).
    pub fn add_member(
        &self,
        socket: UdpSocket,
        spec: impl Into<Arc<GroupSpec>>,
        node: NodeId,
        cfg: ProtocolConfig,
        is_sender: bool,
        seed: u64,
    ) -> std::io::Result<MemberHandle> {
        let spec: Arc<GroupSpec> = spec.into();
        cfg.validate().expect("invalid protocol config");
        assert!(spec.addr_of(node).is_some(), "{node} not in group spec");
        socket.set_nonblocking(true)?;

        let loop_idx = (0..self.shared.links.len())
            .min_by_key(|&i| self.shared.links[i].members.load(Ordering::Relaxed))
            .expect("at least one loop");
        let link = &self.shared.links[loop_idx];
        let slot = link.next_slot.fetch_add(1, Ordering::Relaxed);
        let (delivered_tx, delivered_rx) =
            mpsc::sync_channel::<RuntimeEvent>(self.shared.delivery_capacity);
        let send_drops = Arc::new(AtomicU64::new(0));
        #[cfg(test)]
        let test_delivered_tx = delivered_tx.clone();
        link.send(LoopCmd::Add(Box::new(MemberInit {
            slot,
            socket,
            spec,
            node,
            cfg,
            is_sender,
            seed,
            delivered_tx,
            send_drops: Arc::clone(&send_drops),
        })));
        link.members.fetch_add(1, Ordering::Relaxed);
        Ok(MemberHandle {
            node,
            slot,
            loop_idx,
            shared: Arc::clone(&self.shared),
            delivered_rx,
            recv_failure: Mutex::new(None),
            send_drops,
            #[cfg(test)]
            test_delivered_tx,
        })
    }

    /// Stops every event loop and joins the threads. Outstanding
    /// [`MemberHandle`]s stay valid as receive endpoints for already
    /// delivered messages but issue no further commands.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        for link in &self.shared.links {
            link.send(LoopCmd::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for UdpRuntime {
    fn drop(&mut self) {
        // C-DTOR-BLOCK: prefer an explicit `shutdown()`; the destructor
        // still stops the threads, signalling first so joins are brief.
        self.shutdown_inner();
    }
}

// ---------------------------------------------------------------------------
// Member handle.
// ---------------------------------------------------------------------------

/// The application's handle to one group member hosted on a
/// [`UdpRuntime`] event loop. Dropping the handle removes the member
/// from its loop (pending timers are lazily cancelled).
pub struct MemberHandle {
    node: NodeId,
    slot: u32,
    loop_idx: usize,
    shared: Arc<RuntimeShared>,
    delivered_rx: ChanReceiver<RuntimeEvent>,
    /// Set when a [`RuntimeEvent::RecvFailed`] was observed on the
    /// delivery channel, so the plain [`MemberHandle::recv_timeout`] /
    /// [`MemberHandle::try_recv`] surface still exposes the failure.
    recv_failure: Mutex<Option<std::io::Error>>,
    /// Outgoing work dropped for this member: datagrams the outbox could
    /// not transmit and deliveries shed because the application stopped
    /// draining the channel.
    send_drops: Arc<AtomicU64>,
    /// Test hook: inject events on the delivery channel as the loop
    /// would.
    #[cfg(test)]
    test_delivered_tx: SyncSender<RuntimeEvent>,
}

impl std::fmt::Debug for MemberHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemberHandle")
            .field("node", &self.node)
            .field("slot", &self.slot)
            .field("loop_idx", &self.loop_idx)
            .finish_non_exhaustive()
    }
}

impl MemberHandle {
    fn link(&self) -> &LoopLink {
        &self.shared.links[self.loop_idx]
    }

    /// This member's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Multicasts `payload` to the group (sender role only; ignored
    /// otherwise).
    pub fn multicast(&self, payload: impl Into<Bytes>) {
        self.link().send(LoopCmd::Multicast(self.slot, payload.into()));
    }

    /// Installs a drop filter applied to the **initial** multicast only
    /// (test hook to force recovery); `None` clears it. Ordered with
    /// subsequent [`MemberHandle::multicast`] calls (same command
    /// channel).
    pub fn set_initial_drop<F>(&self, filter: Option<F>)
    where
        F: Fn(NodeId) -> bool + Send + 'static,
    {
        self.link()
            .send(LoopCmd::SetDrop(self.slot, filter.map(|f| Box::new(f) as Box<DropFilter>)));
    }

    /// Receives the next delivered message, waiting up to `timeout`.
    /// A fatal receive-path failure arriving instead is recorded (see
    /// [`MemberHandle::recv_failure`]) and reported as `None`.
    #[must_use]
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Delivery> {
        let event = self.delivered_rx.recv_timeout(timeout).ok()?;
        self.note_failure(&event);
        match event {
            RuntimeEvent::Delivery(d) => Some(d),
            RuntimeEvent::RecvFailed(_) => None,
        }
    }

    /// Non-blocking poll for a delivered message. A fatal receive-path
    /// failure is recorded (see [`MemberHandle::recv_failure`]) and
    /// reported as `None`.
    #[must_use]
    pub fn try_recv(&self) -> Option<Delivery> {
        let event = self.delivered_rx.try_recv().ok()?;
        self.note_failure(&event);
        match event {
            RuntimeEvent::Delivery(d) => Some(d),
            RuntimeEvent::RecvFailed(_) => None,
        }
    }

    /// The fatal receive-path error observed so far, if any: the member
    /// is deaf to the network and should be torn down. Populated when the
    /// loop's report of a retired socket passes through any of the
    /// receive methods.
    #[must_use]
    pub fn recv_failure(&self) -> Option<std::io::ErrorKind> {
        self.recv_failure.lock().expect("recv_failure lock").as_ref().map(std::io::Error::kind)
    }

    /// Outgoing work dropped for this member so far: datagrams the send
    /// path could not transmit (no address for the destination, or the
    /// local socket write failed) plus deliveries shed because the
    /// application was not draining the channel. UDP loss in the network
    /// is invisible by nature; *local* loss is not, and a monotonically
    /// rising value here tells the operator this member is shedding its
    /// own output — the send-side mirror of
    /// [`MemberHandle::recv_failure`].
    #[must_use]
    pub fn send_drops(&self) -> u64 {
        self.send_drops.load(Ordering::Relaxed)
    }

    fn note_failure(&self, event: &RuntimeEvent) {
        if let RuntimeEvent::RecvFailed(e) = event {
            let copy = std::io::Error::new(e.kind(), e.to_string());
            *self.recv_failure.lock().expect("recv_failure lock") = Some(copy);
        }
    }

    /// Initiates a voluntary leave (long-term buffers are handed off).
    pub fn leave(&self) {
        self.link().send(LoopCmd::Leave(self.slot));
    }

    #[cfg(test)]
    fn delivered_rx_test_inject(&self, event: RuntimeEvent) {
        self.test_delivered_tx.try_send(event).expect("inject test event");
    }

    /// Test hook: the member's protocol counters, read on its loop.
    #[cfg(test)]
    fn counters(&self) -> rrmp_core::metrics::Counters {
        let (tx, rx) = mpsc::sync_channel(1);
        self.link().send(LoopCmd::Counters(self.slot, tx));
        rx.recv_timeout(Duration::from_secs(5)).expect("the loop answers")
    }
}

impl Drop for MemberHandle {
    fn drop(&mut self) {
        if !self.shared.shutdown.load(Ordering::Relaxed) {
            self.link().send(LoopCmd::Remove(self.slot));
        }
        self.link().members.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrmp_netsim::topology::RegionId;
    use std::net::SocketAddr;

    fn bind_n(n: usize) -> Vec<(UdpSocket, SocketAddr)> {
        (0..n)
            .map(|_| {
                let s = UdpSocket::bind("127.0.0.1:0").expect("bind ephemeral");
                let a = s.local_addr().expect("local addr");
                (s, a)
            })
            .collect()
    }

    fn spec_single_region(addrs: &[SocketAddr]) -> GroupSpec {
        let mut spec = GroupSpec::new();
        for (i, &a) in addrs.iter().enumerate() {
            spec.add_member(NodeId(i as u32), a, RegionId(0));
        }
        spec
    }

    /// `loop_threads` loops with default pool and channel sizing.
    fn loops(loop_threads: usize) -> RuntimeConfig {
        RuntimeConfig { loop_threads, ..RuntimeConfig::default() }
    }

    /// Hosts node `i` on the `i`-th bound socket, node 0 as the sender,
    /// with seed `seed + i`.
    fn add_all(
        rt: &UdpRuntime,
        bound: Vec<(UdpSocket, SocketAddr)>,
        spec: &Arc<GroupSpec>,
        cfg: &ProtocolConfig,
        seed: u64,
    ) -> Vec<MemberHandle> {
        bound
            .into_iter()
            .enumerate()
            .map(|(i, (sock, _))| {
                let node = NodeId(i as u32);
                rt.add_member(sock, Arc::clone(spec), node, cfg.clone(), i == 0, seed + i as u64)
                    .expect("add member")
            })
            .collect()
    }

    fn fast_cfg() -> ProtocolConfig {
        // Short session interval so tail losses are detected quickly in
        // real time.
        ProtocolConfig {
            session_interval: rrmp_netsim::time::SimDuration::from_millis(30),
            ..ProtocolConfig::paper_defaults()
        }
    }

    #[test]
    fn lossless_multicast_over_real_sockets() {
        let bound = bind_n(3);
        let addrs: Vec<SocketAddr> = bound.iter().map(|(_, a)| *a).collect();
        let spec = Arc::new(spec_single_region(&addrs));
        // One loop per member: every datagram crosses threads.
        let rt = UdpRuntime::start(loops(3)).expect("start runtime");
        let nodes = add_all(&rt, bound, &spec, &fast_cfg(), 42);
        nodes[0].multicast(&b"over the wire"[..]);
        for (i, n) in nodes.iter().enumerate() {
            let d = n
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|| panic!("node {i} did not deliver"));
            assert_eq!(&d.payload[..], b"over the wire");
        }
        drop(nodes);
        rt.shutdown();
    }

    #[test]
    fn dropped_initial_multicast_recovers_via_protocol() {
        let bound = bind_n(4);
        let addrs: Vec<SocketAddr> = bound.iter().map(|(_, a)| *a).collect();
        let spec = Arc::new(spec_single_region(&addrs));
        let rt = UdpRuntime::start(loops(4)).expect("start runtime");
        let nodes = add_all(&rt, bound, &spec, &fast_cfg(), 77);
        // Node 3 misses every initial multicast; it must recover through
        // local requests answered by buffered copies.
        nodes[0].set_initial_drop(Some(|n: NodeId| n == NodeId(3)));
        nodes[0].multicast(&b"first"[..]);
        nodes[0].multicast(&b"second"[..]);
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < 2 && Instant::now() < deadline {
            if let Some(d) = nodes[3].recv_timeout(Duration::from_millis(200)) {
                got.push(d.payload);
            }
        }
        assert_eq!(got.len(), 2, "node 3 should recover both messages");
        got.sort();
        assert_eq!(got, [&b"first"[..], &b"second"[..]], "each recovers its own payload");
        drop(nodes);
        rt.shutdown();
    }

    #[test]
    fn many_members_share_few_loops() {
        // The tentpole path: one runtime, two loops, a whole group of
        // members multiplexed across them — deliveries reach everyone.
        const N: usize = 24;
        let bound = bind_n(N);
        let addrs: Vec<SocketAddr> = bound.iter().map(|(_, a)| *a).collect();
        let spec = Arc::new(spec_single_region(&addrs));
        let rt = UdpRuntime::start(RuntimeConfig {
            loop_threads: 2,
            pool_limit_bytes: DEFAULT_POOL_LIMIT,
            delivery_capacity: 64,
            trace_ring: Some(1024),
        })
        .expect("start runtime");
        let members = add_all(&rt, bound, &spec, &fast_cfg(), 0);
        assert_eq!(rt.loop_count(), 2);
        assert_eq!(rt.member_count(), N);
        // Least-loaded placement splits the group evenly.
        let on_first = members.iter().filter(|m| m.loop_idx == 0).count();
        assert_eq!(on_first, N / 2, "placement should balance across loops");
        members[0].multicast(&b"multiplexed"[..]);
        for (i, m) in members.iter().enumerate() {
            let d = m
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|| panic!("member {i} did not deliver"));
            assert_eq!(&d.payload[..], b"multiplexed");
        }
        // Steady-state receive went through the pool.
        let totals = rt.pool_snapshots();
        let hits: u64 = totals.iter().map(|s| s.hits).sum();
        let misses: u64 = totals.iter().map(|s| s.misses).sum();
        assert!(hits + misses > 0, "receive path must draw from the pool");
        // The runtime observer saw the loops wake for those datagrams,
        // and the armed trace carries the same story on the RUNTIME
        // stream.
        let health = rt.runtime_snapshots();
        assert_eq!(health.len(), 2);
        let wakeups: u64 = health.iter().map(|s| s.poll_wakeups).sum();
        assert!(wakeups > 0, "deliveries imply readable-socket wakeups");
        let events = rt.trace_events();
        assert!(!events.is_empty(), "armed loops must record wakeup events");
        assert!(events.iter().all(|e| e.stream == streams::RUNTIME));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::PollWakeup { ready } if ready > 0)));
        drop(members);
        rt.shutdown();
    }

    #[test]
    fn recovery_works_multiplexed_on_one_loop() {
        // Loss recovery where requester, repairer, and sender all share
        // one event-loop thread.
        let bound = bind_n(4);
        let addrs: Vec<SocketAddr> = bound.iter().map(|(_, a)| *a).collect();
        let spec = Arc::new(spec_single_region(&addrs));
        let rt = UdpRuntime::start(loops(1)).expect("start runtime");
        let members = add_all(&rt, bound, &spec, &fast_cfg(), 0);
        members[0].set_initial_drop(Some(|n: NodeId| n == NodeId(2)));
        members[0].multicast(&b"repair me"[..]);
        let d = members[2]
            .recv_timeout(Duration::from_secs(10))
            .expect("dropped member recovers via protocol");
        assert_eq!(&d.payload[..], b"repair me");
        drop(members);
        rt.shutdown();
    }

    #[test]
    fn buffered_payloads_do_not_pin_receive_slabs() {
        // Every member buffers all 300 messages for a while; a payload
        // that pointed into its receive slab would keep ≈600 slabs alive.
        let bound = bind_n(3);
        let addrs: Vec<SocketAddr> = bound.iter().map(|(_, a)| *a).collect();
        let spec = Arc::new(spec_single_region(&addrs));
        let rt = UdpRuntime::start(loops(3)).expect("start runtime");
        let members = add_all(&rt, bound, &spec, &fast_cfg(), 5);
        for i in 0..300u32 {
            let mut payload = [0u8; 64];
            payload[..4].copy_from_slice(&i.to_be_bytes());
            members[0].multicast(payload.to_vec());
        }
        for (i, m) in members.iter().enumerate() {
            for _ in 0..300 {
                let d = m
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|| panic!("member {i} did not deliver"));
                assert_eq!(d.payload.len(), 64);
            }
        }
        let bound = (2 * crate::batch::BATCH * DATAGRAM_MTU) as u64;
        for (i, s) in rt.pool_snapshots().iter().enumerate() {
            assert_eq!(s.forfeited, 0, "loop {i} released a slab still in use");
            assert!(s.high_water_bytes <= bound, "loop {i} peaked at {} B", s.high_water_bytes);
        }
        drop(members);
        rt.shutdown();
    }

    #[test]
    #[should_panic(expected = "invalid protocol config")]
    fn add_member_rejects_an_invalid_config() {
        let (sock, addr) = bind_n(1).pop().expect("one socket");
        let spec = spec_single_region(&[addr]);
        let rt = UdpRuntime::start(loops(1)).expect("start runtime");
        let cfg = ProtocolConfig { c: 0.0, ..ProtocolConfig::paper_defaults() };
        let _ = rt.add_member(sock, spec, NodeId(0), cfg, false, 1);
    }

    #[test]
    fn back_to_back_commands_are_each_answered_promptly() {
        // Each round trip needs its own knock: a loop that misses one
        // sleeps until its idle timeout (20 ms) before it answers.
        let bound = bind_n(1);
        let addrs: Vec<SocketAddr> = bound.iter().map(|(_, a)| *a).collect();
        let spec = Arc::new(spec_single_region(&addrs));
        let rt = UdpRuntime::start(loops(1)).expect("start runtime");
        let (sock, _) = bound.into_iter().next().expect("one socket");
        let member = rt
            .add_member(sock, spec, NodeId(0), ProtocolConfig::paper_defaults(), false, 1)
            .expect("add member");
        let start = Instant::now();
        for _ in 0..200 {
            let _ = member.counters();
        }
        let took = start.elapsed();
        assert!(took < Duration::from_secs(1), "200 round trips took {took:?}");
        drop(member);
        rt.shutdown();
    }

    #[test]
    fn removed_member_timers_are_lazily_cancelled() {
        // Dropping a handle removes the member; its pending session-tick
        // timers keep popping on the shared wheel and must be discarded
        // without disturbing the surviving members.
        let bound = bind_n(3);
        let addrs: Vec<SocketAddr> = bound.iter().map(|(_, a)| *a).collect();
        let spec = Arc::new(spec_single_region(&addrs));
        let rt = UdpRuntime::start(loops(1)).expect("start runtime");
        let mut members = add_all(&rt, bound, &spec, &fast_cfg(), 0);
        // Remove a receiver mid-flight.
        let removed = members.remove(2);
        drop(removed);
        assert_eq!(rt.member_count(), 2);
        // The survivors keep working across several timer generations.
        members[0].multicast(&b"after removal"[..]);
        let d = members[1].recv_timeout(Duration::from_secs(5)).expect("survivor delivers");
        assert_eq!(&d.payload[..], b"after removal");
        std::thread::sleep(Duration::from_millis(150));
        members[0].multicast(&b"still alive"[..]);
        let d = members[1].recv_timeout(Duration::from_secs(5)).expect("survivor still delivers");
        assert_eq!(&d.payload[..], b"still alive");
        drop(members);
        rt.shutdown();
    }

    #[test]
    fn transient_recv_errors_are_retried_forever() {
        // ICMP feedback and EINTR must never count toward the fatal
        // streak — a group member restarting is routine, not a socket
        // death.
        for kind in [
            std::io::ErrorKind::Interrupted,
            std::io::ErrorKind::ConnectionRefused,
            std::io::ErrorKind::ConnectionReset,
        ] {
            assert!(recv_error_is_transient(kind), "{kind:?} should be retried");
        }
        for kind in [
            std::io::ErrorKind::NotConnected,
            std::io::ErrorKind::BrokenPipe,
            std::io::ErrorKind::InvalidInput,
            std::io::ErrorKind::Other,
        ] {
            assert!(!recv_error_is_transient(kind), "{kind:?} should be bounded");
        }
    }

    #[test]
    fn recv_backoff_is_bounded() {
        assert_eq!(recv_backoff(1), Duration::from_millis(2));
        // The cap keeps the loop responsive no matter how long the error
        // streak runs.
        for streak in 0..64 {
            assert!(recv_backoff(streak) <= Duration::from_millis(32));
        }
    }

    #[test]
    fn outbox_counts_unaddressable_sends_as_drops() {
        use rrmp_core::ids::{MessageId, SeqNo};
        let drops = AtomicU64::new(0);
        let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
        // A spec that knows only node 0: every other destination is
        // unaddressable and must be counted, not silently skipped.
        let mut spec = GroupSpec::new();
        spec.add_member(NodeId(0), sock.local_addr().unwrap(), RegionId(0));
        let loop_stats = Arc::new(RuntimeStats::default());
        let mut outbox = Outbox::new(Arc::clone(&loop_stats));
        let packet = Packet::LocalRequest { msg: MessageId::new(NodeId(9), SeqNo(1)) };
        outbox.send(&sock, &spec, &drops, NodeId(9), &packet);
        assert_eq!(drops.load(Ordering::Relaxed), 1, "unaddressable unicast counts");
        // Fan-out to two unknown members (self is excluded, not dropped).
        outbox.fan_out(
            &sock,
            &spec,
            NodeId(0),
            &drops,
            &packet,
            &mut [NodeId(0), NodeId(7), NodeId(8)].into_iter(),
            &|_| true,
        );
        assert_eq!(drops.load(Ordering::Relaxed), 3, "unaddressable fan-out legs count");
        // Every member-level drop also folds into the loop-wide counter.
        assert_eq!(loop_stats.snapshot().send_drops, 3, "loop fold mirrors member drops");
    }

    #[test]
    fn send_many_skips_self_and_counts_unaddressable_targets() {
        use rrmp_core::history::{DigestEntry, HistoryDigest};
        use rrmp_core::ids::SeqNo;
        let bound = bind_n(3);
        let addrs: Vec<SocketAddr> = bound.iter().map(|(_, a)| *a).collect();
        let spec = Arc::new(spec_single_region(&addrs));
        let mut sockets = bound.into_iter().map(|(s, _)| s);
        let own = sockets.next().expect("node 0's socket");
        let peers: Vec<UdpSocket> = sockets.collect();
        let drops = Arc::new(AtomicU64::new(0));
        let (delivered_tx, _delivered_rx) = mpsc::sync_channel(1);
        let slot = MemberSlot {
            socket: own,
            spec: Arc::clone(&spec),
            node: NodeId(0),
            receiver: Receiver::new(NodeId(0), spec.view_for(NodeId(0)), fast_cfg(), 1),
            delivered_tx,
            initial_drop: None,
            send_drops: Arc::clone(&drops),
            error_streak: 0,
            muted: false,
            dead: false,
        };
        let mut outbox = Outbox::new(Arc::new(RuntimeStats::default()));
        let digest = HistoryDigest {
            entries: vec![DigestEntry { source: NodeId(0), intervals: vec![(SeqNo(1), SeqNo(3))] }],
        };
        let packet = Packet::History { digest: Arc::new(digest) };
        // The list names this member, both peers, and node 9, which the
        // spec cannot address.
        let mut actions = vec![Action::SendMany {
            to: Arc::from([NodeId(0), NodeId(1), NodeId(9), NodeId(2)]),
            packet: Box::new(packet.clone()),
        }];
        execute(&mut actions, &mut outbox, &mut TimerWheel::new(), 0, &slot, SimTime::ZERO, None);
        assert_eq!(drops.load(Ordering::Relaxed), 1, "the unaddressable target is a counted drop");
        let mut buf = [0u8; DATAGRAM_MTU];
        for peer in &peers {
            peer.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
            let (n, from) = peer.recv_from(&mut buf).expect("every peer gets the digest");
            assert_eq!(from, addrs[0]);
            assert_eq!(Packet::decode(Bytes::copy_from_slice(&buf[..n])), Ok(packet.clone()));
        }
        // Both peers' copies left in the same batch; a copy to self would
        // be queued by now.
        slot.socket.set_nonblocking(true).expect("nonblocking");
        let own_read = slot.socket.recv_from(&mut buf).map_err(|e| e.kind());
        assert_eq!(own_read.err(), Some(std::io::ErrorKind::WouldBlock), "no self-send");
    }

    #[test]
    fn stability_history_reaches_every_member_over_loopback() {
        // The one UDP test of a history policy: six members on two loops
        // exchange real digest datagrams (encode once, fan-out, recvmmsg,
        // decode) and, once each has heard all five peers advertise the
        // message, discard it as stable.
        const N: usize = 6;
        let bound = bind_n(N);
        let addrs: Vec<SocketAddr> = bound.iter().map(|(_, a)| *a).collect();
        let spec = Arc::new(spec_single_region(&addrs));
        let cfg = ProtocolConfig {
            policy: rrmp_core::policy::PolicyKind::Stability,
            session_interval: rrmp_netsim::time::SimDuration::from_millis(30),
            ..ProtocolConfig::paper_defaults()
        };
        let rt = UdpRuntime::start(loops(2)).expect("start runtime");
        let members = add_all(&rt, bound, &spec, &cfg, 0);
        members[0].set_initial_drop(Some(|n: NodeId| n == NodeId(3)));
        members[0].multicast(&b"until stable"[..]);
        for (i, m) in members.iter().enumerate() {
            let d = m
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|| panic!("member {i} did not deliver"));
            assert_eq!(&d.payload[..], b"until stable");
        }
        // A member discards the message as stable only after decoding a
        // digest that covers it from each of its N - 1 peers.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let counters: Vec<_> = members.iter().map(MemberHandle::counters).collect();
            if counters.iter().all(|c| c.stable_discards == 1) {
                break;
            }
            let heard: Vec<_> =
                counters.iter().map(|c| (c.history_digests_received, c.stable_discards)).collect();
            assert!(Instant::now() < deadline, "(digests, stable discards) per member: {heard:?}");
            std::thread::sleep(Duration::from_millis(50));
        }
        assert!(members.iter().all(|m| m.send_drops() == 0));
        drop(members);
        rt.shutdown();
    }

    #[test]
    fn recv_failed_event_is_recorded_on_the_plain_surface() {
        let bound = bind_n(1);
        let addrs: Vec<SocketAddr> = bound.iter().map(|(_, a)| *a).collect();
        let spec = Arc::new(spec_single_region(&addrs));
        let rt = UdpRuntime::start(loops(1)).expect("start runtime");
        let node = add_all(&rt, bound, &spec, &fast_cfg(), 7).remove(0);
        assert_eq!(node.recv_failure(), None);
        assert_eq!(node.send_drops(), 0);
        // Inject a failure the way the event loop would surface one.
        node.delivered_rx_test_inject(RuntimeEvent::RecvFailed(std::io::Error::new(
            std::io::ErrorKind::NotConnected,
            "socket died",
        )));
        assert!(node.try_recv().is_none());
        assert_eq!(node.recv_failure(), Some(std::io::ErrorKind::NotConnected));
        drop(node);
        rt.shutdown();
    }
}
