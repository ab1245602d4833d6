//! Layer probes: each drives one layer's public API directly, from here,
//! and returns nanoseconds per operation. The traced run multiplies these
//! by the operation counts the workload's own public counters reported to
//! say where the run's time went. Nothing in the library is instrumented.

use std::hint::black_box;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use rrmp_core::history::{HistoryDigest, StabilityTracker};
use rrmp_core::ids::{MessageId, SeqNo};
use rrmp_core::interval_set::IntervalSet;
use rrmp_core::packet::{DataPacket, Packet, RepairKind};
use rrmp_core::prelude::{Action, Event, MessageStore, ProtocolConfig, Receiver};
use rrmp_membership::view::HierarchyView;
use rrmp_netsim::event::EventQueue;
use rrmp_netsim::fault::FaultPlan;
use rrmp_netsim::loss::{DeliveryPlan, LossModel};
use rrmp_netsim::shard::ShardedSim;
use rrmp_netsim::sim::{Ctx, Sim, SimNode};
use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::{presets, NodeId, RegionId, Topology};
use rrmp_trace::{streams, EventKind, LogHistogram, TraceSink};
use rrmp_udp::{send_to_many, BufferPool, GroupSpec, PollSet, RecvBatcher, SizeClass};

/// Nanoseconds per operation of `f`, which performs `ops` operations.
fn ns_per_op(ops: usize, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

fn mid(seq: u64) -> MessageId {
    MessageId::new(NodeId(0), SeqNo(seq))
}

// ----- netsim.event ------------------------------------------------------------

pub struct EventQueueNs {
    pub schedule: f64,
    pub pop: f64,
    /// `schedule` at a tick the wheel's cursor already passed, averaged
    /// over a same-instant batch of `past_batch` entries — the path every
    /// event takes once a queue ran dry and its cursor moved on to a
    /// far-future entry.
    pub schedule_past: f64,
}

/// `past_batch`: the members one engine hosts, the size of the
/// same-instant batch a group-wide multicast schedules on it.
pub fn event_queue(past_batch: usize) -> EventQueueNs {
    const N: usize = 1 << 18;
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = 0x243F_6A88_85A3_08D3u64;
    // Simulator-shaped delays: a few to a few tens of milliseconds ahead.
    let times: Vec<SimTime> =
        (0..N).map(|_| SimTime::from_micros(5_000 + lcg(&mut rng) % 45_000)).collect();
    let schedule = ns_per_op(N, || {
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i as u64);
        }
    });
    let pop = ns_per_op(N, || while black_box(q.pop()).is_some() {});

    let mut q: EventQueue<u64> = EventQueue::new();
    q.schedule(SimTime::from_secs(1), 0);
    q.schedule(SimTime::from_secs(2), 0);
    black_box(q.pop()); // the cursor now stands at the 2 s event
    let schedule_past = ns_per_op(past_batch, || {
        for i in 0..past_batch {
            q.schedule(SimTime::from_millis(1_500), i as u64);
        }
    });
    EventQueueNs { schedule, pop, schedule_past }
}

// ----- netsim.sim / netsim.shard ----------------------------------------------------

/// A node that does no protocol work: every millisecond it re-arms its
/// timer and sends the workload's share of unicasts to the next node.
struct NullNode {
    unicasts_per_timer: f64,
    credit: f64,
}

impl SimNode for NullNode {
    type Msg = Bytes;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Bytes>) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_, Bytes>, _from: NodeId, _msg: Bytes) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Bytes>, _token: u64) {
        self.credit += self.unicasts_per_timer;
        while self.credit >= 1.0 {
            self.credit -= 1.0;
            let n = ctx.topology().node_count() as u32;
            ctx.send(NodeId((ctx.self_id().0 + 1) % n), Bytes::new());
        }
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }
}

/// ns per event of the engine itself hosting [`NullNode`]s that issue
/// `unicasts_per_timer` sends per timer (the workload's measured mix), on
/// `shards` shards (`None`: the unsharded `Sim`).
pub fn null_node_ns_per_event(
    topo: &Topology,
    shards: Option<usize>,
    unicasts_per_timer: f64,
) -> f64 {
    const TARGET_EVENTS: f64 = 1_500_000.0;
    let nodes = topo.node_count();
    let make = || -> Vec<NullNode> {
        (0..nodes).map(|_| NullNode { unicasts_per_timer, credit: 0.0 }).collect()
    };
    let rounds = (TARGET_EVENTS / (nodes as f64 * (1.0 + unicasts_per_timer))).ceil().max(2.0);
    let horizon = SimTime::from_millis(rounds as u64);
    let start = Instant::now();
    let events = match shards {
        None => {
            let mut sim = Sim::new(topo.clone(), make(), 1);
            sim.run_until(horizon);
            sim.counters().events_processed
        }
        Some(n) => {
            let mut sim = ShardedSim::new(topo.clone(), make(), 1, n);
            sim.run_until(horizon);
            sim.counters().events_processed
        }
    };
    start.elapsed().as_nanos() as f64 / events.max(1) as f64
}

// ----- netsim.loss / netsim.fault / netsim.topology / membership.view ---------------

pub fn loss_plan_ns_per_member(topo: &Topology) -> f64 {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let model = LossModel::RegionCorrelated { p_region: 0.25, p_member: 0.05 };
    let reps = (200_000 / topo.node_count()).max(1);
    ns_per_op(reps * topo.node_count(), || {
        for _ in 0..reps {
            black_box(DeliveryPlan::from_model(topo, NodeId(0), &model, &mut rng));
        }
    })
}

pub fn fault_drops_ns(topo: &Topology, plan: &FaultPlan) -> f64 {
    const N: usize = 1 << 20;
    let n = topo.node_count() as u32;
    ns_per_op(N, || {
        for i in 0..N as u32 {
            let now = SimTime::from_micros(u64::from(i) * 40);
            black_box(plan.drops(now, NodeId(i % n), NodeId((i + 1) % n), topo));
        }
    })
}

pub fn view_from_topology_ns(topo: &Topology) -> f64 {
    let n = topo.node_count().min(4_096);
    ns_per_op(n, || {
        for i in 0..n as u32 {
            black_box(HierarchyView::from_topology(topo, NodeId(i)));
        }
    })
}

// ----- core.receiver ----------------------------------------------------------------

pub struct ReceiverNs {
    pub data: f64,
    pub request: f64,
    pub repair: f64,
    pub session: f64,
    pub timer: f64,
}

/// A bench-owned receiver (member 1 of a `region`-member region) fed a
/// scripted stream through `handle_into` with one reused action buffer.
/// The script runs in rounds of `window` messages — fresh data, requests
/// for it, repairs of the next `window` messages, session advertisements
/// with nothing missing, then every timer the receiver asked for — so its
/// buffer holds about as many entries as the workload's receivers did.
pub fn receiver(cfg: &ProtocolConfig, region: usize, window: usize, payload: &Bytes) -> ReceiverNs {
    const ROUNDS: u64 = 200;
    let w = window.clamp(8, 4_096) as u64;
    let topo = presets::paper_region(region.clamp(2, 4_096));
    let view = HierarchyView::from_topology(&topo, NodeId(1));
    let mut cfg = cfg.clone();
    cfg.policy = rrmp_core::policy::PolicyKind::TwoPhase;
    let mut rx = Receiver::new(NodeId(1), view, cfg, 9);
    let mut actions: Vec<Action> = Vec::with_capacity(8);
    let mut timers: Vec<(SimTime, rrmp_core::prelude::TimerKind)> = Vec::new();
    let mut now = SimTime::ZERO;
    let step = SimDuration::from_micros(500);
    let from = NodeId(0);
    let (mut data, mut request, mut repair, mut session, mut timer) =
        (0u128, 0u128, 0u128, 0u128, 0u128);
    let mut fired = 0u64;
    let keep_timers = |actions: &mut Vec<Action>, now: SimTime, timers: &mut Vec<_>| {
        for a in actions.drain(..) {
            if let Action::SetTimer { delay, kind } = a {
                timers.push((now + delay, kind));
            }
        }
    };
    for round in 0..ROUNDS {
        let base = round * 2 * w;
        let t = Instant::now();
        for seq in base + 1..=base + w {
            now += step;
            let packet = Packet::Data(DataPacket::new(mid(seq), payload.clone()));
            rx.handle_into(Event::Packet { from, packet }, now, &mut actions);
            keep_timers(&mut actions, now, &mut timers);
        }
        data += t.elapsed().as_nanos();
        let t = Instant::now();
        for seq in base + 1..=base + w {
            let packet = Packet::LocalRequest { msg: mid(seq) };
            rx.handle_into(Event::Packet { from: NodeId(2), packet }, now, &mut actions);
            keep_timers(&mut actions, now, &mut timers);
        }
        request += t.elapsed().as_nanos();
        let t = Instant::now();
        for seq in base + w + 1..=base + 2 * w {
            now += step;
            let data = DataPacket::new(mid(seq), payload.clone());
            let packet = Packet::Repair { data, kind: RepairKind::Local };
            rx.handle_into(Event::Packet { from: NodeId(2), packet }, now, &mut actions);
            keep_timers(&mut actions, now, &mut timers);
        }
        repair += t.elapsed().as_nanos();
        let t = Instant::now();
        for _ in 0..w {
            let packet = Packet::Session { source: from, high: SeqNo(base + 2 * w) };
            rx.handle_into(Event::Packet { from, packet }, now, &mut actions);
            keep_timers(&mut actions, now, &mut timers);
        }
        session += t.elapsed().as_nanos();
        // Fire what came due by the end of the round (timers that re-arm
        // themselves stay for the next one).
        let due_by = now + SimDuration::from_secs(1);
        timers.sort_by_key(|&(at, _)| at);
        let due = timers.partition_point(|&(at, _)| at <= due_by);
        let batch: Vec<_> = timers.drain(..due).collect();
        let t = Instant::now();
        for (at, kind) in batch {
            now = now.max(at);
            rx.handle_into(Event::Timer(kind), now, &mut actions);
            keep_timers(&mut actions, now, &mut timers);
            fired += 1;
        }
        timer += t.elapsed().as_nanos();
    }
    let per = |ns: u128, ops: u64| ns as f64 / ops.max(1) as f64;
    ReceiverNs {
        data: per(data, ROUNDS * w),
        request: per(request, ROUNDS * w),
        repair: per(repair, ROUNDS * w),
        session: per(session, ROUNDS * w),
        timer: per(timer, fired),
    }
}

// ----- core.buffer ------------------------------------------------------------------

pub struct BufferNs {
    pub insert_short: f64,
    pub promote: f64,
    pub discard: f64,
    pub get: f64,
    pub expire_sweep_per_entry: f64,
}

/// `MessageStore` operations at the workload's occupancy: rounds of
/// `window` inserts, reads, one promotion in eight, and discards, with a
/// sweep expiring the promoted entries every 64 rounds.
pub fn buffer(window: usize, payload: &Bytes) -> BufferNs {
    const ROUNDS: u64 = 1_024;
    let w = window.clamp(8, 4_096) as u64;
    let mut store = MessageStore::new();
    let mut now = SimTime::from_millis(1);
    let (mut insert, mut get, mut promote, mut discard, mut sweep) =
        (0u128, 0u128, 0u128, 0u128, 0u128);
    let mut swept = 0usize;
    let mut expired = Vec::new();
    for round in 0..ROUNDS {
        let ids = round * w + 1..=round * w + w;
        let t = Instant::now();
        for seq in ids.clone() {
            black_box(store.insert_short(mid(seq), payload.clone(), now));
        }
        insert += t.elapsed().as_nanos();
        let t = Instant::now();
        for seq in ids.clone() {
            black_box(store.get(mid(seq)));
        }
        get += t.elapsed().as_nanos();
        let t = Instant::now();
        for seq in ids.clone().step_by(8) {
            black_box(store.promote_to_long(mid(seq), now));
        }
        promote += t.elapsed().as_nanos();
        let t = Instant::now();
        for seq in ids.filter(|s| (s - 1) % 8 != 0) {
            black_box(store.discard(mid(seq), now));
        }
        discard += t.elapsed().as_nanos();
        now += SimDuration::from_secs(1);
        if round % 64 == 63 {
            let t = Instant::now();
            store.expire_long_into(
                now + SimDuration::from_secs(60),
                SimDuration::from_secs(30),
                &mut expired,
            );
            sweep += t.elapsed().as_nanos();
            swept += expired.len();
            expired.clear();
        }
    }
    let per = |ns: u128, ops: u64| ns as f64 / ops.max(1) as f64;
    let promoted = ROUNDS * w.div_ceil(8);
    BufferNs {
        insert_short: per(insert, ROUNDS * w),
        promote: per(promote, promoted),
        discard: per(discard, ROUNDS * w - promoted),
        get: per(get, ROUNDS * w),
        expire_sweep_per_entry: per(sweep, swept as u64),
    }
}

// ----- core.packet ------------------------------------------------------------------

#[derive(Clone, Copy)]
pub struct PacketNs {
    pub encode_data: f64,
    pub decode_data: f64,
    pub encode_ctrl: f64,
    pub decode_ctrl: f64,
}

pub fn packet(payload: &Bytes) -> PacketNs {
    const N: usize = 100_000;
    let mut buf = BytesMut::with_capacity(2_048);
    let timed = |p: &Packet, buf: &mut BytesMut| {
        let encode = ns_per_op(N, || {
            for _ in 0..N {
                buf.clear();
                p.encode_into(buf);
                black_box(buf.len());
            }
        });
        let wire = p.encode();
        let decode = ns_per_op(N, || {
            for _ in 0..N {
                black_box(Packet::decode(wire.clone()).expect("round trip"));
            }
        });
        (encode, decode)
    };
    let (encode_data, decode_data) =
        timed(&Packet::Data(DataPacket::new(mid(7), payload.clone())), &mut buf);
    let (encode_ctrl, decode_ctrl) = timed(&Packet::LocalRequest { msg: mid(7) }, &mut buf);
    PacketNs { encode_data, decode_data, encode_ctrl, decode_ctrl }
}

// ----- core.interval_set / core.history ---------------------------------------------

pub struct HistoryNs {
    pub interval_insert: f64,
    pub interval_contains: f64,
    pub digest_build: f64,
    pub tracker_record: f64,
}

pub fn history(cfg: &ProtocolConfig, payload: &Bytes) -> HistoryNs {
    const N: u64 = 200_000;
    let mut set = IntervalSet::new();
    let mut rng = 5u64;
    // Mostly in-order arrivals with one in sixteen skipped then filled.
    let order: Vec<u64> = (1..=N).map(|v| if v % 16 == 0 { v + 1 } else { v }).collect();
    let interval_insert = ns_per_op(order.len(), || {
        for &v in &order {
            black_box(set.insert(v));
        }
    });
    let interval_contains = ns_per_op(N as usize, || {
        for _ in 0..N {
            black_box(set.contains(1 + lcg(&mut rng) % N));
        }
    });

    // A receiver that saw 1,000 messages supplies the detector to digest.
    let topo = presets::paper_region(100);
    let view = HierarchyView::from_topology(&topo, NodeId(1));
    let mut rx = Receiver::new(NodeId(1), view, cfg.clone(), 9);
    let mut actions = Vec::new();
    for seq in 1..=1_000 {
        let packet = Packet::Data(DataPacket::new(mid(seq), payload.clone()));
        rx.handle_into(
            Event::Packet { from: NodeId(0), packet },
            SimTime::from_millis(seq),
            &mut actions,
        );
        actions.clear();
    }
    const D: usize = 100_000;
    let digest_build = ns_per_op(D, || {
        for _ in 0..D {
            black_box(HistoryDigest::from_detector(rx.detector()));
        }
    });
    let digest = HistoryDigest::from_detector(rx.detector());
    let members: Vec<NodeId> = topo.nodes().collect();
    let mut tracker = StabilityTracker::with_members(&members);
    let tracker_record = ns_per_op(D, || {
        for i in 0..D as u32 {
            tracker.record(NodeId(i % 100), &digest);
        }
    });
    HistoryNs { interval_insert, interval_contains, digest_build, tracker_record }
}

// ----- trace ------------------------------------------------------------------------

pub struct TraceNs {
    pub sink_record: f64,
    pub hist_record: f64,
}

pub fn trace() -> TraceNs {
    const N: usize = 1_000_000;
    let mut sink = TraceSink::new(4_096);
    let sink_record = ns_per_op(N, || {
        for i in 0..N as u64 {
            sink.record(i, (i % 100) as u32, streams::RECEIVER, EventKind::Delivered);
        }
    });
    black_box(sink.len());
    let mut hist = LogHistogram::new();
    let mut rng = 3u64;
    let hist_record = ns_per_op(N, || {
        for _ in 0..N {
            hist.record(lcg(&mut rng) % 1_000_000);
        }
    });
    black_box(hist.count());
    TraceNs { sink_record, hist_record }
}

// ----- udp.batch / udp.pool / udp.group ---------------------------------------------

pub struct UdpNs {
    pub poll_wait_at_n_fds: f64,
    pub recv_batch_per_datagram: f64,
    pub send_to_many_per_datagram: f64,
    pub pool_acquire: f64,
    pub pool_release: f64,
    pub group_view_for: f64,
}

pub fn udp(members: usize, payload_bytes: usize) -> UdpNs {
    let bind = || {
        let s = UdpSocket::bind("127.0.0.1:0").expect("bind probe socket");
        s.set_nonblocking(true).expect("nonblocking");
        s
    };
    let sockets: Vec<UdpSocket> = (0..members).map(|_| bind()).collect();
    let addrs: Vec<SocketAddr> =
        sockets.iter().map(|s| s.local_addr().expect("local addr")).collect();
    let sender = bind();
    let payload = vec![0xA5u8; payload_bytes + 32]; // payload plus the data header

    // poll(2) over the workload's member count with one socket readable.
    let mut set = PollSet::new();
    for s in &sockets {
        set.register(s);
    }
    sender.send_to(&payload, addrs[members / 2]).expect("send");
    const WAITS: usize = 2_000;
    let poll_wait_at_n_fds = ns_per_op(WAITS, || {
        for _ in 0..WAITS {
            black_box(set.wait(Duration::ZERO).expect("poll"));
        }
    });

    // sendmmsg fan-out in full batches, then recvmmsg of what arrived.
    const ROUNDS: usize = 200;
    let batch = &addrs[..rrmp_udp::batch::BATCH.min(members)];
    let mut pool = BufferPool::new(8 << 20);
    let mut batcher = RecvBatcher::new();
    let (mut sent, mut received) = (0usize, 0usize);
    let (mut send_ns, mut recv_ns) = (0u128, 0u128);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        sent += send_to_many(&sender, &payload, batch);
        send_ns += t.elapsed().as_nanos();
        for s in &sockets[..batch.len()] {
            let t = Instant::now();
            let got = batcher.recv_batch(s, &mut pool).unwrap_or(0);
            let drained: Vec<_> = batcher.drain().collect();
            recv_ns += t.elapsed().as_nanos();
            received += got;
            for (bytes, _, class) in drained {
                pool.release(class, bytes);
            }
        }
    }
    batcher.park(&mut pool);

    const SLABS: usize = 100_000;
    let class = SizeClass::for_len(payload.len());
    let mut pool = BufferPool::new(8 << 20);
    let mut held = Vec::with_capacity(64);
    let (mut acquire_ns, mut release_ns) = (0u128, 0u128);
    for _ in 0..SLABS / 64 {
        let t = Instant::now();
        for _ in 0..64 {
            held.push(pool.acquire(class));
        }
        acquire_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        for slab in held.drain(..) {
            pool.release(class, slab.freeze());
        }
        release_ns += t.elapsed().as_nanos();
    }

    let mut spec = GroupSpec::new();
    for (i, a) in addrs.iter().enumerate() {
        spec.add_member(NodeId(i as u32), *a, RegionId(0));
    }
    let views = members.min(200);
    let group_view_for = ns_per_op(views, || {
        for i in 0..views as u32 {
            black_box(spec.view_for(NodeId(i)));
        }
    });

    UdpNs {
        poll_wait_at_n_fds,
        recv_batch_per_datagram: recv_ns as f64 / received.max(1) as f64,
        send_to_many_per_datagram: send_ns as f64 / sent.max(1) as f64,
        pool_acquire: acquire_ns as f64 / SLABS as f64,
        pool_release: release_ns as f64 / SLABS as f64,
        group_view_for,
    }
}
