//! The two UDP workloads: a real `UdpRuntime` group on the host's
//! loopback interface (no packet crosses a real link), one event loop,
//! and one generator thread that both multicasts and drains every
//! member's delivery channel.
//!
//! The stream is a closed loop with four messages in flight: message `k`
//! is multicast once message `k - 4` reached every member that gets
//! initial copies. The last `lossy` members miss every initial copy and
//! recover through the protocol, concurrently with later messages.

use std::net::UdpSocket;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rrmp_core::prelude::ProtocolConfig;
use rrmp_netsim::rng::SeedSequence;
use rrmp_netsim::time::SimDuration;
use rrmp_netsim::topology::{NodeId, RegionId};
use rrmp_udp::{GroupSpec, MemberHandle, PoolSnapshot, RuntimeConfig, RuntimeSnapshot, UdpRuntime};

use crate::measure::{cpu_seconds, Spans};
use crate::Size;

/// Messages multicast and fully delivered before anything is timed: they
/// fill the buffer pool and bring the protocol to its session rhythm.
pub const WARMUP_MESSAGES: usize = 32;
/// Messages in flight in the closed loop.
const WINDOW: usize = 4;
/// The catch-up phase gives up after this long without a delivery.
const QUIET_LIMIT: Duration = Duration::from_secs(3);
/// A run that makes no progress for this long is a failed run, not a hang.
const STALL_LIMIT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy)]
pub struct UdpSpec {
    pub members: usize,
    /// Members at the tail of the group that miss every initial copy.
    pub lossy: usize,
    pub payload_bytes: usize,
    pub messages: usize,
}

pub fn spec(workload: &str, size: Size) -> UdpSpec {
    match workload {
        "udp_fanout_1k" => UdpSpec {
            members: 1_000,
            lossy: 20,
            payload_bytes: 1_024,
            messages: size.messages(600),
        },
        "udp_repair_64b" => {
            UdpSpec { members: 200, lossy: 20, payload_bytes: 64, messages: size.messages(2_000) }
        }
        other => panic!("not a UDP workload: {other}"),
    }
}

/// The protocol timing `runtime_udp_bench` established for real sockets:
/// a relaxed session interval so the sender's session fan-out does not
/// dominate a large group, and an idle threshold that leaves
/// `session_interval + rtt < idle_threshold` real scheduling margin.
pub fn protocol_config() -> ProtocolConfig {
    ProtocolConfig::builder()
        .session_interval(SimDuration::from_millis(150))
        .idle_threshold(SimDuration::from_millis(400))
        .build()
        .expect("valid config")
}

pub struct Group {
    rt: UdpRuntime,
    members: Vec<MemberHandle>,
    /// ns per `UdpRuntime::add_member` call during set-up.
    pub add_member_ns: f64,
}

impl Group {
    /// Binds one loopback socket per member, starts a one-loop runtime
    /// and registers every member. This is what `setup_s` times.
    pub fn start(spec: &UdpSpec, seed: u64) -> Group {
        let sockets: Vec<UdpSocket> = (0..spec.members)
            .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind member socket"))
            .collect();
        let mut group = GroupSpec::new();
        for (i, s) in sockets.iter().enumerate() {
            group.add_member(NodeId(i as u32), s.local_addr().expect("local addr"), RegionId(0));
        }
        let group = Arc::new(group);
        let rt = UdpRuntime::start(RuntimeConfig {
            loop_threads: 1,
            pool_limit_bytes: (spec.members * (WARMUP_MESSAGES + 4) * 2048).max(32 << 20),
            // Deep enough that a recovering member's burst of repairs is
            // never shed; the run fails its check if one is.
            delivery_capacity: 256,
            trace_ring: None,
        })
        .expect("start runtime");
        let cfg = protocol_config();
        let seeds = SeedSequence::new(seed);
        let adding = Instant::now();
        let members: Vec<MemberHandle> = sockets
            .into_iter()
            .enumerate()
            .map(|(i, sock)| {
                rt.add_member(
                    sock,
                    Arc::clone(&group),
                    NodeId(i as u32),
                    cfg.clone(),
                    i == 0,
                    seeds.subseed(i as u64),
                )
                .expect("add member")
            })
            .collect();
        let add_member_ns = adding.elapsed().as_nanos() as f64 / spec.members as f64;
        let cutoff = (spec.members - spec.lossy) as u32;
        members[0].set_initial_drop(Some(move |n: NodeId| n.0 >= cutoff));
        Group { rt, members, add_member_ns }
    }

    pub fn stop(self) {
        drop(self.members);
        self.rt.shutdown();
    }

    pub fn pool(&self) -> PoolSnapshot {
        self.rt.pool_snapshots()[0]
    }

    pub fn runtime(&self) -> RuntimeSnapshot {
        self.rt.runtime_snapshots()[0]
    }

    /// Local failures the run must not have: shed or unsent output, dead
    /// receive paths.
    pub fn check(&self) -> Result<(), String> {
        let drops: u64 = self.members.iter().map(MemberHandle::send_drops).sum();
        if drops != 0 || self.runtime().send_drops != 0 {
            return Err(format!("send_drops = {drops}"));
        }
        if self.runtime().recv_failures != 0
            || self.members.iter().any(|m| m.recv_failure().is_some())
        {
            return Err("a member's receive path failed (RecvFailed)".into());
        }
        Ok(())
    }
}

/// What one stream of `count` messages produced.
#[derive(Debug, Default)]
pub struct Streamed {
    pub attempted: u64,
    pub delivered: u64,
    /// Stream phase: first multicast until every initial-copy member has
    /// every message.
    pub run_s: f64,
    pub cpu_s: f64,
    pub delivered_in_stream: u64,
    /// Wall µs from `multicast()` to `try_recv`, initial-copy members.
    pub delivery_us: Vec<u32>,
    /// The same for members that missed the initial copy.
    pub recovery_us: Vec<u32>,
    /// ns spent inside `multicast()` calls and inside drain passes.
    pub multicast_ns: u64,
    pub drain_ns: u64,
}

/// Streams messages `first .. first + count` (sender sequence numbers
/// `first + 1 ..`) through the group and drains them.
pub fn stream(
    group: &Group,
    spec: &UdpSpec,
    first: usize,
    count: usize,
    body: &[u8],
    spans: &mut Spans,
) -> Result<Streamed, String> {
    let members = &group.members;
    let initial = spec.members - spec.lossy;
    let mut out = Streamed {
        attempted: (spec.members * count) as u64,
        delivery_us: Vec::with_capacity(initial * count),
        recovery_us: Vec::with_capacity(spec.lossy * count),
        ..Streamed::default()
    };
    let mut seen = vec![false; spec.members * count];
    let mut initial_got = vec![0usize; count];
    let mut complete = 0usize; // messages every initial-copy member has
    let mut sent = 0usize;
    let epoch = Instant::now();
    let cpu0 = cpu_seconds();
    let mut last_progress = Instant::now();
    let mut stream_done = false;
    let mut payload = body.to_vec();

    spans.enter("stream");
    loop {
        while sent < count && sent < complete + WINDOW {
            let stamp = epoch.elapsed().as_nanos() as u64;
            payload[..8].copy_from_slice(&stamp.to_le_bytes());
            spans.enter("udp.runtime.multicast");
            members[0].multicast(Bytes::from(payload.clone()));
            spans.exit();
            out.multicast_ns += epoch.elapsed().as_nanos() as u64 - stamp;
            sent += 1;
        }

        spans.enter("udp.runtime.drain");
        let before = out.delivered;
        let pass_start = epoch.elapsed().as_nanos() as u64;
        for (i, m) in members.iter().enumerate() {
            while let Some(d) = m.try_recv() {
                let now = epoch.elapsed().as_nanos() as u64;
                let k = (d.id.seq.value() as usize)
                    .checked_sub(first + 1)
                    .filter(|&k| k < count)
                    .ok_or_else(|| format!("member {i} delivered stray message {}", d.id))?;
                if std::mem::replace(&mut seen[k * spec.members + i], true) {
                    return Err(format!("member {i} delivered message {k} twice"));
                }
                let stamp = u64::from_le_bytes(d.payload[..8].try_into().expect("8-byte stamp"));
                let us = (now.saturating_sub(stamp) / 1_000).min(u64::from(u32::MAX)) as u32;
                out.delivered += 1;
                if i < initial {
                    out.delivery_us.push(us);
                    initial_got[k] += 1;
                } else {
                    out.recovery_us.push(us);
                }
            }
        }
        spans.exit();
        out.drain_ns += epoch.elapsed().as_nanos() as u64 - pass_start;
        while complete < count && initial_got[complete] == initial {
            complete += 1;
        }

        if !stream_done && complete == count {
            stream_done = true;
            out.run_s = epoch.elapsed().as_secs_f64();
            out.cpu_s = cpu_seconds() - cpu0;
            out.delivered_in_stream = out.delivered;
            spans.exit();
            spans.enter("catch_up");
        }
        if out.delivered == out.attempted {
            break;
        }
        if out.delivered > before {
            last_progress = Instant::now();
        } else {
            let quiet = last_progress.elapsed();
            if stream_done && quiet > QUIET_LIMIT {
                break;
            }
            if quiet > STALL_LIMIT {
                return Err(format!(
                    "stalled: {sent}/{count} sent, {}/{} delivered",
                    out.delivered, out.attempted
                ));
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    spans.exit();
    Ok(out)
}

/// The message body: the first 8 bytes are overwritten with the send
/// stamp, the rest is drawn from the seed.
pub fn body(spec: &UdpSpec, seed: u64) -> Vec<u8> {
    crate::sim::seeded_bytes(&SeedSequence::new(seed), spec.payload_bytes)
}
