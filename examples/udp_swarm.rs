//! Many members, few threads: the multiplexed UDP runtime.
//!
//! Sixty-four group members run in one process on **two** event-loop
//! threads. Each loop multiplexes its members' sockets over one
//! `poll(2)` set, shares one timing wheel across all their protocol
//! timers, and receives every datagram into an MTU-bucketed buffer pool
//! so the steady state allocates nothing per packet. A slice of the
//! group misses every initial multicast and recovers through the
//! protocol, with requester and repairer sharing loop threads.
//!
//! Run with: `cargo run --example udp_swarm`

use std::net::UdpSocket;
use std::sync::Arc;
use std::time::Duration;

use rrmp::netsim::time::SimDuration;
use rrmp::netsim::topology::{NodeId, RegionId};
use rrmp::prelude::ProtocolConfig;
use rrmp::udp::{GroupSpec, MemberHandle, RuntimeConfig, UdpRuntime};

const MEMBERS: usize = 64;
const MESSAGES: usize = 5;

fn main() -> std::io::Result<()> {
    println!("== {MEMBERS} RRMP members on 2 event-loop threads ==");

    let sockets: Vec<UdpSocket> =
        (0..MEMBERS).map(|_| UdpSocket::bind("127.0.0.1:0")).collect::<Result<_, _>>()?;
    let mut spec = GroupSpec::new();
    for (i, s) in sockets.iter().enumerate() {
        spec.add_member(NodeId(i as u32), s.local_addr()?, RegionId(0));
    }
    // One Arc'd spec serves every member — membership metadata is paid
    // once per process, not once per member.
    let spec = Arc::new(spec);

    let cfg = ProtocolConfig {
        session_interval: SimDuration::from_millis(25),
        ..ProtocolConfig::paper_defaults()
    };

    let rt = UdpRuntime::start(RuntimeConfig { loop_threads: 2, ..RuntimeConfig::default() })?;
    let members: Vec<MemberHandle> = sockets
        .into_iter()
        .enumerate()
        .map(|(i, sock)| {
            rt.add_member(sock, Arc::clone(&spec), NodeId(i as u32), cfg.clone(), i == 0, i as u64)
        })
        .collect::<Result<_, _>>()?;
    println!(
        "placed {} members across {} loops (least-loaded placement)",
        rt.member_count(),
        rt.loop_count()
    );

    // The last quarter of the group misses every initial multicast and
    // must recover through local requests served by buffered copies.
    let cutoff = (MEMBERS - MEMBERS / 4) as u32;
    members[0].set_initial_drop(Some(move |n: NodeId| n.0 >= cutoff));
    println!("multicasting {MESSAGES} messages; members {cutoff}.. miss every initial copy...");
    for i in 0..MESSAGES {
        members[0].multicast(format!("swarm payload #{i}"));
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut recovered = 0usize;
    for (i, m) in members.iter().enumerate() {
        let mut got = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(15);
        while got < MESSAGES && std::time::Instant::now() < deadline {
            if m.recv_timeout(Duration::from_millis(100)).is_some() {
                got += 1;
            }
        }
        assert_eq!(got, MESSAGES, "member {i} failed to deliver");
        if i as u32 >= cutoff {
            recovered += 1;
        }
    }
    println!("all {MEMBERS} members delivered {MESSAGES}/{MESSAGES} ({recovered} via recovery)");

    for (i, snap) in rt.pool_snapshots().iter().enumerate() {
        println!(
            "loop {i} pool: {} hits / {} misses / {} forfeited, high water {} KiB",
            snap.hits,
            snap.misses,
            snap.forfeited,
            snap.high_water_bytes / 1024
        );
    }
    for (i, h) in rt.runtime_snapshots().iter().enumerate() {
        println!(
            "loop {i} health: {} wakeups / {} idle ticks, {} mutes / {} unmutes, \
             {} recv failures, {} send drops",
            h.poll_wakeups, h.idle_ticks, h.mutes, h.unmutes, h.recv_failures, h.send_drops
        );
    }

    drop(members);
    rt.shutdown();
    println!("done");
    Ok(())
}
