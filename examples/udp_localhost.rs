//! The same protocol core on real UDP sockets (loopback).
//!
//! Six members in two regions run in one process, each with its own
//! socket and event loop of one `UdpRuntime`. The sender's initial multicast
//! deliberately skips two members; both recover through the protocol —
//! one via local recovery, one (whose whole region missed it) via remote
//! recovery and regional re-multicast. This is the `rrmp-udp` runtime
//! hosting the identical sans-io state machine the simulations use.
//!
//! Run with: `cargo run --example udp_localhost`

use std::net::UdpSocket;
use std::sync::Arc;
use std::time::Duration;

use rrmp::netsim::time::SimDuration;
use rrmp::netsim::topology::{NodeId, RegionId};
use rrmp::prelude::ProtocolConfig;
use rrmp::udp::{GroupSpec, MemberHandle, RuntimeConfig, UdpRuntime};

fn main() -> std::io::Result<()> {
    println!("== RRMP over UDP on loopback ==");

    // Bind six ephemeral sockets, then describe the group.
    let sockets: Vec<UdpSocket> =
        (0..6).map(|_| UdpSocket::bind("127.0.0.1:0")).collect::<Result<_, _>>()?;
    let mut spec = GroupSpec::new();
    for (i, s) in sockets.iter().enumerate() {
        let region = if i < 4 { RegionId(0) } else { RegionId(1) };
        spec.add_member(NodeId(i as u32), s.local_addr()?, region);
    }
    spec.set_parent(RegionId(1), RegionId(0));
    println!("members: 0..4 in region 0 (sender = 0), 4..6 in region 1");

    // Short session interval so tail-loss detection is fast in real time.
    let cfg = ProtocolConfig {
        session_interval: SimDuration::from_millis(25),
        ..ProtocolConfig::paper_defaults()
    };

    // One event loop per member; `add_member` places each on the
    // least-loaded loop.
    let rt =
        UdpRuntime::start(RuntimeConfig { loop_threads: sockets.len(), ..Default::default() })?;
    let spec = Arc::new(spec);
    let nodes: Vec<MemberHandle> = sockets
        .into_iter()
        .enumerate()
        .map(|(i, sock)| {
            let node = NodeId(i as u32);
            rt.add_member(sock, Arc::clone(&spec), node, cfg.clone(), i == 0, 1000 + i as u64)
        })
        .collect::<Result<_, _>>()?;

    // Drop the initial multicast to member 2 (local loss) and to both
    // members of region 1 (regional loss).
    nodes[0].set_initial_drop(Some(|n: NodeId| matches!(n.0, 2 | 4 | 5)));

    println!("multicasting 5 messages; members 2, 4, 5 miss every initial copy...");
    for i in 0..5 {
        nodes[0].multicast(format!("payload #{i}"));
        std::thread::sleep(Duration::from_millis(20));
    }

    // Everyone must deliver all 5 messages, the droppees via recovery.
    for (i, node) in nodes.iter().enumerate() {
        let mut got = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while got < 5 && std::time::Instant::now() < deadline {
            if node.recv_timeout(Duration::from_millis(100)).is_some() {
                got += 1;
            }
        }
        let tag = match i {
            2 => " (recovered via local requests)",
            4 | 5 => " (recovered via remote requests + regional repair)",
            _ => "",
        };
        println!("member {i}: delivered {got}/5{tag}");
        assert_eq!(got, 5, "member {i} failed to deliver");
    }

    println!("graceful shutdown (member 3 leaves first, handing off long-term buffers)");
    nodes[3].leave();
    std::thread::sleep(Duration::from_millis(100));
    drop(nodes);
    rt.shutdown();
    println!("done");
    Ok(())
}
