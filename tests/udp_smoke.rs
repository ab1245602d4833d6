//! Smoke test of the UDP runtime: a two-region group on loopback with a
//! forced regional loss, recovered by the identical protocol core that
//! drives the simulations.

use std::net::UdpSocket;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rrmp::netsim::time::SimDuration;
use rrmp::netsim::topology::{NodeId, RegionId};
use rrmp::prelude::ProtocolConfig;
use rrmp::udp::{GroupSpec, MemberHandle, RuntimeConfig, UdpRuntime};

/// Hosts node `i` on `sockets[i]` (node 0 the sender, seed `seed + i`),
/// each on an event loop of its own, so every datagram crosses threads.
fn one_loop_each(
    sockets: Vec<UdpSocket>,
    spec: GroupSpec,
    cfg: &ProtocolConfig,
    seed: u64,
) -> (UdpRuntime, Vec<MemberHandle>) {
    let rt = UdpRuntime::start(RuntimeConfig { loop_threads: sockets.len(), ..Default::default() })
        .expect("start runtime");
    let spec = Arc::new(spec);
    let nodes = sockets
        .into_iter()
        .enumerate()
        .map(|(i, sock)| {
            let node = NodeId(i as u32);
            rt.add_member(sock, Arc::clone(&spec), node, cfg.clone(), i == 0, seed + i as u64)
                .expect("start")
        })
        .collect();
    (rt, nodes)
}

#[test]
fn two_regions_over_loopback_with_regional_loss() {
    // Region 0: nodes 0..3 (sender = 0); region 1: nodes 3..5.
    let sockets: Vec<UdpSocket> =
        (0..5).map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind")).collect();
    let mut spec = GroupSpec::new();
    for (i, s) in sockets.iter().enumerate() {
        let region = if i < 3 { RegionId(0) } else { RegionId(1) };
        spec.add_member(NodeId(i as u32), s.local_addr().expect("addr"), region);
    }
    spec.set_parent(RegionId(1), RegionId(0));

    let cfg = ProtocolConfig {
        session_interval: SimDuration::from_millis(25),
        ..ProtocolConfig::paper_defaults()
    };

    let (rt, nodes) = one_loop_each(sockets, spec, &cfg, 500);

    // The whole of region 1 misses every initial multicast.
    nodes[0].set_initial_drop(Some(|n: NodeId| n.0 >= 3));

    for i in 0..3 {
        nodes[0].multicast(format!("burst {i}"));
    }

    // Every node (including region 1, via remote recovery over real
    // sockets) must deliver all three messages.
    for (i, node) in nodes.iter().enumerate() {
        let mut got = 0;
        let deadline = Instant::now() + Duration::from_secs(15);
        while got < 3 && Instant::now() < deadline {
            if node.recv_timeout(Duration::from_millis(100)).is_some() {
                got += 1;
            }
        }
        assert_eq!(got, 3, "node {i} delivered {got}/3");
    }

    drop(nodes);
    rt.shutdown();
}

#[test]
fn leave_hands_off_over_real_sockets() {
    // A member that buffered long-term leaves gracefully; its handoff
    // must reach another member over the wire (observable as the group
    // still being able to serve the message afterwards).
    let sockets: Vec<UdpSocket> =
        (0..4).map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind")).collect();
    let mut spec = GroupSpec::new();
    for (i, s) in sockets.iter().enumerate() {
        spec.add_member(NodeId(i as u32), s.local_addr().expect("addr"), RegionId(0));
    }
    // Everyone keeps long-term (C >> n) so the leaver definitely has
    // something to hand off.
    let cfg = ProtocolConfig {
        c: 100.0,
        session_interval: SimDuration::from_millis(25),
        idle_threshold: SimDuration::from_millis(40),
        ..ProtocolConfig::paper_defaults()
    };
    let (rt, nodes) = one_loop_each(sockets, spec, &cfg, 900);
    nodes[0].multicast(&b"to-be-handed-off"[..]);
    for n in &nodes {
        assert!(n.recv_timeout(Duration::from_secs(5)).is_some());
    }
    // Let the idle transition land everywhere, then node 2 leaves.
    std::thread::sleep(Duration::from_millis(200));
    nodes[2].leave();
    std::thread::sleep(Duration::from_millis(300));
    // The group keeps functioning: a second multicast still reaches the
    // three remaining members (the leaver stays silent).
    nodes[0].multicast(&b"after-churn"[..]);
    for (i, n) in nodes.iter().enumerate() {
        if i == 2 {
            continue;
        }
        let d = n
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|| panic!("member {i} missed the post-churn message"));
        assert_eq!(&d.payload[..], b"after-churn");
    }
    assert!(nodes[2].try_recv().is_none(), "a departed member must not deliver");
    drop(nodes);
    rt.shutdown();
}

#[test]
fn multiplexed_runtime_hosts_a_group_on_two_loops() {
    // The production surface: one UdpRuntime, two event-loop threads,
    // a dozen members multiplexed across them — lossy initial multicast
    // included, so recovery runs with requester and repairer sharing
    // loop threads.
    let sockets: Vec<UdpSocket> =
        (0..12).map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind")).collect();
    let mut spec = GroupSpec::new();
    for (i, s) in sockets.iter().enumerate() {
        spec.add_member(NodeId(i as u32), s.local_addr().expect("addr"), RegionId(0));
    }
    let spec = Arc::new(spec);
    let cfg = ProtocolConfig {
        session_interval: SimDuration::from_millis(25),
        ..ProtocolConfig::paper_defaults()
    };

    let rt = UdpRuntime::start(RuntimeConfig {
        loop_threads: 2,
        pool_limit_bytes: 4 << 20,
        delivery_capacity: 256,
        trace_ring: None,
    })
    .expect("start runtime");
    let members: Vec<_> = sockets
        .into_iter()
        .enumerate()
        .map(|(i, sock)| {
            rt.add_member(sock, Arc::clone(&spec), NodeId(i as u32), cfg.clone(), i == 0, i as u64)
                .expect("add member")
        })
        .collect();
    assert_eq!(rt.member_count(), 12);

    // The last third of the group misses every initial multicast.
    members[0].set_initial_drop(Some(|n: NodeId| n.0 >= 8));
    for i in 0..3 {
        members[0].multicast(format!("swarm {i}"));
    }
    for (i, m) in members.iter().enumerate() {
        let mut got = 0;
        let deadline = Instant::now() + Duration::from_secs(15);
        while got < 3 && Instant::now() < deadline {
            if m.recv_timeout(Duration::from_millis(100)).is_some() {
                got += 1;
            }
        }
        assert_eq!(got, 3, "member {i} delivered {got}/3");
    }
    // The pooled receive path served the whole run.
    let stats = rt.pool_snapshots();
    assert!(
        stats.iter().any(|s| s.hits + s.misses > 0),
        "receive path must draw slabs from the pools"
    );
    drop(members);
    rt.shutdown();
}

#[test]
fn codec_compatible_across_runtime_boundary() {
    // A datagram encoded by one node decodes identically at another —
    // guards against codec drift between the sim (which skips encoding)
    // and the wire.
    use bytes::Bytes;
    use rrmp::core::ids::{MessageId, SeqNo};
    use rrmp::core::packet::{DataPacket, Packet};

    let original = Packet::Repair {
        data: DataPacket::new(
            MessageId::new(NodeId(3), SeqNo(77)),
            Bytes::from_static(b"wire-payload"),
        ),
        kind: rrmp::core::packet::RepairKind::Remote,
    };
    let a = UdpSocket::bind("127.0.0.1:0").expect("bind a");
    let b = UdpSocket::bind("127.0.0.1:0").expect("bind b");
    a.send_to(&original.encode(), b.local_addr().expect("addr")).expect("send");
    b.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut buf = [0u8; 2048];
    let (len, _) = b.recv_from(&mut buf).expect("recv");
    let decoded = Packet::decode(Bytes::copy_from_slice(&buf[..len])).expect("decode");
    assert_eq!(decoded, original);
}
