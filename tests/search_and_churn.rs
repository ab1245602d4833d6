//! Integration tests for the §3.3 bufferer search and §3.2 churn handling
//! (leave-time handoff, crashes, view maintenance, gossip detector).

use rrmp::core::packet::Packet;
use rrmp::membership::{GossipConfig, ViewEvent};
use rrmp::netsim::topology::{RegionId, TopologyBuilder};
use rrmp::prelude::*;

fn two_region_topology(n: usize) -> rrmp::netsim::topology::Topology {
    TopologyBuilder::new()
        .intra_region_one_way(SimDuration::from_millis(5))
        .inter_region_one_way(SimDuration::from_millis(25))
        .region(n, None)
        .region(1, Some(0))
        .build()
        .expect("valid topology")
}

fn mid(seq: u64) -> MessageId {
    MessageId::new(NodeId(0), SeqNo(seq))
}

#[test]
fn search_succeeds_with_single_bufferer() {
    let n = 50;
    let topo = two_region_topology(n);
    let mut net = RrmpNetwork::new(topo, ProtocolConfig::paper_defaults(), 11);
    let id = mid(1);
    for i in 0..n as u32 {
        let state = if i == 17 { PreloadState::LongTerm } else { PreloadState::ReceivedDiscarded };
        net.preload(NodeId(i), id, &b"needle"[..], state);
    }
    // The downstream origin asks a non-bufferer.
    net.inject_packet(
        NodeId(3),
        NodeId(n as u32),
        Packet::RemoteRequest { msg: id },
        SimTime::ZERO,
    );
    net.run_until_quiescent(SimTime::from_secs(4));
    assert!(net.node(NodeId(n as u32)).has_delivered(id), "origin must get the repair");
    assert!(net.first_remote_repair_at(id).is_some());
}

#[test]
fn search_gives_up_gracefully_with_zero_bufferers() {
    // Nobody buffers the message: every member's search must exhaust its
    // retry cap and then go silent — no mutual re-ignition livelock (the
    // paper's §5 reliability caveat, handled gracefully).
    let n = 20;
    let topo = two_region_topology(n);
    let mut cfg = ProtocolConfig::paper_defaults();
    cfg.max_search_attempts = 10;
    let mut net = RrmpNetwork::new(topo, cfg, 12);
    let id = mid(1);
    for i in 0..n as u32 {
        net.preload(NodeId(i), id, &b"gone"[..], PreloadState::ReceivedDiscarded);
    }
    net.inject_packet(
        NodeId(3),
        NodeId(n as u32),
        Packet::RemoteRequest { msg: id },
        SimTime::ZERO,
    );
    net.run_until(SimTime::from_secs(5));
    assert!(!net.node(NodeId(n as u32)).has_delivered(id));
    assert!(net.total_counter(|c| c.recovery_gave_up) > 0);
    let forwards_at_5s = net.total_counter(|c| c.search_forwards);
    // Bounded by the per-member retry cap.
    assert!(
        forwards_at_5s <= u64::from(net.topology().node_count() as u32) * 10,
        "forwards exploded: {forwards_at_5s}"
    );
    net.run_until(SimTime::from_secs(10));
    let forwards_at_10s = net.total_counter(|c| c.search_forwards);
    assert_eq!(
        forwards_at_5s, forwards_at_10s,
        "search traffic must stop once everyone has given up"
    );
}

#[test]
fn search_found_suppresses_redundant_probing() {
    // With many bufferers the first probe round ends the search; total
    // forwards must stay tiny.
    let n = 40;
    let topo = two_region_topology(n);
    let mut net = RrmpNetwork::new(topo, ProtocolConfig::paper_defaults(), 13);
    let id = mid(1);
    for i in 0..n as u32 {
        let state = if i < 20 { PreloadState::LongTerm } else { PreloadState::ReceivedDiscarded };
        net.preload(NodeId(i), id, &b"many"[..], state);
    }
    net.inject_packet(
        NodeId(25),
        NodeId(n as u32),
        Packet::RemoteRequest { msg: id },
        SimTime::ZERO,
    );
    net.run_until_quiescent(SimTime::from_secs(2));
    assert!(net.node(NodeId(n as u32)).has_delivered(id));
    let forwards = net.total_counter(|c| c.search_forwards);
    assert!(forwards <= 6, "probing should stop fast with 50% bufferers: {forwards}");
}

#[test]
fn handoff_chain_survives_sequential_leaves() {
    // The long-term bufferers leave one after another; each handoff must
    // keep at least one copy alive in the region. The premise needs at
    // least one member to win the C/n long-term retention draw, which any
    // single seed misses with probability ~e^-C; scan a few seeds
    // (deterministically) for one where the premise holds.
    let (mut net, id) = (14..64)
        .find_map(|seed| {
            let topo = presets::paper_region(30);
            let cfg = ProtocolConfig { c: 2.0, ..ProtocolConfig::paper_defaults() };
            let mut net = RrmpNetwork::new(topo, cfg, seed);
            let id = net.multicast_with_plan(&b"relay"[..], &DeliveryPlan::all(net.topology()));
            net.run_until(SimTime::from_millis(200));
            (net.long_term_count(id) >= 1).then_some((net, id))
        })
        .expect("some seed yields a long-term bufferer");
    for round in 0..5 {
        let holders: Vec<NodeId> = net
            .nodes()
            .filter(|(_, n)| !n.receiver().has_left() && n.receiver().store().contains(id))
            .map(|(i, _)| i)
            .collect();
        if holders.is_empty() {
            break;
        }
        let t = SimTime::from_millis(300 + round * 100);
        net.schedule_leave(holders[0], t);
        net.run_until(t + SimDuration::from_millis(80));
    }
    let copies = net
        .nodes()
        .filter(|(_, n)| !n.receiver().has_left() && n.receiver().store().contains(id))
        .count();
    assert!(copies >= 1, "handoff chain lost the last copy");
}

#[test]
fn leaver_stops_participating() {
    let topo = presets::paper_region(10);
    let mut net = RrmpNetwork::new(topo, ProtocolConfig::paper_defaults(), 15);
    net.schedule_leave(NodeId(4), SimTime::from_millis(10));
    net.run_until(SimTime::from_millis(50));
    // A message multicast after the leave is not delivered to the leaver,
    // and the group still fully recovers among the remaining members.
    let plan = DeliveryPlan::only(net.topology(), (0..3).map(NodeId));
    let id = net.multicast_with_plan(&b"post-leave"[..], &plan);
    net.run_until(SimTime::from_secs(2));
    assert!(net.all_delivered(id), "all_delivered ignores members that left");
    assert!(!net.node(NodeId(4)).has_delivered(id));
    // Remaining members' views no longer contain the leaver, so no
    // requests were addressed to it after the view update.
    for (i, node) in net.nodes() {
        if i != NodeId(4) {
            assert!(!node.receiver().view().own().contains(NodeId(4)));
        }
    }
}

#[test]
fn crash_loses_copies_but_group_survives_if_another_holder_exists() {
    let topo = presets::paper_region(20);
    let cfg = ProtocolConfig { c: 1000.0, ..ProtocolConfig::paper_defaults() }; // all keep
    let mut net = RrmpNetwork::new(topo, cfg, 16);
    let id = net.multicast_with_plan(&b"crashy"[..], &DeliveryPlan::all(net.topology()));
    net.run_until(SimTime::from_millis(200));
    assert_eq!(net.long_term_count(id), 20);
    for i in 0..10u32 {
        net.schedule_crash(NodeId(i), SimTime::from_millis(250));
    }
    net.run_until(SimTime::from_millis(400));
    assert_eq!(net.long_term_count(id), 10, "crashed members' copies are gone");
    assert_eq!(net.total_counter(|c| c.handoffs_sent), 0, "crashes do not hand off");
}

#[test]
fn gossip_detector_feeds_view_updates() {
    // Run the membership substrate's failure detector over the simulator
    // and check that a crashed member is detected by every survivor —
    // the signal the harness's view-removal scripting stands in for.
    use rrmp::membership::node::GossipNode;
    use rrmp::netsim::sim::Sim;

    let cfg = GossipConfig {
        interval: SimDuration::from_millis(50),
        fanout: 2,
        fail_after: SimDuration::from_millis(400),
        cleanup_after: SimDuration::from_secs(1),
    };
    let topo = presets::paper_region(8);
    let nodes: Vec<GossipNode> =
        (0..8).map(|i| GossipNode::new(NodeId(i), (0..8).map(NodeId), cfg.clone())).collect();
    let mut sim = Sim::new(topo, nodes, 17);
    sim.run_until(SimTime::from_secs(2));
    sim.node_mut(NodeId(7)).crashed = true;
    sim.run_until(SimTime::from_secs(6));
    for i in 0..7u32 {
        assert!(sim.node(NodeId(i)).saw_failure_of(NodeId(7)), "member {i} missed the crash");
        // No false positives against live members.
        for j in 0..7u32 {
            let falsely = sim
                .node(NodeId(i))
                .observed
                .iter()
                .any(|(_, e)| matches!(e, ViewEvent::Failed(n) if *n == NodeId(j)));
            assert!(!falsely, "member {i} falsely failed live member {j}");
        }
    }
}

#[test]
fn regional_loss_plus_discard_exercises_search_end_to_end() {
    // The full §3.3 scenario from the paper: a downstream region misses a
    // message; by the time its remote requests arrive upstream, the
    // upstream region has discarded it except for the long-term
    // bufferers, so the search machinery runs as part of normal recovery.
    let topo = TopologyBuilder::new()
        .intra_region_one_way(SimDuration::from_millis(5))
        .inter_region_one_way(SimDuration::from_millis(200)) // slow WAN link
        .region(60, None)
        .region(10, Some(0))
        .build()
        .expect("valid");
    // Small C so most upstream members discard before the request lands.
    let cfg = ProtocolConfig { c: 3.0, ..ProtocolConfig::paper_defaults() };
    let mut net = RrmpNetwork::new(topo, cfg, 18);
    let plan = DeliveryPlan::region_loss(net.topology(), RegionId(1));
    let id = net.multicast_with_plan(&b"far"[..], &plan);
    net.run_until(SimTime::from_secs(5));
    assert!(net.all_delivered(id), "delivered {}/70", net.delivered_count(id));
}
