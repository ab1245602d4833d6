//! Cross-crate validation: the comparison schemes, each a buffer policy
//! on the shared engine, against RRMP's two-phase buffering — and the
//! analytic models against simulation.

use rrmp::analysis::models::{no_bufferer_probability, no_request_probability};
use rrmp::core::observe::BufferRecords;
use rrmp::core::policy::designated_bufferers;
use rrmp::prelude::*;

/// A network running `policy` with otherwise paper-default parameters.
fn policy_net(topo: Topology, policy: PolicyKind, seed: u64) -> RrmpNetwork {
    let cfg = ProtocolConfig { policy, ..ProtocolConfig::paper_defaults() };
    RrmpNetwork::new(topo, cfg, seed)
}

#[test]
fn all_schemes_recover_the_same_workload() {
    for policy in [
        PolicyKind::TwoPhase,
        PolicyKind::HashBufferers,
        PolicyKind::SenderBased,
        PolicyKind::Stability,
        PolicyKind::TreeRmtp,
    ] {
        let mut net = policy_net(presets::paper_region(30), policy, 21);
        let plan = DeliveryPlan::only(net.topology(), (0..15).map(NodeId));
        let id = net.multicast_with_plan(&b"same"[..], &plan);
        net.run_until(SimTime::from_secs(3));
        assert_eq!(net.delivered_count(id), 30, "{}", policy.name());
    }
}

#[test]
fn hash_baseline_crosses_regions_blindly() {
    // The paper's critique of the NGC '99 scheme: bufferer selection
    // ignores topology, so requests routinely cross the WAN even when a
    // local copy exists. Measure the fraction of requests leaving the
    // requester's region.
    let topo = presets::figure1_chain([20, 20, 20], SimDuration::from_millis(25));
    let mut net = policy_net(topo, PolicyKind::HashBufferers, 22);
    // All of region 2 (nodes 40..60) misses the message.
    let plan = DeliveryPlan::all_but(net.topology(), (40..60).map(NodeId));
    let id = net.multicast_with_plan(&b"blind"[..], &plan);
    net.run_until(SimTime::from_secs(3));
    assert_eq!(net.delivered_count(id), 60);
    // Designated bufferers live anywhere in the group: with 6 bufferers
    // over 3 equal regions, on average 2/3 of them — and hence of the
    // repair traffic — are outside the losing region's locality.
    let members: Vec<NodeId> = (0..60).map(NodeId).collect();
    let bufferers = designated_bufferers(&members, id, 6);
    let outside = bufferers.iter().filter(|b| b.0 < 40).count();
    assert!(outside > 0, "with high probability some bufferers are remote");
}

#[test]
fn stability_detection_pays_standing_overhead() {
    // §6's "low traffic overhead" claim, measured: with zero loss,
    // stability detection has every member exchanging history vectors
    // forever (O(n²) per interval), while RRMP's only periodic traffic is
    // the sender's session message (O(n)); RRMP *receivers* send nothing.
    let horizon = SimTime::from_secs(2);

    let mut stab = policy_net(presets::paper_region(20), PolicyKind::Stability, 23);
    let all = DeliveryPlan::all(stab.topology());
    stab.multicast_with_plan(&b"quiet"[..], &all);
    stab.run_until(horizon);
    let history_packets = stab.total_counter(|c| c.history_digests_sent);
    assert!(
        history_packets > 1000,
        "all-member history exchange should dominate: {history_packets}"
    );

    let topo = presets::paper_region(20);
    let mut rrmp_net = RrmpNetwork::new(topo, ProtocolConfig::paper_defaults(), 23);
    let all = DeliveryPlan::all(rrmp_net.topology());
    rrmp_net.multicast_with_plan(&b"quiet"[..], &all);
    rrmp_net.run_until(horizon);
    // Every RRMP receiver is silent without losses: no requests, repairs,
    // searches or history traffic of any kind.
    let receiver_traffic = rrmp_net.total_counter(|c| {
        c.local_requests_sent
            + c.remote_requests_sent
            + c.repairs_sent_local
            + c.repairs_sent_remote
            + c.search_forwards
            + c.history_digests_sent
    });
    assert_eq!(receiver_traffic, 0, "loss-free RRMP receivers must be silent");
}

#[test]
fn tree_concentrates_buffering_on_the_repair_server() {
    let mut net = policy_net(presets::paper_region(25), PolicyKind::TreeRmtp, 24);
    let all = DeliveryPlan::all(net.topology());
    let sent = [net.now(); 8];
    let ids: Vec<MessageId> = (0..8).map(|_| net.multicast_with_plan(&b"c"[..], &all)).collect();
    net.run_until(SimTime::from_secs(1));
    let report = net.run_report("tree-rmtp", &ids, &sent);
    assert_eq!(report.peak_entries_max, 8, "server holds the whole session");
    // 24 of 25 members never buffer anything.
    assert!(report.peak_entries_mean < 0.5);
}

#[test]
fn nack_implosion_concentrates_on_sender() {
    // §1's motivation for distributed recovery: when everyone but the
    // sender misses a message, every NACK lands on the sender (59
    // simultaneous NACKs here) while no receiver carries any load.
    let mut net = policy_net(presets::paper_region(60), PolicyKind::SenderBased, 2);
    let plan = DeliveryPlan::only(net.topology(), [NodeId(0)]);
    let id = net.multicast_with_plan(&b"x"[..], &plan);
    net.run_until(SimTime::from_secs(2));
    assert_eq!(net.delivered_count(id), 60);
    let load = |n: u32| net.node(NodeId(n)).recovery_packets_received();
    let sender_load = load(0);
    let max_other = (1..60).map(load).max().unwrap_or(0);
    assert!(sender_load >= 59, "sender should absorb all NACKs: {sender_load}");
    assert!(
        sender_load > 10 * max_other.max(1),
        "implosion: sender {sender_load} vs max receiver {max_other}"
    );
}

#[test]
fn heterogeneity_two_phase_releases_fast_members_early() {
    // The paper's §1 motivation: with a conservative "buffer until
    // everyone has it" policy (stability detection), a single slow region
    // pins buffers everywhere; RRMP's feedback rule releases fast members
    // at T while long-term bufferers cover the stragglers.
    use rrmp::netsim::topology::TopologyBuilder;

    let ms = SimDuration::from_millis;
    // Region 0: 20 fast members. Region 1: 4 members behind a 400 ms
    // one-way link (orders of magnitude slower than the 5 ms local hop).
    let build_topo = || {
        TopologyBuilder::new()
            .latency_matrix(vec![vec![ms(5), ms(400)], vec![ms(400), ms(5)]])
            .region(20, None)
            .region(4, Some(0))
            .build()
            .expect("valid heterogeneous topology")
    };

    // RRMP: all of region 1 misses; fast members that received the
    // initial multicast idle out at T = 40 ms regardless of the slow
    // region still recovering.
    let mut net = RrmpNetwork::new(build_topo(), ProtocolConfig::paper_defaults(), 31);
    net.arm_buffer_records();
    let plan = DeliveryPlan::region_loss(net.topology(), RegionId(1));
    let id = net.multicast_with_plan(&b"het"[..], &plan);
    net.run_until(SimTime::from_secs(6));
    assert!(net.all_delivered(id), "slow region must still recover");
    let mut fast_release = Vec::new();
    for i in 0..20u32 {
        let records = net.node(NodeId(i)).receiver().observer::<BufferRecords>();
        let rec = records.expect("buffer records armed").get(id).expect("record");
        if let Some(d) = rec.short_term_duration() {
            fast_release.push(d.as_millis_f64());
        }
    }
    let rrmp_mean = fast_release.iter().sum::<f64>() / fast_release.len() as f64;
    // Fast members release near T (the odd remote request may refresh a
    // couple of clocks) — far below the ~800 ms round trip to region 1.
    assert!(
        rrmp_mean < 200.0,
        "fast members held {rrmp_mean}ms; two-phase should not wait for the slow region"
    );

    // Stability detection on the same topology: every member holds until
    // the slow region's ACKs make the message stable.
    let mut stab = policy_net(build_topo(), PolicyKind::Stability, 31);
    let plan = DeliveryPlan::region_loss(stab.topology(), RegionId(1));
    let sid = stab.multicast_with_plan(&b"het"[..], &plan);
    // Well after RRMP's fast members released, stability still buffers
    // everywhere (the slow region has not even received it yet).
    stab.run_until(SimTime::from_millis(300));
    assert_eq!(
        stab.buffered_count(sid),
        stab.delivered_count(sid),
        "stability holds every copy until the slowest member acks"
    );
    assert!(stab.buffered_count(sid) >= 20);
}

#[test]
fn no_request_probability_matches_simulation() {
    // §3.1's formula: with fraction p of an n-member region missing a
    // message and each missing member sending one uniform random request,
    // P[a given holder receives none] = (1 - 1/(n-1))^(np).
    use rand::Rng;
    use rrmp::netsim::rng::SeedSequence;
    let n = 100usize;
    let p = 0.4f64;
    let missing = (n as f64 * p) as usize;
    let trials = 60_000;
    let mut rng = SeedSequence::new(25).rng_for(0);
    let mut holder_got_none = 0u64;
    for _ in 0..trials {
        // Holder is member 0; the `missing` requesters pick uniformly
        // among the other n-1 members.
        let mut hit = false;
        for _ in 0..missing {
            if rng.gen_range(0..n - 1) == 0 {
                hit = true;
            }
        }
        if !hit {
            holder_got_none += 1;
        }
    }
    let simulated = holder_got_none as f64 / trials as f64;
    let analytic = no_request_probability(n, p);
    assert!((simulated - analytic).abs() < 0.01, "simulated {simulated} vs analytic {analytic}");
}

#[test]
fn no_bufferer_probability_matches_protocol_monte_carlo() {
    // Run the real protocol repeatedly with C = 2 and measure how often a
    // fully-delivered message ends with zero long-term bufferers; compare
    // with e^{-C}. (Binomial(n, C/n) with n = 40.)
    let c = 2.0f64;
    let runs = 120u32;
    let mut zero = 0u32;
    for seed in 0..runs {
        let topo = presets::paper_region(40);
        let cfg = ProtocolConfig { c, ..ProtocolConfig::paper_defaults() };
        let mut net = RrmpNetwork::new(topo, cfg, 3000 + u64::from(seed));
        let id = net.multicast_with_plan(&b"mc"[..], &DeliveryPlan::all(net.topology()));
        net.run_until(SimTime::from_millis(300));
        if net.long_term_count(id) == 0 {
            zero += 1;
        }
    }
    let observed = f64::from(zero) / f64::from(runs);
    let analytic = no_bufferer_probability(c); // ~0.135
    assert!((observed - analytic).abs() < 0.09, "observed {observed} vs e^-C {analytic}");
}
