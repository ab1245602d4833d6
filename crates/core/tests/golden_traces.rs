//! Golden-trace pinning for the default buffer policy.
//!
//! The fingerprints below were recorded from the receiver as it existed
//! **before** the pluggable buffer-policy refactor (the hard-wired
//! two-phase implementation). The default policy must keep reproducing
//! them bit for bit: every delivery time, every counter, every RNG draw.
//! A fingerprint change means the refactor altered observable protocol
//! behaviour — which the policy extraction explicitly must not.

mod common;

use common::fingerprint;
use rrmp_core::harness::RrmpNetwork;
use rrmp_core::prelude::ProtocolConfig;
use rrmp_netsim::loss::{DeliveryPlan, LossModel};
use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::{presets, NodeId};

fn single_region_recovery(seed: u64) -> u64 {
    let mut net =
        RrmpNetwork::new(presets::paper_region(40), ProtocolConfig::paper_defaults(), seed);
    let plan = DeliveryPlan::only(net.topology(), (0..10).map(NodeId));
    net.multicast_with_plan(&b"golden-a"[..], &plan);
    net.run_until(SimTime::from_millis(400));
    let plan = DeliveryPlan::all_but(net.topology(), (20..30).map(NodeId));
    net.multicast_with_plan(&b"golden-b"[..], &plan);
    net.run_until(SimTime::from_secs(1));
    fingerprint(&net)
}

fn hierarchical_with_search(seed: u64) -> u64 {
    let topo = presets::figure1_chain([8, 8, 8], SimDuration::from_millis(25));
    let mut net = RrmpNetwork::new(topo, ProtocolConfig::paper_defaults(), seed);
    net.set_multicast_loss(LossModel::RegionCorrelated { p_region: 0.3, p_member: 0.1 });
    for _ in 0..4 {
        net.multicast(&b"golden-chain"[..]);
        let next = net.now() + SimDuration::from_millis(40);
        net.run_until(next);
    }
    net.run_until(SimTime::from_secs(3));
    fingerprint(&net)
}

fn churn_with_handoffs(seed: u64) -> u64 {
    let cfg = ProtocolConfig { c: 1000.0, ..ProtocolConfig::paper_defaults() };
    let mut net = RrmpNetwork::new(presets::paper_region(20), cfg, seed);
    let plan = DeliveryPlan::all(net.topology());
    net.multicast_with_plan(&b"golden-churn"[..], &plan);
    net.run_until(SimTime::from_millis(200));
    net.schedule_leave(NodeId(3), SimTime::from_millis(250));
    net.schedule_crash(NodeId(9), SimTime::from_millis(300));
    net.run_until(SimTime::from_millis(600));
    fingerprint(&net)
}

fn sharded_lossy_stream(seed: u64, shards: usize) -> u64 {
    let topo = presets::region_tree(6, 2, 2, SimDuration::from_millis(25));
    let mut net = RrmpNetwork::with_shards(topo, ProtocolConfig::paper_defaults(), seed, shards);
    net.set_multicast_loss(LossModel::RegionCorrelated { p_region: 0.3, p_member: 0.1 });
    net.set_unicast_loss(LossModel::Bernoulli { p: 0.1 });
    for _ in 0..4 {
        net.multicast(&b"golden-sharded"[..]);
        let next = net.now() + SimDuration::from_millis(40);
        net.run_until(next);
    }
    net.run_until(SimTime::from_secs(3));
    fingerprint(&net)
}

#[test]
fn default_policy_reproduces_pre_refactor_traces() {
    assert_eq!(single_region_recovery(1), 0x28c8_f709_a078_be13);
    assert_eq!(single_region_recovery(99), 0x4f9f_1045_efdd_2ed8);
    assert_eq!(hierarchical_with_search(3), 0xe8e7_9632_2fad_9824);
    assert_eq!(churn_with_handoffs(8), 0x4350_6263_84d1_4965);
}

#[test]
fn default_policy_reproduces_pre_refactor_traces_sharded() {
    // The same fingerprint at every shard count: the sharded engine's
    // sequential oracle and its parallel layouts both match the recorded
    // pre-refactor behaviour.
    assert_eq!(sharded_lossy_stream(7, 1), 0xfb99_1cb2_03c0_874a);
    assert_eq!(sharded_lossy_stream(7, 4), 0xfb99_1cb2_03c0_874a);
}
