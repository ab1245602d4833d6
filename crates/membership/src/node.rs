//! A [`SimNode`] adapter running the gossip failure detector on the
//! discrete-event simulator — used by churn experiments and integration
//! tests to exercise the detector over a real (simulated) network.

use rand::rngs::StdRng;
use rrmp_netsim::rng::SeedSequence;
use rrmp_netsim::sim::{Ctx, SimNode};
use rrmp_netsim::time::SimTime;
use rrmp_netsim::topology::NodeId;

use crate::gossip::{Digest, GossipConfig, GossipState, ViewEvent};

/// Timer token used for the periodic gossip tick.
const TICK_TOKEN: u64 = 1;

/// A simulated node running only the gossip failure detector.
#[derive(Debug, Clone)]
pub struct GossipNode {
    state: GossipState,
    /// Every membership event observed, with the time it was observed.
    pub observed: Vec<(SimTime, ViewEvent)>,
    /// When `true` the node stops gossiping (simulates a crash).
    pub crashed: bool,
    /// The gossip-target stream, seeded from the run's seed and this
    /// node's id on the first tick.
    rng: Option<StdRng>,
}

impl GossipNode {
    /// Creates a gossip node for `self_id` knowing `members`.
    #[must_use]
    pub fn new<I: IntoIterator<Item = NodeId>>(
        self_id: NodeId,
        members: I,
        cfg: GossipConfig,
    ) -> Self {
        GossipNode {
            state: GossipState::new(self_id, members, cfg, SimTime::ZERO),
            observed: Vec::new(),
            crashed: false,
            rng: None,
        }
    }

    /// The underlying detector state.
    #[must_use]
    pub fn state(&self) -> &GossipState {
        &self.state
    }

    /// Whether this node has observed a failure verdict for `node`.
    #[must_use]
    pub fn saw_failure_of(&self, node: NodeId) -> bool {
        self.observed.iter().any(|(_, e)| matches!(e, ViewEvent::Failed(n) if *n == node))
    }
}

impl SimNode for GossipNode {
    type Msg = Digest;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Digest>) {
        let interval = self.state.config().interval;
        ctx.set_timer(interval, TICK_TOKEN);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Digest>, from: NodeId, digest: Digest) {
        self.on_packet_ref(ctx, from, &digest);
    }

    fn on_packet_ref(&mut self, ctx: &mut Ctx<'_, Digest>, _from: NodeId, digest: &Digest) {
        if self.crashed {
            return;
        }
        let now = ctx.now();
        for e in self.state.on_digest(digest, now) {
            self.observed.push((now, e));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Digest>, token: u64) {
        debug_assert_eq!(token, TICK_TOKEN);
        if self.crashed {
            return; // crashed: no more ticks, no more gossip
        }
        let now = ctx.now();
        let (seed, id) = (ctx.seed(), u64::from(ctx.self_id().0));
        let rng = self.rng.get_or_insert_with(|| SeedSequence::new(seed).rng_for(id));
        let (targets, digest) = self.state.on_tick(now, rng);
        for t in targets {
            ctx.send(t, digest.clone());
        }
        for e in self.state.check_failures(now) {
            self.observed.push((now, e));
        }
        let interval = self.state.config().interval;
        ctx.set_timer(interval, TICK_TOKEN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrmp_netsim::shard::ShardedSim;
    use rrmp_netsim::time::{SimDuration, SimTime};
    use rrmp_netsim::topology::presets::paper_region;

    fn cluster(n: u32, cfg: &GossipConfig) -> Vec<GossipNode> {
        (0..n).map(|i| GossipNode::new(NodeId(i), (0..n).map(NodeId), cfg.clone())).collect()
    }

    #[test]
    fn healthy_cluster_no_failures_over_network() {
        let cfg = GossipConfig::default();
        let topo = paper_region(6);
        let mut sim = ShardedSim::one_core(topo, cluster(6, &cfg), 11);
        sim.run_until(SimTime::from_secs(10));
        for (_, node) in sim.nodes() {
            assert!(
                node.observed.iter().all(|(_, e)| !matches!(e, ViewEvent::Failed(_))),
                "healthy cluster declared a failure: {:?}",
                node.observed
            );
        }
    }

    /// A [`GossipNode`] that logs the sender of every digest it hears.
    struct Tap {
        inner: GossipNode,
        heard: Vec<(SimTime, NodeId)>,
    }

    impl SimNode for Tap {
        type Msg = Digest;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Digest>) {
            self.inner.on_start(ctx);
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_, Digest>, from: NodeId, digest: Digest) {
            self.heard.push((ctx.now(), from));
            self.inner.on_packet(ctx, from, digest);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Digest>, token: u64) {
            self.inner.on_timer(ctx, token);
        }
    }

    #[test]
    fn gossip_targets_come_from_the_nodes_own_stream() {
        // Node 3's first six gossip targets (fanout 1) under seed 11 are
        // drawn from `rng_for(3)` of that seed; any other stream picks
        // other targets.
        let cfg = GossipConfig::default();
        let nodes = cluster(8, &cfg).into_iter().map(|inner| Tap { inner, heard: Vec::new() });
        let mut sim = ShardedSim::one_core(paper_region(8), nodes.collect(), 11);
        sim.run_until(SimTime::from_millis(650));
        let mut targets: Vec<(SimTime, NodeId)> = sim
            .nodes()
            .flat_map(|(to, tap)| {
                tap.heard
                    .iter()
                    .filter(|&&(_, from)| from == NodeId(3))
                    .map(move |&(at, _)| (at, to))
            })
            .collect();
        targets.sort();
        let targets: Vec<u32> = targets.iter().map(|&(_, to)| to.0).collect();
        assert_eq!(targets, [4, 6, 1, 4, 1, 2]);
    }

    #[test]
    fn crash_detected_within_bound_over_network() {
        let cfg = GossipConfig {
            interval: SimDuration::from_millis(100),
            fanout: 2,
            fail_after: SimDuration::from_millis(800),
            cleanup_after: SimDuration::from_secs(1),
        };
        let topo = paper_region(6);
        let mut sim = ShardedSim::one_core(topo, cluster(6, &cfg), 12);
        sim.run_until(SimTime::from_secs(2));
        sim.node_mut(NodeId(5)).crashed = true;
        sim.run_until(SimTime::from_secs(8));
        let detectors = (0..5).filter(|&i| sim.node(NodeId(i)).saw_failure_of(NodeId(5))).count();
        assert_eq!(detectors, 5, "every survivor should detect the crash");
    }
}
