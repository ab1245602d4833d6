//! Packet-loss models.
//!
//! The paper's §4 experiments lose packets only on the **initial IP
//! multicast** — retransmission requests and repairs are assumed reliable.
//! [`LossModel`] covers that setup (via [`LossModel::None`] for control
//! traffic) plus richer models used by the ablation experiments:
//! independent per-packet loss, region-correlated loss (a whole region
//! missing a message, the paper's "regional loss"), and a two-state
//! Gilbert–Elliott channel in its stationary form.

use rand::Rng;

use crate::topology::{NodeId, RegionId, Topology};

/// A stochastic packet-loss model.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum LossModel {
    /// No loss at all.
    #[default]
    None,
    /// Each packet is dropped independently with probability `p`.
    Bernoulli {
        /// Per-packet drop probability in `[0, 1]`.
        p: f64,
    },
    /// Loss correlated by region, modeling an upstream-link drop: with
    /// probability `p_region` the whole destination region misses the packet;
    /// otherwise each member independently misses it with `p_member`.
    RegionCorrelated {
        /// Probability an entire region misses a multicast.
        p_region: f64,
        /// Per-member drop probability when the region is reached.
        p_member: f64,
    },
    /// Two-state Gilbert–Elliott burst-loss channel (per receiver).
    GilbertElliott {
        /// Probability of transitioning Good→Bad per packet.
        p_good_to_bad: f64,
        /// Probability of transitioning Bad→Good per packet.
        p_bad_to_good: f64,
        /// Drop probability while in the Good state.
        loss_good: f64,
        /// Drop probability while in the Bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Whether a single unicast packet is dropped.
    ///
    /// For [`LossModel::RegionCorrelated`] this treats the packet as a
    /// single-destination transmission: it is dropped if either stage drops
    /// it. For Gilbert–Elliott it draws from the stationary distribution,
    /// so losses are not bursty.
    pub fn drops_unicast<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        match *self {
            LossModel::None => false,
            LossModel::Bernoulli { p } => rng.gen_bool(p.clamp(0.0, 1.0)),
            LossModel::RegionCorrelated { p_region, p_member } => {
                rng.gen_bool(p_region.clamp(0.0, 1.0)) || rng.gen_bool(p_member.clamp(0.0, 1.0))
            }
            LossModel::GilbertElliott { p_good_to_bad, p_bad_to_good, loss_good, loss_bad } => {
                // Stationary probability of being in the Bad state.
                let denom = p_good_to_bad + p_bad_to_good;
                let pi_bad = if denom == 0.0 { 0.0 } else { p_good_to_bad / denom };
                let p = pi_bad * loss_bad + (1.0 - pi_bad) * loss_good;
                rng.gen_bool(p.clamp(0.0, 1.0))
            }
        }
    }

    /// Computes the set of receivers that miss one multicast transmission.
    ///
    /// Returns a boolean per node (indexed by [`NodeId`]): `true` means the
    /// node **missed** the packet. The sender index (if among `receivers`)
    /// is never marked missed.
    fn multicast_outcome<R: Rng + ?Sized>(
        &self,
        topo: &Topology,
        sender: NodeId,
        rng: &mut R,
    ) -> Vec<bool> {
        let mut missed = vec![false; topo.node_count()];
        match *self {
            LossModel::None => {}
            LossModel::Bernoulli { p } => {
                let p = p.clamp(0.0, 1.0);
                for node in topo.nodes() {
                    if node != sender {
                        missed[node.index()] = rng.gen_bool(p);
                    }
                }
            }
            LossModel::RegionCorrelated { p_region, p_member } => {
                let p_region = p_region.clamp(0.0, 1.0);
                let p_member = p_member.clamp(0.0, 1.0);
                let sender_region = topo.region_of(sender);
                for region in topo.regions() {
                    // The sender's own region always receives the packet at
                    // the sender itself, so a whole-region drop there would
                    // be contradictory; skip region-level loss for it.
                    let region_lost = region.id != sender_region && rng.gen_bool(p_region);
                    for &m in &region.members {
                        if m == sender {
                            continue;
                        }
                        missed[m.index()] = region_lost || rng.gen_bool(p_member);
                    }
                }
            }
            LossModel::GilbertElliott { .. } => {
                for node in topo.nodes() {
                    if node != sender {
                        missed[node.index()] = self.drops_unicast(rng);
                    }
                }
            }
        }
        missed
    }
}

/// An explicit, non-random delivery plan for one multicast.
///
/// The paper's controlled experiments (Figs 6–9) fix the initial outcome
/// exactly — e.g. "exactly `k` members hold the message at time zero". A
/// `DeliveryPlan` expresses that: it lists which nodes receive the initial
/// multicast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryPlan {
    received: Vec<bool>,
}

impl DeliveryPlan {
    /// A plan in which every node in `topo` receives the packet.
    #[must_use]
    pub fn all(topo: &Topology) -> Self {
        DeliveryPlan { received: vec![true; topo.node_count()] }
    }

    /// A plan in which only `holders` receive the packet.
    #[must_use]
    pub fn only<I: IntoIterator<Item = NodeId>>(topo: &Topology, holders: I) -> Self {
        let mut received = vec![false; topo.node_count()];
        for n in holders {
            received[n.index()] = true;
        }
        DeliveryPlan { received }
    }

    /// A plan in which everyone **except** `missers` receives the packet.
    #[must_use]
    pub fn all_but<I: IntoIterator<Item = NodeId>>(topo: &Topology, missers: I) -> Self {
        let mut received = vec![true; topo.node_count()];
        for n in missers {
            received[n.index()] = false;
        }
        DeliveryPlan { received }
    }

    /// A plan in which every member of `region` misses the packet (the
    /// paper's "regional loss") and everyone else receives it.
    #[must_use]
    pub fn region_loss(topo: &Topology, region: RegionId) -> Self {
        let mut received = vec![true; topo.node_count()];
        for &m in topo.members_of(region) {
            received[m.index()] = false;
        }
        DeliveryPlan { received }
    }

    /// Draws a random plan from a [`LossModel`].
    pub fn from_model<R: Rng + ?Sized>(
        topo: &Topology,
        sender: NodeId,
        model: &LossModel,
        rng: &mut R,
    ) -> Self {
        let missed = model.multicast_outcome(topo, sender, rng);
        DeliveryPlan { received: missed.into_iter().map(|m| !m).collect() }
    }

    /// Whether `node` receives the packet under this plan.
    #[must_use]
    pub fn receives(&self, node: NodeId) -> bool {
        self.received.get(node.index()).copied().unwrap_or(false)
    }

    /// Marks `node` as receiving the packet.
    pub fn set_receives(&mut self, node: NodeId, receives: bool) {
        self.received[node.index()] = receives;
    }

    /// Iterator over the nodes that receive the packet.
    pub fn holders(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.received.iter().enumerate().filter(|(_, &r)| r).map(|(i, _)| NodeId(i as u32))
    }

    /// Iterator over the nodes that miss the packet.
    pub fn missers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.received.iter().enumerate().filter(|(_, &r)| !r).map(|(i, _)| NodeId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedSequence;
    use crate::time::SimDuration;
    use crate::topology::presets::paper_region;
    use crate::topology::TopologyBuilder;

    #[test]
    fn none_never_drops() {
        let mut rng = SeedSequence::new(1).rng_for(0);
        assert!(!LossModel::None.drops_unicast(&mut rng));
        let topo = paper_region(10);
        let missed = LossModel::None.multicast_outcome(&topo, NodeId(0), &mut rng);
        assert!(missed.iter().all(|&m| !m));
    }

    #[test]
    fn bernoulli_rate_is_plausible() {
        let mut rng = SeedSequence::new(2).rng_for(0);
        let model = LossModel::Bernoulli { p: 0.3 };
        let drops = (0..10_000).filter(|_| model.drops_unicast(&mut rng)).count();
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "rate {rate} too far from 0.3");
    }

    #[test]
    fn multicast_never_drops_sender() {
        let topo = paper_region(50);
        let mut rng = SeedSequence::new(3).rng_for(0);
        let model = LossModel::Bernoulli { p: 0.99 };
        for _ in 0..20 {
            let missed = model.multicast_outcome(&topo, NodeId(7), &mut rng);
            assert!(!missed[7]);
        }
    }

    #[test]
    fn region_correlated_drops_whole_regions() {
        let topo = TopologyBuilder::new()
            .inter_region_one_way(SimDuration::from_millis(25))
            .region(5, None)
            .region(5, Some(0))
            .build()
            .unwrap();
        let model = LossModel::RegionCorrelated { p_region: 1.0, p_member: 0.0 };
        let mut rng = SeedSequence::new(4).rng_for(0);
        let missed = model.multicast_outcome(&topo, NodeId(0), &mut rng);
        // Sender's region (nodes 0..5) receives; region 1 (nodes 5..10) all miss.
        assert!(missed[..5].iter().all(|&m| !m));
        assert!(missed[5..].iter().all(|&m| m));
    }

    #[test]
    fn delivery_plan_constructors() {
        let topo = paper_region(6);
        let all = DeliveryPlan::all(&topo);
        assert_eq!(all.holders().count(), 6);

        let only = DeliveryPlan::only(&topo, [NodeId(1), NodeId(3)]);
        assert_eq!(only.holders().count(), 2);
        assert!(only.receives(NodeId(1)));
        assert!(!only.receives(NodeId(0)));
        assert_eq!(only.missers().count(), 4);

        let all_but = DeliveryPlan::all_but(&topo, [NodeId(2)]);
        assert_eq!(all_but.holders().count(), 5);
        assert!(!all_but.receives(NodeId(2)));
    }

    #[test]
    fn delivery_plan_region_loss() {
        let topo = TopologyBuilder::new().region(3, None).region(4, Some(0)).build().unwrap();
        let plan = DeliveryPlan::region_loss(&topo, RegionId(1));
        assert_eq!(plan.holders().count(), 3);
        assert!(plan.missers().all(|n| topo.region_of(n) == RegionId(1)));
    }

    #[test]
    fn delivery_plan_from_model_respects_sender() {
        let topo = paper_region(20);
        let mut rng = SeedSequence::new(6).rng_for(0);
        let plan =
            DeliveryPlan::from_model(&topo, NodeId(4), &LossModel::Bernoulli { p: 1.0 }, &mut rng);
        assert_eq!(plan.holders().count(), 1);
        assert!(plan.receives(NodeId(4)));
    }
}
