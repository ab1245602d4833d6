//! Gossip-style heartbeat dissemination and failure detection.
//!
//! RRMP builds on "our previous work of … the Gossip-style Failure
//! Detection protocol" (van Renesse, Minsky, Hayden — Middleware '98).
//! Each member maintains a heartbeat counter per region member; it
//! periodically increments its own counter and gossips its table to a few
//! random neighbors; tables merge by taking per-member maxima. A member
//! whose counter has not increased for `fail_after` is declared failed;
//! failed entries are garbage-collected after `cleanup_after`.
//!
//! The implementation is sans-io in the same style as the protocol core:
//! [`GossipState`] consumes ticks and digests and returns the packets to
//! send plus the [`ViewEvent`]s it detected.

use std::collections::BTreeMap;

use rand::Rng;
use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::NodeId;

/// Configuration for the gossip failure detector.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipConfig {
    /// How often each member gossips (and bumps its own heartbeat).
    pub interval: SimDuration,
    /// How many random targets receive each gossip round.
    pub fanout: usize,
    /// Declare a member failed if its heartbeat is stale this long.
    pub fail_after: SimDuration,
    /// Forget failed members entirely after this much additional time.
    pub cleanup_after: SimDuration,
}

impl Default for GossipConfig {
    /// Defaults scaled for a 10 ms-RTT region: gossip every 100 ms,
    /// fanout 1, fail after 1 s of staleness, clean up after 2 s more.
    fn default() -> Self {
        GossipConfig {
            interval: SimDuration::from_millis(100),
            fanout: 1,
            fail_after: SimDuration::from_secs(1),
            cleanup_after: SimDuration::from_secs(2),
        }
    }
}

/// Liveness verdict for a member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Liveness {
    /// Heartbeats are fresh.
    Alive,
    /// Heartbeats went stale; the member is considered crashed.
    Failed,
}

#[derive(Debug, Clone)]
struct HeartbeatEntry {
    counter: u64,
    /// Local time when `counter` last increased.
    last_bump: SimTime,
    liveness: Liveness,
}

/// A gossip digest: the sender's heartbeat table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    /// `(member, heartbeat counter)` pairs.
    pub heartbeats: Vec<(NodeId, u64)>,
}

/// A membership change detected by the failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewEvent {
    /// A previously unknown (or cleaned-up) member appeared.
    Joined(NodeId),
    /// A member's heartbeats went stale.
    Failed(NodeId),
    /// A member previously declared failed produced fresh heartbeats.
    Recovered(NodeId),
    /// A failed member was garbage-collected from the table.
    Removed(NodeId),
}

/// Sans-io gossip failure-detector state for one member.
#[derive(Debug, Clone)]
pub struct GossipState {
    self_id: NodeId,
    cfg: GossipConfig,
    entries: BTreeMap<NodeId, HeartbeatEntry>,
}

impl GossipState {
    /// Creates the state for `self_id`, pre-populated with `members`
    /// (typically the initial region membership), all assumed alive at
    /// `now`.
    #[must_use]
    pub fn new<I: IntoIterator<Item = NodeId>>(
        self_id: NodeId,
        members: I,
        cfg: GossipConfig,
        now: SimTime,
    ) -> Self {
        let mut entries = BTreeMap::new();
        for m in members {
            entries.insert(
                m,
                HeartbeatEntry { counter: 0, last_bump: now, liveness: Liveness::Alive },
            );
        }
        entries.entry(self_id).or_insert(HeartbeatEntry {
            counter: 0,
            last_bump: now,
            liveness: Liveness::Alive,
        });
        GossipState { self_id, cfg, entries }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &GossipConfig {
        &self.cfg
    }

    /// One gossip round: bumps the own heartbeat and returns up to
    /// `fanout` random alive targets along with the digest to send them.
    pub fn on_tick<R: Rng + ?Sized>(&mut self, now: SimTime, rng: &mut R) -> (Vec<NodeId>, Digest) {
        let me = self.entries.get_mut(&self.self_id).expect("own entry always present");
        me.counter += 1;
        me.last_bump = now;

        let candidates: Vec<NodeId> = self
            .entries
            .iter()
            .filter(|(&id, e)| id != self.self_id && e.liveness == Liveness::Alive)
            .map(|(&id, _)| id)
            .collect();
        let mut targets = Vec::new();
        if !candidates.is_empty() {
            for _ in 0..self.cfg.fanout.min(candidates.len()) {
                // Sampling with replacement is faithful to the original
                // gossip protocol; duplicates just waste one packet.
                let pick = candidates[rng.gen_range(0..candidates.len())];
                targets.push(pick);
            }
        }
        (targets, self.digest())
    }

    /// The current digest (own table snapshot).
    #[must_use]
    pub fn digest(&self) -> Digest {
        Digest { heartbeats: self.entries.iter().map(|(&id, e)| (id, e.counter)).collect() }
    }

    /// Merges a received digest; returns any membership events this
    /// exposes (new members, recoveries).
    pub fn on_digest(&mut self, digest: &Digest, now: SimTime) -> Vec<ViewEvent> {
        let mut events = Vec::new();
        for &(id, counter) in &digest.heartbeats {
            match self.entries.get_mut(&id) {
                Some(entry) => {
                    if counter > entry.counter {
                        entry.counter = counter;
                        entry.last_bump = now;
                        if entry.liveness == Liveness::Failed {
                            entry.liveness = Liveness::Alive;
                            events.push(ViewEvent::Recovered(id));
                        }
                    }
                }
                None => {
                    self.entries.insert(
                        id,
                        HeartbeatEntry { counter, last_bump: now, liveness: Liveness::Alive },
                    );
                    events.push(ViewEvent::Joined(id));
                }
            }
        }
        events
    }

    /// Sweeps for stale members; returns failure/removal events.
    pub fn check_failures(&mut self, now: SimTime) -> Vec<ViewEvent> {
        let mut events = Vec::new();
        let mut to_remove = Vec::new();
        for (&id, entry) in &mut self.entries {
            if id == self.self_id {
                continue;
            }
            let stale = now.saturating_since(entry.last_bump);
            match entry.liveness {
                Liveness::Alive => {
                    if stale >= self.cfg.fail_after {
                        entry.liveness = Liveness::Failed;
                        events.push(ViewEvent::Failed(id));
                    }
                }
                Liveness::Failed => {
                    if stale >= self.cfg.fail_after + self.cfg.cleanup_after {
                        to_remove.push(id);
                    }
                }
            }
        }
        for id in to_remove {
            self.entries.remove(&id);
            events.push(ViewEvent::Removed(id));
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrmp_netsim::rng::SeedSequence;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn mk(n: u32) -> GossipState {
        GossipState::new(NodeId(0), (0..n).map(NodeId), GossipConfig::default(), SimTime::ZERO)
    }

    fn liveness_of(g: &GossipState, node: NodeId) -> Option<Liveness> {
        g.entries.get(&node).map(|e| e.liveness)
    }

    fn heartbeat_of(g: &GossipState, node: NodeId) -> Option<u64> {
        g.entries.get(&node).map(|e| e.counter)
    }

    #[test]
    fn tick_bumps_own_counter_and_targets_alive() {
        let mut g = mk(4);
        let mut rng = SeedSequence::new(1).rng_for(0);
        let (targets, digest) = g.on_tick(t(100), &mut rng);
        assert_eq!(targets.len(), 1);
        assert_ne!(targets[0], NodeId(0));
        assert_eq!(heartbeat_of(&g, NodeId(0)), Some(1));
        assert_eq!(digest.heartbeats.len(), 4);
    }

    #[test]
    fn digest_merge_takes_maxima_and_refreshes() {
        let mut g = mk(3);
        let fresh = Digest { heartbeats: vec![(NodeId(1), 5), (NodeId(2), 0)] };
        let events = g.on_digest(&fresh, t(50));
        assert!(events.is_empty());
        assert_eq!(heartbeat_of(&g, NodeId(1)), Some(5));
        // Counter 0 is not news (not greater), so node 2 stays at bump time 0.
        let stale = Digest { heartbeats: vec![(NodeId(1), 3)] };
        g.on_digest(&stale, t(60));
        assert_eq!(heartbeat_of(&g, NodeId(1)), Some(5));
    }

    #[test]
    fn unknown_member_joins() {
        let mut g = mk(2);
        let events = g.on_digest(&Digest { heartbeats: vec![(NodeId(9), 1)] }, t(10));
        assert_eq!(events, vec![ViewEvent::Joined(NodeId(9))]);
        assert_eq!(liveness_of(&g, NodeId(9)), Some(Liveness::Alive));
    }

    #[test]
    fn stale_member_fails_then_gets_cleaned_up() {
        let mut g = mk(2);
        // Node 1 never produces heartbeats. Default fail_after = 1s.
        let events = g.check_failures(t(999));
        assert!(events.is_empty());
        let events = g.check_failures(t(1000));
        assert_eq!(events, vec![ViewEvent::Failed(NodeId(1))]);
        assert_eq!(liveness_of(&g, NodeId(1)), Some(Liveness::Failed));
        // cleanup_after = 2s beyond fail_after.
        let events = g.check_failures(t(3000));
        assert_eq!(events, vec![ViewEvent::Removed(NodeId(1))]);
        assert_eq!(liveness_of(&g, NodeId(1)), None);
    }

    #[test]
    fn failed_member_recovers_on_fresh_heartbeat() {
        let mut g = mk(2);
        g.check_failures(t(1500));
        assert_eq!(liveness_of(&g, NodeId(1)), Some(Liveness::Failed));
        let events = g.on_digest(&Digest { heartbeats: vec![(NodeId(1), 7)] }, t(1600));
        assert_eq!(events, vec![ViewEvent::Recovered(NodeId(1))]);
        assert_eq!(liveness_of(&g, NodeId(1)), Some(Liveness::Alive));
    }

    #[test]
    fn self_never_fails() {
        let mut g = mk(1);
        let events = g.check_failures(t(1_000_000));
        assert!(events.is_empty());
        assert_eq!(liveness_of(&g, NodeId(0)), Some(Liveness::Alive));
    }

    #[test]
    fn alive_members_reflects_failures() {
        let mut g = mk(3);
        g.check_failures(t(5000));
        // All others failed; only self alive.
        let alive: Vec<NodeId> =
            (0..3).map(NodeId).filter(|&n| liveness_of(&g, n) == Some(Liveness::Alive)).collect();
        assert_eq!(alive, vec![NodeId(0)]);
    }

    #[test]
    fn end_to_end_gossip_keeps_cluster_alive() {
        // Run 5 members exchanging digests directly (no network): nobody
        // should ever be declared failed while all are ticking.
        let cfg = GossipConfig::default();
        let mut states: Vec<GossipState> = (0..5)
            .map(|i| GossipState::new(NodeId(i), (0..5).map(NodeId), cfg.clone(), SimTime::ZERO))
            .collect();
        let seq = SeedSequence::new(7);
        let mut rngs: Vec<_> = (0..5).map(|i| seq.rng_for(i as u64)).collect();
        let mut failures = 0;
        for step in 1..100u64 {
            let now = t(step * 100);
            for i in 0..5 {
                let (targets, digest) = states[i].on_tick(now, &mut rngs[i]);
                for target in targets {
                    let events = states[target.0 as usize].on_digest(&digest, now);
                    assert!(events.iter().all(|e| !matches!(e, ViewEvent::Failed(_))));
                }
            }
            for s in &mut states {
                failures += s
                    .check_failures(now)
                    .iter()
                    .filter(|e| matches!(e, ViewEvent::Failed(_)))
                    .count();
            }
        }
        assert_eq!(failures, 0, "healthy cluster should see no failures");
    }

    #[test]
    fn crashed_member_is_detected_by_everyone() {
        // Member 4 stops ticking at t=1s; all others should fail it within
        // fail_after + a few gossip rounds.
        let cfg = GossipConfig::default();
        let mut states: Vec<GossipState> = (0..5)
            .map(|i| GossipState::new(NodeId(i), (0..5).map(NodeId), cfg.clone(), SimTime::ZERO))
            .collect();
        let seq = SeedSequence::new(8);
        let mut rngs: Vec<_> = (0..5).map(|i| seq.rng_for(i as u64)).collect();
        let mut failed_at: Vec<Option<SimTime>> = vec![None; 5];
        for step in 1..60u64 {
            let now = t(step * 100);
            for i in 0..4 {
                // member 4 crashed after 1s
                if now > t(1000) || i != 4 {
                    let (targets, digest) = states[i].on_tick(now, &mut rngs[i]);
                    for target in targets {
                        states[target.0 as usize].on_digest(&digest, now);
                    }
                }
            }
            for (i, s) in states.iter_mut().enumerate().take(4) {
                for e in s.check_failures(now) {
                    if let ViewEvent::Failed(n) = e {
                        assert_eq!(n, NodeId(4));
                        failed_at[i].get_or_insert(now);
                    }
                }
            }
        }
        for (i, f) in failed_at.iter().enumerate().take(4) {
            assert!(f.is_some(), "member {i} never detected the crash");
        }
    }
}
