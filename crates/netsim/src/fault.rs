//! Deterministic, schedulable fault injection at the network edge.
//!
//! A [`FaultPlan`] is a static timeline of fault episodes — region↔region
//! partitions, link blackouts, node crashes and stalls, loss-burst
//! episodes that override the base [`LossModel`](crate::loss::LossModel),
//! and bounded packet duplication — consulted by both engines
//! ([`Sim`](crate::sim::Sim) and [`ShardedSim`](crate::shard::ShardedSim))
//! at transmit time: once per send ([`FaultPlan::active_at`]), and for
//! every unicast copy only while an episode is live at the send instant.
//!
//! ## Determinism
//!
//! Every decision a plan makes is a **pure function** of
//! `(plan, send time, from, to)`:
//!
//! * partitions, blackouts, crashes, and stalls are plain window checks —
//!   no randomness at all;
//! * the probabilistic episodes (loss bursts, duplication) draw from a
//!   stateless splitmix-style hash oracle over
//!   `(plan seed, episode, send time, from, to)` instead of any engine
//!   RNG stream. No generator state means no dependence on how many
//!   draws other packets consumed — the verdict for one packet is the
//!   same whether the run is sequential, sharded over 2 shards, or
//!   sharded over 16.
//!
//! Because a fault can only *drop* a packet or *add* a strictly later
//! duplicate copy (`arrive + extra_delay`), the conservative lookahead
//! rule of the sharded engine is untouched: no event is ever created
//! earlier than the no-fault schedule would have created it, so window
//! boundaries — and therefore traces — stay byte-identical at every
//! shard count.
//!
//! ## Semantics
//!
//! * **Partition** `a ↔ b` over `[from, until)`: every packet between the
//!   two regions (either direction) is dropped while the window is
//!   active. The `until` edge is the *heal* instant.
//! * **Blackout** of link `a ↔ b`: both directions of one node pair drop.
//! * **Crash** of `n` at `t`: all traffic to or from `n` drops forever
//!   after `t` (the protocol-level crash — stop processing, drop buffers —
//!   is the host harness's half; see `RrmpNetwork::arm_fault_plan`).
//! * **Stall** of `n` over `[from, until)`: like a crash that heals — the
//!   NIC goes dark but the process survives; on resume the node has
//!   missed every packet of the window and must recover via the
//!   protocol.
//! * **Loss burst** `p` over `[from, until)` (optionally scoped to one
//!   destination region): while active, the burst **overrides** the base
//!   unicast loss model — the packet's fate is decided by the oracle
//!   draw against `p`, and the engine skips its own loss-model draw.
//! * **Duplication** `p` + `extra_delay`: a surviving packet is, with
//!   probability `p`, delivered twice — the second copy `extra_delay`
//!   after the first.
//!
//! Windows are half-open `[from, until)` and evaluated at **send time**:
//! a packet sent just before a partition heals is still lost even though
//! it would have arrived after the heal (the wire was cut when it
//! entered).
//!
//! ## Where plans come from
//!
//! Plans are built in code with the chainable constructors. The chaos
//! suite names its fixed plans and replays each under every policy and
//! shard count it loops over.

use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, RegionId, Topology};

/// Half-open activity window `[from, until)`: `from` is the first
/// instant the episode is active, `until` the first after it — the heal
/// point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    from: SimTime,
    until: SimTime,
}

impl Window {
    /// Builds a window; `from` must precede `until`.
    ///
    /// # Panics
    ///
    /// Panics if `from >= until` (an empty fault window is always a
    /// script bug, not a degenerate no-op).
    fn new(from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "fault window must be non-empty: {from} >= {until}");
        Window { from, until }
    }

    /// Whether `t` falls inside the window.
    fn contains(self, t: SimTime) -> bool {
        t >= self.from && t < self.until
    }
}

/// A loss-burst episode: while active, unicast copies (optionally only
/// those destined for `region`) are dropped with probability `p`,
/// overriding the base loss model.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Burst {
    p: f64,
    region: Option<RegionId>,
    window: Window,
}

/// A duplication episode: surviving copies are duplicated with
/// probability `p`, the extra copy arriving `extra` later.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Dup {
    p: f64,
    extra: SimDuration,
    window: Window,
}

/// A deterministic timeline of fault episodes applied at the network
/// edge, built with the chainable constructors.
///
/// ```
/// use rrmp_netsim::fault::FaultPlan;
/// use rrmp_netsim::time::{SimDuration, SimTime};
/// use rrmp_netsim::topology::{presets, NodeId, RegionId};
///
/// let plan = FaultPlan::new(7)
///     .partition(RegionId(0), RegionId(1), SimTime::from_millis(100), SimTime::from_millis(400))
///     .crash(NodeId(4), SimTime::from_millis(250));
/// // Two regions of four nodes each: 0-3 in region 0, 4-7 in region 1.
/// let topo = presets::region_tree(4, 1, 1, SimDuration::from_millis(25));
/// // Cross-partition traffic drops mid-window, flows again after the heal.
/// assert_eq!(plan.drops(SimTime::from_millis(200), NodeId(0), NodeId(5), &topo), Some(true));
/// assert_eq!(plan.drops(SimTime::from_millis(450), NodeId(0), NodeId(5), &topo), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    partitions: Vec<(RegionId, RegionId, Window)>,
    blackouts: Vec<(NodeId, NodeId, Window)>,
    stalls: Vec<(NodeId, Window)>,
    crashes: Vec<(NodeId, SimTime)>,
    bursts: Vec<Burst>,
    dups: Vec<Dup>,
}

/// Stateless splitmix64 finalizer — the hash oracle's mixing step.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const SALT_BURST: u64 = 0xB0B5_7EED;
const SALT_DUP: u64 = 0xD0DD_7EED;

impl FaultPlan {
    /// An empty plan whose probabilistic episodes will draw from the hash
    /// oracle keyed by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Cuts all traffic between regions `a` and `b` (both directions)
    /// over `[from, until)`; `until` is the heal instant.
    #[must_use]
    pub fn partition(mut self, a: RegionId, b: RegionId, from: SimTime, until: SimTime) -> Self {
        assert_ne!(a, b, "a region cannot partition from itself");
        self.partitions.push((a, b, Window::new(from, until)));
        self
    }

    /// Cuts the link between nodes `a` and `b` (both directions) over
    /// `[from, until)`.
    #[must_use]
    pub fn blackout(mut self, a: NodeId, b: NodeId, from: SimTime, until: SimTime) -> Self {
        assert_ne!(a, b, "a blackout needs two distinct endpoints");
        self.blackouts.push((a, b, Window::new(from, until)));
        self
    }

    /// Disconnects `node` entirely over `[from, until)` — every packet to
    /// or from it drops — then heals.
    #[must_use]
    pub fn stall(mut self, node: NodeId, from: SimTime, until: SimTime) -> Self {
        self.stalls.push((node, Window::new(from, until)));
        self
    }

    /// Permanently disconnects `node` from `at` onward. The host harness
    /// pairs this with the protocol-level crash (drop buffers, stop
    /// processing).
    #[must_use]
    pub fn crash(mut self, node: NodeId, at: SimTime) -> Self {
        self.crashes.push((node, at));
        self
    }

    /// A loss-burst episode over `[from, until)`: unicast copies drop
    /// with probability `p`, **overriding** the base loss model while
    /// active. `region` scopes the burst to packets *destined for* that
    /// region; `None` applies it everywhere.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    #[must_use]
    pub fn loss_burst(
        mut self,
        p: f64,
        region: Option<RegionId>,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        assert!((0.0..=1.0).contains(&p), "burst probability out of range: {p}");
        self.bursts.push(Burst { p, region, window: Window::new(from, until) });
        self
    }

    /// A duplication episode over `[from, until)`: each surviving unicast
    /// copy is duplicated with probability `p`, the extra copy arriving
    /// `extra` after the first.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    #[must_use]
    pub fn duplicate(mut self, p: f64, extra: SimDuration, from: SimTime, until: SimTime) -> Self {
        assert!((0.0..=1.0).contains(&p), "duplication probability out of range: {p}");
        self.dups.push(Dup { p, extra, window: Window::new(from, until) });
        self
    }

    /// Whether the plan contains no episodes at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
            && self.blackouts.is_empty()
            && self.stalls.is_empty()
            && self.crashes.is_empty()
            && self.bursts.is_empty()
            && self.dups.is_empty()
    }

    /// The scheduled node crashes, for the harness to mirror at the
    /// protocol layer.
    pub fn crashes(&self) -> impl Iterator<Item = (NodeId, SimTime)> + '_ {
        self.crashes.iter().copied()
    }

    /// Every instant at which connectivity *improves* — the `until` edge
    /// of each partition, blackout, and stall window — sorted and
    /// deduplicated. The harness schedules heal notifications (recovery
    /// re-arming) at these times.
    #[must_use]
    pub fn heal_times(&self) -> Vec<SimTime> {
        let mut ts: Vec<SimTime> = self
            .partitions
            .iter()
            .map(|&(_, _, w)| w.until)
            .chain(self.blackouts.iter().map(|&(_, _, w)| w.until))
            .chain(self.stalls.iter().map(|&(_, w)| w.until))
            .collect();
        ts.sort_unstable();
        ts.dedup();
        ts
    }

    /// The latest instant any episode is still active (crashes are
    /// permanent, so a plan with crashes has no quiet point after them —
    /// this returns the crash time itself). `SimTime::ZERO` for an empty
    /// plan. Useful for sizing chaos-run horizons.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        self.partitions
            .iter()
            .map(|&(_, _, w)| w.until)
            .chain(self.blackouts.iter().map(|&(_, _, w)| w.until))
            .chain(self.stalls.iter().map(|&(_, w)| w.until))
            .chain(self.bursts.iter().map(|b| b.window.until))
            .chain(self.dups.iter().map(|d| d.window.until))
            .chain(self.crashes.iter().map(|&(_, at)| at))
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Whether any episode is live at `now`: a crash at or before it, or a
    /// window that contains it. While none is, [`FaultPlan::drops`] and
    /// [`FaultPlan::duplicate_delay`] answer `None` for every copy sent at
    /// `now`, so an engine asks once per send instead of once per copy.
    #[must_use]
    pub fn active_at(&self, now: SimTime) -> bool {
        self.crashes.iter().any(|&(_, at)| now >= at)
            || self.stalls.iter().any(|&(_, w)| w.contains(now))
            || self.blackouts.iter().any(|&(_, _, w)| w.contains(now))
            || self.partitions.iter().any(|&(_, _, w)| w.contains(now))
            || self.bursts.iter().any(|b| b.window.contains(now))
            || self.dups.iter().any(|d| d.window.contains(now))
    }

    /// The fault verdict for one unicast copy sent at `now` from `from`
    /// to `to`:
    ///
    /// * `Some(true)` — a fault drops it (partition, blackout, crash,
    ///   stall, or an active loss burst's oracle draw);
    /// * `Some(false)` — an active loss burst decided *deliver*, which
    ///   **overrides** the base loss model (skip its draw);
    /// * `None` — no episode applies; the base loss model decides.
    #[must_use]
    pub fn drops(&self, now: SimTime, from: NodeId, to: NodeId, topo: &Topology) -> Option<bool> {
        for &(node, at) in &self.crashes {
            if now >= at && (from == node || to == node) {
                return Some(true);
            }
        }
        for &(node, w) in &self.stalls {
            if w.contains(now) && (from == node || to == node) {
                return Some(true);
            }
        }
        for &(a, b, w) in &self.blackouts {
            if w.contains(now) && ((from == a && to == b) || (from == b && to == a)) {
                return Some(true);
            }
        }
        if !self.partitions.is_empty() {
            let (ra, rb) = (topo.region_of(from), topo.region_of(to));
            for &(pa, pb, w) in &self.partitions {
                if w.contains(now) && ((ra == pa && rb == pb) || (ra == pb && rb == pa)) {
                    return Some(true);
                }
            }
        }
        let mut verdict = None;
        for (i, b) in self.bursts.iter().enumerate() {
            if b.window.contains(now) && b.region.is_none_or(|r| topo.region_of(to) == r) {
                let drop = self.draw(SALT_BURST ^ (i as u64) << 32, now, from, to) < b.p;
                if drop {
                    return Some(true);
                }
                verdict = Some(false);
            }
        }
        verdict
    }

    /// If a duplication episode fires for a *surviving* copy sent at
    /// `now`, the extra copy's additional delay.
    #[must_use]
    pub fn duplicate_delay(&self, now: SimTime, from: NodeId, to: NodeId) -> Option<SimDuration> {
        for (i, d) in self.dups.iter().enumerate() {
            if d.window.contains(now) && self.draw(SALT_DUP ^ (i as u64) << 32, now, from, to) < d.p
            {
                return Some(d.extra);
            }
        }
        None
    }

    /// The stateless oracle: a uniform draw in `[0, 1)` keyed by
    /// `(seed, salt, now, from, to)`.
    fn draw(&self, salt: u64, now: SimTime, from: NodeId, to: NodeId) -> f64 {
        let endpoints = (u64::from(from.0) << 32) | u64::from(to.0);
        let h = mix(self.seed ^ mix(salt ^ mix(now.as_micros() ^ mix(endpoints))));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::presets;

    fn topo() -> Topology {
        // 2 regions x 4 nodes: nodes 0-3 in region 0, 4-7 in region 1.
        presets::region_tree(4, 1, 1, SimDuration::from_millis(25))
    }

    #[test]
    fn partition_blocks_both_directions_then_heals() {
        let t = topo();
        let plan = FaultPlan::new(1).partition(
            RegionId(0),
            RegionId(1),
            SimTime::from_millis(10),
            SimTime::from_millis(20),
        );
        let mid = SimTime::from_millis(15);
        assert_eq!(plan.drops(mid, NodeId(0), NodeId(5), &t), Some(true));
        assert_eq!(plan.drops(mid, NodeId(5), NodeId(0), &t), Some(true));
        // Intra-region traffic unaffected.
        assert_eq!(plan.drops(mid, NodeId(0), NodeId(1), &t), None);
        // Outside the window (including the heal edge itself): no opinion.
        assert_eq!(plan.drops(SimTime::from_millis(20), NodeId(0), NodeId(5), &t), None);
        assert_eq!(plan.drops(SimTime::from_millis(9), NodeId(0), NodeId(5), &t), None);
        assert_eq!(plan.heal_times(), vec![SimTime::from_millis(20)]);
    }

    #[test]
    fn blackout_hits_exactly_one_link() {
        let t = topo();
        let plan = FaultPlan::new(1).blackout(
            NodeId(1),
            NodeId(2),
            SimTime::ZERO,
            SimTime::from_millis(5),
        );
        let at = SimTime::from_millis(1);
        assert_eq!(plan.drops(at, NodeId(1), NodeId(2), &t), Some(true));
        assert_eq!(plan.drops(at, NodeId(2), NodeId(1), &t), Some(true));
        assert_eq!(plan.drops(at, NodeId(1), NodeId(3), &t), None);
    }

    #[test]
    fn crash_is_permanent_stall_heals() {
        let t = topo();
        let plan = FaultPlan::new(1).crash(NodeId(4), SimTime::from_millis(50)).stall(
            NodeId(2),
            SimTime::from_millis(50),
            SimTime::from_millis(60),
        );
        for ms in [50u64, 60, 1_000_000] {
            let at = SimTime::from_millis(ms);
            assert_eq!(plan.drops(at, NodeId(4), NodeId(5), &t), Some(true), "at {ms}ms");
            assert_eq!(plan.drops(at, NodeId(5), NodeId(4), &t), Some(true), "at {ms}ms");
        }
        assert_eq!(plan.drops(SimTime::from_millis(55), NodeId(2), NodeId(1), &t), Some(true));
        assert_eq!(plan.drops(SimTime::from_millis(60), NodeId(2), NodeId(1), &t), None);
        // Crashes are not heals.
        assert_eq!(plan.heal_times(), vec![SimTime::from_millis(60)]);
        assert_eq!(plan.crashes().collect::<Vec<_>>(), vec![(NodeId(4), SimTime::from_millis(50))]);
        assert_eq!(plan.horizon(), SimTime::from_millis(60));
        assert!(!plan.is_empty() && FaultPlan::new(1).is_empty());
    }

    #[test]
    fn burst_overrides_and_is_a_pure_function() {
        let t = topo();
        let plan =
            FaultPlan::new(99).loss_burst(0.5, None, SimTime::ZERO, SimTime::from_millis(100));
        let mut dropped = 0u32;
        for us in 0..1000u64 {
            let at = SimTime::from_micros(us * 100);
            let v = plan.drops(at, NodeId(0), NodeId(1), &t);
            // Inside the window the burst always has an opinion.
            let v = v.expect("burst window active");
            assert_eq!(plan.drops(at, NodeId(0), NodeId(1), &t), Some(v), "pure function");
            dropped += u32::from(v);
        }
        // ~Binomial(1000, 0.5): far from both degenerate outcomes.
        assert!((300..700).contains(&dropped), "burst drop count {dropped} implausible for p=0.5");
        // Outside the window: no opinion.
        assert_eq!(plan.drops(SimTime::from_millis(100), NodeId(0), NodeId(1), &t), None);
    }

    #[test]
    fn region_scoped_burst_only_hits_destination_region() {
        let t = topo();
        let plan = FaultPlan::new(3).loss_burst(
            1.0,
            Some(RegionId(1)),
            SimTime::ZERO,
            SimTime::from_millis(10),
        );
        let at = SimTime::from_millis(1);
        assert_eq!(plan.drops(at, NodeId(0), NodeId(5), &t), Some(true));
        assert_eq!(plan.drops(at, NodeId(5), NodeId(0), &t), None);
    }

    #[test]
    fn a_crash_before_the_send_keeps_the_plan_live() {
        let t = topo();
        let plan = FaultPlan::new(1).crash(NodeId(4), SimTime::from_millis(50));
        let before = SimTime::from_millis(49);
        assert!(!plan.active_at(before));
        assert_eq!(plan.drops(before, NodeId(4), NodeId(5), &t), None);
        // From the crash on, every send instant is live: the crashed node's
        // traffic still drops long after.
        for ms in [50u64, 51, 1_000_000] {
            let at = SimTime::from_millis(ms);
            assert!(plan.active_at(at), "at {ms}ms");
            assert_eq!(plan.drops(at, NodeId(5), NodeId(4), &t), Some(true), "at {ms}ms");
        }
        assert!(!FaultPlan::new(1).active_at(SimTime::ZERO), "an empty plan is never live");
    }

    #[test]
    fn active_at_follows_each_window() {
        let (from, until) = (SimTime::from_millis(10), SimTime::from_millis(20));
        let plans = [
            FaultPlan::new(1).partition(RegionId(0), RegionId(1), from, until),
            FaultPlan::new(1).blackout(NodeId(1), NodeId(2), from, until),
            FaultPlan::new(1).stall(NodeId(1), from, until),
            FaultPlan::new(1).loss_burst(0.5, None, from, until),
            FaultPlan::new(1).duplicate(0.5, SimDuration::from_millis(1), from, until),
        ];
        for plan in plans {
            let live: Vec<bool> =
                [9u64, 10, 19, 20].map(|ms| plan.active_at(SimTime::from_millis(ms))).to_vec();
            assert_eq!(live, [false, true, true, false], "{plan:?}");
        }
    }

    #[test]
    fn duplication_only_in_window() {
        let plan = FaultPlan::new(5).duplicate(
            1.0,
            SimDuration::from_millis(3),
            SimTime::ZERO,
            SimTime::from_millis(10),
        );
        assert_eq!(
            plan.duplicate_delay(SimTime::from_millis(1), NodeId(0), NodeId(1)),
            Some(SimDuration::from_millis(3))
        );
        assert_eq!(plan.duplicate_delay(SimTime::from_millis(10), NodeId(0), NodeId(1)), None);
    }
}

/// Random fault plans for the property tests here and in `shard`.
#[cfg(test)]
pub(crate) mod arb {
    use super::FaultPlan;
    use crate::time::{SimDuration, SimTime};
    use crate::topology::{NodeId, RegionId};
    use proptest::prelude::*;

    /// One randomized fault episode over the 4-region/12-node proptest
    /// topology. Ids and windows are normalized in `build_plan` so every
    /// generated value is a valid episode.
    #[derive(Debug, Clone)]
    pub(crate) enum FaultScript {
        Partition { a: u16, b_off: u16, start_ms: u64, len_ms: u64 },
        Blackout { a: u32, b_off: u32, start_ms: u64, len_ms: u64 },
        Stall { node: u32, start_ms: u64, len_ms: u64 },
        Crash { node: u32, at_ms: u64 },
        Burst { percent: u8, region: Option<u16>, start_ms: u64, len_ms: u64 },
        Dup { percent: u8, extra_ms: u64, start_ms: u64, len_ms: u64 },
    }

    pub(crate) fn arb_fault() -> impl Strategy<Value = FaultScript> {
        let win = || (0u64..3000, 1u64..1500);
        prop_oneof![
            (0u16..4, 0u16..3, win()).prop_map(|(a, b_off, (start_ms, len_ms))| {
                FaultScript::Partition { a, b_off, start_ms, len_ms }
            }),
            (0u32..12, 0u32..11, win()).prop_map(|(a, b_off, (start_ms, len_ms))| {
                FaultScript::Blackout { a, b_off, start_ms, len_ms }
            }),
            (0u32..12, win()).prop_map(|(node, (start_ms, len_ms))| FaultScript::Stall {
                node,
                start_ms,
                len_ms
            }),
            (0u32..12, 0u64..3000).prop_map(|(node, at_ms)| FaultScript::Crash { node, at_ms }),
            (0u8..=100, any::<bool>(), 0u16..4, win()).prop_map(
                |(percent, scoped, r, (start_ms, len_ms))| FaultScript::Burst {
                    percent,
                    region: scoped.then_some(r),
                    start_ms,
                    len_ms
                }
            ),
            (0u8..=100, 0u64..40, win()).prop_map(|(percent, extra_ms, (start_ms, len_ms))| {
                FaultScript::Dup { percent, extra_ms, start_ms, len_ms }
            }),
        ]
    }

    pub(crate) fn build_plan(seed: u64, events: &[FaultScript]) -> FaultPlan {
        let ms = SimTime::from_millis;
        let mut plan = FaultPlan::new(seed);
        for ev in events {
            plan = match *ev {
                FaultScript::Partition { a, b_off, start_ms, len_ms } => {
                    let b = (a + 1 + b_off) % 4;
                    plan.partition(RegionId(a), RegionId(b), ms(start_ms), ms(start_ms + len_ms))
                }
                FaultScript::Blackout { a, b_off, start_ms, len_ms } => {
                    let b = (a + 1 + b_off) % 12;
                    plan.blackout(NodeId(a), NodeId(b), ms(start_ms), ms(start_ms + len_ms))
                }
                FaultScript::Stall { node, start_ms, len_ms } => {
                    plan.stall(NodeId(node), ms(start_ms), ms(start_ms + len_ms))
                }
                FaultScript::Crash { node, at_ms } => plan.crash(NodeId(node), ms(at_ms)),
                FaultScript::Burst { percent, region, start_ms, len_ms } => plan.loss_burst(
                    f64::from(percent) / 100.0,
                    region.map(RegionId),
                    ms(start_ms),
                    ms(start_ms + len_ms),
                ),
                FaultScript::Dup { percent, extra_ms, start_ms, len_ms } => plan.duplicate(
                    f64::from(percent) / 100.0,
                    SimDuration::from_millis(extra_ms),
                    ms(start_ms),
                    ms(start_ms + len_ms),
                ),
            };
        }
        plan
    }
}

#[cfg(test)]
mod proptests {
    use super::arb::{arb_fault, build_plan};
    use super::*;
    use crate::topology::TopologyBuilder;
    use proptest::prelude::*;

    proptest! {
        /// While no episode is live at `now`, neither verdict has an
        /// opinion on any copy sent then — so the engine, which asks
        /// `active_at` once per send and skips both per-copy calls when it
        /// answers no, decides every copy as before.
        #[test]
        fn a_plan_quiet_at_the_send_instant_has_no_verdict(
            events in proptest::collection::vec(arb_fault(), 1..6),
            seed in any::<u64>(),
            sends in proptest::collection::vec((0u64..4_600_000, 0u32..12, 0u32..12), 64..65),
        ) {
            // The 4-region/12-node layout `arb_fault` draws ids for.
            let topo = TopologyBuilder::new()
                .region(3, None)
                .region(3, Some(0))
                .region(3, Some(0))
                .region(3, Some(2))
                .build()
                .unwrap();
            let plan = build_plan(seed, &events);
            for (us, from, to) in sends {
                let (now, from, to) = (SimTime::from_micros(us), NodeId(from), NodeId(to));
                if !plan.active_at(now) {
                    prop_assert_eq!(plan.drops(now, from, to, &topo), None);
                    prop_assert_eq!(plan.duplicate_delay(now, from, to), None);
                }
            }
        }
    }
}
