//! The pluggable buffer-management policy layer.
//!
//! The paper is a *comparison of buffer-management algorithms*: randomized
//! two-phase buffering (§3) against hash-based bufferer placement (the
//! authors' previous NGC '99 scheme, §3.4) and sender-based ACK/NACK
//! recovery (§1's implosion strawman). One protocol engine — loss
//! detection, request/repair plumbing, timers, churn — hosts them all;
//! a [`BufferPolicy`] owns every algorithm-specific decision:
//!
//! * **who buffers** a received payload, and in which phase
//!   ([`BufferPolicy::on_receive`]);
//! * **when to promote** short→long or discard at the idle check
//!   ([`BufferPolicy::on_idle`]);
//! * **where to hand off** long-term buffers on a voluntary leave
//!   ([`BufferPolicy::handoff_target`]);
//! * **whom to query** for a missing message, and how often to retry
//!   ([`BufferPolicy::pull_target`], [`BufferPolicy::pull_retry_delay`]).
//!
//! A policy's fixed answers — whether the λ/n remote phase runs, how
//! pulls are sent, whether remote repairs are re-multicast, the expiry
//! and history periods — are one [`Rules`] value, which
//! [`PolicyKind::rules`] turns out of the config in one `match`.
//!
//! The [`Receiver`](crate::receiver::Receiver) invokes these hooks at
//! fixed protocol points through a [`PolicyCtx`] that lends out its store,
//! metrics, observer, membership view, and — crucially — its RNG: the default
//! [`TwoPhase`] implementation makes exactly the draws, in exactly the
//! order, that the pre-refactor hard-wired receiver made, so its traces
//! are byte-identical (pinned by `tests/golden_traces.rs`).
//!
//! Engine-level duties stay in the receiver regardless of policy: loss
//! detection, answering requests from the buffer, waiter relays, the
//! bufferer search (only ever ignited by the two-phase remote phase), the
//! regional re-multicast back-off, and the handoff duty-transfer rule
//! (an arriving [`Packet::Handoff`]
//! always enters the long-term phase — it *is* the transfer of a
//! buffering obligation).

use std::sync::Arc;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::Rng;
use rrmp_membership::view::HierarchyView;
use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::NodeId;

use crate::buffer::MessageStore;
use crate::config::{ProtocolConfig, LOCAL_TIMEOUT};
use crate::events::{Action, TimerKind};
use crate::history::{HistoryDigest, RepairRoles, StabilityTracker};
use crate::ids::MessageId;
use crate::loss::LossDetector;
use crate::metrics::Metrics;
use crate::observe::Observer;
use crate::packet::Packet;
use crate::vecmap::VecMap;
use rrmp_trace::{BufferPhase, EventKind};

/// How a data payload reached a receiver — policies use it to
/// distinguish initial multicasts from repairs and handoffs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPath {
    /// The sender's initial multicast (or a self-originated message).
    Multicast,
    /// A repair answering a local request.
    LocalRepair,
    /// A repair that crossed regions.
    RemoteRepair,
    /// A repair multicast within the region.
    RegionalRepair,
    /// A long-term buffer handoff from a leaving member.
    Handoff,
}

/// Everything a policy hook may read or mutate, lent by the receiver for
/// the duration of one decision. Field split (rather than `&mut Receiver`)
/// keeps the borrow checker happy and the policy surface explicit.
#[derive(Debug)]
pub struct PolicyCtx<'a> {
    /// This member's id.
    pub id: NodeId,
    /// Current time.
    pub now: SimTime,
    /// The protocol configuration.
    pub cfg: &'a ProtocolConfig,
    /// The membership view (own + parent region).
    pub view: &'a HierarchyView,
    /// The loss detector (read-only): which messages have ever been
    /// received — the raw material of history digests.
    pub detector: &'a LossDetector,
    /// The two-phase message store.
    pub store: &'a mut MessageStore,
    /// Protocol metrics.
    pub metrics: &'a mut Metrics,
    /// The receiver's observer, if armed: buffer-phase changes are
    /// recorded here.
    pub observer: Option<&'a mut dyn Observer>,
    /// The receiver's RNG — the *only* randomness source, so identical
    /// inputs yield identical behaviour for any policy.
    pub rng: &'a mut StdRng,
    /// The action buffer of the event being handled.
    pub actions: &'a mut Vec<Action>,
}

impl PolicyCtx<'_> {
    /// Asks the host to fire `kind` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, kind: TimerKind) {
        self.actions.push(Action::SetTimer { delay, kind });
    }

    /// Records a buffer-phase change of `id` on the observer, if armed.
    fn phase(&mut self, id: MessageId, phase: BufferPhase) {
        let (src, mseq) = (id.source.0, id.seq.value());
        if let Some(o) = self.observer.as_deref_mut() {
            o.on_event(self.now, EventKind::Buffer { src, mseq, phase });
        }
    }

    /// Records capacity evictions in the metrics (shared bookkeeping for
    /// every policy that inserts through the bounded store paths).
    fn note_evictions(&mut self, evicted: Vec<MessageId>) {
        for id in evicted {
            self.metrics.counters.evicted_for_capacity += 1;
            self.phase(id, BufferPhase::Discarded);
        }
    }

    /// Inserts `payload` straight into the long-term phase with the
    /// standard metric bookkeeping — the shape shared by handoff receipt
    /// and designated-bufferer placement.
    fn enter_long_term(&mut self, id: MessageId, payload: Bytes) {
        let (_, evicted) = self.store.insert_long_bounded(id, payload, self.now);
        self.note_evictions(evicted);
        self.phase(id, BufferPhase::Idled);
        self.phase(id, BufferPhase::Kept);
    }
}

/// One buffer-management algorithm, plugged into the shared protocol
/// engine. See the module docs for the decision points each hook owns.
///
/// Implementations must be deterministic given the [`PolicyCtx`] RNG:
/// the simulator's trace-equality suites run every policy on the
/// single-queue *and* sharded engines and require identical outcomes.
pub trait BufferPolicy: std::fmt::Debug + Send {
    /// A payload was newly delivered (path tells how); decide who buffers
    /// it, in which phase, and whether to arm an idle-check timer.
    fn on_receive(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        id: MessageId,
        payload: &Bytes,
        path: DataPath,
    );

    /// The idle-check timer for `msg` fired; decide to re-arm, promote to
    /// the long-term phase, or discard. Never called unless
    /// [`BufferPolicy::on_receive`] (or a preload) armed the timer.
    fn on_idle(&mut self, ctx: &mut PolicyCtx<'_>, msg: MessageId);

    /// Whom to ask next for missing message `msg` (the pull/request
    /// phase). `None` sends nothing this round; the retry timer is still
    /// armed by the engine.
    fn pull_target(&mut self, ctx: &mut PolicyCtx<'_>, msg: MessageId) -> Option<NodeId>;

    /// Retry period of the pull phase; the intra-region RTT unless
    /// overridden. Receives the full [`PolicyCtx`] so role-aware policies
    /// can pick per-role budgets (a tree repair server retries its parent
    /// on a cross-region RTT, its receivers on the local one).
    fn pull_retry_delay(&self, _ctx: &PolicyCtx<'_>) -> SimDuration {
        LOCAL_TIMEOUT
    }

    /// Where to hand off long-term-buffered `msg` when leaving
    /// voluntarily (§3.2). `None` drops the copy (a scheme without
    /// handoff redundancy).
    fn handoff_target(&mut self, ctx: &mut PolicyCtx<'_>, msg: MessageId) -> Option<NodeId>;

    /// The periodic history tick fired ([`TimerKind::HistoryTick`]);
    /// emit the advertisements — one [`Action::SendMany`] when the same
    /// packet goes to many members. The engine re-arms the timer. Only
    /// called when the policy's [`Rules::history_interval`] is `Some`.
    fn history_tick(&mut self, _ctx: &mut PolicyCtx<'_>) {}

    /// A peer's history advertisement arrived
    /// ([`Packet::History`]); fold it
    /// into whatever stability state the policy keeps.
    fn on_history_digest(
        &mut self,
        _ctx: &mut PolicyCtx<'_>,
        _from: NodeId,
        _digest: &HistoryDigest,
    ) {
    }

    /// The membership layer removed `node` from this member's views
    /// (leave or crash). Policies tracking per-member state (stability
    /// quorums) prune it so a departed member stops gating progress.
    fn on_member_removed(&mut self, _node: NodeId) {}
}

// ---------------------------------------------------------------------------
// The paper's algorithm (default) and its feedback-free ablations.
// ---------------------------------------------------------------------------

/// The paper's randomized two-phase algorithm (§3): feedback-based
/// short-term buffering with idle threshold `T`, a `C/n` long-term
/// lottery at the idle transition, random-neighbor pull recovery, the
/// λ/n remote phase, and random-neighbor handoff on leave.
///
/// This is the default policy and reproduces the pre-refactor receiver
/// bit for bit (same RNG draws in the same order).
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoPhase;

impl BufferPolicy for TwoPhase {
    fn on_receive(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        id: MessageId,
        payload: &Bytes,
        path: DataPath,
    ) {
        if path == DataPath::Handoff {
            ctx.enter_long_term(id, payload.clone());
            return;
        }
        let (_, evicted) = ctx.store.insert_short_bounded(id, payload.clone(), ctx.now);
        ctx.note_evictions(evicted);
        let delay = ctx.cfg.idle_threshold;
        ctx.set_timer(delay, TimerKind::IdleCheck(id));
    }

    fn on_idle(&mut self, ctx: &mut PolicyCtx<'_>, msg: MessageId) {
        let Some(activity) = ctx.store.short_last_activity(msg) else { return };
        let idle_at = activity + ctx.cfg.idle_threshold;
        if ctx.now < idle_at {
            // A request refreshed the clock; re-arm for the residue.
            let residue = idle_at - ctx.now;
            ctx.set_timer(residue, TimerKind::IdleCheck(msg));
            return;
        }
        // The message is idle (§3.1): decide long-term retention.
        ctx.metrics.counters.idle_transitions += 1;
        ctx.phase(msg, BufferPhase::Idled);
        let p = ctx.cfg.long_term_probability(ctx.view.own().len());
        if ctx.rng.gen_bool(p) {
            ctx.store.promote_to_long(msg, ctx.now);
            ctx.metrics.counters.long_term_kept += 1;
            ctx.phase(msg, BufferPhase::Kept);
        } else {
            ctx.store.discard(msg, ctx.now);
            ctx.metrics.counters.discarded_at_idle += 1;
            ctx.phase(msg, BufferPhase::Discarded);
        }
    }

    fn pull_target(&mut self, ctx: &mut PolicyCtx<'_>, _msg: MessageId) -> Option<NodeId> {
        ctx.view.own().random_other(ctx.rng, ctx.id)
    }

    fn handoff_target(&mut self, ctx: &mut PolicyCtx<'_>, _msg: MessageId) -> Option<NodeId> {
        ctx.view.own().random_other(ctx.rng, ctx.id)
    }
}

/// Bimodal-Multicast-style ablation: every member buffers each message
/// for a fixed duration, ignoring request feedback.
#[derive(Debug, Clone, Copy)]
pub struct FixedTime {
    /// How long every member holds every message.
    pub hold: SimDuration,
}

impl BufferPolicy for FixedTime {
    fn on_receive(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        id: MessageId,
        payload: &Bytes,
        path: DataPath,
    ) {
        if path == DataPath::Handoff {
            ctx.enter_long_term(id, payload.clone());
            return;
        }
        let (_, evicted) = ctx.store.insert_short_bounded(id, payload.clone(), ctx.now);
        ctx.note_evictions(evicted);
        ctx.set_timer(self.hold, TimerKind::IdleCheck(id));
    }

    fn on_idle(&mut self, ctx: &mut PolicyCtx<'_>, msg: MessageId) {
        // Discard at the deadline regardless of demand — the failure mode
        // §3.1's feedback rule exists to prevent.
        if ctx.store.short_last_activity(msg).is_some() {
            ctx.store.discard(msg, ctx.now);
            ctx.metrics.counters.discarded_at_idle += 1;
            ctx.phase(msg, BufferPhase::Idled);
            ctx.phase(msg, BufferPhase::Discarded);
        }
    }

    fn pull_target(&mut self, ctx: &mut PolicyCtx<'_>, _msg: MessageId) -> Option<NodeId> {
        ctx.view.own().random_other(ctx.rng, ctx.id)
    }

    fn handoff_target(&mut self, ctx: &mut PolicyCtx<'_>, _msg: MessageId) -> Option<NodeId> {
        ctx.view.own().random_other(ctx.rng, ctx.id)
    }
}

/// Never discard (an RMTP-like upper bound on buffering cost).
#[derive(Debug, Clone, Copy, Default)]
pub struct KeepAll;

impl BufferPolicy for KeepAll {
    fn on_receive(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        id: MessageId,
        payload: &Bytes,
        path: DataPath,
    ) {
        if path == DataPath::Handoff {
            ctx.enter_long_term(id, payload.clone());
            return;
        }
        let (_, evicted) = ctx.store.insert_short_bounded(id, payload.clone(), ctx.now);
        ctx.note_evictions(evicted);
        // No idle timer: short-term entries live forever.
    }

    fn on_idle(&mut self, _ctx: &mut PolicyCtx<'_>, _msg: MessageId) {}

    fn pull_target(&mut self, ctx: &mut PolicyCtx<'_>, _msg: MessageId) -> Option<NodeId> {
        ctx.view.own().random_other(ctx.rng, ctx.id)
    }

    fn handoff_target(&mut self, ctx: &mut PolicyCtx<'_>, _msg: MessageId) -> Option<NodeId> {
        ctx.view.own().random_other(ctx.rng, ctx.id)
    }
}

// ---------------------------------------------------------------------------
// Hash-based bufferer placement (NGC '99).
// ---------------------------------------------------------------------------

/// Designated bufferers per message under [`HashBufferers`].
const HASH_BUFFERERS: usize = 6;

/// Retry timer of the direct pulls — hash-based and sender-based
/// requests, which may cross regions and so need a worst-case-RTT budget
/// rather than the local one — and of a tree repair server's NACK to its
/// parent region's server.
const DIRECT_REQUEST_TIMEOUT: SimDuration = SimDuration::from_millis(60);

/// Deterministic 64-bit hash of `(member, message)` used by hash-based
/// bufferer placement — requester and bufferer sides must agree on it.
#[must_use]
fn bufferer_hash(member: NodeId, msg: MessageId) -> u64 {
    let mut state = (u64::from(member.0) << 32)
        ^ (u64::from(msg.source.0).rotate_left(17))
        ^ msg.seq.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    rrmp_netsim::rng::splitmix64(&mut state)
}

/// The `k` designated bufferers for `msg` among `members` (the `k`
/// smallest `hash(member, msg)` values; ties broken by id).
#[must_use]
pub fn designated_bufferers(members: &[NodeId], msg: MessageId, k: usize) -> Vec<NodeId> {
    let mut scored: Vec<(u64, NodeId)> =
        members.iter().map(|&m| (bufferer_hash(m, msg), m)).collect();
    scored.sort();
    scored.into_iter().take(k).map(|(_, m)| m).collect()
}

/// Deterministic hash-based bufferer selection — the authors' *previous*
/// scheme (Ozkasap, van Renesse, Birman, Xiao: "Efficient buffering in
/// reliable multicast protocols", NGC '99), which the paper's §1 and §3.4
/// compare against, running on the shared engine.
///
/// Every member knows the full group membership. For a message `m`, the
/// six members with the smallest `hash(member, m)` are
/// its designated bufferers; everyone computes the set locally. A member
/// missing `m` pulls it directly from a random designated bufferer —
/// no search traffic, but topology-blind: requests routinely cross
/// high-latency links, the weakness that motivated RRMP's regional
/// design.
#[derive(Debug, Clone)]
pub struct HashBufferers {
    members: Vec<NodeId>,
    /// Reused scratch for the designated-set computation.
    scratch: Vec<(u64, NodeId)>,
}

impl HashBufferers {
    /// Creates the policy for a member knowing the full `members` list.
    #[must_use]
    pub fn new(members: Vec<NodeId>) -> Self {
        HashBufferers { members, scratch: Vec::new() }
    }

    /// Whether `who` is among the designated bufferers of `msg`: fewer
    /// than [`HASH_BUFFERERS`] members hash strictly below it. One O(n) pass — no sort,
    /// no scratch — since this runs on every data arrival.
    fn is_designated(&self, who: NodeId, msg: MessageId) -> bool {
        if HASH_BUFFERERS >= self.members.len() {
            return self.members.contains(&who);
        }
        let mine = (bufferer_hash(who, msg), who);
        let mut below = 0usize;
        let mut member = false;
        for &m in &self.members {
            let key = (bufferer_hash(m, msg), m);
            if key < mine {
                below += 1;
                if below >= HASH_BUFFERERS {
                    return false;
                }
            } else if m == who {
                member = true;
            }
        }
        member
    }

    /// Fills `scratch` with `(hash, member)` and partitions the
    /// designated bufferers into the front (in no particular order):
    /// selection, not a full sort.
    fn rank_members(&mut self, msg: MessageId) -> &[(u64, NodeId)] {
        self.scratch.clear();
        self.scratch.extend(self.members.iter().map(|&m| (bufferer_hash(m, msg), m)));
        let k = HASH_BUFFERERS.min(self.scratch.len());
        if k > 0 && k < self.scratch.len() {
            self.scratch.select_nth_unstable(k - 1);
        }
        &self.scratch[..k]
    }
}

impl BufferPolicy for HashBufferers {
    fn on_receive(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        id: MessageId,
        payload: &Bytes,
        path: DataPath,
    ) {
        // Only designated members buffer; everyone else keeps nothing
        // beyond delivery (the NGC '99 design point). A handoff still
        // transfers the buffering duty.
        if path == DataPath::Handoff || self.is_designated(ctx.id, id) {
            ctx.enter_long_term(id, payload.clone());
        }
    }

    fn on_idle(&mut self, _ctx: &mut PolicyCtx<'_>, _msg: MessageId) {}

    fn pull_target(&mut self, ctx: &mut PolicyCtx<'_>, msg: MessageId) -> Option<NodeId> {
        let me = ctx.id;
        // Select uniformly among the non-self designated members straight
        // from the partitioned scratch — no candidates Vec per retry
        // round (scratch order is deterministic for a fixed member list,
        // so runs stay reproducible).
        let designated = self.rank_members(msg);
        let candidates = designated.iter().filter(|&&(_, m)| m != me).count();
        if candidates == 0 {
            return None;
        }
        let pick = ctx.rng.gen_range(0..candidates);
        designated.iter().map(|&(_, m)| m).filter(|&m| m != me).nth(pick)
    }

    fn pull_retry_delay(&self, _ctx: &PolicyCtx<'_>) -> SimDuration {
        DIRECT_REQUEST_TIMEOUT
    }

    fn handoff_target(&mut self, ctx: &mut PolicyCtx<'_>, msg: MessageId) -> Option<NodeId> {
        // Hand the duty to the best-ranked other member — the node every
        // requester will (modulo the leaver) route to anyway. A plain
        // min-scan: no sort, no scratch.
        let me = ctx.id;
        self.members
            .iter()
            .filter(|&&m| m != me)
            .map(|&m| (bufferer_hash(m, msg), m))
            .min()
            .map(|(_, m)| m)
    }
}

// ---------------------------------------------------------------------------
// Sender-based recovery (§1's implosion strawman).
// ---------------------------------------------------------------------------

/// Sender-based recovery — the strawman the field moved away from, and
/// the opening motivation of the paper's §1: every receiver NACKs the
/// original sender directly; the sender buffers the whole session and
/// answers every NACK itself, concentrating the recovery load that RRMP
/// spreads out.
#[derive(Debug, Clone, Copy, Default)]
pub struct SenderBased;

impl BufferPolicy for SenderBased {
    fn on_receive(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        id: MessageId,
        payload: &Bytes,
        path: DataPath,
    ) {
        // Only the message's source buffers (its own whole session).
        if path == DataPath::Handoff || id.source == ctx.id {
            ctx.enter_long_term(id, payload.clone());
        }
    }

    fn on_idle(&mut self, _ctx: &mut PolicyCtx<'_>, _msg: MessageId) {}

    fn pull_target(&mut self, ctx: &mut PolicyCtx<'_>, msg: MessageId) -> Option<NodeId> {
        // NACK the source (never ourselves).
        (msg.source != ctx.id).then_some(msg.source)
    }

    fn pull_retry_delay(&self, _ctx: &PolicyCtx<'_>) -> SimDuration {
        DIRECT_REQUEST_TIMEOUT
    }

    fn handoff_target(&mut self, _ctx: &mut PolicyCtx<'_>, _msg: MessageId) -> Option<NodeId> {
        None // no redundancy: a departing sender's buffers are simply lost
    }
}

// ---------------------------------------------------------------------------
// Stability detection (INFOCOM '00).
// ---------------------------------------------------------------------------

/// How often [`Stability`] advertises its delivery digest to the group —
/// the standing overhead RRMP's feedback rule avoids.
const HISTORY_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// Stability-detection buffering (Guo & Rhee, INFOCOM '00) — the class of
/// protocols §1/§6 contrasts with: every member buffers every message
/// until it is *stable* (received by the whole group), learned by
/// periodically exchanging history digests
/// ([`Packet::History`], built from the
/// loss detector's interval sets and scheduled by the engine's
/// [`TimerKind::HistoryTick`]).
///
/// Costs the paper highlights, all reproduced by the port: standing
/// history traffic even when nothing is lost, full-group membership
/// knowledge, and buffers that drain only at the pace of the slowest
/// member. Churn is handled through [`BufferPolicy::on_member_removed`]:
/// a departed member leaves the stability quorum instead of freezing it.
#[derive(Debug, Clone)]
pub struct Stability {
    /// The full group membership, ascending (the quorum). Shared, because
    /// it is also the target list of every history tick's fan-out.
    members: Arc<[NodeId]>,
    /// Per-peer ack frontiers folded from arriving digests.
    tracker: StabilityTracker,
    /// Per-source frontier up to which the store was already swept —
    /// the sweep is skipped entirely unless stability advanced, so a
    /// digest flood costs O(entries), not O(store) each.
    swept: VecMap<NodeId, u64>,
    /// Reused scratch for the stable-discard sweep.
    scratch: Vec<MessageId>,
}

impl Stability {
    /// Creates the policy for a member knowing the full `members` list.
    #[must_use]
    pub fn new(mut members: Vec<NodeId>) -> Self {
        // Kept sorted: digest admission binary-searches the quorum.
        members.sort_unstable();
        members.dedup();
        // Pre-interning the quorum fixes the tracker's dense peer
        // indices (and flat-array sizes) up front; behaviour is
        // unchanged vs lazy interning.
        let tracker = StabilityTracker::with_members(&members);
        Stability { members: members.into(), tracker, swept: VecMap::new(), scratch: Vec::new() }
    }

    /// Peers this member waits on: every other member of the group.
    fn quorum_len(&self, me: NodeId) -> usize {
        self.members.len() - usize::from(self.members.binary_search(&me).is_ok())
    }

    /// The group-wide stability frontier for `source` as this member
    /// currently knows it (`None` while any quorum peer is unheard).
    #[must_use]
    pub fn stable_frontier(
        &self,
        own: crate::ids::SeqNo,
        source: NodeId,
        me: NodeId,
    ) -> Option<crate::ids::SeqNo> {
        self.tracker.stable_frontier(source, own, self.quorum_len(me))
    }
}

impl BufferPolicy for Stability {
    fn on_receive(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        id: MessageId,
        payload: &Bytes,
        _path: DataPath,
    ) {
        // Everyone buffers everything until stability — regardless of how
        // the payload arrived (a handoff is just another copy here).
        ctx.enter_long_term(id, payload.clone());
    }

    fn on_idle(&mut self, _ctx: &mut PolicyCtx<'_>, _msg: MessageId) {}

    fn pull_target(&mut self, ctx: &mut PolicyCtx<'_>, _msg: MessageId) -> Option<NodeId> {
        // A uniformly random other member: one gen_range over the
        // non-self members in ascending id order.
        let me = ctx.id;
        let candidates = self.members.iter().filter(|&&m| m != me).count();
        if candidates == 0 {
            return None;
        }
        let pick = ctx.rng.gen_range(0..candidates);
        self.members.iter().copied().filter(|&m| m != me).nth(pick)
    }

    fn handoff_target(&mut self, _ctx: &mut PolicyCtx<'_>, _msg: MessageId) -> Option<NodeId> {
        None // every member already holds a copy of anything unstable
    }

    /// Advertises the delivery digest to every other member — the
    /// standing overhead this scheme pays even in loss-free sessions — as
    /// one [`Action::SendMany`] over the quorum list: the digest is built
    /// once and shared by every copy, and the list is not copied.
    fn history_tick(&mut self, ctx: &mut PolicyCtx<'_>) {
        let peers = self.quorum_len(ctx.id);
        if peers == 0 {
            return;
        }
        ctx.metrics.counters.history_digests_sent += peers as u64;
        let digest = Arc::new(HistoryDigest::from_detector(ctx.detector));
        ctx.actions.push(Action::SendMany {
            to: Arc::clone(&self.members),
            packet: Box::new(Packet::History { digest }),
        });
    }

    fn on_history_digest(&mut self, ctx: &mut PolicyCtx<'_>, from: NodeId, digest: &HistoryDigest) {
        // A digest from outside the current membership — typically a
        // departed member's advertisement still in flight when the view
        // dropped it — must not (re-)enter the tracker: its stale, never
        // advancing frontier would pin group stability forever.
        if self.members.binary_search(&from).is_err() {
            return;
        }
        self.tracker.record(from, digest);
        // Only the advertised sources can have newly stabilized, and the
        // store is swept only when a source's stability frontier actually
        // advanced past the last sweep — the common digest (nothing new)
        // costs O(entries), not O(store).
        let quorum_len = self.quorum_len(ctx.id);
        debug_assert!(self.scratch.is_empty());
        let mut stable_ids = std::mem::take(&mut self.scratch);
        for entry in &digest.entries {
            let source = entry.source;
            let own = ctx.detector.contiguous_received(source);
            let Some(stable) = self.tracker.stable_frontier(source, own, quorum_len) else {
                continue;
            };
            if stable == crate::ids::SeqNo::NONE {
                continue;
            }
            let swept = self.swept.get_or_default(source);
            if stable.0 <= *swept {
                continue; // nothing new can have stabilized
            }
            *swept = stable.0;
            stable_ids.extend(
                ctx.store
                    .iter()
                    .filter(|(id, _)| id.source == source && id.seq <= stable)
                    .map(|(id, _)| id),
            );
        }
        for &id in &stable_ids {
            ctx.store.discard(id, ctx.now);
            ctx.metrics.counters.stable_discards += 1;
            ctx.phase(id, BufferPhase::Discarded);
        }
        stable_ids.clear();
        self.scratch = stable_ids;
    }

    fn on_member_removed(&mut self, node: NodeId) {
        // A departed member no longer gates stability; without this, one
        // leave would freeze every buffer in the group forever.
        if self.members.binary_search(&node).is_ok() {
            self.members = self.members.iter().copied().filter(|&m| m != node).collect();
        }
        self.tracker.forget(node);
    }
}

// ---------------------------------------------------------------------------
// Tree-based repair servers (RMTP, JSAC '97).
// ---------------------------------------------------------------------------

/// Tree-based repair-server buffering (RMTP-style, JSAC '97) — the
/// designated-repair-server design §1/§6 argues against: each region's
/// **repair server** (its lowest-id member, [`RepairRoles`]) buffers the
/// entire session; ordinary receivers buffer nothing and NACK their
/// server, and a server missing the message NACKs the parent region's
/// server. All roles re-derive deterministically from the membership
/// view, so churn promotes the next-lowest member without any election.
///
/// The NACKs ride the engine's pull phase as remote requests
/// ([`Rules::pull_via_remote_request`]), giving servers the
/// waiting-list semantics the scheme needs, and repairs are answered
/// per-NACK — never region-multicast
/// ([`Rules::remulticast_remote_repairs`] is off).
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeRmtp;

impl TreeRmtp {
    fn roles(ctx: &PolicyCtx<'_>) -> Option<RepairRoles> {
        RepairRoles::from_view(ctx.view)
    }
}

impl BufferPolicy for TreeRmtp {
    fn on_receive(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        id: MessageId,
        payload: &Bytes,
        path: DataPath,
    ) {
        // The repair server buffers the whole session (the RMTP
        // file-transfer model); everyone else keeps nothing beyond
        // delivery. A handoff still transfers the buffering duty.
        let is_server = Self::roles(&*ctx).is_some_and(|r| r.is_server(ctx.id));
        if path == DataPath::Handoff || is_server {
            ctx.enter_long_term(id, payload.clone());
        }
    }

    fn on_idle(&mut self, _ctx: &mut PolicyCtx<'_>, _msg: MessageId) {}

    fn pull_target(&mut self, ctx: &mut PolicyCtx<'_>, _msg: MessageId) -> Option<NodeId> {
        Self::roles(&*ctx).and_then(|r| r.recovery_target(ctx.id))
    }

    fn pull_retry_delay(&self, ctx: &PolicyCtx<'_>) -> SimDuration {
        // Receivers retry their server on the intra-region RTT; the
        // server retries the parent region's server on the direct
        // (worst-case) budget.
        if Self::roles(ctx).is_some_and(|r| r.is_server(ctx.id)) {
            DIRECT_REQUEST_TIMEOUT
        } else {
            LOCAL_TIMEOUT
        }
    }

    fn handoff_target(&mut self, ctx: &mut PolicyCtx<'_>, _msg: MessageId) -> Option<NodeId> {
        // A leaving server hands the session to the member that will
        // inherit the role once the views drop the leaver: the
        // next-lowest id in the region.
        let me = ctx.id;
        ctx.view.own().members().find(|&m| m != me)
    }
}

// ---------------------------------------------------------------------------
// Selection.
// ---------------------------------------------------------------------------

/// Which buffer-management policy a receiver runs — the serializable
/// selector stored in [`ProtocolConfig::policy`]; [`PolicyKind::build`]
/// turns it into the [`BufferPolicy`] implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// The paper's contribution: feedback-based short-term buffering with
    /// idle threshold `T`, then randomized long-term buffering with
    /// expected `C` bufferers per region.
    TwoPhase,
    /// Bimodal-Multicast-style baseline: every member buffers each message
    /// for a fixed duration, ignoring request feedback.
    FixedTime {
        /// How long every member holds every message.
        hold: SimDuration,
    },
    /// Never discard (an RMTP-like upper bound on buffering cost).
    KeepAll,
    /// Hash-based designated bufferers (NGC '99), six per message over
    /// the full membership.
    HashBufferers,
    /// All recovery through the message source (§1's implosion strawman).
    SenderBased,
    /// Stability detection via periodic history exchange (INFOCOM '00):
    /// everyone buffers everything until the whole group has it.
    Stability,
    /// Fixed per-region repair servers buffering the entire session
    /// (RMTP, JSAC '97), NACKed up the region hierarchy.
    TreeRmtp,
}

impl PolicyKind {
    /// Short name, used to label test failures and `perf/`'s per-policy
    /// metrics.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::TwoPhase => "two-phase",
            PolicyKind::FixedTime { .. } => "fixed-time",
            PolicyKind::KeepAll => "keep-all",
            PolicyKind::HashBufferers => "hash",
            PolicyKind::SenderBased => "sender-based",
            PolicyKind::Stability => "stability",
            PolicyKind::TreeRmtp => "tree-rmtp",
        }
    }

    /// Builds the policy implementation for a member given the full
    /// `members` list (hash-based placement and stability detection need
    /// — and copy — the whole group; other policies ignore it).
    #[must_use]
    pub fn build(&self, members: &[NodeId]) -> Box<dyn BufferPolicy> {
        match *self {
            PolicyKind::TwoPhase => Box::new(TwoPhase),
            PolicyKind::FixedTime { hold } => Box::new(FixedTime { hold }),
            PolicyKind::KeepAll => Box::new(KeepAll),
            PolicyKind::HashBufferers => Box::new(HashBufferers::new(members.to_vec())),
            PolicyKind::SenderBased => Box::new(SenderBased),
            PolicyKind::Stability => Box::new(Stability::new(members.to_vec())),
            PolicyKind::TreeRmtp => Box::new(TreeRmtp),
        }
    }

    /// The policy's fixed answers under `cfg`. Cheap and pure: callers
    /// recompute it where they need an answer instead of storing it.
    #[must_use]
    pub fn rules(&self, cfg: &ProtocolConfig) -> Rules {
        // A scheme that keeps no short phase, asks only within its region
        // and retains what it keeps for the whole session.
        let base = Rules {
            preload_idle: SimDuration::ZERO,
            remote_recovery: false,
            pull_via_remote_request: false,
            remulticast_remote_repairs: true,
            long_term_expiry: None,
            history_interval: None,
        };
        let two_phase = Rules {
            preload_idle: cfg.idle_threshold,
            remote_recovery: true,
            long_term_expiry: Some(cfg.long_term_timeout),
            ..base
        };
        match *self {
            PolicyKind::TwoPhase => two_phase,
            PolicyKind::FixedTime { hold } => Rules { preload_idle: hold, ..two_phase },
            PolicyKind::KeepAll => Rules { preload_idle: SimDuration::ZERO, ..two_phase },
            PolicyKind::HashBufferers | PolicyKind::SenderBased => base,
            PolicyKind::Stability => Rules { history_interval: Some(HISTORY_INTERVAL), ..base },
            // NACK semantics: a server remembers the waiters it cannot
            // serve, and answers each one alone, never region-wide.
            PolicyKind::TreeRmtp => {
                Rules { pull_via_remote_request: true, remulticast_remote_repairs: false, ..base }
            }
        }
    }
}

/// A policy's fixed answers: everything about it that never changes for
/// a member, from [`PolicyKind::rules`]. The receiver and the recovery
/// machine read them here; the [`BufferPolicy`] hooks are only the
/// decisions that act on, or read, per-member state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rules {
    /// The idle-check delay armed when the experiment harness preloads a
    /// short-term entry (what [`BufferPolicy::on_receive`] would arm;
    /// zero where the idle check does nothing).
    pub preload_idle: SimDuration,
    /// Whether the λ/n remote phase (§2.2) runs: each round flips the
    /// λ/n coin, then asks a random parent-region member.
    pub remote_recovery: bool,
    /// Whether pull requests go out as [`Packet::RemoteRequest`] instead
    /// of `LocalRequest`. A remote request's target registers the asker
    /// as a waiter and recovers the message itself when it does not hold
    /// it — the semantics a repair-server NACK needs — while a local
    /// request to a non-holder is ignored (§2.2).
    pub pull_via_remote_request: bool,
    /// Whether a repair that crossed regions is re-multicast within the
    /// region behind the randomized back-off (§2.2).
    pub remulticast_remote_repairs: bool,
    /// Disuse timeout after which the periodic sweep discards long-term
    /// entries; `None` retains them for the whole session.
    pub long_term_expiry: Option<SimDuration>,
    /// How often the member advertises its delivery history
    /// ([`BufferPolicy::history_tick`]); `None` arms no history timer.
    pub history_interval: Option<SimDuration>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SeqNo;

    fn mid(seq: u64) -> MessageId {
        MessageId::new(NodeId(0), SeqNo(seq))
    }

    #[test]
    fn designated_set_is_stable_and_sized() {
        let members: Vec<NodeId> = (0..100).map(NodeId).collect();
        let a = designated_bufferers(&members, mid(1), 6);
        let b = designated_bufferers(&members, mid(1), 6);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        // Different messages select (almost surely) different sets.
        let c = designated_bufferers(&members, mid(2), 6);
        assert_ne!(a, c);
        // Over many messages the duty spreads: every member is selected.
        let mut selected = [false; 100];
        for seq in 1..=400 {
            for b in designated_bufferers(&members, mid(seq), 6) {
                selected[b.index()] = true;
            }
        }
        assert!(selected.iter().all(|&s| s), "some member is never a bufferer");
    }

    #[test]
    fn bufferer_hash_is_deterministic_and_spreads() {
        let msg = mid(1);
        assert_eq!(bufferer_hash(NodeId(1), msg), bufferer_hash(NodeId(1), msg));
        let others: std::collections::HashSet<u64> =
            (0..100u32).map(|m| bufferer_hash(NodeId(m), msg)).collect();
        assert!(others.len() >= 99, "hash collisions too frequent");
        assert_ne!(bufferer_hash(NodeId(1), msg), bufferer_hash(NodeId(1), mid(2)));
    }

    /// One of each kind, `FixedTime` holding for 10 ms.
    const KINDS: [PolicyKind; 7] = [
        PolicyKind::TwoPhase,
        PolicyKind::FixedTime { hold: SimDuration::from_millis(10) },
        PolicyKind::KeepAll,
        PolicyKind::HashBufferers,
        PolicyKind::SenderBased,
        PolicyKind::Stability,
        PolicyKind::TreeRmtp,
    ];

    #[test]
    fn build_matches_kind() {
        let members: Vec<NodeId> = (0..5).map(NodeId).collect();
        let types = [
            "TwoPhase",
            "FixedTime",
            "KeepAll",
            "HashBufferers",
            "SenderBased",
            "Stability",
            "TreeRmtp",
        ];
        for (kind, ty) in KINDS.into_iter().zip(types) {
            let built = format!("{:?}", kind.build(&members));
            assert_eq!(built.split([' ', '{']).next(), Some(ty), "{}", kind.name());
        }
        let hold = format!("hold: {:?}", SimDuration::from_millis(10));
        assert!(format!("{:?}", KINDS[1].build(&members)).contains(&hold));
    }

    /// ARCHITECTURE.md's policy-layer table states every kind's [`Rules`]:
    /// one row per kind, named as [`PolicyKind::name`] names it, one
    /// column per field. A cell is `yes`/`no`, `none`, a duration in ms,
    /// or the config field the answer reads (`hold` is `FixedTime`'s).
    #[test]
    fn architecture_table_states_every_kinds_rules() {
        let doc = include_str!("../../../ARCHITECTURE.md");
        let cfg = ProtocolConfig::paper_defaults();
        let duration = |cell: &str, kind: PolicyKind| match (cell, kind) {
            ("0", _) => SimDuration::ZERO,
            ("idle_threshold", _) => cfg.idle_threshold,
            ("long_term_timeout", _) => cfg.long_term_timeout,
            ("hold", PolicyKind::FixedTime { hold }) => hold,
            _ => SimDuration::from_millis(
                cell.strip_suffix(" ms")
                    .and_then(|ms| ms.parse().ok())
                    .unwrap_or_else(|| panic!("{}: unreadable duration {cell:?}", kind.name())),
            ),
        };
        let flag = |cell: &str| match cell {
            "yes" => true,
            "no" => false,
            _ => panic!("unreadable flag {cell:?}"),
        };
        let rows: Vec<Vec<&str>> = doc
            .lines()
            .skip_while(|l| !l.starts_with("| policy |"))
            .take_while(|l| l.starts_with('|'))
            .map(|l| l.trim_matches('|').split('|').map(|c| c.trim().trim_matches('`')).collect())
            .collect();
        let header = [
            "policy",
            "preload_idle",
            "remote_recovery",
            "pull_via_remote_request",
            "remulticast_remote_repairs",
            "long_term_expiry",
            "history_interval",
        ];
        assert_eq!(rows.first().map(Vec::as_slice), Some(&header[..]), "table header");
        assert_eq!(rows.len(), 2 + KINDS.len(), "one row per kind under the separator");
        for (row, kind) in rows[2..].iter().zip(KINDS) {
            let optional = |cell: &str| (cell != "none").then(|| duration(cell, kind));
            let stated = Rules {
                preload_idle: duration(row[1], kind),
                remote_recovery: flag(row[2]),
                pull_via_remote_request: flag(row[3]),
                remulticast_remote_repairs: flag(row[4]),
                long_term_expiry: optional(row[5]),
                history_interval: optional(row[6]),
            };
            assert_eq!(row[0], kind.name());
            assert_eq!(stated, kind.rules(&cfg), "{}", kind.name());
        }
    }
}
