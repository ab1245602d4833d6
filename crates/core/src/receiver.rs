//! The RRMP receiver: packet and timer dispatch for one group member.
//!
//! One [`Receiver`] instance embodies everything a group member does:
//!
//! * **Loss detection** from sequence gaps and session messages (§2.1).
//! * **Recovery** of each lost message — pull rounds to region
//!   neighbors, λ/n remote rounds to the parent region, the back-off
//!   re-multicast of remote repairs (§2.2) and the search for bufferers
//!   of a discarded message (§3.3) — is one per-message machine in
//!   `recovery.rs`; the receiver hands it its inputs.
//! * **Two-phase buffering** — feedback-based short-term buffering with
//!   idle threshold `T`, then long-term retention with probability `C/n`
//!   (§3.1, §3.2).
//! * **Buffer handoff** when leaving voluntarily (§3.2).
//! * **The sender role** (§2, §2.1), on a member granted it: numbering
//!   the messages it multicasts and advertising the highest one in
//!   periodic session messages.
//!
//! The receiver is sans-io: [`Receiver::handle`] consumes an [`Event`] and
//! returns [`Action`]s; hosts own sockets, clocks, and timers. All
//! randomness comes from the RNG supplied at construction, so identical
//! inputs yield identical behaviour.
//!
//! Every algorithm-specific decision — who buffers, when to promote
//! short→long, where to hand off on leave, whom to query for recovery —
//! is delegated to the [`BufferPolicy`] built from
//! [`ProtocolConfig::policy`], and its fixed answers are that kind's
//! [`Rules`]; the receiver itself is the shared engine every buffering
//! algorithm runs on.

use std::sync::Arc;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrmp_membership::view::HierarchyView;
use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::NodeId;

use crate::buffer::{MessageStore, PressureTier};
use crate::config::{DampingConfig, ProtocolConfig};
use crate::events::{Action, Event, TimerKind};
use crate::ids::{MessageId, SeqNo};
use crate::loss::LossDetector;
use crate::metrics::Metrics;
use crate::observe::Observer;
use crate::packet::{DataPacket, Packet, RepairKind};
use crate::policy::{BufferPolicy, DataPath, PolicyCtx, Rules};
use crate::recovery::{Input, Phase, Recoveries, RecoveryEnv};
use rrmp_trace::{BufferPhase, EventKind};

/// Builds a [`PolicyCtx`] lending the receiver's state (or the recovery
/// [`Env`]'s) to a policy hook. A macro (not a method) so the borrow
/// checker sees the disjoint field borrows next to the `self.policy` call.
macro_rules! policy_ctx {
    ($self:ident, $now:expr, $actions:expr) => {
        PolicyCtx {
            id: $self.id,
            now: $now,
            cfg: &$self.cfg,
            view: &$self.view,
            detector: &$self.detector,
            store: &mut $self.store,
            metrics: &mut $self.metrics,
            observer: $self.observer.as_deref_mut().map(|a| &mut *a.observer),
            rng: &mut $self.rng,
            actions: $actions,
        }
    };
}

/// State for preloading a receiver in controlled experiments (Figs 8/9
/// construct regions where some members hold a message long-term and the
/// rest have received-then-discarded it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreloadState {
    /// Message buffered in the short-term phase.
    ShortTerm,
    /// Message buffered in the long-term phase.
    LongTerm,
    /// Message was received and already discarded.
    ReceivedDiscarded,
}

/// Deterministic token bucket damping the repair storm: recovery rounds
/// and re-multicasts spend one token each; tokens refill at one per
/// [`DampingConfig::refill`] of *simulated* time, capped at the burst
/// size. No RNG, no wall clock — refill is pure arithmetic over the
/// event timestamps, so damped runs stay byte-identical across engine
/// layouts.
#[derive(Debug)]
struct TokenBucket {
    tokens: u32,
    /// Credit accrues from here; advanced only by whole refill periods
    /// so fractional credit is never lost to rounding.
    last_refill: SimTime,
}

impl TokenBucket {
    fn new(burst: u32) -> Self {
        TokenBucket { tokens: burst, last_refill: SimTime::ZERO }
    }

    /// Takes one token if available after refilling for elapsed time.
    fn try_take(&mut self, d: DampingConfig, now: SimTime) -> bool {
        let period = d.refill.as_micros().max(1);
        let elapsed = now.saturating_since(self.last_refill).as_micros();
        let intervals = elapsed / period;
        if intervals > 0 {
            let gained = u32::try_from(intervals).unwrap_or(u32::MAX);
            self.tokens = self.tokens.saturating_add(gained).min(d.burst);
            // `intervals * period <= elapsed`, so no overflow.
            self.last_refill += SimDuration::from_micros(intervals * period);
        }
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }
}

/// The RRMP receiver — see the module docs for the full behaviour map.
#[derive(Debug)]
pub struct Receiver {
    id: NodeId,
    /// Shared configuration. Every receiver in a simulated group runs the
    /// same config, so the harness hands all of them one `Arc` instead of
    /// an inline copy per node.
    cfg: Arc<ProtocolConfig>,
    view: HierarchyView,
    store: MessageStore,
    detector: LossDetector,
    /// One recovery record per message ([`crate::recovery`]).
    recovery: Recoveries,
    rng: StdRng,
    metrics: Metrics,
    policy: Box<dyn BufferPolicy>,
    left: bool,
    /// The sender role: the sequence number the next multicast gets, or
    /// [`SeqNo::NONE`] on a member that is not a sender
    /// ([`Receiver::make_sender`]).
    next_seq: SeqNo,
    /// Reused id buffer for the periodic long-term expiry sweep
    /// ([`MessageStore::expire_long_into`]) and the recovery machine's
    /// walks over idle losses — those paths allocate nothing in the
    /// steady state.
    scratch: Vec<MessageId>,
    /// Repair-storm damper — `Some` iff [`ProtocolConfig::damping`] is
    /// armed. Unarmed receivers never touch it.
    damper: Option<TokenBucket>,
    /// The observer ([`crate::observe`]) — `Some` iff armed via
    /// [`Receiver::arm_observer`]. One thin pointer: an unarmed receiver
    /// pays one branch on the `None` discriminant per hook site.
    observer: Option<Box<Attached>>,
}

/// An armed observer and the interval of its sampling tick.
#[derive(Debug)]
struct Attached {
    sample_every: Option<SimDuration>,
    observer: Box<dyn Observer>,
}

/// The receiver's parts, lent to the recovery machine for one input. The
/// fields are borrowed one by one, beside the recovery table: lending the
/// whole receiver with the table taken out for the call measured slower
/// on `sim_lan_stream`. The names match the receiver's, so `policy_ctx!`
/// builds a policy context from either.
struct Env<'a> {
    id: NodeId,
    now: SimTime,
    cfg: &'a ProtocolConfig,
    view: &'a HierarchyView,
    detector: &'a mut LossDetector,
    store: &'a mut MessageStore,
    metrics: &'a mut Metrics,
    observer: Option<&'a mut Attached>,
    rng: &'a mut StdRng,
    damper: &'a mut Option<TokenBucket>,
    policy: &'a mut dyn BufferPolicy,
    actions: &'a mut Vec<Action>,
    scratch: &'a mut Vec<MessageId>,
}

impl RecoveryEnv for Env<'_> {
    fn me(&self) -> NodeId {
        self.id
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn cfg(&self) -> &ProtocolConfig {
        self.cfg
    }
    fn detector(&mut self) -> &mut LossDetector {
        self.detector
    }
    fn store(&mut self) -> &mut MessageStore {
        self.store
    }
    fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }
    fn actions(&mut self) -> &mut Vec<Action> {
        self.actions
    }
    fn scratch(&mut self) -> &mut Vec<MessageId> {
        self.scratch
    }
    fn observe(&mut self, kind: EventKind) {
        if let Some(a) = self.observer.as_deref_mut() {
            a.observer.on_event(self.now, kind);
        }
    }
    fn remote_phase(&self) -> bool {
        self.cfg.policy.rules(self.cfg).remote_recovery && self.view.parent().is_some()
    }
    fn target(&mut self, phase: Phase, msg: MessageId) -> Option<NodeId> {
        if phase == Phase::Pull {
            return self.policy.pull_target(&mut policy_ctx!(self, self.now, self.actions), msg);
        }
        // §2.2: the λ/n coin first, then (only on success) the
        // parent-region member — the historical draw order.
        let p = self.cfg.remote_request_probability(self.view.own().len());
        if !self.rng.gen_bool(p) {
            return None;
        }
        self.view.parent().and_then(|parent| parent.random_member(self.rng))
    }
    fn pull_retry_delay(&mut self) -> SimDuration {
        self.policy.pull_retry_delay(&policy_ctx!(self, self.now, self.actions))
    }
    fn search_target(&mut self) -> Option<NodeId> {
        self.view.own().random_other(self.rng, self.id)
    }
    fn backoff_delay(&mut self, window: SimDuration) -> SimDuration {
        SimDuration::from_micros(self.rng.gen_range(0..=window.as_micros()))
    }
    fn take_token(&mut self) -> bool {
        let Some(d) = self.cfg.damping else { return true };
        self.damper.as_mut().is_none_or(|b| b.try_take(d, self.now))
    }
}

impl Receiver {
    /// Creates a receiver for member `id` with membership `view`,
    /// configuration `cfg`, and a deterministic RNG seeded by `seed`.
    /// The buffer policy is built from [`ProtocolConfig::policy`] over
    /// the membership visible in `view` (own ∪ parent region); hosts
    /// that know the full group (the simulation harness, the UDP loop)
    /// use [`Receiver::with_members`] so full-membership policies
    /// (hash-based placement) see every member.
    #[must_use]
    pub fn new(id: NodeId, view: HierarchyView, cfg: ProtocolConfig, seed: u64) -> Self {
        // Hash placement and stability detection require *globally
        // identical* member lists — receivers ranking (or awaiting acks
        // from) different approximations would pull from peers that never
        // buffered, or wait forever on members they cannot see. With a
        // parent region in view the own∪parent list is a partial view,
        // so guard the footgun.
        debug_assert!(
            !(matches!(
                cfg.policy,
                crate::policy::PolicyKind::HashBufferers | crate::policy::PolicyKind::Stability
            ) && view.parent().is_some()),
            "full-membership policies in a multi-region hierarchy need the full group \
             membership: use Receiver::with_members"
        );
        let mut members: Vec<NodeId> = view
            .own()
            .members()
            .chain(view.parent().into_iter().flat_map(|p| p.members()))
            .collect();
        members.sort_unstable();
        members.dedup();
        Self::with_members(id, view, Arc::new(cfg), seed, &members)
    }

    /// Like [`Receiver::new`], with the buffer policy built over
    /// `members`, the group's member list in ascending id order (policies
    /// pick by position in it), and a configuration that hosts building
    /// many receivers share through one `Arc`.
    #[must_use]
    pub fn with_members(
        id: NodeId,
        view: HierarchyView,
        cfg: Arc<ProtocolConfig>,
        seed: u64,
        members: &[NodeId],
    ) -> Self {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "members must ascend");
        let policy = cfg.policy.build(members);
        let record = cfg.record_events;
        let store = MessageStore::with_budget(cfg.memory_budget);
        let damper = cfg.damping.map(|d| TokenBucket::new(d.burst));
        Receiver {
            id,
            cfg,
            view,
            store,
            detector: LossDetector::new(),
            recovery: Recoveries::default(),
            rng: StdRng::seed_from_u64(seed),
            metrics: Metrics::new(record),
            policy,
            left: false,
            next_seq: SeqNo::NONE,
            scratch: Vec::new(),
            damper,
            observer: None,
        }
    }

    /// This member's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// The membership view (own + parent region).
    #[must_use]
    pub fn view(&self) -> &HierarchyView {
        &self.view
    }

    /// Mutable membership view — used by the host when the failure
    /// detector or a scripted churn event changes membership. Hosts
    /// removing a departed member should prefer
    /// [`Receiver::on_membership_removed`], which also lets the policy
    /// prune per-member state (stability quorums).
    pub fn view_mut(&mut self) -> &mut HierarchyView {
        &mut self.view
    }

    /// The membership layer dropped `node` (voluntary leave or detected
    /// crash): removes it from both views and notifies the policy, so
    /// member-tracking policies (stability quorums, repair roles) adapt
    /// instead of waiting forever on the departed member.
    pub fn on_membership_removed(&mut self, node: NodeId) {
        self.view.own_mut().remove(node);
        if let Some(parent) = self.view.parent_mut() {
            parent.remove(node);
        }
        self.policy.on_member_removed(node);
    }

    /// The message store (buffer occupancy instrumentation).
    #[must_use]
    pub fn store(&self) -> &MessageStore {
        &self.store
    }

    /// The loss detector (received/missing instrumentation).
    #[must_use]
    pub fn detector(&self) -> &LossDetector {
        &self.detector
    }

    /// Protocol metrics.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Attaches `observer` ([`crate::observe`]), replacing any other.
    /// Arm before processing any event so it sees every one; with
    /// `sample_every` set, [`Receiver::on_start`] schedules the
    /// [`TimerKind::TraceSample`] tick (the host does, for receivers
    /// armed after start-up), which feeds it an `EventKind::Sample`.
    pub fn arm_observer(&mut self, observer: Box<dyn Observer>, sample_every: Option<SimDuration>) {
        self.observer = Some(Box::new(Attached { sample_every, observer }));
    }

    /// The attached observer, if one of type `T` is armed.
    #[must_use]
    pub fn observer<T: Observer>(&self) -> Option<&T> {
        let observer: &dyn std::any::Any = &*self.observer.as_ref()?.observer;
        observer.downcast_ref()
    }

    /// Whether this member has voluntarily left the group.
    #[must_use]
    pub fn has_left(&self) -> bool {
        self.left
    }

    /// Simulates a crash: the member stops processing events immediately
    /// and loses its buffers, **without** the §3.2 leave-time handoff.
    /// Used by churn experiments to contrast graceful leaves with
    /// failures.
    pub fn crash(&mut self, now: SimTime) {
        self.store.drain_all(now);
        self.left = true;
    }

    /// A network fault window healed (partition, blackout, or stall over):
    /// re-arm recovery machinery that gave up while the fault was active.
    /// Exhausted searches restart with a fresh attempt budget, and missing
    /// messages with no active recovery get a new pull round — without
    /// this, a member cut off long enough to exhaust its retry caps stays
    /// deaf to the messages it missed even after connectivity returns.
    pub fn on_heal(&mut self, now: SimTime, actions: &mut Vec<Action>) {
        if self.left {
            return;
        }
        self.recover(Input::Heal, now, actions);
        self.recovery.check(&self.detector);
    }

    /// Whether recovery machinery is still actively working on `msg`.
    /// Distinguishes "still pending" residual losses from ones the
    /// receiver gave up on cleanly after exhausting its retry caps.
    #[must_use]
    pub fn recovery_pending(&self, msg: MessageId) -> bool {
        self.recovery.pending(msg)
    }

    /// Grants this member the sender role (§2): it numbers the messages
    /// it multicasts ([`Receiver::multicast`]) from 1, and
    /// [`Receiver::on_start`] arms its session tick. Call before
    /// `on_start`.
    pub fn make_sender(&mut self) {
        self.next_seq = SeqNo::FIRST;
    }

    /// Numbers `payload` as this sender's next message and returns the
    /// data packet; `None` on a member without the sender role. Emits no
    /// actions: the first transmission, and its loss, are the host's, as
    /// is feeding the packet back so the sender buffers its own message.
    pub fn multicast(&mut self, payload: Bytes) -> Option<DataPacket> {
        if self.next_seq == SeqNo::NONE {
            return None;
        }
        let id = MessageId::new(self.id, self.next_seq);
        self.next_seq = self.next_seq.next();
        Some(DataPacket::new(id, payload))
    }

    /// Actions to run at start-up: arms the long-term sweep, for
    /// history-exchanging policies the periodic history tick, when
    /// [`ProtocolConfig::watchdog`] is set the recovery-liveness
    /// watchdog, and last, on a sender with
    /// [`ProtocolConfig::periodic_sessions`], the session tick.
    #[must_use]
    pub fn on_start(&mut self) -> Vec<Action> {
        let mut actions = vec![Action::SetTimer {
            delay: self.cfg.long_term_sweep_interval,
            kind: TimerKind::LongTermSweep,
        }];
        if let Some(interval) = self.rules().history_interval {
            actions.push(Action::SetTimer { delay: interval, kind: TimerKind::HistoryTick });
        }
        if let Some(wd) = self.cfg.watchdog {
            actions.push(Action::SetTimer { delay: wd.interval, kind: TimerKind::Watchdog });
        }
        if let Some(every) = self.observer.as_ref().and_then(|a| a.sample_every) {
            actions.push(Action::SetTimer { delay: every, kind: TimerKind::TraceSample });
        }
        if self.cfg.periodic_sessions && self.next_seq != SeqNo::NONE {
            actions.push(Action::SetTimer {
                delay: self.cfg.session_interval,
                kind: TimerKind::SessionTick,
            });
        }
        actions
    }

    /// Sets a late-join recovery floor: messages from `source` with
    /// sequence numbers at or below `floor` are never treated as missing.
    /// Call before processing any packet from `source` so a member joining
    /// mid-session does not try to pull the entire history.
    pub fn set_recovery_floor(&mut self, source: NodeId, floor: SeqNo) {
        self.detector.set_floor(source, floor);
    }

    /// Seeds protocol state for controlled experiments; returns follow-up
    /// actions (e.g. the idle-check timer for a short-term preload).
    pub fn preload(
        &mut self,
        id: MessageId,
        payload: Bytes,
        state: PreloadState,
        now: SimTime,
    ) -> Vec<Action> {
        self.detector.on_data(id);
        self.phase(id, BufferPhase::Received, now);
        match state {
            PreloadState::ShortTerm => {
                self.store.insert_short(id, payload, now);
                vec![Action::SetTimer {
                    delay: self.rules().preload_idle,
                    kind: TimerKind::IdleCheck(id),
                }]
            }
            PreloadState::LongTerm => {
                self.store.insert_long(id, payload, now);
                self.phase(id, BufferPhase::Idled, now);
                self.phase(id, BufferPhase::Kept, now);
                Vec::new()
            }
            PreloadState::ReceivedDiscarded => {
                self.phase(id, BufferPhase::Discarded, now);
                Vec::new()
            }
        }
    }

    /// Processes one event at time `now`, returning the actions to execute.
    pub fn handle(&mut self, event: Event, now: SimTime) -> Vec<Action> {
        let mut actions = Vec::new();
        self.handle_into(event, now, &mut actions);
        actions
    }

    /// Like [`Receiver::handle`], but appends the actions to a
    /// caller-provided buffer — the allocation-free form hot hosts use
    /// with a reused scratch vector.
    pub fn handle_into(&mut self, event: Event, now: SimTime, actions: &mut Vec<Action>) {
        // The session tick passes the gate: crashing or leaving ends the
        // member's receiver duties, not the sender's clock.
        if self.left && !matches!(event, Event::Timer(TimerKind::SessionTick)) {
            return;
        }
        match event {
            Event::Packet { from, packet } => self.on_packet(from, packet, now, actions),
            Event::Timer(kind) => self.on_timer(kind, now, actions),
            Event::Leave => self.on_leave(now, actions),
        }
        self.recovery.check(&self.detector);
    }

    /// The policy's fixed answers, recomputed from the config: storing
    /// them would grow every receiver.
    fn rules(&self) -> Rules {
        self.cfg.policy.rules(&self.cfg)
    }

    /// Hands `input` to the recovery machine, lending it this receiver's
    /// parts.
    fn recover(&mut self, input: Input<'_>, now: SimTime, actions: &mut Vec<Action>) {
        let env = &mut Env {
            id: self.id,
            now,
            cfg: &self.cfg,
            view: &self.view,
            detector: &mut self.detector,
            store: &mut self.store,
            metrics: &mut self.metrics,
            observer: self.observer.as_deref_mut(),
            rng: &mut self.rng,
            damper: &mut self.damper,
            policy: &mut *self.policy,
            actions,
            scratch: &mut self.scratch,
        };
        self.recovery.handle(env, input);
    }

    /// Hands `kind` to the observer, if armed.
    #[inline]
    fn observe(&mut self, now: SimTime, kind: EventKind) {
        if let Some(a) = self.observer.as_deref_mut() {
            a.observer.on_event(now, kind);
        }
    }

    /// Records a buffer-phase change of `id` on the observer, if armed.
    fn phase(&mut self, id: MessageId, phase: BufferPhase, now: SimTime) {
        self.observe(now, EventKind::Buffer { src: id.source.0, mseq: id.seq.value(), phase });
    }

    fn on_packet(&mut self, from: NodeId, packet: Packet, now: SimTime, actions: &mut Vec<Action>) {
        match packet {
            Packet::Data(data) => self.on_data(data, DataPath::Multicast, now, actions),
            Packet::Session { source, high } => {
                for m in self.detector.on_session(source, high) {
                    self.recover(Input::Lost(m), now, actions);
                }
            }
            // A request claiming our own identity is nonsense.
            Packet::LocalRequest { .. } | Packet::RemoteRequest { .. } if from == self.id => {}
            Packet::LocalRequest { msg } => {
                self.metrics.counters.local_requests_received += 1;
                self.recover(Input::Overheard(msg), now, actions);
                self.store.note_request(msg, now);
                if let Some(payload) = self.store.get(msg) {
                    self.metrics.counters.repairs_sent_local += 1;
                    let (src, mseq) = (msg.source.0, msg.seq.value());
                    self.observe(now, EventKind::RepairSent { src, mseq, to: from.0 });
                    let data = DataPacket::new(msg, payload);
                    let packet = Packet::Repair { data, kind: RepairKind::Local };
                    actions.push(Action::Send { to: from, packet });
                }
                // Paper §2.2: "Otherwise it ignores the request."
            }
            Packet::RemoteRequest { msg } => {
                self.metrics.counters.remote_requests_received += 1;
                self.recover(Input::RemoteRequest { msg, from }, now, actions);
            }
            Packet::Repair { data, kind } => {
                self.metrics.counters.repairs_received += 1;
                let path = match kind {
                    RepairKind::Local => DataPath::LocalRepair,
                    RepairKind::Remote => DataPath::RemoteRepair,
                };
                self.on_data(data, path, now, actions);
            }
            Packet::RegionalRepair { data } => {
                self.on_data(data, DataPath::RegionalRepair, now, actions);
            }
            Packet::SearchRequest { msg, origins } => {
                self.recover(Input::SearchRequest { msg, origins }, now, actions);
            }
            Packet::SearchFound { msg, holder } => {
                self.recover(Input::SearchFound { msg, holder }, now, actions);
            }
            Packet::Handoff { data } => {
                self.metrics.counters.handoffs_received += 1;
                self.on_data(data, DataPath::Handoff, now, actions);
            }
            Packet::History { digest } => {
                self.metrics.counters.history_digests_received += 1;
                self.policy.on_history_digest(&mut policy_ctx!(self, now, actions), from, &digest);
            }
        }
    }

    // ----- data arrival ---------------------------------------------------

    fn on_data(
        &mut self,
        data: DataPacket,
        path: DataPath,
        now: SimTime,
        actions: &mut Vec<Action>,
    ) {
        let id = data.id;
        let outcome = self.detector.on_data(id);
        let payload = &data.payload;
        if outcome.newly_received {
            self.metrics.counters.delivered += 1;
            actions.push(Action::Deliver { id, payload: payload.clone() });
            if let Some(a) = self.observer.as_deref_mut() {
                let (src, mseq) = (id.source.0, id.seq.value());
                a.observer
                    .on_event(now, EventKind::Buffer { src, mseq, phase: BufferPhase::Received });
                a.observer.on_delivered(now, id);
            }
            // Critical-tier admission control: the message is delivered
            // locally regardless, but we decline to take on a buffering
            // duty for others. A handoff is exempt — declining it would
            // drop the group's (possibly only) long-term copy.
            if self.store.tier() == PressureTier::Critical && path != DataPath::Handoff {
                self.metrics.counters.admission_declined += 1;
            } else {
                self.policy.on_receive(&mut policy_ctx!(self, now, actions), id, payload, path);
            }
            self.apply_pressure(now);
            self.recover(Input::Payload { msg: id, payload, path, fresh: true }, now, actions);
            for m in outcome.newly_missing {
                self.recover(Input::Lost(m), now, actions);
            }
        } else {
            self.metrics.counters.duplicates += 1;
            // A handoff makes us responsible for long-term buffering even
            // if we had discarded the payload.
            if path == DataPath::Handoff && !self.store.contains(id) {
                self.store.insert_long(id, payload.clone(), now);
                self.phase(id, BufferPhase::Kept, now);
                self.apply_pressure(now);
            }
            // If we were searching for this message on behalf of downstream
            // waiters, the reappearing payload answers them.
            self.recover(Input::Payload { msg: id, payload, path, fresh: false }, now, actions);
        }
    }

    /// Applies the paper's discard rule early while the memory budget's
    /// occupancy sits in the *pressure* tier or above: long-term entries
    /// are shed in least-recently-used order until occupancy falls back
    /// below the pressure threshold. Short-term entries are left alone —
    /// they are still in their feedback window. A no-op (one enum
    /// compare) while no budget is configured.
    fn apply_pressure(&mut self, now: SimTime) {
        let tier = self.store.tier();
        self.observe(now, EventKind::PressureTier { tier: tier as u8 });
        if tier < PressureTier::Pressure {
            return;
        }
        let Some(budget) = self.store.budget() else { return };
        let threshold = budget.pressure_threshold();
        while self.store.bytes() > threshold {
            let Some(victim) = self.store.lru_long() else { break };
            self.store.discard(victim, now);
            self.metrics.counters.pressure_discards += 1;
            self.phase(victim, BufferPhase::Discarded, now);
        }
    }

    // ----- timers --------------------------------------------------------------

    fn on_timer(&mut self, kind: TimerKind, now: SimTime, actions: &mut Vec<Action>) {
        match kind {
            TimerKind::LocalRetry(_)
            | TimerKind::RemoteRetry(_)
            | TimerKind::SearchRetry(_)
            | TimerKind::Backoff(_) => self.recover(Input::Timer(kind), now, actions),
            TimerKind::IdleCheck(msg) => {
                self.policy.on_idle(&mut policy_ctx!(self, now, actions), msg);
            }
            TimerKind::LongTermSweep => {
                if let Some(timeout) = self.rules().long_term_expiry {
                    let mut expired = std::mem::take(&mut self.scratch);
                    debug_assert!(expired.is_empty());
                    self.store.expire_long_into(now, timeout, &mut expired);
                    for &id in &expired {
                        self.metrics.counters.long_term_expired += 1;
                        self.phase(id, BufferPhase::Discarded, now);
                    }
                    expired.clear();
                    self.scratch = expired;
                }
                self.recover(Input::Sweep, now, actions);
                actions.push(Action::SetTimer {
                    delay: self.cfg.long_term_sweep_interval,
                    kind: TimerKind::LongTermSweep,
                });
            }
            TimerKind::HistoryTick => {
                // Only ever armed for policies that opted into history
                // exchange; the engine owns the re-arm so a policy cannot
                // accidentally kill (or double) its own tick chain.
                self.policy.history_tick(&mut policy_ctx!(self, now, actions));
                if let Some(interval) = self.rules().history_interval {
                    actions
                        .push(Action::SetTimer { delay: interval, kind: TimerKind::HistoryTick });
                }
            }
            TimerKind::SessionTick => {
                // Advertise the highest sequence number multicast so far,
                // nothing before the first (§2.1), and re-arm. A member
                // without the sender role ignores the tick.
                if self.next_seq != SeqNo::NONE {
                    let high = SeqNo(self.next_seq.0 - 1);
                    if high != SeqNo::NONE {
                        actions.push(Action::MulticastGroup {
                            packet: Packet::Session { source: self.id, high },
                        });
                    }
                    actions.push(Action::SetTimer {
                        delay: self.cfg.session_interval,
                        kind: TimerKind::SessionTick,
                    });
                }
            }
            TimerKind::Watchdog => {
                // Only ever armed when the watchdog is configured; a
                // stray timer on an unarmed receiver is simply ignored
                // (and not re-armed), like any other stale timer.
                if let Some(wd) = self.cfg.watchdog {
                    self.recover(Input::Watchdog(wd), now, actions);
                    actions
                        .push(Action::SetTimer { delay: wd.interval, kind: TimerKind::Watchdog });
                }
            }
            TimerKind::TraceSample => {
                // Only ever armed when an observer with a sampling
                // interval is attached; a stray tick on a disarmed
                // receiver is ignored. Handling makes no RNG draws and
                // mutates no protocol state — only the observer.
                if let Some(every) = self.observer.as_ref().and_then(|a| a.sample_every) {
                    let [pending_local, pending_remote, searches] = self.recovery.census();
                    let kind = EventKind::Sample {
                        store_entries: u32::try_from(self.store.len()).unwrap_or(u32::MAX),
                        store_bytes: self.store.bytes() as u64,
                        budget_bytes: self.store.budget().map_or(0, |b| b.bytes() as u64),
                        tokens: self.damper.as_ref().map_or(0, |b| b.tokens),
                        pending_local,
                        pending_remote,
                        searches,
                    };
                    self.observe(now, kind);
                    actions.push(Action::SetTimer { delay: every, kind: TimerKind::TraceSample });
                }
            }
        }
    }

    // ----- leave -----------------------------------------------------------------

    fn on_leave(&mut self, now: SimTime, actions: &mut Vec<Action>) {
        // §3.2: transfer each long-term-buffered message to a receiver
        // the policy nominates (a random region member for two-phase, the
        // best-ranked designated bufferer for hash placement, nobody for
        // sender-based recovery) before departing.
        for (id, payload) in self.store.take_all_long(now) {
            if let Some(q) = self.policy.handoff_target(&mut policy_ctx!(self, now, actions), id) {
                self.metrics.counters.handoffs_sent += 1;
                actions.push(Action::Send {
                    to: q,
                    packet: Packet::Handoff { data: DataPacket::new(id, payload) },
                });
            }
        }
        self.left = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConfigError, PolicyKind, WatchdogConfig};
    use crate::observe::BufferRecords;
    use crate::recovery::Recovery;
    use rrmp_membership::view::RegionView;
    use rrmp_netsim::topology::RegionId;

    const SENDER: NodeId = NodeId(0);

    fn mid(seq: u64) -> MessageId {
        MessageId::new(SENDER, SeqNo(seq))
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn payload() -> Bytes {
        Bytes::from_static(b"payload")
    }

    fn data(seq: u64) -> Packet {
        Packet::Data(DataPacket::new(mid(seq), payload()))
    }

    /// A receiver in a 5-member region (ids 0..5, self=1) whose parent
    /// region has members 10..13.
    fn receiver_with_parent(cfg: ProtocolConfig) -> Receiver {
        let own = RegionView::new(RegionId(1), (0..5).map(NodeId));
        let parent = RegionView::new(RegionId(0), (10..13).map(NodeId));
        Receiver::new(NodeId(1), HierarchyView::new(own, Some(parent)), cfg, 42)
    }

    /// A root-region receiver (no parent), region ids 0..5, self=1.
    fn root_receiver(cfg: ProtocolConfig) -> Receiver {
        let own = RegionView::new(RegionId(0), (0..5).map(NodeId));
        Receiver::new(NodeId(1), HierarchyView::new(own, None), cfg, 42)
    }

    fn packet_event(from: u32, packet: Packet) -> Event {
        Event::Packet { from: NodeId(from), packet }
    }

    fn sends(actions: &[Action]) -> Vec<(&NodeId, &Packet)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, packet } => Some((to, packet)),
                _ => None,
            })
            .collect()
    }

    fn timers(actions: &[Action]) -> Vec<TimerKind> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::SetTimer { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn fresh_data_is_delivered_and_buffered() {
        let mut r = root_receiver(ProtocolConfig::paper_defaults());
        let actions = r.handle(packet_event(0, data(1)), t(0));
        assert!(actions.iter().any(|a| matches!(a, Action::Deliver { id, .. } if *id == mid(1))));
        assert!(timers(&actions).contains(&TimerKind::IdleCheck(mid(1))));
        assert!(r.store().contains(mid(1)));
        assert_eq!(r.metrics().counters.delivered, 1);
        // Duplicate: no second delivery.
        let actions = r.handle(packet_event(0, data(1)), t(1));
        assert!(actions.iter().all(|a| !matches!(a, Action::Deliver { .. })));
        assert_eq!(r.metrics().counters.duplicates, 1);
    }

    #[test]
    fn gap_triggers_local_recovery() {
        let mut r = root_receiver(ProtocolConfig::paper_defaults());
        r.handle(packet_event(0, data(1)), t(0));
        let actions = r.handle(packet_event(0, data(3)), t(5));
        // Local request for #2 to some region member, plus a retry timer.
        let reqs = sends(&actions);
        assert!(
            reqs.iter().any(|(_, p)| matches!(p, Packet::LocalRequest { msg } if *msg == mid(2))),
            "expected a local request, got {actions:?}"
        );
        assert!(timers(&actions).contains(&TimerKind::LocalRetry(mid(2))));
        assert_eq!(r.metrics().counters.local_requests_sent, 1);
        // No parent region, so no remote phase.
        assert!(timers(&actions).iter().all(|k| !matches!(k, TimerKind::RemoteRetry(_))));
    }

    #[test]
    fn session_message_exposes_tail_loss() {
        let mut r = root_receiver(ProtocolConfig::paper_defaults());
        r.handle(packet_event(0, data(1)), t(0));
        let actions =
            r.handle(packet_event(0, Packet::Session { source: SENDER, high: SeqNo(2) }), t(5));
        assert!(sends(&actions)
            .iter()
            .any(|(_, p)| matches!(p, Packet::LocalRequest { msg } if *msg == mid(2))));
    }

    #[test]
    fn local_retry_repeats_until_received() {
        let mut r = root_receiver(ProtocolConfig::paper_defaults());
        r.handle(packet_event(0, data(2)), t(0)); // misses #1
        let actions = r.handle(Event::Timer(TimerKind::LocalRetry(mid(1))), t(10));
        assert!(sends(&actions)
            .iter()
            .any(|(_, p)| matches!(p, Packet::LocalRequest { msg } if *msg == mid(1))));
        // Once received, the retry stops silently.
        r.handle(
            packet_event(
                2,
                Packet::Repair {
                    data: DataPacket::new(mid(1), payload()),
                    kind: RepairKind::Local,
                },
            ),
            t(12),
        );
        let actions = r.handle(Event::Timer(TimerKind::LocalRetry(mid(1))), t(20));
        assert!(actions.is_empty(), "recovered message should stop retries: {actions:?}");
    }

    #[test]
    fn remote_phase_respects_lambda_over_n() {
        // Region of 1 member (only self) => p = min(1, λ/1) = 1: always send.
        let own = RegionView::new(RegionId(1), [NodeId(1)]);
        let parent = RegionView::new(RegionId(0), (10..13).map(NodeId));
        let cfg = ProtocolConfig::paper_defaults();
        let mut r = Receiver::new(NodeId(1), HierarchyView::new(own, Some(parent)), cfg, 7);
        let actions = r.handle(packet_event(0, data(2)), t(0)); // misses #1
        let remote_reqs: Vec<_> = sends(&actions)
            .into_iter()
            .filter(|(_, p)| matches!(p, Packet::RemoteRequest { msg } if *msg == mid(1)))
            .collect();
        assert_eq!(remote_reqs.len(), 1);
        let (to, _) = remote_reqs[0];
        assert!((10..13).contains(&to.0), "remote target must be in parent region");
        assert!(timers(&actions).contains(&TimerKind::RemoteRetry(mid(1))));
    }

    #[test]
    fn remote_retry_timer_set_even_without_send() {
        // λ = tiny: essentially never sends, but the timer must still be set
        // ("This timer is set by any receiver missing a message, regardless
        // whether it actually sent out a request or not").
        let mut cfg = ProtocolConfig::paper_defaults();
        cfg.lambda = 1e-12;
        let mut r = receiver_with_parent(cfg);
        let actions = r.handle(packet_event(0, data(2)), t(0));
        assert!(timers(&actions).contains(&TimerKind::RemoteRetry(mid(1))));
        assert_eq!(r.metrics().counters.remote_requests_sent, 0);
    }

    #[test]
    fn local_request_answered_from_buffer() {
        let mut r = root_receiver(ProtocolConfig::paper_defaults());
        r.handle(packet_event(0, data(1)), t(0));
        let actions = r.handle(packet_event(3, Packet::LocalRequest { msg: mid(1) }), t(5));
        let reply = sends(&actions);
        assert_eq!(reply.len(), 1);
        assert_eq!(*reply[0].0, NodeId(3));
        assert!(matches!(
            reply[0].1,
            Packet::Repair { kind: RepairKind::Local, data } if data.id == mid(1)
        ));
        assert_eq!(r.metrics().counters.repairs_sent_local, 1);
    }

    #[test]
    fn local_request_for_absent_message_is_ignored() {
        let mut r = root_receiver(ProtocolConfig::paper_defaults());
        let actions = r.handle(packet_event(3, Packet::LocalRequest { msg: mid(9) }), t(5));
        assert!(sends(&actions).is_empty());
        assert_eq!(r.metrics().counters.local_requests_received, 1);
    }

    #[test]
    fn request_refreshes_idle_clock() {
        let cfg = ProtocolConfig::paper_defaults(); // T = 40ms
        let mut r = root_receiver(cfg);
        r.arm_observer(Box::<BufferRecords>::default(), None);
        r.handle(packet_event(0, data(1)), t(0));
        // Request at t=30 refreshes the clock to t=30.
        r.handle(packet_event(3, Packet::LocalRequest { msg: mid(1) }), t(30));
        // Idle check at t=40 must re-arm (30 + 40 = 70), not transition.
        let actions = r.handle(Event::Timer(TimerKind::IdleCheck(mid(1))), t(40));
        assert_eq!(
            actions,
            vec![Action::SetTimer {
                delay: SimDuration::from_millis(30),
                kind: TimerKind::IdleCheck(mid(1))
            }]
        );
        assert_eq!(r.metrics().counters.idle_transitions, 0);
        // At t=70 it transitions.
        r.handle(Event::Timer(TimerKind::IdleCheck(mid(1))), t(70));
        assert_eq!(r.metrics().counters.idle_transitions, 1);
        let rec = r.observer::<BufferRecords>().unwrap().get(mid(1)).unwrap();
        assert_eq!((rec.received_at, rec.idled_at), (Some(t(0)), Some(t(70))));
    }

    #[test]
    fn idle_transition_keeps_long_term_when_c_dominates() {
        // C = 1000 in a 5-member region clamps P to 1: always keep.
        let cfg = ProtocolConfig::builder().c(1000.0).build().unwrap();
        let mut r = root_receiver(cfg);
        r.arm_observer(Box::<BufferRecords>::default(), None);
        r.handle(packet_event(0, data(1)), t(0));
        r.handle(Event::Timer(TimerKind::IdleCheck(mid(1))), t(40));
        assert_eq!(r.store().long_count(), 1);
        assert_eq!(r.metrics().counters.long_term_kept, 1);
        assert!(r.observer::<BufferRecords>().unwrap().get(mid(1)).unwrap().kept_long_term);
    }

    #[test]
    fn idle_transition_discards_when_c_is_negligible() {
        let cfg = ProtocolConfig::builder().c(1e-12).build().unwrap();
        let mut r = root_receiver(cfg);
        r.arm_observer(Box::<BufferRecords>::default(), None);
        r.handle(packet_event(0, data(1)), t(0));
        r.handle(Event::Timer(TimerKind::IdleCheck(mid(1))), t(40));
        assert!(!r.store().contains(mid(1)));
        assert_eq!(r.metrics().counters.discarded_at_idle, 1);
        assert_eq!(
            r.observer::<BufferRecords>().unwrap().get(mid(1)).unwrap().discarded_at,
            Some(t(40))
        );
    }

    #[test]
    fn remote_request_answered_when_buffered() {
        let mut r = receiver_with_parent(ProtocolConfig::paper_defaults());
        r.handle(packet_event(0, data(1)), t(0));
        let actions = r.handle(packet_event(30, Packet::RemoteRequest { msg: mid(1) }), t(5));
        let reply = sends(&actions);
        assert_eq!(reply.len(), 1);
        assert!(matches!(reply[0].1, Packet::Repair { kind: RepairKind::Remote, .. }));
        assert_eq!(r.metrics().counters.repairs_sent_remote, 1);
    }

    #[test]
    fn remote_request_for_never_received_message_registers_waiter_and_relays() {
        let mut r = receiver_with_parent(ProtocolConfig::paper_defaults());
        // Remote request for unknown #1: register waiter + start recovery.
        let actions = r.handle(packet_event(30, Packet::RemoteRequest { msg: mid(1) }), t(0));
        assert!(
            sends(&actions)
                .iter()
                .any(|(_, p)| matches!(p, Packet::LocalRequest { msg } if *msg == mid(1))),
            "hint should start local recovery"
        );
        // When the message arrives, the repair is relayed to the waiter.
        let actions = r.handle(packet_event(2, data(1)), t(10));
        let relayed: Vec<_> = sends(&actions)
            .into_iter()
            .filter(|(to, p)| {
                **to == NodeId(30) && matches!(p, Packet::Repair { kind: RepairKind::Remote, .. })
            })
            .collect();
        assert_eq!(relayed.len(), 1, "waiter must get the relayed repair");
        assert_eq!(r.metrics().counters.relays_performed, 1);
    }

    #[test]
    fn floored_remote_requests_leave_no_record() {
        // Nothing recovers a message at or below the floor, so a waiter
        // for one would never be answered, nor its record dropped.
        let mut r = receiver_with_parent(ProtocolConfig::paper_defaults());
        r.set_recovery_floor(SENDER, SeqNo(5));
        for seq in 1..=4 {
            let request = Packet::RemoteRequest { msg: mid(seq) };
            let actions = r.handle(packet_event(30, request), t(seq));
            assert!(sends(&actions).is_empty(), "{actions:?}");
        }
        r.handle(Event::Timer(TimerKind::LongTermSweep), t(5_000));
        assert_eq!(r.recovery.len(), 0);
    }

    #[test]
    fn remote_request_after_discard_starts_search() {
        let cfg = ProtocolConfig::builder().c(1e-12).build().unwrap(); // always discard
        let mut r = root_receiver(cfg);
        r.handle(packet_event(0, data(1)), t(0));
        r.handle(Event::Timer(TimerKind::IdleCheck(mid(1))), t(40)); // discarded
        let actions = r.handle(packet_event(30, Packet::RemoteRequest { msg: mid(1) }), t(50));
        assert!(
            sends(&actions).iter().any(|(_, p)| matches!(p, Packet::SearchRequest { msg, origins }
                    if *msg == mid(1) && origins.contains(&NodeId(30)))),
            "expected a search probe: {actions:?}"
        );
        assert!(timers(&actions).contains(&TimerKind::SearchRetry(mid(1))));
        assert_eq!(r.metrics().counters.searches_started, 1);
    }

    #[test]
    fn search_request_answered_by_bufferer() {
        let mut r = root_receiver(ProtocolConfig::paper_defaults());
        r.handle(packet_event(0, data(1)), t(0));
        let actions = r.handle(
            packet_event(
                2,
                Packet::SearchRequest { msg: mid(1), origins: vec![NodeId(30), NodeId(31)] },
            ),
            t(5),
        );
        // Repairs to both origins plus the SearchFound announcement.
        let repairs: Vec<_> = sends(&actions)
            .into_iter()
            .filter(|(_, p)| matches!(p, Packet::Repair { kind: RepairKind::Remote, .. }))
            .collect();
        assert_eq!(repairs.len(), 2);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::MulticastRegion { packet: Packet::SearchFound { msg, holder } }
                if *msg == mid(1) && *holder == NodeId(1)
        )));
        assert_eq!(r.metrics().counters.search_found_sent, 1);
    }

    #[test]
    fn search_request_joined_when_discarded() {
        let cfg = ProtocolConfig::builder().c(1e-12).build().unwrap();
        let mut r = root_receiver(cfg);
        r.handle(packet_event(0, data(1)), t(0));
        r.handle(Event::Timer(TimerKind::IdleCheck(mid(1))), t(40)); // discarded
        let actions = r.handle(
            packet_event(2, Packet::SearchRequest { msg: mid(1), origins: vec![NodeId(30)] }),
            t(50),
        );
        assert!(sends(&actions).iter().any(|(_, p)| matches!(p, Packet::SearchRequest { .. })));
        assert_eq!(r.metrics().counters.searches_joined, 1);
    }

    #[test]
    fn search_found_stops_retries() {
        let cfg = ProtocolConfig::builder().c(1e-12).build().unwrap();
        let mut r = root_receiver(cfg);
        r.handle(packet_event(0, data(1)), t(0));
        r.handle(Event::Timer(TimerKind::IdleCheck(mid(1))), t(40));
        r.handle(packet_event(30, Packet::RemoteRequest { msg: mid(1) }), t(50));
        r.handle(packet_event(2, Packet::SearchFound { msg: mid(1), holder: NodeId(2) }), t(55));
        let actions = r.handle(Event::Timer(TimerKind::SearchRetry(mid(1))), t(60));
        assert!(actions.is_empty(), "search must stop after SearchFound: {actions:?}");
    }

    #[test]
    fn stale_search_probe_is_redirected_not_rejoined() {
        // A member that already heard "I have the message" must not
        // re-ignite the search when a late probe arrives; it forwards the
        // probe to the announced holder instead.
        let cfg = ProtocolConfig::builder().c(1e-12).build().unwrap();
        let mut r = root_receiver(cfg);
        r.handle(packet_event(0, data(1)), t(0));
        r.handle(Event::Timer(TimerKind::IdleCheck(mid(1))), t(40)); // discarded
        r.handle(packet_event(2, Packet::SearchFound { msg: mid(1), holder: NodeId(2) }), t(50));
        // A probe that was in flight arrives 5ms later.
        let actions = r.handle(
            packet_event(3, Packet::SearchRequest { msg: mid(1), origins: vec![NodeId(30)] }),
            t(55),
        );
        let forwards = sends(&actions);
        assert_eq!(forwards.len(), 1, "{actions:?}");
        assert_eq!(*forwards[0].0, NodeId(2), "must route to the announced holder");
        assert!(matches!(forwards[0].1, Packet::SearchRequest { .. }));
        assert_eq!(r.metrics().counters.searches_joined, 0);
        // Past the memory window, a new probe is a genuine new search.
        let actions = r.handle(
            packet_event(3, Packet::SearchRequest { msg: mid(1), origins: vec![NodeId(31)] }),
            t(200),
        );
        assert_eq!(r.metrics().counters.searches_joined, 1);
        assert!(timers(&actions).contains(&TimerKind::SearchRetry(mid(1))));
    }

    #[test]
    fn probe_reaching_a_stale_self_holder_searches_afresh() {
        // This member answered a search, so it remembers itself as the
        // holder, and then discarded the message again within
        // `SEARCH_MEMORY`. A probe must join a fresh search, as a remote
        // request would, not drop its origins.
        let mut cfg = ProtocolConfig::builder().c(1e-12).build().unwrap();
        cfg.long_term_timeout = SimDuration::from_millis(1);
        let mut r = root_receiver(cfg);
        r.handle(packet_event(0, data(1)), t(0));
        r.handle(Event::Timer(TimerKind::IdleCheck(mid(1))), t(40)); // discarded
        r.handle(packet_event(30, Packet::RemoteRequest { msg: mid(1) }), t(50)); // searching
                                                                                  // A handoff brings the message back and answers the search ...
        let handoff = Packet::Handoff { data: DataPacket::new(mid(1), payload()) };
        let actions = r.handle(packet_event(2, handoff), t(55));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::MulticastRegion { packet: Packet::SearchFound { holder, .. } } if *holder == NodeId(1)
        )));
        // ... and the long-term expiry discards it again.
        r.handle(Event::Timer(TimerKind::LongTermSweep), t(60));
        assert!(!r.store().contains(mid(1)));
        let probe = Packet::SearchRequest { msg: mid(1), origins: vec![NodeId(31)] };
        let actions = r.handle(packet_event(3, probe), t(70));
        assert_eq!(r.metrics().counters.searches_joined, 1);
        assert!(
            sends(&actions).iter().any(|(_, p)| matches!(p, Packet::SearchRequest { origins, .. }
                    if origins == &vec![NodeId(31)])),
            "the origins must travel on: {actions:?}"
        );
        assert!(timers(&actions).contains(&TimerKind::SearchRetry(mid(1))));
    }

    #[test]
    fn remote_request_after_fresh_announcement_uses_fast_path() {
        let cfg = ProtocolConfig::builder().c(1e-12).build().unwrap();
        let mut r = root_receiver(cfg);
        r.handle(packet_event(0, data(1)), t(0));
        r.handle(Event::Timer(TimerKind::IdleCheck(mid(1))), t(40));
        r.handle(packet_event(2, Packet::SearchFound { msg: mid(1), holder: NodeId(4) }), t(50));
        let actions = r.handle(packet_event(30, Packet::RemoteRequest { msg: mid(1) }), t(55));
        let forwards = sends(&actions);
        assert_eq!(forwards.len(), 1);
        assert_eq!(*forwards[0].0, NodeId(4));
        assert_eq!(r.metrics().counters.searches_started, 0, "no new search needed");
    }

    #[test]
    fn remote_repair_triggers_regional_multicast_without_backoff() {
        let cfg = ProtocolConfig::builder().backoff_window(None).build().unwrap();
        let mut r = receiver_with_parent(cfg);
        let actions = r.handle(
            packet_event(
                10,
                Packet::Repair {
                    data: DataPacket::new(mid(1), payload()),
                    kind: RepairKind::Remote,
                },
            ),
            t(0),
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::MulticastRegion { packet: Packet::RegionalRepair { data } } if data.id == mid(1)
        )));
        assert_eq!(r.metrics().counters.regional_multicasts_sent, 1);
    }

    #[test]
    fn backoff_suppresses_duplicate_regional_multicast() {
        let cfg = ProtocolConfig::paper_defaults(); // back-off on
        let mut r = receiver_with_parent(cfg);
        let actions = r.handle(
            packet_event(
                10,
                Packet::Repair {
                    data: DataPacket::new(mid(1), payload()),
                    kind: RepairKind::Remote,
                },
            ),
            t(0),
        );
        // A back-off timer is set instead of an immediate multicast.
        assert!(timers(&actions).contains(&TimerKind::Backoff(mid(1))));
        assert!(actions.iter().all(|a| !matches!(a, Action::MulticastRegion { .. })));
        // Another member's regional repair arrives first.
        r.handle(
            packet_event(2, Packet::RegionalRepair { data: DataPacket::new(mid(1), payload()) }),
            t(2),
        );
        let actions = r.handle(Event::Timer(TimerKind::Backoff(mid(1))), t(8));
        assert!(actions.is_empty(), "suppressed multicast should emit nothing");
        assert_eq!(r.metrics().counters.regional_multicasts_suppressed, 1);
        assert_eq!(r.metrics().counters.regional_multicasts_sent, 0);
    }

    #[test]
    fn leave_hands_off_long_term_buffers() {
        let cfg = ProtocolConfig::builder().c(1000.0).build().unwrap(); // always keep
        let mut r = root_receiver(cfg);
        r.handle(packet_event(0, data(1)), t(0));
        r.handle(Event::Timer(TimerKind::IdleCheck(mid(1))), t(40)); // -> long-term
        let actions = r.handle(Event::Leave, t(100));
        let handoffs: Vec<_> = sends(&actions)
            .into_iter()
            .filter(|(_, p)| matches!(p, Packet::Handoff { data } if data.id == mid(1)))
            .collect();
        assert_eq!(handoffs.len(), 1);
        assert!(r.has_left());
        assert_eq!(r.metrics().counters.handoffs_sent, 1);
        // After leaving, events are ignored.
        let actions = r.handle(packet_event(0, data(2)), t(101));
        assert!(actions.is_empty());
    }

    #[test]
    fn handoff_received_enters_long_term() {
        let mut r = root_receiver(ProtocolConfig::paper_defaults());
        let actions = r.handle(
            packet_event(2, Packet::Handoff { data: DataPacket::new(mid(1), payload()) }),
            t(0),
        );
        // New message: delivered AND long-term buffered.
        assert!(actions.iter().any(|a| matches!(a, Action::Deliver { .. })));
        assert_eq!(r.store().long_count(), 1);
        assert_eq!(r.store().short_count(), 0);
        assert_eq!(r.metrics().counters.handoffs_received, 1);
    }

    #[test]
    fn handoff_after_discard_reinstates_long_term() {
        let cfg = ProtocolConfig::builder().c(1e-12).build().unwrap();
        let mut r = root_receiver(cfg);
        r.arm_observer(Box::<BufferRecords>::default(), None);
        r.handle(packet_event(0, data(1)), t(0));
        r.handle(Event::Timer(TimerKind::IdleCheck(mid(1))), t(40)); // discarded
        assert!(!r.store().contains(mid(1)));
        r.handle(
            packet_event(2, Packet::Handoff { data: DataPacket::new(mid(1), payload()) }),
            t(50),
        );
        assert_eq!(r.store().long_count(), 1);
        let rec = r.observer::<BufferRecords>().unwrap().get(mid(1)).unwrap();
        assert!(rec.kept_long_term && rec.discarded_at.is_none(), "{rec:?}");
        assert_eq!(rec.idled_at, Some(t(40)));
    }

    #[test]
    fn long_term_sweep_expires_stale_entries() {
        let cfg = ProtocolConfig::builder()
            .c(1000.0)
            .long_term_timeout(SimDuration::from_millis(500))
            .build()
            .unwrap();
        let mut r = root_receiver(cfg);
        r.handle(packet_event(0, data(1)), t(0));
        r.handle(Event::Timer(TimerKind::IdleCheck(mid(1))), t(40));
        assert_eq!(r.store().long_count(), 1);
        let actions = r.handle(Event::Timer(TimerKind::LongTermSweep), t(600));
        assert_eq!(r.store().long_count(), 0);
        assert_eq!(r.metrics().counters.long_term_expired, 1);
        // Sweep reschedules itself.
        assert!(timers(&actions).contains(&TimerKind::LongTermSweep));
    }

    #[test]
    fn fixed_time_policy_discards_unconditionally() {
        let cfg = ProtocolConfig::builder()
            .policy(PolicyKind::FixedTime { hold: SimDuration::from_millis(100) })
            .build()
            .unwrap();
        let mut r = root_receiver(cfg);
        let actions = r.handle(packet_event(0, data(1)), t(0));
        // Hold timer set for 100ms.
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer { delay, kind: TimerKind::IdleCheck(m) }
                if *m == mid(1) && *delay == SimDuration::from_millis(100)
        )));
        // Requests do NOT extend the fixed hold.
        r.handle(packet_event(3, Packet::LocalRequest { msg: mid(1) }), t(90));
        r.handle(Event::Timer(TimerKind::IdleCheck(mid(1))), t(100));
        assert!(!r.store().contains(mid(1)));
    }

    #[test]
    fn keep_all_policy_never_discards() {
        let cfg = ProtocolConfig::builder().policy(PolicyKind::KeepAll).build().unwrap();
        let mut r = root_receiver(cfg);
        let actions = r.handle(packet_event(0, data(1)), t(0));
        assert!(timers(&actions).iter().all(|k| !matches!(k, TimerKind::IdleCheck(_))));
        r.handle(Event::Timer(TimerKind::IdleCheck(mid(1))), t(1_000_000));
        assert!(r.store().contains(mid(1)));
    }

    #[test]
    fn preload_states_behave() {
        let mut r = root_receiver(ProtocolConfig::paper_defaults());
        let a = r.preload(mid(1), payload(), PreloadState::LongTerm, t(0));
        assert!(a.is_empty());
        assert_eq!(r.store().long_count(), 1);

        let a = r.preload(mid(2), payload(), PreloadState::ShortTerm, t(0));
        assert!(!a.is_empty());
        assert_eq!(r.store().short_count(), 1);

        r.preload(mid(3), payload(), PreloadState::ReceivedDiscarded, t(0));
        assert!(r.detector().received_before(mid(3)));
        assert!(!r.store().contains(mid(3)));
    }

    #[test]
    fn recovery_gives_up_after_attempt_cap() {
        let mut cfg = ProtocolConfig::paper_defaults();
        cfg.max_local_attempts = 2;
        let mut r = root_receiver(cfg);
        r.handle(packet_event(0, data(2)), t(0)); // misses #1, attempt 1
        r.handle(Event::Timer(TimerKind::LocalRetry(mid(1))), t(10)); // attempt 2
        let actions = r.handle(Event::Timer(TimerKind::LocalRetry(mid(1))), t(20)); // cap
        assert!(sends(&actions).is_empty());
        assert_eq!(r.metrics().counters.recovery_gave_up, 1);
    }

    #[test]
    fn stability_policy_buffers_until_group_stable() {
        use crate::history::{DigestEntry, HistoryDigest};
        let cfg = ProtocolConfig::builder().policy(PolicyKind::Stability).build().unwrap();
        let mut r = root_receiver(cfg);
        // Start-up arms the history tick alongside the long-term sweep.
        let start = r.on_start();
        assert!(start
            .iter()
            .any(|a| matches!(a, Action::SetTimer { kind: TimerKind::HistoryTick, .. })));
        r.handle(packet_event(0, data(1)), t(0));
        assert_eq!(r.store().long_count(), 1, "everyone buffers everything");
        // The history tick advertises the digest to every other member in
        // one fan-out over the group list (the host skips this member).
        let actions = r.handle(Event::Timer(TimerKind::HistoryTick), t(100));
        assert!(sends(&actions).is_empty(), "no per-peer unicasts: {actions:?}");
        let fan_outs: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::SendMany { to, packet } => Some((to, packet)),
                _ => None,
            })
            .collect();
        assert_eq!(fan_outs.len(), 1, "one fan-out per tick: {actions:?}");
        let (to, packet) = fan_outs[0];
        let peers: Vec<NodeId> = to.iter().copied().filter(|&m| m != NodeId(1)).collect();
        assert_eq!(peers, [0, 2, 3, 4].map(NodeId), "the digest names the 4 peers");
        assert!(matches!(**packet, Packet::History { .. }));
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::SetTimer { kind: TimerKind::HistoryTick, .. })),
            "tick re-arms"
        );
        assert_eq!(r.metrics().counters.history_digests_sent, 4);
        // Digests from 3 of 4 peers: not yet stable, nothing discarded.
        let full = Arc::new(HistoryDigest {
            entries: vec![DigestEntry { source: SENDER, intervals: vec![(SeqNo(1), SeqNo(1))] }],
        });
        for peer in [0u32, 2, 3] {
            r.handle(packet_event(peer, Packet::History { digest: full.clone() }), t(110));
        }
        assert!(r.store().contains(mid(1)), "quorum incomplete: keep buffering");
        // The last peer's digest completes stability: the entry drains.
        r.handle(packet_event(4, Packet::History { digest: full }), t(120));
        assert!(!r.store().contains(mid(1)), "stable message must be discarded");
        assert_eq!(r.metrics().counters.stable_discards, 1);
        assert_eq!(r.metrics().counters.history_digests_received, 4);
    }

    #[test]
    fn stability_policy_unblocks_when_member_leaves() {
        use crate::history::{DigestEntry, HistoryDigest};
        let cfg = ProtocolConfig::builder().policy(PolicyKind::Stability).build().unwrap();
        let mut r = root_receiver(cfg);
        r.handle(packet_event(0, data(1)), t(0));
        let full = Arc::new(HistoryDigest {
            entries: vec![DigestEntry { source: SENDER, intervals: vec![(SeqNo(1), SeqNo(1))] }],
        });
        for peer in [0u32, 2, 3] {
            r.handle(packet_event(peer, Packet::History { digest: full.clone() }), t(10));
        }
        assert!(r.store().contains(mid(1)), "silent member 4 gates stability");
        // Member 4 departs: the quorum shrinks and the next digest drains
        // — even though a stale digest of the departed member was still
        // in flight (it must not re-enter the quorum and pin stability).
        r.on_membership_removed(NodeId(4));
        let stale = Arc::new(HistoryDigest {
            entries: vec![DigestEntry {
                source: SENDER,
                // Gap at 1: frontier 0 — would pin stability if admitted.
                intervals: vec![(SeqNo(2), SeqNo(2))],
            }],
        });
        r.handle(packet_event(4, Packet::History { digest: stale }), t(15));
        r.handle(packet_event(2, Packet::History { digest: full }), t(20));
        assert!(!r.store().contains(mid(1)), "departed member must stop gating stability");
    }

    #[test]
    fn tree_policy_receivers_nack_their_server() {
        let cfg = ProtocolConfig::builder().policy(PolicyKind::TreeRmtp).build().unwrap();
        let mut r = root_receiver(cfg); // self = 1; region 0..5 => server 0
        let actions = r.handle(packet_event(0, data(1)), t(0));
        assert_eq!(r.store().len(), 0, "ordinary receivers buffer nothing");
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, Action::SetTimer { kind: TimerKind::IdleCheck(_), .. })),
            "no short phase, no idle timer"
        );
        // A gap NACKs the repair server via a remote request (waiter
        // semantics at the server), retried on the local budget.
        let actions = r.handle(packet_event(0, data(3)), t(5));
        let nacks = sends(&actions);
        assert!(
            nacks.iter().any(|(to, p)| **to == NodeId(0)
                && matches!(p, Packet::RemoteRequest { msg } if *msg == mid(2))),
            "receiver must NACK its repair server: {actions:?}"
        );
        assert_eq!(r.metrics().counters.remote_requests_sent, 1);
        assert_eq!(r.metrics().counters.local_requests_sent, 0);
    }

    #[test]
    fn tree_policy_server_buffers_and_nacks_parent() {
        // Self = 1 would not be the server; build a view where self IS the
        // region minimum and a parent region exists.
        let own = RegionView::new(RegionId(1), (1..5).map(NodeId));
        let parent = RegionView::new(RegionId(0), (10..13).map(NodeId));
        let cfg = ProtocolConfig::builder().policy(PolicyKind::TreeRmtp).build().unwrap();
        let mut r = Receiver::new(NodeId(1), HierarchyView::new(own, Some(parent)), cfg, 42);
        r.handle(packet_event(0, data(1)), t(0));
        assert_eq!(r.store().long_count(), 1, "the server buffers the session");
        // The server's own losses go to the parent region's server.
        let actions = r.handle(packet_event(0, data(3)), t(5));
        assert!(
            sends(&actions).iter().any(|(to, p)| **to == NodeId(10)
                && matches!(p, Packet::RemoteRequest { msg } if *msg == mid(2))),
            "server must NACK the parent server: {actions:?}"
        );
        // A repair that crossed regions is NOT re-multicast regionally.
        let actions = r.handle(
            packet_event(
                10,
                Packet::Repair {
                    data: DataPacket::new(mid(2), payload()),
                    kind: RepairKind::Remote,
                },
            ),
            t(10),
        );
        assert!(
            actions.iter().all(|a| !matches!(a, Action::MulticastRegion { .. })
                && !matches!(a, Action::SetTimer { kind: TimerKind::Backoff(_), .. })),
            "tree servers answer NACKs individually: {actions:?}"
        );
    }

    #[test]
    fn backoff_fires_and_recovery_records_drop_once_empty() {
        let repair =
            |seq, kind| Packet::Repair { data: DataPacket::new(mid(seq), payload()), kind };
        let mut r = receiver_with_parent(ProtocolConfig::paper_defaults());
        r.handle(packet_event(0, data(3)), t(0)); // misses #1 and #2
        assert_eq!(r.recovery.len(), 2);
        // A repaired loss drops its rounds and, with nothing else held,
        // its record.
        r.handle(packet_event(2, repair(2, RepairKind::Local)), t(3));
        assert!(r.recovery.get(mid(2)).is_none());
        // A remote repair leaves only the back-off behind ...
        r.handle(packet_event(10, repair(1, RepairKind::Remote)), t(5));
        let rec = r.recovery.get(mid(1)).expect("back-off pending");
        assert_eq!(rec.shape(), "backoff");
        // ... which, unsuppressed, fires, and the record goes with it.
        let actions = r.handle(Event::Timer(TimerKind::Backoff(mid(1))), t(15));
        assert!(actions.iter().any(|a| matches!(a, Action::MulticastRegion { .. })));
        assert_eq!(r.metrics().counters.regional_multicasts_sent, 1);
        assert_eq!(r.recovery.len(), 0);
        // Search memory lives until the sweep after its window.
        r.handle(packet_event(2, Packet::SearchFound { msg: mid(1), holder: NodeId(2) }), t(20));
        assert!(r.recovery.get(mid(1)).is_some_and(|rec| rec.shape() == "found"));
        r.handle(Event::Timer(TimerKind::LongTermSweep), t(5_000));
        assert_eq!(r.recovery.len(), 0);
    }

    #[test]
    fn recovery_record_and_receiver_sizes_are_pinned() {
        // Growth must be a decision.
        assert!(std::mem::size_of::<(MessageId, Recovery)>() <= 120);
        assert!(std::mem::size_of::<Receiver>() <= 688);
        assert!(std::mem::size_of::<crate::harness::RrmpNode>() <= 784);
    }

    #[test]
    fn action_and_packet_sizes_are_pinned() {
        // Every member keeps an action buffer, so these are per-member
        // bytes: a fan-out's target list beside an inline packet would
        // make `Action` 64 B.
        assert_eq!(std::mem::size_of::<Action>(), 56);
        assert!(std::mem::size_of::<Packet>() <= 48);
    }

    // ----- the sender role -----------------------------------------------------

    /// A root-region receiver granted the sender role.
    fn sender_with(cfg: ProtocolConfig) -> Receiver {
        let mut r = root_receiver(cfg);
        r.make_sender();
        r
    }

    fn session_tick() -> Event {
        Event::Timer(TimerKind::SessionTick)
    }

    #[test]
    fn sender_numbers_messages_contiguously_from_one() {
        let mut r = sender_with(ProtocolConfig::paper_defaults());
        let first = r.multicast(payload()).expect("a sender numbers");
        let second = r.multicast(Bytes::from_static(b"next")).expect("a sender numbers");
        assert_eq!(first, DataPacket::new(MessageId::new(r.id(), SeqNo(1)), payload()));
        assert_eq!(second.id, MessageId::new(r.id(), SeqNo(2)));
        assert_eq!(&second.payload[..], b"next");
    }

    #[test]
    fn session_tick_advertises_nothing_before_the_first_message() {
        let mut r = sender_with(ProtocolConfig::paper_defaults());
        let actions = r.handle(session_tick(), t(20));
        assert_eq!(
            actions,
            [Action::SetTimer { delay: r.config().session_interval, kind: TimerKind::SessionTick }]
        );
    }

    #[test]
    fn session_tick_advertises_the_high_watermark_and_rearms() {
        let mut r = sender_with(ProtocolConfig::paper_defaults());
        r.multicast(payload());
        r.multicast(payload());
        let actions = r.handle(session_tick(), t(20));
        assert_eq!(
            actions,
            [
                Action::MulticastGroup {
                    packet: Packet::Session { source: r.id(), high: SeqNo(2) }
                },
                Action::SetTimer {
                    delay: r.config().session_interval,
                    kind: TimerKind::SessionTick
                },
            ]
        );
    }

    #[test]
    fn on_start_arms_the_session_tick_last_and_only_on_a_periodic_sender() {
        let watchdog = WatchdogConfig {
            interval: SimDuration::from_millis(100),
            horizon: SimDuration::from_millis(250),
        };
        let cfg = ProtocolConfig { watchdog: Some(watchdog), ..ProtocolConfig::paper_defaults() };
        assert_eq!(
            timers(&sender_with(cfg.clone()).on_start()),
            [TimerKind::LongTermSweep, TimerKind::Watchdog, TimerKind::SessionTick]
        );
        assert_eq!(
            timers(&root_receiver(cfg.clone()).on_start()),
            [TimerKind::LongTermSweep, TimerKind::Watchdog]
        );
        let one_shot = ProtocolConfig { periodic_sessions: false, ..cfg };
        assert_eq!(
            timers(&sender_with(one_shot).on_start()),
            [TimerKind::LongTermSweep, TimerKind::Watchdog]
        );
    }

    #[test]
    fn non_sender_ignores_the_session_tick_and_cannot_multicast() {
        let mut r = root_receiver(ProtocolConfig::paper_defaults());
        assert_eq!(r.multicast(payload()), None);
        assert!(r.handle(session_tick(), t(20)).is_empty());
    }

    #[test]
    fn crashed_sender_keeps_advertising() {
        let mut r = sender_with(ProtocolConfig::paper_defaults());
        r.multicast(payload());
        r.crash(t(10));
        let actions = r.handle(session_tick(), t(20));
        assert_eq!(timers(&actions), [TimerKind::SessionTick]);
        assert_eq!(
            actions[0],
            Action::MulticastGroup { packet: Packet::Session { source: r.id(), high: SeqNo(1) } }
        );
        // Every other event still stops at the crash.
        assert!(r.handle(packet_event(2, data(2)), t(21)).is_empty());
    }

    #[test]
    fn config_validation_feeds_back() {
        assert!(matches!(
            ProtocolConfig::builder().lambda(-1.0).build(),
            Err(ConfigError::NonPositiveLambda(_))
        ));
    }

    // ----- overload: damping, suppression, watchdog, admission ------------

    fn overload_cfg() -> ProtocolConfig {
        ProtocolConfig::builder()
            .damping(Some(DampingConfig {
                burst: 1,
                refill: SimDuration::from_millis(50),
                suppress_window: SimDuration::from_millis(20),
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn damping_sheds_and_requeues_pull_rounds() {
        let mut r = root_receiver(overload_cfg());
        // Two losses at once against a burst of one token: the first pull
        // round fires, the second is shed — but both stay on retry timers.
        let actions = r.handle(packet_event(0, data(3)), t(0));
        let reqs: Vec<_> = sends(&actions)
            .into_iter()
            .filter(|(_, p)| matches!(p, Packet::LocalRequest { .. }))
            .collect();
        assert_eq!(reqs.len(), 1, "one token, one request: {actions:?}");
        assert_eq!(r.metrics().counters.requests_shed, 1);
        assert!(timers(&actions).contains(&TimerKind::LocalRetry(mid(1))));
        assert!(timers(&actions).contains(&TimerKind::LocalRetry(mid(2))), "shed, not lost");
        // One refill period later the shed effort's retry fires for real.
        let actions = r.handle(Event::Timer(TimerKind::LocalRetry(mid(2))), t(60));
        assert!(sends(&actions)
            .iter()
            .any(|(_, p)| matches!(p, Packet::LocalRequest { msg } if *msg == mid(2))));
        assert_eq!(r.metrics().counters.shed_retried, 1);
    }

    #[test]
    fn overheard_request_suppresses_own_pull_round() {
        let mut r = root_receiver(overload_cfg());
        r.handle(packet_event(0, data(2)), t(0)); // misses #1; round 1 fires
                                                  // A peer's request for the same message is overheard.
        r.handle(packet_event(3, Packet::LocalRequest { msg: mid(1) }), t(5));
        // Our next round falls inside the suppression window: skipped,
        // re-queued, and no damping token spent.
        let actions = r.handle(Event::Timer(TimerKind::LocalRetry(mid(1))), t(10));
        assert!(sends(&actions).is_empty(), "suppressed round must stay quiet: {actions:?}");
        assert_eq!(r.metrics().counters.requests_suppressed, 1);
        assert!(timers(&actions).contains(&TimerKind::LocalRetry(mid(1))));
        // Past the window (and a token refill), the pull resumes.
        let actions = r.handle(Event::Timer(TimerKind::LocalRetry(mid(1))), t(60));
        assert!(sends(&actions)
            .iter()
            .any(|(_, p)| matches!(p, Packet::LocalRequest { msg } if *msg == mid(1))));
        assert_eq!(r.metrics().counters.shed_retried, 1);
    }

    #[test]
    fn shed_rounds_still_count_toward_the_give_up_cap() {
        let mut cfg = overload_cfg();
        cfg.max_local_attempts = 2;
        let mut r = root_receiver(cfg);
        let actions = r.handle(packet_event(0, data(3)), t(0)); // 1 fires, 2 shed
        assert_eq!(r.metrics().counters.requests_shed, 1);
        assert!(timers(&actions).contains(&TimerKind::LocalRetry(mid(2))));
        // Retry immediately (no refill yet): shed again — attempt 2.
        r.handle(Event::Timer(TimerKind::LocalRetry(mid(2))), t(1));
        assert_eq!(r.metrics().counters.requests_shed, 2);
        // Third round exceeds the cap: clean give-up, no storm-stretched
        // recovery, no zombie state.
        r.handle(Event::Timer(TimerKind::LocalRetry(mid(2))), t(2));
        assert_eq!(r.metrics().counters.recovery_gave_up, 1);
        assert!(!r.recovery_pending(mid(2)));
    }

    #[test]
    fn damped_backoff_defers_regional_multicast() {
        let mut cfg = overload_cfg();
        cfg.max_local_attempts = 0; // keep pull rounds from spending tokens
        let mut r = receiver_with_parent(cfg);
        // Two remote repairs arm two back-off multicasts.
        for seq in [1, 2] {
            r.handle(
                packet_event(
                    10,
                    Packet::Repair {
                        data: DataPacket::new(mid(seq), payload()),
                        kind: RepairKind::Remote,
                    },
                ),
                t(0),
            );
        }
        // First back-off fires (token spent), second is deferred with the
        // state kept and the timer re-armed a refill period out.
        let a1 = r.handle(Event::Timer(TimerKind::Backoff(mid(1))), t(8));
        assert!(a1.iter().any(|a| matches!(a, Action::MulticastRegion { .. })));
        let a2 = r.handle(Event::Timer(TimerKind::Backoff(mid(2))), t(9));
        assert!(a2.iter().all(|a| !matches!(a, Action::MulticastRegion { .. })));
        assert_eq!(r.metrics().counters.remulticasts_shed, 1);
        assert!(timers(&a2).contains(&TimerKind::Backoff(mid(2))), "deferred, not dropped");
        // At the re-armed firing a token exists again.
        let a3 = r.handle(Event::Timer(TimerKind::Backoff(mid(2))), t(59));
        assert!(a3.iter().any(|a| matches!(a, Action::MulticastRegion { .. })));
        assert_eq!(r.metrics().counters.regional_multicasts_sent, 2);
    }

    #[test]
    fn watchdog_rearms_wedged_recovery() {
        let mut cfg = ProtocolConfig::paper_defaults();
        cfg.max_local_attempts = 1;
        cfg.watchdog = Some(WatchdogConfig {
            interval: SimDuration::from_millis(100),
            horizon: SimDuration::from_millis(150),
        });
        let mut r = root_receiver(cfg);
        assert!(
            r.on_start()
                .iter()
                .any(|a| matches!(a, Action::SetTimer { kind: TimerKind::Watchdog, .. })),
            "watchdog armed at start-up"
        );
        r.handle(packet_event(0, data(2)), t(0)); // misses #1 (sole attempt)
        r.handle(Event::Timer(TimerKind::LocalRetry(mid(1))), t(10)); // cap → give up
        assert_eq!(r.metrics().counters.recovery_gave_up, 1);
        assert!(!r.recovery_pending(mid(1)), "wedged: missing with no driver");
        // First tick observes the wedge but the horizon has not elapsed.
        let actions = r.handle(Event::Timer(TimerKind::Watchdog), t(100));
        assert!(sends(&actions).is_empty());
        assert!(timers(&actions).contains(&TimerKind::Watchdog), "tick re-arms itself");
        assert_eq!(r.metrics().counters.watchdog_rearms, 0);
        // A full horizon after first observation: recovery re-armed.
        let actions = r.handle(Event::Timer(TimerKind::Watchdog), t(260));
        assert_eq!(r.metrics().counters.watchdog_rearms, 1);
        assert!(sends(&actions)
            .iter()
            .any(|(_, p)| matches!(p, Packet::LocalRequest { msg } if *msg == mid(1))));
        assert!(r.recovery_pending(mid(1)));
    }

    #[test]
    fn watchdog_forgets_recovered_losses() {
        let mut cfg = ProtocolConfig::paper_defaults();
        cfg.max_local_attempts = 1;
        cfg.watchdog = Some(WatchdogConfig {
            interval: SimDuration::from_millis(100),
            horizon: SimDuration::from_millis(150),
        });
        let mut r = root_receiver(cfg);
        r.handle(packet_event(0, data(2)), t(0));
        r.handle(Event::Timer(TimerKind::LocalRetry(mid(1))), t(10)); // wedged
        r.handle(Event::Timer(TimerKind::Watchdog), t(100)); // observed
                                                             // The repair lands before the horizon: nothing left to re-arm.
        r.handle(
            packet_event(
                2,
                Packet::Repair {
                    data: DataPacket::new(mid(1), payload()),
                    kind: RepairKind::Local,
                },
            ),
            t(150),
        );
        let actions = r.handle(Event::Timer(TimerKind::Watchdog), t(300));
        assert_eq!(r.metrics().counters.watchdog_rearms, 0);
        assert!(sends(&actions).is_empty());
    }

    #[test]
    fn critical_tier_declines_buffering_but_delivers() {
        let mut cfg = ProtocolConfig::paper_defaults();
        cfg.memory_budget = Some(8); // payload() is 7 bytes: 7/8 ≥ 85%
        let mut r = root_receiver(cfg);
        r.handle(packet_event(0, data(1)), t(0));
        assert!(r.store().contains(mid(1)));
        let actions = r.handle(packet_event(0, data(2)), t(1));
        assert!(
            actions.iter().any(|a| matches!(a, Action::Deliver { id, .. } if *id == mid(2))),
            "delivery is never declined: {actions:?}"
        );
        assert!(!r.store().contains(mid(2)), "critical tier declines the buffering duty");
        assert_eq!(r.metrics().counters.admission_declined, 1);
        assert!(r.store().bytes() <= 8, "budget invariant");
    }

    #[test]
    fn pressure_tier_sheds_long_term_entries_early() {
        let mut cfg = ProtocolConfig::paper_defaults();
        cfg.memory_budget = Some(100); // pressure at 50 bytes
        let mut r = root_receiver(cfg);
        for seq in 2..9 {
            r.preload(mid(seq), payload(), PreloadState::LongTerm, t(0)); // 49 bytes
        }
        assert_eq!(r.metrics().counters.pressure_discards, 0);
        // The next insert crosses the pressure threshold; the default
        // hook sheds LRU long-term entries back below it.
        r.handle(packet_event(0, data(1)), t(5));
        assert_eq!(r.metrics().counters.pressure_discards, 1);
        assert!(r.store().bytes() <= 50, "pressure hook drains below the threshold");
        assert!(r.store().contains(mid(1)), "the fresh short-term entry is kept");
    }
}
