//! Recovering one lost message, as one machine.
//!
//! In the paper, recovering a message is a single process: the §2.2 pull
//! and remote rounds while it is missing, the relay to members that asked
//! for it meanwhile, the back-off re-multicast of a repair that crossed
//! regions, and — for a message received and since discarded — the §3.3
//! search for a long-term bufferer. A receiver keeps at most one
//! [`Recovery`] record per message, and every change to a record is one
//! [`Input`] to [`Recoveries::handle`]:
//!
//! * loss detected, payload at hand, a pull/remote/search retry or a
//!   back-off timer fired ([`Input::Timer`]), a request overheard;
//! * a remote or search request, a search found;
//! * the walks over every record: heal, watchdog tick and sweep.
//!
//! The machine sees the rest of its member only through a [`RecoveryEnv`],
//! which lends the detector, the store, the counters, the observer and the
//! action buffer, and makes the policy's and the RNG's draws. The machine
//! asks for them in a fixed order, so a run's outputs repeat byte for byte.
//!
//! A record's legal states are types: its [`Stage`] holds the rounds,
//! waiters and wedge mark only while the message was never received, and
//! a search only after it was; the search memory, the pending back-off
//! and the overheard request may accompany any stage. A record is removed
//! as soon as it holds nothing. [`Recoveries::check`] asserts the rest in
//! debug builds: no `Awaiting` after receipt, no search before it, and no
//! empty record.

use std::borrow::Cow;

use bytes::Bytes;
use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::NodeId;
use rrmp_trace::EventKind;

use crate::buffer::MessageStore;
use crate::config::{
    ProtocolConfig, WatchdogConfig, REMOTE_TIMEOUT, SEARCH_MEMORY, SEARCH_TIMEOUT,
};
use crate::events::{Action, TimerKind};
use crate::ids::MessageId;
use crate::loss::LossDetector;
use crate::metrics::Metrics;
use crate::packet::{DataPacket, Packet, RepairKind};
use crate::policy::{DataPath, Rules};
use crate::vecmap::VecMap;

/// The two retry phases of §2.2: pull requests to the target the policy
/// picks, and remote requests to the parent region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Pull,
    Remote,
}

/// One phase's progress on a missing message.
#[derive(Debug, Clone, Default, PartialEq)]
struct Round {
    attempts: u32,
    /// The previous round was shed (or suppressed) by the repair-storm
    /// damper instead of sending — cleared (and counted as a retry) the
    /// next time a round actually fires. Shed rounds stay queued on
    /// their retry timer; they are never silently lost.
    shed: bool,
}

/// What a record holds while its message was never received.
#[derive(Debug, Clone, Default, PartialEq)]
struct Awaiting {
    local: Option<Round>,
    remote: Option<Round>,
    /// Members to relay the message to when it arrives (ascending, no
    /// duplicates). `Some` even when empty: the arrival then still counts
    /// as a use of the store entry.
    waiters: Option<Vec<NodeId>>,
    /// When the liveness watchdog first saw this loss wedged.
    wedged_since: Option<SimTime>,
}

impl Awaiting {
    fn round(&mut self, phase: Phase) -> &mut Option<Round> {
        match phase {
            Phase::Pull => &mut self.local,
            Phase::Remote => &mut self.remote,
        }
    }
}

/// The bufferer search (§3.3), for a message received and discarded.
#[derive(Debug, Clone, Default, PartialEq)]
struct Search {
    /// Ascending, without duplicates.
    origins: Vec<NodeId>,
    attempts: u32,
    /// Set when the retry cap was reached. The search is kept (so a later
    /// data arrival still answers the origins, and incoming probes do not
    /// re-ignite a hopeless search) and garbage-collected by the sweep.
    exhausted_at: Option<SimTime>,
}

impl Search {
    /// One probe to a random region member, and its retry timer; past the
    /// cap, the search is exhausted instead.
    fn probe<E: RecoveryEnv>(&mut self, env: &mut E, msg: MessageId) {
        if self.exhausted_at.is_some() {
            return;
        }
        self.attempts += 1;
        if self.attempts > env.cfg().max_search_attempts {
            self.exhausted_at = Some(env.now());
            gave_up(env, msg);
            return;
        }
        if let Some(q) = env.search_target() {
            let origins = self.origins.clone();
            env.metrics().counters.search_forwards += 1;
            env.actions()
                .push(Action::Send { to: q, packet: Packet::SearchRequest { msg, origins } });
        }
        let kind = TimerKind::SearchRetry(msg);
        env.actions().push(Action::SetTimer { delay: SEARCH_TIMEOUT, kind });
    }
}

/// Where a message's recovery stands: awaiting it, or searching for a
/// bufferer of it after receipt. The two never coexist.
#[derive(Debug, Clone, Default, PartialEq)]
enum Stage {
    #[default]
    Idle,
    Awaiting(Awaiting),
    Search(Box<Search>),
}

#[derive(Debug, Clone, PartialEq)]
struct Backoff {
    payload: Bytes,
    suppressed: bool,
}

/// Everything a receiver holds about recovering one message: an entry
/// of the table is 120 B (the cold search and back-off are boxed).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Recovery {
    stage: Stage,
    /// When a search was heard to complete, and the holder: probes still
    /// in flight are not to re-ignite it (`SEARCH_MEMORY`).
    found: Option<(SimTime, NodeId)>,
    /// A regional re-multicast waiting out its back-off.
    backoff: Option<Box<Backoff>>,
    /// When a peer's request was last overheard (set while damping is
    /// armed): the duplicate-request suppression window.
    heard: Option<SimTime>,
}

impl Recovery {
    /// Whether recovery machinery is still working on the message: a
    /// round, or a search not yet exhausted.
    fn pending(&self) -> bool {
        match &self.stage {
            Stage::Awaiting(a) => a.local.is_some() || a.remote.is_some(),
            Stage::Search(s) => s.exhausted_at.is_none(),
            Stage::Idle => false,
        }
    }

    /// The awaiting stage, opened if idle.
    fn awaiting(&mut self) -> &mut Awaiting {
        if !matches!(self.stage, Stage::Awaiting(_)) {
            debug_assert_eq!(self.stage, Stage::Idle, "awaiting beside a search");
            self.stage = Stage::Awaiting(Awaiting::default());
        }
        let Stage::Awaiting(a) = &mut self.stage else { unreachable!() };
        a
    }

    /// Whether nothing is left, after closing an awaiting stage that
    /// holds nothing.
    fn settled(&mut self) -> bool {
        if matches!(&self.stage, Stage::Awaiting(a) if *a == Awaiting::default()) {
            self.stage = Stage::Idle;
        }
        *self == Recovery::default()
    }
}

/// One input to the machine; every variant but the walks names its
/// message.
#[derive(Debug)]
pub(crate) enum Input<'a> {
    /// A loss was detected: open the rounds, if still missing.
    Lost(MessageId),
    /// The payload is at hand, having arrived by `path` (`fresh` on first
    /// receipt): every effort for it ends, and a fresh remote repair is
    /// re-multicast behind the back-off.
    Payload { msg: MessageId, payload: &'a Bytes, path: DataPath, fresh: bool },
    /// A pull, remote or search retry, or a back-off, fired; other timer
    /// kinds are not the machine's.
    Timer(TimerKind),
    /// A peer's request for the message was overheard.
    Overheard(MessageId),
    /// A remote request from `from`.
    RemoteRequest { msg: MessageId, from: NodeId },
    /// A search probe on behalf of `origins`.
    SearchRequest { msg: MessageId, origins: &'a [NodeId] },
    /// `holder` announced that it has the message.
    SearchFound { msg: MessageId, holder: NodeId },
    /// A fault window healed: restart exhausted searches, and idle losses.
    Heal,
    /// The liveness watchdog's tick.
    Watchdog(WatchdogConfig),
    /// The periodic sweep: forget old search memory, exhausted searches
    /// and overheard requests.
    Sweep,
}

/// What the machine borrows from its member for one input. The receiver
/// lends its own parts; the exhaustive test scripts every answer.
pub(crate) trait RecoveryEnv {
    /// This member.
    fn me(&self) -> NodeId;
    /// The time of the input.
    fn now(&self) -> SimTime;
    /// The protocol configuration.
    fn cfg(&self) -> &ProtocolConfig;
    /// The loss detector.
    fn detector(&mut self) -> &mut LossDetector;
    /// The message store.
    fn store(&mut self) -> &mut MessageStore;
    /// The counters.
    fn metrics(&mut self) -> &mut Metrics;
    /// The action buffer of the event being handled.
    fn actions(&mut self) -> &mut Vec<Action>;
    /// A reused id buffer, left empty.
    fn scratch(&mut self) -> &mut Vec<MessageId>;
    /// Hands `kind` to the observer, if armed.
    fn observe(&mut self, kind: EventKind);
    /// Whether the λ/n remote phase runs: the policy's
    /// [`Rules::remote_recovery`], and a parent region to ask.
    fn remote_phase(&self) -> bool;
    /// Whom to ask in this round of `phase`: the policy's pull pick, or
    /// the remote phase's λ/n coin and then a parent-region member.
    fn target(&mut self, phase: Phase, msg: MessageId) -> Option<NodeId>;
    /// The pull phase's retry period (the policy's).
    fn pull_retry_delay(&mut self) -> SimDuration;
    /// A random other member of the region to probe (an RNG draw).
    fn search_target(&mut self) -> Option<NodeId>;
    /// A back-off in `0..=window` (an RNG draw).
    fn backoff_delay(&mut self, window: SimDuration) -> SimDuration;
    /// Spends one of the damper's tokens; always `true` while unarmed.
    fn take_token(&mut self) -> bool;
}

/// The recovery records of one receiver, in a sorted-vector map
/// ([`VecMap`]): empty on most nodes, a handful of entries on the rest —
/// no hash-table allocation per node, and deterministic (ascending-id)
/// iteration for free.
#[derive(Debug, Clone, Default)]
pub(crate) struct Recoveries {
    map: VecMap<MessageId, Recovery>,
}

impl Recoveries {
    /// Applies `input`: the machine's one entry point.
    pub(crate) fn handle<E: RecoveryEnv>(&mut self, env: &mut E, input: Input<'_>) {
        match input {
            Input::Lost(msg) => self.lost(env, msg),
            Input::Payload { msg, payload, path, fresh } => {
                // Hearing the region-wide repair suppresses our own
                // pending back-off multicast of it.
                if path == DataPath::RegionalRepair {
                    if let Some(b) = self.map.get_mut(msg).and_then(|r| r.backoff.as_mut()) {
                        b.suppressed = true;
                    }
                }
                self.end(env, msg, payload);
                if fresh && path == DataPath::RemoteRepair && rules(env).remulticast_remote_repairs
                {
                    self.arm_backoff(env, msg, payload.clone());
                }
            }
            Input::Timer(TimerKind::LocalRetry(msg)) => self.attempt(env, msg, Phase::Pull),
            Input::Timer(TimerKind::RemoteRetry(msg)) => self.attempt(env, msg, Phase::Remote),
            Input::Timer(TimerKind::SearchRetry(msg)) => {
                if self.map.get(msg).is_some_and(|r| matches!(r.stage, Stage::Search(_))) {
                    match env.store().get(msg) {
                        // We re-acquired the message since the search began.
                        Some(payload) => self.end(env, msg, &payload),
                        None => self.search(msg).probe(env, msg),
                    }
                }
            }
            Input::Timer(TimerKind::Backoff(msg)) => self.backoff_fired(env, msg),
            Input::Timer(_) => {}
            Input::Overheard(msg) => {
                if env.cfg().damping.is_some() {
                    self.map.get_or_default(msg).heard = Some(env.now());
                }
            }
            Input::RemoteRequest { msg, from } => {
                self.handle(env, Input::Overheard(msg));
                let now = env.now();
                env.store().note_request(msg, now);
                if let Some(payload) = env.store().get(msg) {
                    send_remote_repair(env, from, msg, &payload);
                } else if env.detector().received_before(msg) {
                    // Received but discarded: find a bufferer in this
                    // region (§3.3), unless a search just found one.
                    match self.fresh_holder(env, msg) {
                        Some(holder) => forward(env, holder, msg, vec![from]),
                        None => {
                            env.metrics().counters.searches_started += 1;
                            self.join_search(env, msg, &[from]);
                        }
                    }
                } else {
                    self.await_relay(env, msg, &[from]);
                }
            }
            Input::SearchRequest { msg, origins } => {
                // Hostile or confused peers may list us as a waiting
                // origin; answering ourselves is never meaningful.
                let me = env.me();
                let origins: Cow<'_, [NodeId]> = if origins.contains(&me) {
                    origins.iter().copied().filter(|&o| o != me).collect()
                } else {
                    Cow::Borrowed(origins)
                };
                if let Some(payload) = env.store().get(msg) {
                    // We are a bufferer: answer every waiting origin and
                    // stop the search with a regional announcement.
                    let now = env.now();
                    env.store().note_request(msg, now);
                    self.map.get_or_default(msg).found = Some((now, me));
                    answer(env, msg, &payload, &origins);
                } else if env.detector().received_before(msg) {
                    // Discarded here too: a probe still in flight after the
                    // search completed goes to the remembered holder;
                    // otherwise join the search (§3.3).
                    match (self.fresh_holder(env, msg), self.map.get_mut(msg).map(|r| &mut r.stage))
                    {
                        (Some(holder), _) => forward(env, holder, msg, origins.into_owned()),
                        (None, Some(Stage::Search(s))) => add_sorted(&mut s.origins, &origins),
                        (None, _) => {
                            env.metrics().counters.searches_joined += 1;
                            self.join_search(env, msg, &origins);
                        }
                    }
                } else {
                    // Never received (§3.3 footnote 4).
                    self.await_relay(env, msg, &origins);
                }
            }
            Input::SearchFound { msg, holder } => {
                // The search is over; remember the holder briefly so
                // probes still in flight don't re-ignite it.
                let r = self.map.get_or_default(msg);
                if matches!(r.stage, Stage::Search(_)) {
                    r.stage = Stage::Idle;
                }
                r.found = Some((env.now(), holder));
            }
            Input::Heal => self.heal(env),
            Input::Watchdog(wd) => self.watchdog(env, wd),
            Input::Sweep => self.sweep(env),
        }
    }

    /// Whether recovery machinery is still working on `msg`.
    pub(crate) fn pending(&self, msg: MessageId) -> bool {
        self.map.get(msg).is_some_and(Recovery::pending)
    }

    /// The records with a pull round, with a remote round, and with a
    /// search (live or exhausted).
    pub(crate) fn census(&self) -> [u32; 3] {
        self.map.iter().fold([0; 3], |[local, remote, search], (_, r)| match &r.stage {
            Stage::Awaiting(a) => [
                local + u32::from(a.local.is_some()),
                remote + u32::from(a.remote.is_some()),
                search,
            ],
            Stage::Search(_) => [local, remote, search + 1],
            Stage::Idle => [local, remote, search],
        })
    }

    /// The invariants the types leave to a runtime check, in debug builds.
    pub(crate) fn check(&self, detector: &LossDetector) {
        if !cfg!(debug_assertions) {
            return;
        }
        for (msg, r) in self.map.iter() {
            let received = detector.received_before(msg);
            match r.stage {
                Stage::Awaiting(_) => debug_assert!(!received, "{msg}: awaiting after receipt"),
                Stage::Search(_) => debug_assert!(received, "{msg}: search before receipt"),
                Stage::Idle => {}
            }
            debug_assert!(*r != Recovery::default(), "{msg}: empty recovery record");
        }
    }

    /// Drops `msg`'s record once it holds nothing.
    fn tidy(&mut self, msg: MessageId) {
        if self.map.get_mut(msg).is_some_and(Recovery::settled) {
            self.map.remove(msg);
        }
    }

    /// `msg`'s search, opened if idle.
    fn search(&mut self, msg: MessageId) -> &mut Search {
        let r = self.map.get_or_default(msg);
        if !matches!(r.stage, Stage::Search(_)) {
            debug_assert_eq!(r.stage, Stage::Idle, "search beside rounds");
            r.stage = Stage::Search(Box::default());
        }
        let Stage::Search(s) = &mut r.stage else { unreachable!() };
        s
    }

    /// Opens the missing `msg`'s rounds: a pull round, and a remote round
    /// where the remote phase runs.
    fn lost<E: RecoveryEnv>(&mut self, env: &mut E, msg: MessageId) {
        if !env.detector().is_missing(msg) {
            return;
        }
        env.observe(EventKind::LossDetected { src: msg.source.0, mseq: msg.seq.value() });
        let phases: &[Phase] =
            if env.remote_phase() { &[Phase::Pull, Phase::Remote] } else { &[Phase::Pull] };
        for &phase in phases {
            let round = self.map.get_or_default(msg).awaiting().round(phase);
            if round.is_none() {
                *round = Some(Round::default());
                self.attempt(env, msg, phase);
            }
        }
    }

    /// One recovery round of `phase`. For the pull phase the policy picks
    /// the peer to ask (random region neighbor for two-phase, a
    /// designated bufferer for hash placement, the source for
    /// sender-based recovery, the repair server for tree hierarchies),
    /// the request semantics (plain local request, or a remote request
    /// whose target registers a waiter and recovers the message itself),
    /// and the retry period. The remote phase asks the policy's remote
    /// target (the λ/n coin) and retries after `REMOTE_TIMEOUT`. A round
    /// for a message no longer missing just ends.
    fn attempt<E: RecoveryEnv>(&mut self, env: &mut E, msg: MessageId, phase: Phase) {
        let (cfg, now) = (env.cfg(), env.now());
        let cap = match phase {
            Phase::Pull => cfg.max_local_attempts,
            Phase::Remote => cfg.max_remote_attempts,
        };
        let window = cfg.damping.map(|d| d.suppress_window);
        let Some(r) = self.map.get_mut(msg) else { return };
        let heard = r.heard;
        let Stage::Awaiting(a) = &mut r.stage else { return };
        let slot = a.round(phase);
        let Some(round) = slot else { return };
        round.attempts += 1;
        let (attempt, was_shed) = (round.attempts, round.shed);
        let missing = env.detector().is_missing(msg);
        if !missing || attempt > cap {
            *slot = None;
            self.tidy(msg);
            if missing {
                gave_up(env, msg);
            }
            return;
        }
        // Repair-storm damping (attempt accounting above runs first, so
        // shed rounds still count toward the give-up cap and a storm
        // cannot stretch recovery forever). Only the pull phase checks
        // the suppression window, before it spends a token. A shed round
        // makes *zero* RNG draws — the policy's target pick (or the λ/n
        // coin) is skipped entirely — and stays queued on its retry timer.
        let suppressed = phase == Phase::Pull
            && heard.zip(window).is_some_and(|(at, w)| now.saturating_since(at) <= w);
        let shed = suppressed || !env.take_token();
        round.shed = shed;
        let counters = &mut env.metrics().counters;
        if shed {
            if suppressed {
                counters.requests_suppressed += 1;
            } else {
                counters.requests_shed += 1;
            }
        } else {
            if was_shed {
                counters.shed_retried += 1;
            }
            if let Some(to) = env.target(phase, msg) {
                let (src, mseq, remote) = (msg.source.0, msg.seq.value(), phase == Phase::Remote);
                env.observe(EventKind::RecoveryRound { src, mseq, remote, attempt });
                let packet = if remote || rules(env).pull_via_remote_request {
                    env.metrics().counters.remote_requests_sent += 1;
                    Packet::RemoteRequest { msg }
                } else {
                    env.metrics().counters.local_requests_sent += 1;
                    Packet::LocalRequest { msg }
                };
                env.actions().push(Action::Send { to, packet });
            }
        }
        // §2.2: the remote timer is set whether or not a request was sent.
        let (delay, kind) = match phase {
            Phase::Pull => (env.pull_retry_delay(), TimerKind::LocalRetry(msg)),
            Phase::Remote => (REMOTE_TIMEOUT, TimerKind::RemoteRetry(msg)),
        };
        env.actions().push(Action::SetTimer { delay, kind });
    }

    /// `msg`'s payload is at hand: every recovery effort for it ends. The
    /// rounds are dropped, waiters get the relayed repair, and an active
    /// search is answered, leaving this member as the remembered holder.
    fn end<E: RecoveryEnv>(&mut self, env: &mut E, msg: MessageId, payload: &Bytes) {
        let Some(r) = self.map.get_mut(msg) else { return };
        match std::mem::take(&mut r.stage) {
            Stage::Awaiting(Awaiting { waiters: Some(waiters), .. }) => {
                let me = env.me();
                for w in waiters.into_iter().filter(|&w| w != me) {
                    env.metrics().counters.relays_performed += 1;
                    send_remote_repair(env, w, msg, payload);
                }
                let now = env.now();
                env.store().note_use(msg, now);
            }
            Stage::Search(search) => {
                r.found = Some((env.now(), env.me()));
                answer(env, msg, payload, &search.origins);
            }
            Stage::Awaiting(_) | Stage::Idle => {}
        }
        self.tidy(msg);
    }

    /// Never received: remember the waiting `origins` and recover the
    /// message ourselves; the repair is relayed when it arrives (§2.2).
    /// Nobody waits for a message at or below the recovery floor: no
    /// round ever runs for it, so its waiters would be kept forever.
    fn await_relay<E: RecoveryEnv>(&mut self, env: &mut E, msg: MessageId, origins: &[NodeId]) {
        let lost = env.detector().on_hint(msg);
        if env.detector().is_missing(msg) {
            let r = self.map.get_or_default(msg);
            add_sorted(r.awaiting().waiters.get_or_insert_with(Vec::new), origins);
        }
        for m in lost {
            self.lost(env, m);
        }
    }

    /// Adds `origins` to `msg`'s search, opening it, and probes unless the
    /// search is exhausted.
    fn join_search<E: RecoveryEnv>(&mut self, env: &mut E, msg: MessageId, origins: &[NodeId]) {
        let search = self.search(msg);
        add_sorted(&mut search.origins, origins);
        search.probe(env, msg);
    }

    /// The holder a recently completed search for `msg` announced, if the
    /// memory window has not expired and it is not this member (which
    /// then discarded the message since, so must search afresh).
    fn fresh_holder<E: RecoveryEnv>(&self, env: &E, msg: MessageId) -> Option<NodeId> {
        let (now, me) = (env.now(), env.me());
        let (at, holder) = self.map.get(msg)?.found?;
        (now.saturating_since(at) <= SEARCH_MEMORY && holder != me).then_some(holder)
    }

    fn arm_backoff<E: RecoveryEnv>(&mut self, env: &mut E, msg: MessageId, payload: Bytes) {
        match env.cfg().backoff_window {
            None => remulticast(env, msg, payload),
            Some(window) => {
                let delay = env.backoff_delay(window);
                self.map.get_or_default(msg).backoff =
                    Some(Box::new(Backoff { payload, suppressed: false }));
                env.actions().push(Action::SetTimer { delay, kind: TimerKind::Backoff(msg) });
            }
        }
    }

    fn backoff_fired<E: RecoveryEnv>(&mut self, env: &mut E, msg: MessageId) {
        let Some(r) = self.map.get_mut(msg) else { return };
        let Some(b) = r.backoff.take() else { return };
        if b.suppressed {
            env.metrics().counters.regional_multicasts_suppressed += 1;
        } else if !env.take_token() {
            // Deferred, not dropped: the back-off state is kept and the
            // timer re-armed one refill period out, when a token must
            // exist again (unless a peer's multicast suppresses it
            // meanwhile).
            env.metrics().counters.remulticasts_shed += 1;
            let delay = env.cfg().damping.expect("token denied while unarmed").refill;
            r.backoff = Some(b);
            env.actions().push(Action::SetTimer { delay, kind: TimerKind::Backoff(msg) });
        } else {
            remulticast(env, msg, b.payload);
        }
        self.tidy(msg);
    }

    /// Every missing message with no live recovery, ascending, in the
    /// env's scratch buffer (cleared and handed back after the walk).
    fn idle_losses<E: RecoveryEnv>(&self, env: &mut E) -> Vec<MessageId> {
        let mut idle = std::mem::take(env.scratch());
        debug_assert!(idle.is_empty());
        idle.extend(env.detector().missing_iter().filter(|&m| !self.pending(m)));
        idle
    }

    /// Re-arms what gave up while a fault was active: exhausted searches
    /// restart with a fresh attempt budget, and missing messages with no
    /// live recovery get new rounds. `VecMap` and the detector iterate in
    /// ascending id order, so the heal emits actions in the same order on
    /// every engine layout.
    fn heal<E: RecoveryEnv>(&mut self, env: &mut E) {
        env.observe(EventKind::Healed);
        self.map.retain(|msg, r| {
            if let Stage::Search(s) = &mut r.stage {
                if s.exhausted_at.is_some() {
                    s.exhausted_at = None;
                    s.attempts = 0;
                    env.metrics().counters.heal_rearms += 1;
                    s.probe(env, msg);
                }
            }
            true
        });
        let mut idle = self.idle_losses(env);
        for &msg in &idle {
            env.metrics().counters.heal_rearms += 1;
            self.lost(env, msg);
        }
        idle.clear();
        *env.scratch() = idle;
    }

    /// One pass of the recovery-liveness watchdog: a loss is *wedged*
    /// when it is missing with no live recovery — the state a retry-cap
    /// give-up during a fault window leaves behind. A wedged loss
    /// observed for a full horizon is re-armed as the heal does; one that
    /// recovered (or found a driver) between ticks is forgotten.
    fn watchdog<E: RecoveryEnv>(&mut self, env: &mut E, wd: WatchdogConfig) {
        let now = env.now();
        let mut wedged = self.idle_losses(env);
        self.map.retain(|m, r| {
            if let Stage::Awaiting(a) = &mut r.stage {
                if wedged.binary_search(&m).is_err() {
                    a.wedged_since = None;
                }
            }
            !r.settled()
        });
        for &msg in &wedged {
            let a = self.map.get_or_default(msg).awaiting();
            match a.wedged_since {
                None => a.wedged_since = Some(now),
                Some(since) if now.saturating_since(since) >= wd.horizon => {
                    a.wedged_since = None;
                    env.metrics().counters.watchdog_rearms += 1;
                    self.lost(env, msg);
                }
                Some(_) => {}
            }
        }
        wedged.clear();
        *env.scratch() = wedged;
    }

    /// Garbage-collects expired search memory, exhausted searches old
    /// enough that their origins must have retried elsewhere, and
    /// overheard requests past the suppression window.
    fn sweep<E: RecoveryEnv>(&mut self, env: &mut E) {
        let (now, cfg) = (env.now(), env.cfg());
        let sweep = cfg.long_term_sweep_interval;
        let suppress = cfg.damping.map(|d| d.suppress_window);
        self.map.retain(|_, r| {
            if r.found.is_some_and(|(at, _)| now.saturating_since(at) > SEARCH_MEMORY) {
                r.found = None;
            }
            if let Stage::Search(s) = &r.stage {
                if s.exhausted_at.is_some_and(|at| now.saturating_since(at) >= sweep) {
                    r.stage = Stage::Idle;
                }
            }
            if r.heard.zip(suppress).is_some_and(|(at, w)| now.saturating_since(at) > w) {
                r.heard = None;
            }
            !r.settled()
        });
    }
}

/// The member's policy rules, recomputed from its config.
fn rules<E: RecoveryEnv>(env: &E) -> Rules {
    let cfg = env.cfg();
    cfg.policy.rules(cfg)
}

fn gave_up<E: RecoveryEnv>(env: &mut E, msg: MessageId) {
    env.metrics().counters.recovery_gave_up += 1;
    env.observe(EventKind::GaveUp { src: msg.source.0, mseq: msg.seq.value() });
}

/// Sends `msg` to `to` as a remote repair, recording when it left.
fn send_remote_repair<E: RecoveryEnv>(env: &mut E, to: NodeId, msg: MessageId, payload: &Bytes) {
    let now = env.now();
    env.metrics().counters.repairs_sent_remote += 1;
    env.metrics().record_remote_repair(now, msg);
    env.observe(EventKind::RepairSent { src: msg.source.0, mseq: msg.seq.value(), to: to.0 });
    let data = DataPacket::new(msg, payload.clone());
    env.actions()
        .push(Action::Send { to, packet: Packet::Repair { data, kind: RepairKind::Remote } });
}

/// Answers a search for `msg` as its holder: repairs each origin and
/// announces "I have the message" to the region.
fn answer<E: RecoveryEnv>(env: &mut E, msg: MessageId, payload: &Bytes, origins: &[NodeId]) {
    for &origin in origins {
        send_remote_repair(env, origin, msg, payload);
    }
    env.metrics().counters.search_found_sent += 1;
    let holder = env.me();
    env.actions().push(Action::MulticastRegion { packet: Packet::SearchFound { msg, holder } });
}

/// Routes a search for `msg` on behalf of `origins` straight to `holder`.
fn forward<E: RecoveryEnv>(env: &mut E, holder: NodeId, msg: MessageId, origins: Vec<NodeId>) {
    env.metrics().counters.search_forwards += 1;
    env.actions().push(Action::Send { to: holder, packet: Packet::SearchRequest { msg, origins } });
}

/// Re-multicasts a repair that crossed regions to this region.
fn remulticast<E: RecoveryEnv>(env: &mut E, msg: MessageId, payload: Bytes) {
    env.metrics().counters.regional_multicasts_sent += 1;
    let data = DataPacket::new(msg, payload);
    env.actions().push(Action::MulticastRegion { packet: Packet::RegionalRepair { data } });
}

/// Inserts `nodes` into the ascending, duplicate-free `set`.
fn add_sorted(set: &mut Vec<NodeId>, nodes: &[NodeId]) {
    for &n in nodes {
        if let Err(i) = set.binary_search(&n) {
            set.insert(i, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::Arc;

    use super::*;
    use crate::config::DampingConfig;
    use crate::ids::SeqNo;

    impl Recoveries {
        pub(crate) fn len(&self) -> usize {
            self.map.len()
        }

        pub(crate) fn get(&self, msg: MessageId) -> Option<&Recovery> {
            self.map.get(msg)
        }
    }

    impl Recovery {
        /// The parts the record holds, named and `+`-joined.
        pub(crate) fn shape(&self) -> String {
            let stage = match &self.stage {
                Stage::Idle => None,
                Stage::Awaiting(_) => Some("awaiting"),
                Stage::Search(_) => Some("search"),
            };
            let parts = [
                stage,
                self.found.map(|_| "found"),
                self.backoff.as_ref().map(|_| "backoff"),
                self.heard.map(|_| "heard"),
            ];
            parts.into_iter().flatten().collect::<Vec<_>>().join("+")
        }
    }

    const ME: NodeId = NodeId(1);
    const HOLDER: NodeId = NodeId(4);

    fn msg() -> MessageId {
        MessageId::new(NodeId(0), SeqNo(1))
    }

    /// A member whose every answer is scripted: the policy's targets and
    /// the λ/n and search draws answer iff `coin` is up, the damper has a
    /// token iff `token` is up, and the store, the detector and the
    /// clock are what the steps made them.
    #[derive(Debug, Clone)]
    struct Script {
        cfg: Arc<ProtocolConfig>,
        now: SimTime,
        detector: LossDetector,
        store: MessageStore,
        metrics: Metrics,
        actions: Vec<Action>,
        scratch: Vec<MessageId>,
        coin: bool,
        token: bool,
    }

    impl RecoveryEnv for Script {
        fn me(&self) -> NodeId {
            ME
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn cfg(&self) -> &ProtocolConfig {
            &self.cfg
        }
        fn detector(&mut self) -> &mut LossDetector {
            &mut self.detector
        }
        fn store(&mut self) -> &mut MessageStore {
            &mut self.store
        }
        fn metrics(&mut self) -> &mut Metrics {
            &mut self.metrics
        }
        fn actions(&mut self) -> &mut Vec<Action> {
            &mut self.actions
        }
        fn scratch(&mut self) -> &mut Vec<MessageId> {
            &mut self.scratch
        }
        fn observe(&mut self, _: EventKind) {}
        fn remote_phase(&self) -> bool {
            true
        }
        fn target(&mut self, phase: Phase, _: MessageId) -> Option<NodeId> {
            self.coin.then_some(if phase == Phase::Pull { NodeId(2) } else { NodeId(10) })
        }
        fn pull_retry_delay(&mut self) -> SimDuration {
            SimDuration::from_millis(10)
        }
        fn search_target(&mut self) -> Option<NodeId> {
            self.coin.then_some(NodeId(3))
        }
        fn backoff_delay(&mut self, window: SimDuration) -> SimDuration {
            window
        }
        fn take_token(&mut self) -> bool {
            self.token
        }
    }

    /// One step of a script: an input to the machine, or a change to
    /// what the member's env answers.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Lost,
        Arrive(DataPath),
        Keep,
        Discard,
        /// A timer the machine armed fires (index into [`TIMERS`]).
        Fire(usize),
        Overheard,
        RemoteRequest,
        SearchRequest,
        SearchFound(NodeId),
        Heal,
        Watchdog,
        Sweep,
        Advance,
        Coin,
        Token,
    }

    const TIMERS: [fn(MessageId) -> TimerKind; 4] =
        [TimerKind::LocalRetry, TimerKind::RemoteRetry, TimerKind::SearchRetry, TimerKind::Backoff];

    const STEPS: [Step; 19] = [
        Step::Lost,
        Step::Arrive(DataPath::RemoteRepair),
        Step::Arrive(DataPath::RegionalRepair),
        Step::Keep,
        Step::Discard,
        Step::Fire(0),
        Step::Fire(1),
        Step::Fire(2),
        Step::Fire(3),
        Step::Overheard,
        Step::RemoteRequest,
        Step::SearchRequest,
        Step::SearchFound(HOLDER),
        Step::Heal,
        Step::Watchdog,
        Step::Sweep,
        Step::Advance,
        Step::Coin,
        Step::Token,
    ];

    /// The machine, its scripted member, and the timers armed and not
    /// yet fired, per kind.
    #[derive(Debug, Clone)]
    struct World {
        rec: Recoveries,
        env: Script,
        armed: [u32; 4],
    }

    impl World {
        fn new() -> Self {
            let cfg = ProtocolConfig {
                max_local_attempts: 2,
                max_remote_attempts: 1,
                max_search_attempts: 1,
                long_term_sweep_interval: SimDuration::from_millis(20),
                damping: Some(DampingConfig {
                    burst: 1,
                    refill: SimDuration::from_millis(10),
                    suppress_window: SimDuration::from_millis(10),
                }),
                ..ProtocolConfig::paper_defaults()
            };
            let env = Script {
                cfg: Arc::new(cfg),
                now: SimTime::ZERO,
                detector: LossDetector::new(),
                store: MessageStore::default(),
                metrics: Metrics::new(false),
                actions: Vec::new(),
                scratch: Vec::new(),
                coin: true,
                token: true,
            };
            World { rec: Recoveries::default(), env, armed: [0; 4] }
        }

        /// A member whose recovery floor is the message's number.
        fn floored() -> Self {
            let mut w = World::new();
            w.env.detector.set_floor(msg().source, msg().seq);
            w
        }

        /// Applies `step`; `None` if it cannot happen in this state.
        fn step(&self, step: Step) -> Option<World> {
            let mut w = self.clone();
            let (m, env) = (msg(), &mut w.env);
            let input = match step {
                Step::Lost => {
                    env.detector.on_hint(m);
                    Input::Lost(m)
                }
                Step::Arrive(path) => {
                    let fresh = env.detector.on_data(m).newly_received;
                    let payload = Bytes::from_static(b"m");
                    w.rec.handle(env, Input::Payload { msg: m, payload: &payload, path, fresh });
                    return Some(w.settle());
                }
                Step::Keep if env.detector.received_before(m) && !env.store.contains(m) => {
                    env.store.insert_short(m, Bytes::from_static(b"m"), env.now);
                    return Some(w);
                }
                Step::Discard if env.store.contains(m) => {
                    env.store.discard(m, env.now);
                    return Some(w);
                }
                Step::Keep | Step::Discard => return None,
                Step::Fire(i) if w.armed[i] > 0 => {
                    w.armed[i] -= 1;
                    Input::Timer(TIMERS[i](m))
                }
                Step::Fire(_) => return None,
                Step::Overheard => Input::Overheard(m),
                Step::RemoteRequest => Input::RemoteRequest { msg: m, from: NodeId(30) },
                Step::SearchRequest => Input::SearchRequest { msg: m, origins: &[NodeId(31)] },
                Step::SearchFound(holder) => Input::SearchFound { msg: m, holder },
                Step::Heal => Input::Heal,
                Step::Watchdog => Input::Watchdog(WatchdogConfig {
                    interval: SimDuration::from_millis(20),
                    horizon: SimDuration::from_millis(20),
                }),
                Step::Sweep => Input::Sweep,
                Step::Advance => {
                    env.now += SimDuration::from_millis(20);
                    return Some(w);
                }
                Step::Coin => {
                    env.coin = !env.coin;
                    return Some(w);
                }
                Step::Token => {
                    env.token = !env.token;
                    return Some(w);
                }
            };
            w.rec.handle(env, input);
            Some(w.settle())
        }

        /// Counts the timers the last input armed, and clears its actions.
        fn settle(mut self) -> Self {
            for a in self.env.actions.drain(..) {
                if let Action::SetTimer { kind, .. } = a {
                    if let Some(i) = TIMERS.iter().position(|t| t(msg()) == kind) {
                        self.armed[i] += 1;
                    }
                }
            }
            self
        }

        fn key(&self) -> String {
            let e = &self.env;
            let status = (e.detector.received_before(msg()), e.detector.is_missing(msg()));
            let gave_up = e.metrics.counters.recovery_gave_up > 0;
            let env = (e.now, status, e.store.contains(msg()), e.coin, e.token, gave_up);
            format!("{:?}{env:?}{:?}", self.rec.map.get(msg()), self.armed)
        }

        fn exhausted(&self) -> Option<u32> {
            match &self.rec.map.get(msg())?.stage {
                Stage::Search(s) => s.exhausted_at.map(|_| s.attempts),
                _ => None,
            }
        }

        /// The properties every reachable state has.
        fn check(&self, path: &[Step]) {
            let (cfg, m) = (&self.env.cfg, msg());
            self.rec.check(&self.env.detector);
            let Some(r) = self.rec.map.get(m) else {
                assert!(!self.env.detector.is_missing(m) || self.gave_up(), "{path:?}: wedged");
                return;
            };
            match &r.stage {
                Stage::Awaiting(a) => {
                    // Without a round, only a loss given up on may wait:
                    // the heal or the watchdog re-arms it.
                    if a.local.is_none() && a.remote.is_none() {
                        let missing = self.env.detector.is_missing(m);
                        assert!(missing, "{path:?}: waiters, no round, no timer");
                    }
                    for (round, cap, i) in [
                        (&a.local, cfg.max_local_attempts, 0),
                        (&a.remote, cfg.max_remote_attempts, 1),
                    ] {
                        if let Some(round) = round {
                            assert!(round.attempts <= cap, "{path:?}: round past its cap");
                            assert!(self.armed[i] > 0, "{path:?}: round without a timer");
                        }
                    }
                }
                Stage::Search(s) => match s.exhausted_at {
                    Some(_) => assert_eq!(s.attempts, cfg.max_search_attempts + 1, "{path:?}"),
                    None => {
                        assert!(
                            s.attempts <= cfg.max_search_attempts,
                            "{path:?}: search past its cap"
                        );
                        assert!(self.armed[2] > 0, "{path:?}: search without a timer");
                    }
                },
                Stage::Idle => {}
            }
            if r.backoff.is_some() {
                assert!(self.armed[3] > 0, "{path:?}: back-off without a timer");
            }
            if self.env.detector.is_missing(m) && !r.pending() {
                assert!(self.gave_up(), "{path:?}: missing, idle and never given up");
            }
        }

        fn gave_up(&self) -> bool {
            self.env.metrics.counters.recovery_gave_up > 0
        }
    }

    /// Every script of up to `DEPTH` steps for one message, breadth-first,
    /// each reachable state expanded once, from a member that misses it
    /// and from one whose recovery floor covers it. Each state ends
    /// delivered, cleanly given up, or in flight with a timer armed,
    /// within every cap; a timer firing for a removed record does
    /// nothing; and only a heal re-arms an exhausted search. The state
    /// counts pin the machine: a transition that moves reaches a
    /// different set.
    #[test]
    fn every_script_for_one_message_ends_legally() {
        assert_eq!(explore(World::new()), (63_118, 453_488));
        assert_eq!(explore(World::floored()), (22_921, 159_333));
    }

    /// The reachable states and the transitions taken, from `start`.
    fn explore(start: World) -> (usize, u64) {
        const DEPTH: usize = 8;
        let mut seen = HashSet::from([start.key()]);
        let mut frontier = vec![(start, Vec::new())];
        let mut transitions = 0u64;
        for _ in 0..DEPTH {
            let mut next = Vec::new();
            for (world, path) in &frontier {
                for step in STEPS {
                    let Some(after) = world.step(step) else { continue };
                    transitions += 1;
                    let path: Vec<Step> = path.iter().copied().chain([step]).collect();
                    after.check(&path);
                    if let (Step::Fire(i), None) = (step, world.rec.map.get(msg())) {
                        let mut armed = world.armed;
                        armed[i] -= 1;
                        let counters = &after.env.metrics.counters;
                        assert_eq!(*counters, world.env.metrics.counters, "{path:?}");
                        assert!(after.rec.map.get(msg()).is_none(), "{path:?}");
                        assert_eq!(after.armed, armed, "{path:?}: a stale timer armed one");
                    }
                    if let (Some(attempts), false) = (world.exhausted(), matches!(step, Step::Heal))
                    {
                        let still = after.exhausted();
                        let ended = !matches!(
                            after.rec.map.get(msg()).map(|r| &r.stage),
                            Some(Stage::Search(_))
                        );
                        assert!(still == Some(attempts) || ended, "{path:?}: search re-ignited");
                    }
                    if seen.insert(after.key()) {
                        next.push((after, path));
                    }
                }
            }
            frontier = next;
        }
        (seen.len(), transitions)
    }
}
