//! Protocol configuration.
//!
//! [`ProtocolConfig`] collects every tunable the paper discusses:
//!
//! * `lambda` (λ) — expected number of remote requests sent by a region
//!   that missed a message entirely (§2.2).
//! * `c` (C) — expected number of long-term bufferers per region (§3.2);
//!   the probability nobody buffers decays as `e^{-C}` (Figure 4).
//! * `idle_threshold` (T) — a message becomes *idle* after this long
//!   without any retransmission request (§3.1); the paper's §4 uses
//!   40 ms = 4× the maximum intra-region RTT.
//! * the back-off window for duplicate regional-repair suppression.
//! * the buffering policy, which can be swapped for the ablations
//!   (fixed-time, keep-everything) and the comparison schemes.
//! * the opt-in overload knobs: a per-member memory budget (the store's
//!   one byte bound), repair-storm damping and a liveness watchdog.

use rrmp_netsim::time::SimDuration;

pub use crate::policy::PolicyKind;

// The retry timers of the local, remote and search phases ("set a timer
// according to its estimated round trip time", §2.2), fixed at the §4
// simulations' round-trip times.

/// Retry timer for local recovery — the intra-region RTT.
pub(crate) const LOCAL_TIMEOUT: SimDuration = SimDuration::from_millis(10);
/// Retry timer for remote recovery — the RTT to the parent region.
pub(crate) const REMOTE_TIMEOUT: SimDuration = SimDuration::from_millis(50);
/// Retry timer for the bufferer search — the intra-region RTT.
pub(crate) const SEARCH_TIMEOUT: SimDuration = SimDuration::from_millis(10);
/// How long a member remembers that a search for a message completed
/// (the "I have the message" announcement). Probes still in flight when
/// the announcement passes would otherwise re-ignite the search; within
/// this window they are answered from the remembered holder instead.
/// Exceeds `2 × SEARCH_TIMEOUT`.
pub(crate) const SEARCH_MEMORY: SimDuration = SimDuration::from_millis(30);

/// Errors from [`ProtocolConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// λ must be positive (otherwise regional losses are never repaired).
    NonPositiveLambda(f64),
    /// C must be positive (otherwise no long-term bufferers exist).
    NonPositiveC(f64),
    /// A timer duration that must be non-zero was zero.
    ZeroDuration(&'static str),
    /// Retry caps must be at least 1.
    ZeroAttempts(&'static str),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NonPositiveLambda(l) => write!(f, "lambda must be positive, got {l}"),
            ConfigError::NonPositiveC(c) => write!(f, "c must be positive, got {c}"),
            ConfigError::ZeroDuration(name) => write!(f, "{name} must be non-zero"),
            ConfigError::ZeroAttempts(name) => write!(f, "{name} must be at least 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Repair-storm damping knobs: a deterministic token bucket paces the
/// repair actions each receiver originates (pull retries, remote
/// requests, regional re-multicasts), and a suppression window skips a
/// pull round when a peer was just heard requesting the same message.
/// Shed rounds are re-queued on the existing retry timers, never lost.
/// `None` in [`ProtocolConfig::damping`] disables all of it (the paper's
/// model) and keeps every trace byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DampingConfig {
    /// Token-bucket capacity: repair actions a receiver may fire
    /// back-to-back before the refill interval paces it.
    pub burst: u32,
    /// One token is returned every `refill` of simulated time.
    pub refill: SimDuration,
    /// A pull round is shed when a peer's request for the same message
    /// was overheard within this window (the requester's answer will
    /// serve everyone — the §2.2 suppression idea applied to pulls).
    pub suppress_window: SimDuration,
}

/// Recovery-liveness watchdog knobs: a periodic self-check that detects
/// wedged recovery — a detected loss with no recovery state left and no
/// timer driving it — persisting for at least `horizon`, and re-arms it
/// through the heal machinery. `None` disables the watchdog (default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// How often the self-check timer fires.
    pub interval: SimDuration,
    /// A stalled loss must persist across this horizon before the
    /// watchdog re-arms it (give-up bookkeeping is not instantly undone).
    pub horizon: SimDuration,
}

/// All protocol tunables. Construct with [`ProtocolConfig::builder`] or use
/// [`ProtocolConfig::paper_defaults`] for the §4 simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// Expected number of remote requests per region-wide loss (λ, §2.2).
    pub lambda: f64,
    /// Expected number of long-term bufferers per region (C, §3.2).
    pub c: f64,
    /// Idle threshold T (§3.1): discard-decision point after this long
    /// without requests.
    pub idle_threshold: SimDuration,
    /// Window for the randomized back-off that suppresses duplicate
    /// regional repair multicasts; `None` disables back-off (repairs are
    /// multicast immediately).
    pub backoff_window: Option<SimDuration>,
    /// Discard long-term-buffered messages unused for this long.
    pub long_term_timeout: SimDuration,
    /// How often the long-term buffer is swept for expiry.
    pub long_term_sweep_interval: SimDuration,
    /// Sender session-message interval.
    ///
    /// Loss detection for the *last* message of a burst waits for the next
    /// session advertisement (§2.1), so the feedback rule of §3.1 only
    /// works if `session_interval + rtt < idle_threshold` — otherwise
    /// every holder can go idle (and mostly discard) before the first
    /// retransmission request arrives. The default keeps a 2×RTT margin
    /// under the paper's T = 40 ms.
    pub session_interval: SimDuration,
    /// Safety cap on local-recovery retries per message.
    pub max_local_attempts: u32,
    /// Safety cap on remote-recovery retries per message.
    pub max_remote_attempts: u32,
    /// Safety cap on search forwards per member per message.
    pub max_search_attempts: u32,
    /// The buffering policy (the paper's two-phase scheme by default).
    /// [`PolicyKind::build`] turns the selector into the
    /// [`BufferPolicy`](crate::policy::BufferPolicy) implementation each
    /// receiver runs.
    pub policy: PolicyKind,
    /// Whether a member granted the sender role
    /// ([`Receiver::make_sender`](crate::receiver::Receiver::make_sender))
    /// multicasts periodic session messages. Disabled by the frozen policy
    /// scenarios, which advertise each multicast once with a one-shot
    /// session message instead.
    pub periodic_sessions: bool,
    /// Whether receivers log each remote repair they send (time and
    /// message; read by `RrmpNetwork::first_remote_repair_at` for the
    /// search-time figures; one entry per remote repair).
    pub record_events: bool,
    /// Optional per-member memory budget (bytes) for the overload
    /// subsystem. It is a hard cap on buffered payload bytes — inserts
    /// evict least-recently-used long-term entries first (§1's
    /// bounded-space scenario) — and it drives graceful degradation
    /// *tiers*: above the pressure threshold receivers early-discard
    /// long-term entries, and above the critical
    /// threshold receivers decline to buffer for others while still
    /// delivering locally. `None` (default) means unbounded, the paper's
    /// model.
    pub memory_budget: Option<usize>,
    /// Repair-storm damping; `None` (default) disables it.
    pub damping: Option<DampingConfig>,
    /// Recovery-liveness watchdog; `None` (default) disables it.
    pub watchdog: Option<WatchdogConfig>,
}

impl ProtocolConfig {
    /// The parameters of the paper's §4 simulations: 10 ms intra-region
    /// RTT, idle threshold T = 40 ms (4× the maximum RTT), λ = 1, C = 6.
    #[must_use]
    pub fn paper_defaults() -> Self {
        ProtocolConfig {
            lambda: 1.0,
            c: 6.0,
            idle_threshold: SimDuration::from_millis(40),
            backoff_window: Some(SimDuration::from_millis(10)),
            long_term_timeout: SimDuration::from_secs(30),
            long_term_sweep_interval: SimDuration::from_secs(5),
            session_interval: SimDuration::from_millis(20),
            max_local_attempts: 200,
            max_remote_attempts: 200,
            max_search_attempts: 200,
            policy: PolicyKind::TwoPhase,
            periodic_sessions: true,
            record_events: true,
            memory_budget: None,
            damping: None,
            watchdog: None,
        }
    }

    /// Starts a builder from the paper defaults.
    #[must_use]
    pub fn builder() -> ProtocolConfigBuilder {
        ProtocolConfigBuilder { cfg: Self::paper_defaults() }
    }

    /// Checks invariants the protocol depends on.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.lambda.is_finite() || self.lambda <= 0.0 {
            return Err(ConfigError::NonPositiveLambda(self.lambda));
        }
        if !self.c.is_finite() || self.c <= 0.0 {
            return Err(ConfigError::NonPositiveC(self.c));
        }
        for (d, name) in [
            (self.idle_threshold, "idle_threshold"),
            (self.long_term_timeout, "long_term_timeout"),
            (self.long_term_sweep_interval, "long_term_sweep_interval"),
            (self.session_interval, "session_interval"),
        ] {
            if d.is_zero() {
                return Err(ConfigError::ZeroDuration(name));
            }
        }
        for (a, name) in [
            (self.max_local_attempts, "max_local_attempts"),
            (self.max_remote_attempts, "max_remote_attempts"),
            (self.max_search_attempts, "max_search_attempts"),
        ] {
            if a == 0 {
                return Err(ConfigError::ZeroAttempts(name));
            }
        }
        if self.memory_budget == Some(0) {
            return Err(ConfigError::ZeroAttempts("memory_budget"));
        }
        if let Some(d) = self.damping {
            if d.burst == 0 {
                return Err(ConfigError::ZeroAttempts("damping.burst"));
            }
            if d.refill.is_zero() {
                return Err(ConfigError::ZeroDuration("damping.refill"));
            }
            if d.suppress_window.is_zero() {
                return Err(ConfigError::ZeroDuration("damping.suppress_window"));
            }
        }
        if let Some(w) = self.watchdog {
            if w.interval.is_zero() {
                return Err(ConfigError::ZeroDuration("watchdog.interval"));
            }
            if w.horizon.is_zero() {
                return Err(ConfigError::ZeroDuration("watchdog.horizon"));
            }
        }
        Ok(())
    }

    /// The probability with which one member of an `n`-member region sends
    /// a remote request per recovery round, so that the expected number of
    /// requests from the whole region is λ (§2.2).
    #[must_use]
    pub fn remote_request_probability(&self, region_size: usize) -> f64 {
        if region_size == 0 {
            return 0.0;
        }
        (self.lambda / region_size as f64).min(1.0)
    }

    /// The probability with which a member keeps an idle message in its
    /// long-term buffer, so that the expected number of long-term bufferers
    /// in an `n`-member region is C (§3.2).
    #[must_use]
    pub fn long_term_probability(&self, region_size: usize) -> f64 {
        if region_size == 0 {
            return 0.0;
        }
        (self.c / region_size as f64).min(1.0)
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Builder for [`ProtocolConfig`] (non-consuming terminal per C-BUILDER).
#[derive(Debug, Clone)]
pub struct ProtocolConfigBuilder {
    cfg: ProtocolConfig,
}

impl ProtocolConfigBuilder {
    /// Sets λ, the expected remote requests per region-wide loss.
    pub fn lambda(&mut self, lambda: f64) -> &mut Self {
        self.cfg.lambda = lambda;
        self
    }

    /// Sets C, the expected long-term bufferers per region.
    pub fn c(&mut self, c: f64) -> &mut Self {
        self.cfg.c = c;
        self
    }

    /// Sets the idle threshold T.
    pub fn idle_threshold(&mut self, t: SimDuration) -> &mut Self {
        self.cfg.idle_threshold = t;
        self
    }

    /// Sets (or disables, with `None`) the regional-repair back-off window.
    pub fn backoff_window(&mut self, w: Option<SimDuration>) -> &mut Self {
        self.cfg.backoff_window = w;
        self
    }

    /// Sets how long unused long-term entries are kept.
    pub fn long_term_timeout(&mut self, t: SimDuration) -> &mut Self {
        self.cfg.long_term_timeout = t;
        self
    }

    /// Sets the long-term sweep interval.
    pub fn long_term_sweep_interval(&mut self, t: SimDuration) -> &mut Self {
        self.cfg.long_term_sweep_interval = t;
        self
    }

    /// Sets the sender session-message interval.
    pub fn session_interval(&mut self, t: SimDuration) -> &mut Self {
        self.cfg.session_interval = t;
        self
    }

    /// Sets the buffering policy.
    pub fn policy(&mut self, p: PolicyKind) -> &mut Self {
        self.cfg.policy = p;
        self
    }

    /// Enables or disables the sender's periodic session messages.
    pub fn periodic_sessions(&mut self, yes: bool) -> &mut Self {
        self.cfg.periodic_sessions = yes;
        self
    }

    /// Sets whether receivers log the remote repairs they send.
    pub fn record_events(&mut self, yes: bool) -> &mut Self {
        self.cfg.record_events = yes;
        self
    }

    /// Sets (or clears) the per-member overload memory budget in bytes.
    pub fn memory_budget(&mut self, bytes: Option<usize>) -> &mut Self {
        self.cfg.memory_budget = bytes;
        self
    }

    /// Sets (or clears) the repair-storm damping knobs.
    pub fn damping(&mut self, d: Option<DampingConfig>) -> &mut Self {
        self.cfg.damping = d;
        self
    }

    /// Sets (or clears) the recovery-liveness watchdog knobs.
    pub fn watchdog(&mut self, w: Option<WatchdogConfig>) -> &mut Self {
        self.cfg.watchdog = w;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any invariant is violated.
    pub fn build(&self) -> Result<ProtocolConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_are_valid_and_match_section4() {
        let cfg = ProtocolConfig::paper_defaults();
        cfg.validate().unwrap();
        assert_eq!(cfg.idle_threshold, SimDuration::from_millis(40));
        assert_eq!(LOCAL_TIMEOUT, SimDuration::from_millis(10));
        assert!((cfg.lambda - 1.0).abs() < f64::EPSILON);
        assert!((cfg.c - 6.0).abs() < f64::EPSILON);
        assert_eq!(cfg.policy, PolicyKind::TwoPhase);
        assert!(cfg.periodic_sessions);
    }

    #[test]
    fn builder_overrides() {
        let cfg = ProtocolConfig::builder()
            .lambda(2.0)
            .c(3.0)
            .idle_threshold(SimDuration::from_millis(80))
            .policy(PolicyKind::FixedTime { hold: SimDuration::from_millis(100) })
            .build()
            .unwrap();
        assert!((cfg.lambda - 2.0).abs() < f64::EPSILON);
        assert!((cfg.c - 3.0).abs() < f64::EPSILON);
        assert_eq!(cfg.idle_threshold, SimDuration::from_millis(80));
        assert!(matches!(cfg.policy, PolicyKind::FixedTime { .. }));
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(matches!(
            ProtocolConfig::builder().lambda(0.0).build(),
            Err(ConfigError::NonPositiveLambda(_))
        ));
        assert!(matches!(
            ProtocolConfig::builder().c(-1.0).build(),
            Err(ConfigError::NonPositiveC(_))
        ));
        assert!(matches!(
            ProtocolConfig::builder().idle_threshold(SimDuration::ZERO).build(),
            Err(ConfigError::ZeroDuration("idle_threshold"))
        ));
        let cfg = ProtocolConfig { max_local_attempts: 0, ..ProtocolConfig::paper_defaults() };
        assert!(matches!(cfg.validate(), Err(ConfigError::ZeroAttempts("max_local_attempts"))));
    }

    #[test]
    fn overload_knobs_default_off_and_validate() {
        let cfg = ProtocolConfig::paper_defaults();
        assert_eq!(cfg.memory_budget, None);
        assert_eq!(cfg.damping, None);
        assert_eq!(cfg.watchdog, None);

        assert!(matches!(
            ProtocolConfig::builder().memory_budget(Some(0)).build(),
            Err(ConfigError::ZeroAttempts("memory_budget"))
        ));
        assert!(matches!(
            ProtocolConfig::builder()
                .damping(Some(DampingConfig {
                    burst: 0,
                    refill: SimDuration::from_millis(5),
                    suppress_window: SimDuration::from_millis(5),
                }))
                .build(),
            Err(ConfigError::ZeroAttempts("damping.burst"))
        ));
        assert!(matches!(
            ProtocolConfig::builder()
                .damping(Some(DampingConfig {
                    burst: 4,
                    refill: SimDuration::ZERO,
                    suppress_window: SimDuration::from_millis(5),
                }))
                .build(),
            Err(ConfigError::ZeroDuration("damping.refill"))
        ));
        assert!(matches!(
            ProtocolConfig::builder()
                .watchdog(Some(WatchdogConfig {
                    interval: SimDuration::from_millis(50),
                    horizon: SimDuration::ZERO,
                }))
                .build(),
            Err(ConfigError::ZeroDuration("watchdog.horizon"))
        ));

        let armed = ProtocolConfig::builder()
            .memory_budget(Some(64 * 1024))
            .damping(Some(DampingConfig {
                burst: 8,
                refill: SimDuration::from_millis(5),
                suppress_window: SimDuration::from_millis(8),
            }))
            .watchdog(Some(WatchdogConfig {
                interval: SimDuration::from_millis(100),
                horizon: SimDuration::from_millis(250),
            }))
            .build()
            .unwrap();
        assert_eq!(armed.memory_budget, Some(64 * 1024));
    }

    #[test]
    fn probabilities_scale_with_region_size() {
        let cfg = ProtocolConfig::paper_defaults();
        assert!((cfg.remote_request_probability(100) - 0.01).abs() < 1e-12);
        assert!((cfg.long_term_probability(100) - 0.06).abs() < 1e-12);
        // Tiny regions clamp at 1.
        assert!((cfg.long_term_probability(3) - 1.0).abs() < 1e-12);
        assert_eq!(cfg.long_term_probability(0), 0.0);
        assert_eq!(cfg.remote_request_probability(0), 0.0);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            ConfigError::NonPositiveLambda(0.0),
            ConfigError::NonPositiveC(0.0),
            ConfigError::ZeroDuration("x"),
            ConfigError::ZeroAttempts("y"),
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}
