//! Per-receiver protocol metrics: the counter block and the remote-repair
//! log.
//!
//! The ablations compare the counter block ([`Counters`]) across
//! policies, and Figures 8/9 read search times from the log of remote
//! repairs sent ([`Metrics::remote_repairs`]). Per-message buffering
//! intervals (Figure 6) are not kept here: they are trace events, rebuilt
//! by [`ReceiverTrace::buffer_record`] on a receiver with the observer
//! armed.
//!
//! [`ReceiverTrace::buffer_record`]: crate::observe::ReceiverTrace::buffer_record

use rrmp_netsim::time::SimTime;

use crate::ids::MessageId;

/// Monotone counters of protocol activity on one receiver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Messages delivered to the application.
    pub delivered: u64,
    /// Duplicate data receptions (already had the message).
    pub duplicates: u64,
    /// Local retransmission requests sent.
    pub local_requests_sent: u64,
    /// Local retransmission requests received.
    pub local_requests_received: u64,
    /// Remote retransmission requests sent.
    pub remote_requests_sent: u64,
    /// Remote retransmission requests received.
    pub remote_requests_received: u64,
    /// Repairs sent answering local requests.
    pub repairs_sent_local: u64,
    /// Repairs sent across regions (remote answers, relays, search hits).
    pub repairs_sent_remote: u64,
    /// Repairs received (either kind).
    pub repairs_received: u64,
    /// Regional repair multicasts sent.
    pub regional_multicasts_sent: u64,
    /// Regional repair multicasts suppressed by the back-off scheme.
    pub regional_multicasts_suppressed: u64,
    /// Searches started on behalf of downstream requesters.
    pub searches_started: u64,
    /// Search requests this member joined (it had discarded the message).
    pub searches_joined: u64,
    /// Search probes forwarded.
    pub search_forwards: u64,
    /// "I have the message" announcements multicast.
    pub search_found_sent: u64,
    /// Handoff messages sent at leave time.
    pub handoffs_sent: u64,
    /// Handoff messages received.
    pub handoffs_received: u64,
    /// Short-term entries that became idle (§3.1 transitions).
    pub idle_transitions: u64,
    /// Idle messages kept as long-term bufferer (won the C/n draw).
    pub long_term_kept: u64,
    /// Idle messages discarded (lost the C/n draw).
    pub discarded_at_idle: u64,
    /// Long-term entries discarded by the disuse sweep.
    pub long_term_expired: u64,
    /// Recovery efforts abandoned after hitting a retry cap.
    pub recovery_gave_up: u64,
    /// Recovery efforts re-armed by a heal notification (exhausted
    /// searches restarted, abandoned pulls retried after a partition,
    /// blackout, or stall window ended).
    pub heal_rearms: u64,
    /// Buffer entries evicted to respect the configured byte capacity.
    pub evicted_for_capacity: u64,
    /// Waiting-list relays performed (repair forwarded on later receipt).
    pub relays_performed: u64,
    /// History digests advertised (stability detection's standing cost).
    pub history_digests_sent: u64,
    /// History digests received from peers.
    pub history_digests_received: u64,
    /// Buffer entries discarded because the group-wide stability
    /// frontier passed them.
    pub stable_discards: u64,
    /// Pull/remote-request rounds shed by the repair-storm token bucket
    /// (each round stays queued on its retry timer — shed, not lost).
    pub requests_shed: u64,
    /// Previously shed recovery efforts whose next round did fire.
    pub shed_retried: u64,
    /// Pull rounds skipped because a peer's request for the same message
    /// was overheard within the suppression window.
    pub requests_suppressed: u64,
    /// Regional re-multicasts deferred by the token bucket (the backoff
    /// state is kept and the timer re-armed — deferred, not dropped).
    pub remulticasts_shed: u64,
    /// Long-term entries discarded early by the pressure-tier hook.
    pub pressure_discards: u64,
    /// Buffering declined for others while in the critical tier (the
    /// message was still delivered locally).
    pub admission_declined: u64,
    /// Wedged recovery efforts re-armed by the liveness watchdog.
    pub watchdog_rearms: u64,
}

/// Per-receiver metrics: counters and the log of remote repairs sent.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Counter block.
    pub counters: Counters,
    remote_repairs: Vec<(SimTime, MessageId)>,
    record_events: bool,
}

impl Metrics {
    /// Creates metrics; `record_events` controls whether the remote-repair
    /// log is populated (counter upkeep is always on).
    #[must_use]
    pub fn new(record_events: bool) -> Self {
        Metrics { record_events, ..Metrics::default() }
    }

    /// Records that a remote repair of `id` left at `at` — to a
    /// downstream waiter or to a search's origin (no-op unless recording
    /// is on).
    pub fn record_remote_repair(&mut self, at: SimTime, id: MessageId) {
        if self.record_events {
            self.remote_repairs.push((at, id));
        }
    }

    /// The remote repairs sent, in order.
    #[must_use]
    pub fn remote_repairs(&self) -> &[(SimTime, MessageId)] {
        &self.remote_repairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SeqNo;
    use rrmp_netsim::topology::NodeId;

    #[test]
    fn event_log_respects_flag() {
        let mid = MessageId::new(NodeId(0), SeqNo(1));
        let mut on = Metrics::new(true);
        on.record_remote_repair(SimTime::ZERO, mid);
        assert_eq!(on.remote_repairs(), &[(SimTime::ZERO, mid)]);

        let mut off = Metrics::new(false);
        off.record_remote_repair(SimTime::ZERO, mid);
        assert!(off.remote_repairs().is_empty());
    }
}
