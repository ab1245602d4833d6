//! The observable outcome of one simulated run and its fingerprint, shared
//! by the golden and trace-equality tests.

use rrmp_core::harness::RrmpNetwork;
use rrmp_core::ids::MessageId;
use rrmp_netsim::time::SimTime;

/// The full observable outcome of a run: per-node delivery traces (time,
/// message) in delivery order, plus network counters and protocol totals.
#[derive(Debug, PartialEq)]
pub struct RunTrace {
    pub deliveries: Vec<Vec<(SimTime, MessageId)>>,
    pub unicasts_sent: u64,
    pub unicasts_dropped: u64,
    pub timers_set: u64,
    pub timers_fired: u64,
    pub events_processed: u64,
    pub local_requests: u64,
    pub remote_requests: u64,
    pub repairs: u64,
    pub regional_multicasts: u64,
    pub handoffs: u64,
    pub idle_transitions: u64,
    pub long_term_kept: u64,
    pub discarded_at_idle: u64,
    pub searches_started: u64,
    pub faults_duplicated: u64,
    /// Per node: history digests received and messages discarded as
    /// stable (zero under policies without history exchange).
    pub stability: Vec<(u64, u64)>,
}

pub fn trace_of(net: &RrmpNetwork) -> RunTrace {
    let c = net.net_counters();
    RunTrace {
        deliveries: net.nodes().map(|(_, n)| n.delivered().to_vec()).collect(),
        unicasts_sent: c.unicasts_sent,
        unicasts_dropped: c.unicasts_dropped,
        timers_set: c.timers_set,
        timers_fired: c.timers_fired,
        events_processed: c.events_processed,
        local_requests: net.total_counter(|c| c.local_requests_sent),
        remote_requests: net.total_counter(|c| c.remote_requests_sent),
        repairs: net.total_counter(|c| c.repairs_sent_local + c.repairs_sent_remote),
        regional_multicasts: net.total_counter(|c| c.regional_multicasts_sent),
        handoffs: net.total_counter(|c| c.handoffs_sent),
        idle_transitions: net.total_counter(|c| c.idle_transitions),
        long_term_kept: net.total_counter(|c| c.long_term_kept),
        discarded_at_idle: net.total_counter(|c| c.discarded_at_idle),
        searches_started: net.total_counter(|c| c.searches_started),
        faults_duplicated: c.faults_duplicated,
        stability: net
            .nodes()
            .map(|(_, n)| {
                let c = &n.receiver().metrics().counters;
                (c.history_digests_received, c.stable_discards)
            })
            .collect(),
    }
}

impl RunTrace {
    /// FNV-1a over every field. `faults_duplicated` and `stability` were
    /// added after the first fingerprints were recorded, so they are mixed
    /// (with their position) only where nonzero and those fingerprints
    /// stay valid.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        for (id, log) in self.deliveries.iter().enumerate() {
            mix(id as u64);
            for &(t, m) in log {
                mix(t.as_micros());
                mix(u64::from(m.source.0));
                mix(m.seq.0);
            }
        }
        for v in [
            self.unicasts_sent,
            self.unicasts_dropped,
            self.timers_set,
            self.timers_fired,
            self.events_processed,
            self.local_requests,
            self.remote_requests,
            self.repairs,
            self.regional_multicasts,
            self.handoffs,
            self.idle_transitions,
            self.long_term_kept,
            self.discarded_at_idle,
            self.searches_started,
        ] {
            mix(v);
        }
        let late = self.stability.iter().flat_map(|&(digests, discards)| [digests, discards]);
        for (at, v) in std::iter::once(self.faults_duplicated).chain(late).enumerate() {
            if v != 0 {
                mix(at as u64);
                mix(v);
            }
        }
        h
    }
}

/// The fingerprint of `net`'s outcome so far.
pub fn fingerprint(net: &RrmpNetwork) -> u64 {
    trace_of(net).fingerprint()
}
