//! Ablation experiments for the protocol's design choices (ARCHITECTURE.md):
//! buffer-policy comparison (A1), λ sweep (A2), back-off suppression (A3),
//! idle-threshold sweep (A4), churn/handoff (A5), and the C trade-off (A6).

use rand::SeedableRng;
use rrmp_core::harness::{RrmpNetwork, RunReport};
use rrmp_core::observe::BufferRecords;
use rrmp_core::packet::Packet;
use rrmp_core::prelude::{PolicyKind, ProtocolConfig};
use rrmp_netsim::loss::{DeliveryPlan, LossModel};
use rrmp_netsim::stats::OnlineStats;
use rrmp_netsim::time::{SimDuration, SimTime};
use rrmp_netsim::topology::{NodeId, RegionId, Topology, TopologyBuilder};

/// The workload shared by every scheme in the A1 comparison.
#[derive(Debug, Clone)]
pub struct PolicyWorkload {
    /// Region sizes of the three-region chain (Figure 1 shape).
    pub region_sizes: [usize; 3],
    /// Messages multicast.
    pub messages: usize,
    /// Gap between multicasts.
    pub interval: SimDuration,
    /// Per-receiver loss probability on the initial multicast.
    pub loss_p: f64,
    /// How long to run after the last multicast.
    pub drain: SimDuration,
}

impl Default for PolicyWorkload {
    fn default() -> Self {
        PolicyWorkload {
            region_sizes: [34, 33, 33],
            messages: 10,
            interval: SimDuration::from_millis(100),
            loss_p: 0.1,
            drain: SimDuration::from_secs(3),
        }
    }
}

fn chain_topology(sizes: [usize; 3]) -> Topology {
    TopologyBuilder::new()
        .intra_region_one_way(SimDuration::from_millis(5))
        .inter_region_one_way(SimDuration::from_millis(25))
        .region(sizes[0], None)
        .region(sizes[1], Some(0))
        .region(sizes[2], Some(1))
        .build()
        .expect("chain topology is valid")
}

/// Draws the per-message delivery plans once, so every scheme sees the
/// identical loss pattern.
fn draw_plans(topo: &Topology, workload: &PolicyWorkload, seed: u64) -> Vec<DeliveryPlan> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xA1A1);
    let model = LossModel::Bernoulli { p: workload.loss_p };
    (0..workload.messages)
        .map(|_| DeliveryPlan::from_model(topo, NodeId(0), &model, &mut rng))
        .collect()
}

fn run_rrmp_policy(
    scheme: &'static str,
    policy: PolicyKind,
    workload: &PolicyWorkload,
    seed: u64,
) -> RunReport {
    let topo = chain_topology(workload.region_sizes);
    let plans = draw_plans(&topo, workload, seed);
    let cfg = ProtocolConfig { policy, ..ProtocolConfig::paper_defaults() };
    let mut net = RrmpNetwork::new(topo, cfg, seed);
    let mut ids = Vec::new();
    let mut sent = Vec::new();
    for plan in &plans {
        sent.push(net.now());
        ids.push(net.multicast_with_plan(&b"workload-message"[..], plan));
        let next = net.now() + workload.interval;
        net.run_until(next);
    }
    let horizon = net.now() + workload.drain;
    net.run_until(horizon);
    net.run_report(scheme, &ids, &sent)
}

/// A1: compares the paper's two-phase scheme against fixed-time,
/// keep-everything, hash-deterministic, sender-based, stability-detection
/// and tree/RMTP buffering on the identical lossy workload — every scheme
/// a policy on the one engine.
#[must_use]
pub fn ablation_buffer_policies(workload: &PolicyWorkload, seed: u64) -> Vec<RunReport> {
    vec![
        run_rrmp_policy("two-phase", PolicyKind::TwoPhase, workload, seed),
        run_rrmp_policy(
            "fixed-500ms",
            PolicyKind::FixedTime { hold: SimDuration::from_millis(500) },
            workload,
            seed,
        ),
        run_rrmp_policy("keep-all", PolicyKind::KeepAll, workload, seed),
        run_rrmp_policy("hash-policy", PolicyKind::HashBufferers, workload, seed),
        run_rrmp_policy("sender-policy", PolicyKind::SenderBased, workload, seed),
        run_rrmp_policy("stability", PolicyKind::Stability, workload, seed),
        run_rrmp_policy("tree-rmtp", PolicyKind::TreeRmtp, workload, seed),
    ]
}

/// A2 rows: λ vs remote-request duplication and regional recovery latency.
#[derive(Debug, Clone, PartialEq)]
pub struct LambdaRow {
    /// The λ parameter (expected remote requests per regional loss).
    pub lambda: f64,
    /// Mean remote requests actually sent per run.
    pub mean_remote_requests: f64,
    /// Mean time (ms) until the entire lossy region delivered the message.
    pub mean_region_latency_ms: f64,
    /// Mean regional repair multicasts sent (duplicates reaching the region).
    pub mean_regional_multicasts: f64,
}

/// A2: sweeps λ on the Figure 1 chain with a whole-region loss in the leaf
/// region.
#[must_use]
pub fn ablation_lambda(lambdas: &[f64], seeds: u64, base_seed: u64) -> Vec<LambdaRow> {
    lambdas
        .iter()
        .map(|&lambda| {
            let mut req = OnlineStats::new();
            let mut lat = OnlineStats::new();
            let mut mcasts = OnlineStats::new();
            for s in 0..seeds {
                let seed = base_seed ^ ((lambda * 1000.0) as u64) << 20 ^ s;
                let topo = chain_topology([20, 20, 20]);
                let cfg = ProtocolConfig { lambda, ..ProtocolConfig::paper_defaults() };
                let mut net = RrmpNetwork::new(topo, cfg, seed);
                let plan = DeliveryPlan::region_loss(net.topology(), RegionId(2));
                let id = net.multicast_with_plan(&b"regional"[..], &plan);
                net.run_until(SimTime::from_secs(3));
                req.push(net.total_counter(|c| c.remote_requests_sent) as f64);
                mcasts.push(net.total_counter(|c| c.regional_multicasts_sent) as f64);
                let region2: Vec<NodeId> = net.topology().members_of(RegionId(2)).to_vec();
                let worst = region2
                    .iter()
                    .filter_map(|&m| {
                        net.node(m).delivered().iter().find(|&&(_, d)| d == id).map(|&(t, _)| t)
                    })
                    .max();
                if let Some(t) = worst {
                    if region2.iter().all(|&m| net.node(m).has_delivered(id)) {
                        lat.push(t.as_millis_f64());
                    }
                }
            }
            LambdaRow {
                lambda,
                mean_remote_requests: req.mean(),
                mean_region_latency_ms: lat.mean(),
                mean_regional_multicasts: mcasts.mean(),
            }
        })
        .collect()
}

/// A3 rows: back-off window vs duplicate regional multicasts.
#[derive(Debug, Clone, PartialEq)]
pub struct BackoffRow {
    /// The back-off window in ms (None = disabled, printed as 0).
    pub window_ms: u64,
    /// Whether back-off was enabled.
    pub enabled: bool,
    /// Mean regional repair multicasts sent.
    pub mean_sent: f64,
    /// Mean multicasts suppressed by the back-off.
    pub mean_suppressed: f64,
    /// Mean time until the lossy region fully delivered (ms).
    pub mean_region_latency_ms: f64,
}

/// A3: with λ = 4 several members fetch remote repairs concurrently; the
/// randomized back-off suppresses the duplicate regional multicasts.
#[must_use]
pub fn ablation_backoff(
    windows: &[Option<SimDuration>],
    seeds: u64,
    base_seed: u64,
) -> Vec<BackoffRow> {
    windows
        .iter()
        .map(|&window| {
            let mut sent = OnlineStats::new();
            let mut supp = OnlineStats::new();
            let mut lat = OnlineStats::new();
            for s in 0..seeds {
                let seed = base_seed ^ window.map_or(0, |w| w.as_micros()) << 16 ^ s;
                let topo = chain_topology([20, 20, 20]);
                let cfg = ProtocolConfig {
                    lambda: 4.0,
                    backoff_window: window,
                    ..ProtocolConfig::paper_defaults()
                };
                let mut net = RrmpNetwork::new(topo, cfg, seed);
                let plan = DeliveryPlan::region_loss(net.topology(), RegionId(2));
                let id = net.multicast_with_plan(&b"dup"[..], &plan);
                net.run_until(SimTime::from_secs(3));
                sent.push(net.total_counter(|c| c.regional_multicasts_sent) as f64);
                supp.push(net.total_counter(|c| c.regional_multicasts_suppressed) as f64);
                let region2: Vec<NodeId> = net.topology().members_of(RegionId(2)).to_vec();
                if region2.iter().all(|&m| net.node(m).has_delivered(id)) {
                    let worst = region2
                        .iter()
                        .filter_map(|&m| {
                            net.node(m).delivered().iter().find(|&&(_, d)| d == id).map(|&(t, _)| t)
                        })
                        .max()
                        .expect("all delivered");
                    lat.push(worst.as_millis_f64());
                }
            }
            BackoffRow {
                window_ms: window.map_or(0, |w| w.as_micros() / 1000),
                enabled: window.is_some(),
                mean_sent: sent.mean(),
                mean_suppressed: supp.mean(),
                mean_region_latency_ms: lat.mean(),
            }
        })
        .collect()
}

/// A4 rows: idle threshold T vs buffering cost and feedback quality.
#[derive(Debug, Clone, PartialEq)]
pub struct IdleThresholdRow {
    /// The idle threshold T in ms.
    pub t_ms: u64,
    /// Mean short-term buffering duration of initial holders (ms).
    pub mean_buffering_ms: f64,
    /// Mean requests that found the responder's buffer already empty.
    pub mean_ignored_requests: f64,
    /// Mean local requests sent per run (retries grow when buffers
    /// discard too early).
    pub mean_requests: f64,
    /// Fraction of runs where all members recovered within the horizon.
    pub recovery_rate: f64,
}

/// A4: sweeps T in the Figure 6 scenario (k initial holders of n).
#[must_use]
pub fn ablation_idle_threshold(
    ts_ms: &[u64],
    n: usize,
    k: usize,
    seeds: u64,
    base_seed: u64,
) -> Vec<IdleThresholdRow> {
    ts_ms
        .iter()
        .map(|&t_ms| {
            let mut buffering = OnlineStats::new();
            let mut ignored = OnlineStats::new();
            let mut requests = OnlineStats::new();
            let mut recovered = 0u64;
            for s in 0..seeds {
                let seed = base_seed ^ (t_ms << 24) ^ s;
                let topo = rrmp_netsim::topology::presets::paper_region(n);
                let cfg = ProtocolConfig {
                    idle_threshold: SimDuration::from_millis(t_ms),
                    ..ProtocolConfig::paper_defaults()
                };
                let mut net = RrmpNetwork::new(topo, cfg, seed);
                net.arm_buffer_records();
                let holders: Vec<NodeId> = (0..k as u32).map(NodeId).collect();
                let id = net.seed_message_with_holders(&b"T-sweep"[..], &holders);
                net.run_until(SimTime::from_secs(2));
                for h in &holders {
                    let records = net.node(*h).receiver().observer::<BufferRecords>();
                    let rec =
                        records.and_then(|r| r.get(id)).expect("every initial holder has a record");
                    if let Some(d) = rec.short_term_duration() {
                        buffering.push(d.as_millis_f64());
                    }
                }
                let recv_reqs = net.total_counter(|c| c.local_requests_received);
                let answered = net.total_counter(|c| c.repairs_sent_local);
                ignored.push(recv_reqs.saturating_sub(answered) as f64);
                requests.push(net.total_counter(|c| c.local_requests_sent) as f64);
                if net.received_count(id) == n {
                    recovered += 1;
                }
            }
            IdleThresholdRow {
                t_ms,
                mean_buffering_ms: buffering.mean(),
                mean_ignored_requests: ignored.mean(),
                mean_requests: requests.mean(),
                recovery_rate: recovered as f64 / seeds as f64,
            }
        })
        .collect()
}

/// A5 rows: graceful leave (with §3.2 handoff) vs crash.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnRow {
    /// `"leave"` (handoff) or `"crash"`.
    pub mode: &'static str,
    /// Mean long-term copies surviving after the churn event.
    pub mean_copies_after: f64,
    /// Fraction of runs where a later downstream request was satisfied.
    pub recovery_rate: f64,
    /// Mean search time for the satisfied runs (ms).
    pub mean_search_ms: f64,
}

/// A5: all long-term bufferers of a message depart simultaneously; with
/// handoff the copies survive on other members, with crashes they are
/// gone and the downstream request fails.
#[must_use]
pub fn ablation_churn_handoff(seeds: u64, base_seed: u64) -> Vec<ChurnRow> {
    let mut rows = Vec::new();
    for &(mode, graceful) in &[("leave", true), ("crash", false)] {
        let mut copies = OnlineStats::new();
        let mut search = OnlineStats::new();
        let mut recovered = 0u64;
        for s in 0..seeds {
            let seed = base_seed ^ u64::from(graceful) << 40 ^ s;
            let topo = TopologyBuilder::new()
                .intra_region_one_way(SimDuration::from_millis(5))
                .inter_region_one_way(SimDuration::from_millis(25))
                .region(60, None)
                .region(1, Some(0))
                .build()
                .expect("valid churn topology");
            let cfg = ProtocolConfig::paper_defaults();
            let mut net = RrmpNetwork::new(topo, cfg, seed);
            // The origin (node 60) must stay ignorant of the message until
            // we probe: block session advertisements to it so its own
            // remote recovery cannot pre-empt the experiment.
            net.sim_mut().set_drop_filter(|_, to, pkt: &Packet| {
                to == NodeId(60) && matches!(pkt, Packet::Session { .. })
            });
            // Everyone in region 0 receives the message; the origin
            // (node 60) does not and knows nothing of it yet.
            let plan = DeliveryPlan::only(net.topology(), (0..60).map(NodeId));
            let id = net.multicast_with_plan(&b"churn"[..], &plan);
            net.run_until(SimTime::from_millis(300)); // idle transitions done
            let bufferers: Vec<NodeId> = (0..60)
                .map(NodeId)
                .filter(|&m| net.node(m).receiver().store().contains(id))
                .collect();
            for &b in &bufferers {
                if graceful {
                    net.schedule_leave(b, SimTime::from_millis(350));
                } else {
                    net.schedule_crash(b, SimTime::from_millis(350));
                }
            }
            net.run_until(SimTime::from_millis(600));
            let after = (0..60)
                .map(NodeId)
                .filter(|&m| {
                    !net.node(m).receiver().has_left()
                        && net.node(m).receiver().store().contains(id)
                })
                .count();
            copies.push(after as f64);
            // A downstream member now asks for the message, probing a
            // surviving region-0 member.
            let survivors: Vec<NodeId> =
                (0..60).map(NodeId).filter(|&m| !net.node(m).receiver().has_left()).collect();
            let entry = survivors[s as usize % survivors.len()];
            let t0 = SimTime::from_millis(700);
            net.inject_packet(entry, NodeId(60), Packet::RemoteRequest { msg: id }, t0);
            net.run_until(SimTime::from_secs(4));
            if net.node(NodeId(60)).has_delivered(id) {
                recovered += 1;
                if let Some(t) = net.first_remote_repair_at(id) {
                    search.push(t.saturating_since(t0).as_millis_f64());
                }
            }
        }
        rows.push(ChurnRow {
            mode,
            mean_copies_after: copies.mean(),
            recovery_rate: recovered as f64 / seeds as f64,
            mean_search_ms: search.mean(),
        });
    }
    rows
}

/// A6 rows: the C trade-off — buffer copies vs no-bufferer risk vs search
/// latency (paper §3.2's "tradeoff between buffer requirements and
/// recovery latency").
#[derive(Debug, Clone, PartialEq)]
pub struct CTradeoffRow {
    /// C, the expected long-term bufferers.
    pub c: f64,
    /// Mean long-term bufferers measured after a full epidemic.
    pub mean_longterm: f64,
    /// Fraction of runs ending with zero long-term bufferers.
    pub frac_zero: f64,
    /// The analytic `e^{-C}`.
    pub analytic_zero: f64,
    /// Mean search time (ms) with `round(C)` bufferers (from the §3.3
    /// search measurement).
    pub search_ms: f64,
}

/// A6: sweeps C, measuring the realized bufferer count distribution and
/// the matching search latency.
#[must_use]
pub fn ablation_c_tradeoff(cs: &[f64], n: usize, seeds: u64, base_seed: u64) -> Vec<CTradeoffRow> {
    cs.iter()
        .map(|&c| {
            let mut longterm = OnlineStats::new();
            let mut zero_runs = 0u64;
            for s in 0..seeds {
                let seed = base_seed ^ ((c * 100.0) as u64) << 30 ^ s;
                let topo = rrmp_netsim::topology::presets::paper_region(n);
                let cfg = ProtocolConfig { c, ..ProtocolConfig::paper_defaults() };
                let mut net = RrmpNetwork::new(topo, cfg, seed);
                let plan = DeliveryPlan::all(net.topology());
                let id = net.multicast_with_plan(&b"c-sweep"[..], &plan);
                net.run_until(SimTime::from_millis(500));
                let lt = net.long_term_count(id);
                longterm.push(lt as f64);
                if lt == 0 {
                    zero_runs += 1;
                }
            }
            let j = (c.round() as usize).max(1);
            let search = crate::figures::search_time_point(n, j, seeds.min(40), base_seed ^ 0xC0);
            CTradeoffRow {
                c,
                mean_longterm: longterm.mean(),
                frac_zero: zero_runs as f64 / seeds as f64,
                analytic_zero: rrmp_analysis::models::no_bufferer_probability(c),
                search_ms: search.mean_search_ms,
            }
        })
        .collect()
}

/// A7 helper: runs `policy` on an `n`-member region where members
/// `1..=missers` miss the initial multicast, and returns the **busiest**
/// node's recovery-packet load — the quantity that explodes at the sender
/// under sender-based recovery but stays flat under RRMP's randomized
/// load spreading.
#[must_use]
pub fn implosion_point(policy: PolicyKind, n: usize, missers: usize, seed: u64) -> u64 {
    let topo = rrmp_netsim::topology::presets::paper_region(n);
    let cfg = ProtocolConfig { policy, ..ProtocolConfig::paper_defaults() };
    let mut net = RrmpNetwork::new(topo, cfg, seed);
    let plan = DeliveryPlan::all_but(net.topology(), (1..=missers as u32).map(NodeId));
    net.multicast_with_plan(&b"implode"[..], &plan);
    net.run_until(SimTime::from_secs(2));
    net.nodes().map(|(_, node)| node.recovery_packets_received()).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_sweep_monotone_requests() {
        let rows = ablation_lambda(&[0.5, 4.0], 4, 11);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].mean_remote_requests > rows[0].mean_remote_requests,
            "higher lambda sends more remote requests: {rows:?}"
        );
    }

    #[test]
    fn backoff_reduces_duplicates() {
        let rows = ablation_backoff(&[None, Some(SimDuration::from_millis(10))], 5, 22);
        let (off, on) = (&rows[0], &rows[1]);
        assert!(!off.enabled && on.enabled);
        assert!(
            on.mean_sent <= off.mean_sent,
            "backoff should not increase duplicates: off {} on {}",
            off.mean_sent,
            on.mean_sent
        );
        assert!(on.mean_suppressed > 0.0, "some multicasts should be suppressed");
    }

    #[test]
    fn churn_handoff_preserves_copies() {
        let rows = ablation_churn_handoff(4, 33);
        let leave = rows.iter().find(|r| r.mode == "leave").unwrap();
        let crash = rows.iter().find(|r| r.mode == "crash").unwrap();
        assert!(
            leave.mean_copies_after > crash.mean_copies_after,
            "handoff must preserve copies: {rows:?}"
        );
        assert!(crash.mean_copies_after < 0.5, "crash leaves ~no copies");
        assert!(leave.recovery_rate > crash.recovery_rate || leave.recovery_rate == 1.0);
    }

    #[test]
    fn idle_threshold_sweep_shapes() {
        let rows = ablation_idle_threshold(&[10, 80], 60, 6, 3, 44);
        // Larger T buffers longer...
        assert!(rows[1].mean_buffering_ms > rows[0].mean_buffering_ms, "{rows:?}");
        // ...and leaves fewer requests unanswered.
        assert!(rows[1].mean_ignored_requests <= rows[0].mean_ignored_requests, "{rows:?}");
    }

    #[test]
    fn c_tradeoff_tracks_analytics() {
        let rows = ablation_c_tradeoff(&[2.0, 6.0], 100, 12, 55);
        // Measured long-term count grows with C.
        assert!(rows[1].mean_longterm > rows[0].mean_longterm, "{rows:?}");
        // Zero-bufferer risk shrinks with C.
        assert!(rows[1].frac_zero <= rows[0].frac_zero, "{rows:?}");
    }

    #[test]
    fn policy_comparison_all_schemes_deliver() {
        let workload = PolicyWorkload {
            region_sizes: [12, 12, 12],
            messages: 3,
            interval: SimDuration::from_millis(100),
            loss_p: 0.1,
            drain: SimDuration::from_secs(2),
        };
        let reports = ablation_buffer_policies(&workload, 66);
        assert_eq!(reports.len(), 7);
        for r in &reports {
            assert_eq!(
                r.fully_delivered_members, r.members,
                "{} failed to deliver: {r:?}",
                r.scheme
            );
            assert_eq!(r.residual_losses, 0, "{}: {r:?}", r.scheme);
        }
        // Keep-all must cost at least as much buffer×time as two-phase.
        let two_phase = reports.iter().find(|r| r.scheme == "two-phase").unwrap();
        let keep_all = reports.iter().find(|r| r.scheme == "keep-all").unwrap();
        assert!(keep_all.byte_time_total >= two_phase.byte_time_total);
        // Tree concentrates load: its peak(max)/peak(mean) ratio dwarfs
        // two-phase's.
        let tree = reports.iter().find(|r| r.scheme == "tree-rmtp").unwrap();
        assert!(
            tree.peak_entries_max as f64 / tree.peak_entries_mean.max(0.01)
                > two_phase.peak_entries_max as f64 / two_phase.peak_entries_mean.max(0.01)
        );
    }
}
