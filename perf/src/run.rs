//! One run of one workload in this process: set-up (repeated, median
//! reported), warm-up (discarded), the passes of the measured phase (the
//! fastest reported), output checks, and — in the traced run — the layer
//! probes, the live comparison arms and the per-layer shares.

use std::collections::HashMap;
use std::time::Instant;

use rrmp_core::harness::RrmpNetwork;
use rrmp_core::prelude::ProtocolConfig;
use rrmp_netsim::time::SimDuration;

use crate::measure::{current_rss_bytes, median, peak_rss_mb, quantiles_of, Spans};
use crate::probes;
use crate::sim::{self, Scenario};
use crate::udp::{self, Group, WARMUP_MESSAGES};
use crate::{spec, Size};

/// Per-layer facts a run collected, keyed by the names of
/// `spec::per_layer` (plus a few private `_` keys the shares need).
pub type Facts = HashMap<&'static str, f64>;

/// Everything one complete measurement of a workload produced.
pub struct Measured {
    pub attempted: u64,
    pub delivered: u64,
    pub setup_s: f64,
    pub run_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Deliveries that arrived inside the measured phase.
    pub delivered_in_run: u64,
    /// `udp_*`: host ms, `multicast()` to the app having the message, at
    /// members that got the initial copy / that had to recover it.
    pub delivery_ms: Vec<f64>,
    pub recovery_ms: Vec<f64>,
    /// `sim_*`: what the simulation's public state said after the run.
    pub simulated: Option<sim::Outcome>,
    pub facts: Facts,
    /// `None` when every output check passed.
    pub failure: Option<String>,
}

impl Measured {
    /// The end-to-end metrics in `spec::END_TO_END` order; `None` where a
    /// metric does not exist on this workload's family.
    pub fn end_to_end(&mut self) -> Vec<Option<f64>> {
        let udp = self.simulated.is_none();
        let [d50, d99] = quantiles_of(&mut self.delivery_ms, [0.5, 0.99]).map(|v| udp.then_some(v));
        let [r50, r90] = quantiles_of(&mut self.recovery_ms, [0.5, 0.9]).map(|v| udp.then_some(v));
        let sim = self.simulated.as_ref();
        vec![
            Some(self.setup_s),
            Some(self.run_s),
            Some(self.delivered_in_run as f64 / self.run_s),
            Some(self.cpu_s),
            Some(self.peak_rss_mb),
            Some(self.delivered as f64 / self.attempted as f64),
            d50,
            d99,
            r50,
            r90,
            sim.map(sim::Outcome::sim_recovery_latency_mean_ms),
            sim.map(sim::Outcome::sim_buffer_byte_seconds_per_msg),
        ]
    }

    /// `sim_*`: exact counts the suite compares across runs of one seed.
    pub fn exact_counts(&self) -> Vec<(&'static str, u64)> {
        let Some(s) = &self.simulated else { return Vec::new() };
        vec![
            ("events", s.net.events_processed),
            ("delivered", s.delivered),
            ("sim_recovery_us_sum", u64::try_from(s.recovery_us_sum).unwrap_or(u64::MAX)),
            ("sim_byte_time", u64::try_from(s.byte_time).unwrap_or(u64::MAX)),
        ]
    }
}

/// Measured passes per run, on every workload and every comparison arm.
/// The fastest is the one reported, whole: this two-core shared VM has
/// spells in which a pass takes up to a third longer at more CPU time,
/// whatever the code does (`perf/README.md` has the measurements); they
/// only ever add time, so the fastest of three passes seconds long is the
/// steadiest reading of the code's own cost. `bench.pass_spread` reports
/// how far apart the passes lay.
const PASSES: usize = 3;

/// Repeats `build` (dropping all but the last result, untimed) until the
/// sample is large enough for a steady median; returns that median and
/// the last result.
fn repeated_setup<T>(mut build: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (f64, T) {
    const MIN_REPS: usize = 5;
    const MAX_REPS: usize = 400;
    const MIN_TOTAL_S: f64 = 0.25;
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < MIN_REPS
        || (times.len() < MAX_REPS && times.iter().sum::<f64>() < MIN_TOTAL_S)
    {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&mut times), last.expect("at least one set-up"))
}

// ----- simulator workloads ------------------------------------------------------

fn sum_counters(net: &RrmpNetwork, facts: &mut Facts) {
    let mut peak_entries = 0usize;
    let mut add = |k: &'static str, v: u64| *facts.entry(k).or_insert(0.0) += v as f64;
    for (_, node) in net.nodes() {
        let c = node.receiver().metrics().counters;
        peak_entries = peak_entries.max(node.receiver().store().peak_entries());
        add("core.receiver.duplicates", c.duplicates);
        add("core.receiver.recovery_gave_up", c.recovery_gave_up);
        add("core.buffer.idle_transitions", c.idle_transitions);
        add("core.buffer.long_term_kept", c.long_term_kept);
        add("core.buffer.pressure_discards", c.pressure_discards);
        add("core.buffer.evicted_for_capacity", c.evicted_for_capacity);
        add("core.policy.requests_shed", c.requests_shed);
        add("core.policy.watchdog_rearms", c.watchdog_rearms);
        add("core.policy.admission_declined", c.admission_declined);
        add("core.history.digests_sent", c.history_digests_sent);
        add("_digests_received", c.history_digests_received);
        add("_app_delivered", c.delivered);
        add("_requests_received", c.local_requests_received + c.remote_requests_received);
        add("_repairs_received", c.repairs_received);
        add("_repairs_sent", c.repairs_sent_local + c.repairs_sent_remote);
        add(
            "_discards",
            c.discarded_at_idle + c.long_term_expired + c.pressure_discards + c.stable_discards,
        );
    }
    *facts.entry("trace.sink.events_dropped").or_insert(0.0) += net.trace_events_dropped() as f64;
    let peak = facts.entry("core.buffer.peak_entries_max").or_insert(0.0);
    *peak = peak.max(peak_entries as f64);
}

fn policy_fact(label: &str) -> Option<&'static str> {
    spec::per_layer().map(|m| m.0).find(|n| {
        n.strip_prefix("core.policy.").and_then(|r| r.strip_suffix(".run_s")) == Some(label)
    })
}

/// One measured pass over every scenario of a simulator workload.
struct SimPass {
    run_s: f64,
    cpu_s: f64,
    outcome: sim::Outcome,
    facts: Facts,
}

/// What [`PASSES`] passes over the same scenarios came to.
struct SimPasses {
    fastest: SimPass,
    /// (slowest - fastest) / fastest wall time.
    spread: f64,
    /// Whether every pass produced the same simulated outcome.
    repeatable: bool,
    /// VmHWM when the first pass ended. The passes do identical work, so
    /// later ones add only what the allocator failed to reuse.
    peak_rss_mb: f64,
}

/// Drives `scenarios` [`PASSES`] times, each time on fresh networks
/// (`first` serves the first pass; `prepare` runs on every network before
/// it is driven), reading each outcome untimed.
fn sim_passes(
    scenarios: &[Scenario],
    mut first: Option<Vec<RrmpNetwork>>,
    prepare: &dyn Fn(&mut RrmpNetwork),
    spans: &mut Spans,
) -> SimPasses {
    let mut passes: Vec<SimPass> = Vec::with_capacity(PASSES);
    let mut peak = 0.0;
    for _ in 0..PASSES {
        // Past the networks set-up built, one network is alive at a time.
        let mut built = first.take().unwrap_or_default().into_iter();
        let mut pass = SimPass {
            run_s: 0.0,
            cpu_s: 0.0,
            outcome: sim::Outcome::default(),
            facts: Facts::new(),
        };
        spans.enter("run");
        for sc in scenarios {
            let mut net = built.next().unwrap_or_else(|| sc.build());
            prepare(&mut net);
            let driven = sim::drive(sc, net, spans);
            pass.run_s += driven.run_s;
            pass.cpu_s += driven.cpu_s;
            if let Some(key) = policy_fact(sc.label) {
                pass.facts.insert(key, driven.run_s);
            }
            // Read the outcome now (untimed) so that only one driven
            // network is alive at a time.
            spans.enter("analyze");
            pass.outcome.absorb(sim::analyze(sc, &driven));
            sum_counters(&driven.net, &mut pass.facts);
            spans.exit();
        }
        spans.exit();
        if passes.is_empty() {
            peak = peak_rss_mb();
        }
        passes.push(pass);
    }
    let repeatable = passes.iter().all(|p| p.outcome == passes[0].outcome);
    let slowest = passes.iter().map(|p| p.run_s).fold(0.0, f64::max);
    let fastest =
        passes.into_iter().min_by(|a, b| a.run_s.total_cmp(&b.run_s)).expect("PASSES > 0");
    let spread = (slowest - fastest.run_s) / fastest.run_s;
    SimPasses { fastest, spread, repeatable, peak_rss_mb: peak }
}

/// Set-up, warm-up and the measured passes of a simulator workload.
fn measure_sim(workload: &str, size: Size, seed: u64, spans: &mut Spans) -> Measured {
    let scenarios = sim::scenarios(workload, size, seed);

    spans.enter("setup");
    let (setup_s, nets) =
        repeated_setup(|| scenarios.iter().map(Scenario::build).collect::<Vec<_>>(), drop);
    spans.exit();

    // Warm-up: a discarded pass at a tenth of the messages (and the quick
    // member count on `sim_scale_100k`). On sharded scenarios it doubles
    // as the shard-invariance check: 1 and 2 shards must agree.
    spans.enter("warmup");
    let mut failure = None;
    for sc in sim::scenarios(workload, size.warmup(), seed) {
        let pass = sim::drive(&sc, sc.build(), &mut Spans::new(false));
        if let Some(n) = sc.shards.filter(|&n| n > 1) {
            let one = sc.with_shards(1);
            let oracle = sim::drive(&one, one.build(), &mut Spans::new(false));
            let (a, b) = (pass.net.net_counters(), oracle.net.net_counters());
            if a != b {
                failure = Some(format!("{n} shards and 1 shard disagree: {a:?} vs {b:?}"));
            }
        }
    }
    spans.exit();

    let SimPasses { fastest, spread, repeatable, peak_rss_mb } =
        sim_passes(&scenarios, Some(nets), &|_| {}, spans);
    if !repeatable {
        failure = Some("passes over one seed produced different simulated outcomes".into());
    }
    let SimPass { run_s, cpu_s, outcome: simulated, mut facts } = fastest;
    facts.insert("bench.pass_spread", spread);

    let s = simulated.clone();
    let mut m = Measured {
        // Every pass attempted, and delivered, the same pairs.
        attempted: s.attempted * PASSES as u64,
        delivered: s.delivered * PASSES as u64,
        setup_s,
        run_s,
        cpu_s,
        peak_rss_mb,
        delivered_in_run: s.delivered,
        delivery_ms: Vec::new(),
        recovery_ms: Vec::new(),
        simulated: Some(simulated),
        facts,
        failure,
    };
    if s.delivered > s.attempted || m.facts["_app_delivered"] != s.delivered as f64 {
        m.failure = Some(format!(
            "delivery logs hold {} of {} pairs but receivers counted {}",
            s.delivered, s.attempted, m.facts["_app_delivered"]
        ));
    }
    if s.recovery_pairs == 0 {
        m.failure = Some("no member had to recover a message".into());
    }

    let n = s.net;
    let f = &mut m.facts;
    f.insert("netsim.sim.events", n.events_processed as f64);
    f.insert("netsim.event.ops", n.events_processed as f64);
    f.insert("netsim.sim.events_per_sec", n.events_processed as f64 / m.run_s);
    f.insert("netsim.sim.unicasts_sent", n.unicasts_sent as f64);
    f.insert("netsim.sim.unicasts_dropped", n.unicasts_dropped as f64);
    f.insert("netsim.sim.fanouts", n.fanouts as f64);
    f.insert("netsim.sim.batched_deliveries", n.batched_deliveries as f64);
    f.insert("netsim.sim.timers_set", n.timers_set as f64);
    f.insert("netsim.sim.timers_fired", n.timers_fired as f64);
    f.insert("netsim.fault.faults_dropped", n.faults_dropped as f64);
    f.insert("netsim.fault.faults_duplicated", n.faults_duplicated as f64);
    f.insert("core.receiver.calls", (n.delivered + n.timers_fired) as f64);
    f.insert("_packets_handled", n.delivered as f64);
    if let Some(shards) = scenarios[0].shards {
        f.insert("netsim.shard.cpu_util", m.cpu_s / (m.run_s * shards as f64));
    }
    m
}

/// The traced run's extra work on a simulator workload: probes, the live
/// comparison arms, shares.
fn trace_sim(workload: &str, size: Size, seed: u64, base: &Measured, spans: &mut Spans) -> Facts {
    let mut f = base.facts.clone();
    let base_net = base.simulated.as_ref().expect("a simulator workload").net;
    let scenarios = sim::scenarios(workload, size, seed);
    let sc = &scenarios[0];
    let topo = (sc.topology)();
    let members = topo.node_count();
    let run_ns = base.run_s * 1e9;
    let unicasts_per_timer = f["netsim.sim.unicasts_sent"] / f["netsim.sim.timers_fired"].max(1.0);

    spans.enter("probe.netsim.event");
    let q = probes::event_queue(members / sc.shards.unwrap_or(1));
    spans.exit();
    f.insert("netsim.event.schedule_ns", q.schedule);
    f.insert("netsim.event.pop_ns", q.pop);
    f.insert("netsim.event.schedule_past_ns", q.schedule_past);
    // A scenario that idles before its first message runs with every
    // queue's cursor parked at the far-future sweeps: each of its events
    // is scheduled behind the cursor.
    let idled = sc.idle_before > SimDuration::ZERO;
    let queue_ns = q.pop + if idled { q.schedule_past } else { q.schedule };
    f.insert("netsim.event.share", f["netsim.event.ops"] * queue_ns / run_ns);

    spans.enter("probe.netsim.engine");
    let null_ns = probes::null_node_ns_per_event(&topo, sc.shards, unicasts_per_timer);
    spans.exit();
    // The null-node probe runs on the wheel path; what it costs beyond
    // the wheel's schedule and pop is the engine's own.
    let engine_ns = (null_ns - q.schedule - q.pop).max(0.0);
    let engine_share = f["netsim.sim.events"] * engine_ns / run_ns;
    match sc.shards {
        None => {
            f.insert("netsim.sim.null_node_ns_per_event", null_ns);
            f.insert("netsim.sim.share", engine_share);
        }
        Some(_) => {
            f.insert("netsim.shard.null_node_ns_per_event", null_ns);
            f.insert("netsim.shard.share", engine_share);
        }
    }
    if workload == "sim_wan_sharded" {
        // Both arms live: the same scenario, same seed, on one shard.
        // (`sim_scale_100k` on one shard takes 67 s: its same-instant
        // batches are twice as long and cost four times as much.)
        spans.enter("arm.shards_1");
        let one = [sc.with_shards(1)];
        let pass = sim_passes(&one, None, &|_| {}, &mut Spans::new(false)).fastest;
        spans.exit();
        f.insert("netsim.shard.speedup_vs_1", pass.run_s / base.run_s);
        assert_eq!(
            pass.outcome.net, base_net,
            "1 shard and {:?} shards must process identical events",
            sc.shards
        );
    }

    spans.enter("probe.netsim.inputs");
    f.insert("netsim.loss.plan_ns_per_member", probes::loss_plan_ns_per_member(&topo));
    if let Some(plan) = &sc.fault {
        f.insert("netsim.fault.drops_ns", probes::fault_drops_ns(&topo, plan));
    }
    let t = Instant::now();
    drop((sc.topology)());
    f.insert("netsim.topology.build_ns_per_member", t.elapsed().as_nanos() as f64 / members as f64);
    f.insert("membership.view.from_topology_ns", probes::view_from_topology_ns(&topo));
    spans.exit();

    spans.enter("probe.core.harness");
    let rss_before = current_rss_bytes();
    let t = Instant::now();
    let mut net = sc.build();
    f.insert("core.harness.build_ns_per_member", t.elapsed().as_nanos() as f64 / members as f64);
    let grown = current_rss_bytes().saturating_sub(rss_before);
    f.insert("core.receiver.bytes_per_member", grown as f64 / members as f64);
    let t = Instant::now();
    net.reset(sc.net_seed);
    f.insert("core.harness.reset_ns", t.elapsed().as_nanos() as f64);
    drop(net);
    spans.exit();

    spans.enter("probe.core.receiver");
    let largest_region = topo.regions().map(|r| r.members.len()).max().unwrap_or(1);
    let window = f["core.buffer.peak_entries_max"] as usize;
    let rx = probes::receiver(&sc.cfg, largest_region, window, &sc.payload);
    spans.exit();
    f.insert("core.receiver.handle_data_ns", rx.data);
    f.insert("core.receiver.handle_request_ns", rx.request);
    f.insert("core.receiver.handle_repair_ns", rx.repair);
    f.insert("core.receiver.handle_session_ns", rx.session);
    f.insert("core.receiver.handle_timer_ns", rx.timer);
    // Packets by kind, from the receivers' own counters: what is neither a
    // request nor a repair nor a first or duplicate data copy is session
    // (and, under the stability policy, history) traffic.
    let repairs = f["_repairs_received"];
    let requests = f["_requests_received"];
    let data = (f["_app_delivered"] + f["core.receiver.duplicates"] - repairs).max(0.0);
    let other = (f["_packets_handled"] - data - repairs - requests).max(0.0);
    let receiver_ns = data * rx.data
        + requests * rx.request
        + repairs * rx.repair
        + other * rx.session
        + f["netsim.sim.timers_fired"] * rx.timer;
    f.insert("core.receiver.share", receiver_ns / run_ns);

    spans.enter("probe.core.buffer");
    let b = probes::buffer(window, &sc.payload);
    spans.exit();
    f.insert("core.buffer.insert_short_ns", b.insert_short);
    f.insert("core.buffer.promote_ns", b.promote);
    f.insert("core.buffer.discard_ns", b.discard);
    f.insert("core.buffer.get_ns", b.get);
    f.insert("core.buffer.expire_sweep_ns_per_entry", b.expire_sweep_per_entry);
    let buffer_ns = f["_app_delivered"] * b.insert_short
        + f["core.buffer.long_term_kept"] * b.promote
        + f["_discards"] * b.discard
        + f["_repairs_sent"] * b.get;
    f.insert("core.buffer.share", buffer_ns / run_ns);

    spans.enter("probe.core.history");
    let h = probes::history(&sc.cfg, &sc.payload);
    spans.exit();
    f.insert("core.interval_set.insert_ns", h.interval_insert);
    f.insert("core.interval_set.contains_ns", h.interval_contains);
    f.insert("core.history.digest_build_ns", h.digest_build);
    f.insert("core.history.tracker_record_ns", h.tracker_record);
    let history_ns =
        f["core.history.digests_sent"] * h.digest_build + f["_digests_received"] * h.tracker_record;
    f.insert("core.history.share", history_ns / run_ns);

    spans.enter("probe.trace");
    let t = probes::trace();
    spans.exit();
    f.insert("trace.sink.record_ns", t.sink_record);
    f.insert("trace.hist.record_ns", t.hist_record);
    if workload == "sim_lan_stream" {
        // Both arms live: this workload again with the observer armed.
        spans.enter("arm.observer");
        let arm = |net: &mut RrmpNetwork| net.arm_observer(sim::observer());
        let pass = sim_passes(&scenarios, None, &arm, &mut Spans::new(false)).fastest;
        spans.exit();
        f.insert("trace.sink.armed_ratio", pass.run_s / base.run_s);
        f.insert("trace.sink.events_dropped", pass.facts["trace.sink.events_dropped"]);
        assert_eq!(pass.outcome.net, base_net, "the observer changed the run");
    }

    // The engine's self cost, the receivers (which contain the buffer and
    // history work) and the queue are disjoint. Shares are thread-seconds
    // per second of wall time, so they are held against the CPU the run
    // used per wall second; the rest is unattributed.
    let attributed = f["netsim.event.share"] + engine_share + f["core.receiver.share"];
    f.insert("bench.unattributed_share", base.cpu_s / base.run_s - attributed);
    f
}

// ----- UDP workloads ----------------------------------------------------------------

fn measure_udp(workload: &str, size: Size, seed: u64, spans: &mut Spans) -> Measured {
    let spec = udp::spec(workload, size);
    let body = udp::body(&spec, seed);

    spans.enter("setup");
    let (setup_s, group) = repeated_setup(|| Group::start(&spec, seed), Group::stop);
    spans.exit();

    // One pass: warm-up and the measured stream on a group of its own.
    let mut run = |group: &Group| -> Result<(udp::Streamed, Facts), String> {
        spans.enter("warmup");
        let warm = udp::stream(group, &spec, 0, WARMUP_MESSAGES, &body, &mut Spans::new(false))?;
        spans.exit();
        if warm.delivered != warm.attempted {
            return Err(format!("warm-up delivered {}/{}", warm.delivered, warm.attempted));
        }
        let (pool0, rt0) = (group.pool(), group.runtime());
        spans.enter("run");
        let s = udp::stream(group, &spec, WARMUP_MESSAGES, spec.messages, &body, spans)?;
        spans.exit();
        let (pool1, rt1) = (group.pool(), group.runtime());
        group.check()?;

        let mut f = Facts::new();
        let acquires = (pool1.hits + pool1.misses - pool0.hits - pool0.misses) as f64;
        let wakeups = (rt1.poll_wakeups - rt0.poll_wakeups) as f64;
        f.insert("udp.runtime.add_member_ns", group.add_member_ns);
        f.insert("udp.runtime.multicast_call_ns", s.multicast_ns as f64 / spec.messages as f64);
        f.insert("udp.runtime.drain_ns_per_delivery", s.drain_ns as f64 / s.delivered as f64);
        f.insert("udp.runtime.poll_wakeups", wakeups);
        f.insert("udp.runtime.idle_ticks", (rt1.idle_ticks - rt0.idle_ticks) as f64);
        f.insert("udp.runtime.deliveries_per_wakeup", s.delivered as f64 / wakeups.max(1.0));
        f.insert("udp.runtime.send_drops", rt1.send_drops as f64);
        // Two threads: the event loop and the generator that also drains.
        f.insert("udp.runtime.cpu_util", s.cpu_s / (s.run_s * 2.0));
        f.insert("udp.pool.hit_rate", pool1.hits as f64 / (pool1.hits + pool1.misses) as f64);
        f.insert("udp.pool.steady_miss_rate", (pool1.misses - pool0.misses) as f64 / acquires);
        f.insert("udp.pool.forfeited", (pool1.forfeited - pool0.forfeited) as f64);
        f.insert("udp.pool.high_water_mb", pool1.high_water_bytes as f64 / (1 << 20) as f64);
        f.insert("udp.pool.datagrams_received", acquires);
        f.insert("_multicasts", spec.messages as f64);
        f.insert("_deliveries", s.delivered as f64);
        Ok((s, f))
    };
    let mut first = Some(group);
    let mut passes = Vec::with_capacity(PASSES);
    let (mut failure, mut peak) = (None, None);
    for _ in 0..PASSES {
        let group = first.take().unwrap_or_else(|| Group::start(&spec, seed));
        match run(&group) {
            Ok(pass) => passes.push(pass),
            Err(e) => failure = Some(e),
        }
        // The passes do identical work: the peak is read after the first.
        peak.get_or_insert_with(peak_rss_mb);
        group.stop();
    }
    let peak = peak.expect("PASSES > 0");

    // Failures count over every pass; everything else is the fastest's.
    let attempted: u64 = passes.iter().map(|(s, _)| s.attempted).sum();
    let delivered: u64 = passes.iter().map(|(s, _)| s.delivered).sum();
    let slowest = passes.iter().map(|(s, _)| s.run_s).fold(0.0, f64::max);
    let (s, mut facts) =
        passes.into_iter().min_by(|a, b| a.0.run_s.total_cmp(&b.0.run_s)).unwrap_or_default();
    facts.insert("bench.pass_spread", (slowest - s.run_s) / s.run_s);
    let to_ms = |us: &[u32]| us.iter().map(|&u| f64::from(u) / 1e3).collect::<Vec<f64>>();
    Measured {
        attempted: attempted.max(1),
        delivered,
        setup_s,
        run_s: s.run_s,
        cpu_s: s.cpu_s,
        peak_rss_mb: peak,
        delivered_in_run: s.delivered_in_stream,
        delivery_ms: to_ms(&s.delivery_us),
        recovery_ms: to_ms(&s.recovery_us),
        simulated: None,
        facts,
        failure,
    }
}

fn trace_udp(workload: &str, size: Size, base: &Measured, spans: &mut Spans) -> Facts {
    let mut f = base.facts.clone();
    let spec = udp::spec(workload, size);
    let run_ns = base.run_s * 1e9;
    let datagrams = f["udp.pool.datagrams_received"];
    let payload = bytes::Bytes::from(vec![0x5Au8; spec.payload_bytes]);
    let kib = bytes::Bytes::from(vec![0x5Au8; 1024]);

    spans.enter("probe.udp");
    let u = probes::udp(spec.members, spec.payload_bytes);
    spans.exit();
    f.insert("udp.batch.poll_wait_ns_at_n_fds", u.poll_wait_at_n_fds);
    f.insert("udp.batch.recv_batch_ns_per_datagram", u.recv_batch_per_datagram);
    f.insert("udp.batch.send_to_many_ns_per_datagram", u.send_to_many_per_datagram);
    f.insert("udp.pool.acquire_ns", u.pool_acquire);
    f.insert("udp.pool.release_ns", u.pool_release);
    f.insert("udp.group.view_for_ns", u.group_view_for);
    // On loopback every datagram received was sent by a member of this
    // process, so the receive count stands for the send count too.
    let polls = f["udp.runtime.poll_wakeups"] + f["udp.runtime.idle_ticks"];
    let batch_ns = datagrams * (u.recv_batch_per_datagram + u.send_to_many_per_datagram)
        + polls * u.poll_wait_at_n_fds;
    f.insert("udp.batch.share", batch_ns / run_ns);
    f.insert("udp.pool.share", datagrams * (u.pool_acquire + u.pool_release) / run_ns);
    let app_ns = f["_multicasts"] * f["udp.runtime.multicast_call_ns"]
        + f["_deliveries"] * f["udp.runtime.drain_ns_per_delivery"];
    f.insert("udp.runtime.share", app_ns / run_ns);

    spans.enter("probe.core.packet");
    let p = probes::packet(&kib);
    let own = if payload.len() == kib.len() { p } else { probes::packet(&payload) };
    spans.exit();
    f.insert("core.packet.encode_data_1k_ns", p.encode_data);
    f.insert("core.packet.decode_data_1k_ns", p.decode_data);
    f.insert("core.packet.encode_ctrl_ns", p.encode_ctrl);
    f.insert("core.packet.decode_ctrl_ns", p.decode_ctrl);
    // Every datagram is decoded; a multicast is encoded once and fanned
    // out, control packets once each.
    let data_in = f["_deliveries"];
    let ctrl_in = (datagrams - data_in).max(0.0);
    let packet_ns = data_in * own.decode_data
        + ctrl_in * (own.decode_ctrl + own.encode_ctrl)
        + f["_multicasts"] * own.encode_data;
    f.insert("core.packet.share", packet_ns / run_ns);

    spans.enter("probe.core.receiver");
    let cfg: ProtocolConfig = udp::protocol_config();
    // The runtime does not expose its receivers' buffers: one idle
    // threshold's worth of the stream stands in for their occupancy.
    let window = (0.4 * f["_multicasts"] / base.run_s) as usize;
    let rx = probes::receiver(&cfg, spec.members, window, &payload);
    let b = probes::buffer(window, &payload);
    let q = probes::event_queue(spec.members);
    spans.exit();
    f.insert("core.receiver.handle_data_ns", rx.data);
    f.insert("core.receiver.handle_request_ns", rx.request);
    f.insert("core.receiver.handle_repair_ns", rx.repair);
    f.insert("core.receiver.handle_session_ns", rx.session);
    f.insert("core.receiver.handle_timer_ns", rx.timer);
    f.insert("core.receiver.calls", datagrams);
    // The runtime exposes no per-kind packet counts and no wheel counts:
    // data copies are the deliveries, the rest is costed as session
    // traffic, and each delivery as one idle timer set and fired.
    f.insert(
        "core.receiver.share",
        (data_in * (rx.data + rx.timer) + ctrl_in * rx.session) / run_ns,
    );
    f.insert("core.buffer.insert_short_ns", b.insert_short);
    f.insert("core.buffer.promote_ns", b.promote);
    f.insert("core.buffer.discard_ns", b.discard);
    f.insert("core.buffer.get_ns", b.get);
    f.insert("core.buffer.expire_sweep_ns_per_entry", b.expire_sweep_per_entry);
    f.insert("core.buffer.share", data_in * (b.insert_short + b.discard) / run_ns);
    f.insert("netsim.event.schedule_ns", q.schedule);
    f.insert("netsim.event.pop_ns", q.pop);
    f.insert("netsim.event.schedule_past_ns", q.schedule_past);
    f.insert("netsim.event.ops", data_in);
    f.insert("netsim.event.share", data_in * (q.schedule + q.pop) / run_ns);

    // Shares are thread-seconds per second of wall time, held against the
    // CPU both threads used per wall second.
    let attributed = f["udp.batch.share"]
        + f["udp.pool.share"]
        + f["udp.runtime.share"]
        + f["core.packet.share"]
        + f["core.receiver.share"]
        + f["netsim.event.share"];
    f.insert("bench.unattributed_share", base.cpu_s / base.run_s - attributed);
    f
}

// ----- one run ----------------------------------------------------------------------

pub struct Report {
    pub measured: Measured,
    /// Per-layer values in `spec::per_layer` order (traced run only).
    pub per_layer: Option<Vec<f64>>,
    pub spans_jsonl: Option<String>,
    pub span_table: Vec<(&'static str, u64, u64, u64)>,
}

pub fn run(workload: &str, size: Size, seed: u64, traced: bool) -> Report {
    let is_sim = workload.starts_with("sim_");
    let measure = |spans: &mut Spans| {
        spans.enter("workload");
        let m = if is_sim {
            measure_sim(workload, size, seed, spans)
        } else {
            measure_udp(workload, size, seed, spans)
        };
        spans.exit();
        m
    };
    let base = measure(&mut Spans::new(false));
    if !traced || base.failure.is_some() {
        return Report {
            measured: base,
            per_layer: None,
            spans_jsonl: None,
            span_table: Vec::new(),
        };
    }

    // The traced run: the same workload, same seed, recorder on.
    let mut spans = Spans::new(true);
    let traced_run = measure(&mut spans);
    if traced_run.failure.is_some() {
        return Report {
            measured: traced_run,
            per_layer: None,
            spans_jsonl: None,
            span_table: Vec::new(),
        };
    }
    let mut facts = if is_sim {
        trace_sim(workload, size, seed, &base, &mut spans)
    } else {
        trace_udp(workload, size, &base, &mut spans)
    };
    facts.insert("bench.trace_overhead_ratio", traced_run.run_s / base.run_s);
    let table = spans.self_times();
    if let Some(row) = table.iter().find(|r| r.0 == "core.harness.multicast") {
        facts.insert("core.harness.multicast_ns", row.2 as f64 / row.1 as f64);
    }
    // The one-family end-to-end metrics, from the untraced pass.
    let mut base = base;
    for (m, v) in spec::END_TO_END.iter().zip(base.end_to_end()) {
        facts.insert(m.name, v.unwrap_or(0.0));
    }
    let per_layer = spec::per_layer().map(|m| facts.get(m.0).copied().unwrap_or(0.0)).collect();
    Report {
        measured: base,
        per_layer: Some(per_layer),
        spans_jsonl: Some(spans.to_jsonl(workload)),
        span_table: table,
    }
}
