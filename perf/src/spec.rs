//! The benchmark's names: workloads, end-to-end metrics with unit,
//! direction and bound, per-layer metrics, seeds. `BENCHMARK.json` at the
//! repository root must say the same; `validate` checks that it does.

use rrmp_trace::Value;

/// `--seconds` at which every workload carries its nominal message count;
/// `BENCHMARK.json`'s `run_seconds`. Other values scale the counts.
pub const RUN_SECONDS: u64 = 8;
/// Child runs of each workload in one `perf/run.sh` suite.
pub const RUNS_PER_WORKLOAD: usize = 5;
/// The seed `perf/run.sh` uses when none is given.
pub const DEFAULT_SEED: u64 = 2002;
/// A seed to leave alone while writing a change, for the final check.
pub const HELD_OUT_SEED: u64 = 90_125;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "sim_lan_stream",
        why: "Paper's 100-member region, 12,000 messages, half the members miss each: core.receiver, core.buffer and netsim.event do the work, at a length that shows per-message state growth.",
    },
    Workload {
        name: "sim_wan_sharded",
        why: "32 regions x 64 members, region-correlated loss, 2 shards: netsim.shard windows and mailboxes and cross-region recovery dominate.",
    },
    Workload {
        name: "sim_scale_100k",
        why: "100,000 members on 2 shards, paper defaults, one message after an idle interval: every event is scheduled behind the queue's cursor, as in members_1m; construction and peak RSS at scale.",
    },
    Workload {
        name: "sim_policy_overload",
        why: "The 100-member region once per policy with memory budget, damping, watchdog and a fault plan armed: the paths a two-phase fast path must not tax.",
    },
    Workload {
        name: "udp_fanout_1k",
        why: "UdpRuntime, 1,000 members on loopback, 1 KiB payloads, 2% recovering: fan-out, poll(2) over 1,000 fds, recvmmsg, pool and app channels dominate.",
    },
    Workload {
        name: "udp_repair_64b",
        why: "UdpRuntime, 200 members, 64 B payloads, 10% recovering: per-packet cost and the request/repair/timer path dominate; fan-out is light.",
    },
];

/// Which workloads a metric is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    All,
    /// `sim_*`: the run has a simulated clock and readable message stores.
    Sim,
    /// `udp_*`: the run has real sockets and a wall-clock send stamp.
    Udp,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// A difference this small, in the metric's unit, is never a
    /// regression and never makes a median `unresolved` (the issue's
    /// "15 % or 20 ms" for set-up times of a millisecond).
    pub floor: f64,
    /// `host` wall-clock of this machine, `simulated` protocol clock, or
    /// `outcome` (a count ratio).
    pub clock: &'static str,
    pub family: Family,
}

impl EndToEnd {
    pub fn applies_to(&self, workload: &str) -> bool {
        match self.family {
            Family::All => true,
            Family::Sim => workload.starts_with("sim_"),
            Family::Udp => workload.starts_with("udp_"),
        }
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    clock: &'static str,
    family: Family,
) -> EndToEnd {
    EndToEnd { name, unit, better, bound, floor: 0.0, clock, family }
}

/// The twelve end-to-end metrics. The six measured on every workload are
/// `BENCHMARK.json`'s `end_to_end`; the contract's result line must carry
/// each of those on every workload, so the six that exist on one family
/// only are listed under `per_layer` there (see [`per_layer`]) and keep
/// their bounds here, for the suite.
pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd { floor: 0.02, ..e2e("setup_s", "s", "lower", 0.25, "host", Family::All) },
    e2e("run_s", "s", "lower", 0.25, "host", Family::All),
    e2e("deliveries_per_sec", "1/s", "higher", 0.25, "host", Family::All),
    e2e("cpu_s", "s", "lower", 0.25, "host", Family::All),
    e2e("peak_rss_mb", "MiB", "lower", 0.1, "host", Family::All),
    e2e("delivered_share", "share", "higher", 0.003, "outcome", Family::All),
    e2e("delivery_latency_p50_ms", "ms", "lower", 0.1, "host", Family::Udp),
    e2e("delivery_latency_p99_ms", "ms", "lower", 0.15, "host", Family::Udp),
    e2e("recovery_latency_p50_ms", "ms", "lower", 0.1, "host", Family::Udp),
    e2e("recovery_latency_p90_ms", "ms", "lower", 0.15, "host", Family::Udp),
    e2e("sim_recovery_latency_mean_ms", "ms", "lower", 0.01, "simulated", Family::Sim),
    e2e("sim_buffer_byte_seconds_per_msg", "B.s", "lower", 0.01, "simulated", Family::Sim),
];

/// `(name, unit, better)` of every layer's own metrics, `<layer>.<metric>`
/// with layers named after the modules they measure.
const LAYER_METRICS: &[(&str, &str, &str)] = &[
    ("netsim.event.schedule_ns", "ns", "lower"),
    ("netsim.event.pop_ns", "ns", "lower"),
    ("netsim.event.schedule_past_ns", "ns", "lower"),
    ("netsim.event.ops", "count", "lower"),
    ("netsim.event.share", "share", "lower"),
    ("netsim.sim.events", "count", "lower"),
    ("netsim.sim.events_per_sec", "1/s", "higher"),
    ("netsim.sim.null_node_ns_per_event", "ns", "lower"),
    ("netsim.sim.unicasts_sent", "count", "lower"),
    ("netsim.sim.unicasts_dropped", "count", "lower"),
    ("netsim.sim.fanouts", "count", "lower"),
    ("netsim.sim.batched_deliveries", "count", "higher"),
    ("netsim.sim.timers_set", "count", "lower"),
    ("netsim.sim.timers_fired", "count", "lower"),
    ("netsim.sim.share", "share", "lower"),
    ("netsim.shard.null_node_ns_per_event", "ns", "lower"),
    ("netsim.shard.speedup_vs_1", "ratio", "higher"),
    ("netsim.shard.cpu_util", "share", "higher"),
    ("netsim.shard.share", "share", "lower"),
    ("netsim.loss.plan_ns_per_member", "ns", "lower"),
    ("netsim.fault.drops_ns", "ns", "lower"),
    ("netsim.fault.faults_dropped", "count", "lower"),
    ("netsim.fault.faults_duplicated", "count", "lower"),
    ("netsim.topology.build_ns_per_member", "ns", "lower"),
    ("core.harness.build_ns_per_member", "ns", "lower"),
    ("core.harness.multicast_ns", "ns", "lower"),
    ("core.harness.reset_ns", "ns", "lower"),
    ("membership.view.from_topology_ns", "ns", "lower"),
    ("core.receiver.handle_data_ns", "ns", "lower"),
    ("core.receiver.handle_request_ns", "ns", "lower"),
    ("core.receiver.handle_repair_ns", "ns", "lower"),
    ("core.receiver.handle_session_ns", "ns", "lower"),
    ("core.receiver.handle_timer_ns", "ns", "lower"),
    ("core.receiver.calls", "count", "lower"),
    ("core.receiver.duplicates", "count", "lower"),
    ("core.receiver.recovery_gave_up", "count", "lower"),
    ("core.receiver.bytes_per_member", "B", "lower"),
    ("core.receiver.share", "share", "lower"),
    ("core.buffer.insert_short_ns", "ns", "lower"),
    ("core.buffer.promote_ns", "ns", "lower"),
    ("core.buffer.discard_ns", "ns", "lower"),
    ("core.buffer.get_ns", "ns", "lower"),
    ("core.buffer.expire_sweep_ns_per_entry", "ns", "lower"),
    ("core.buffer.idle_transitions", "count", "lower"),
    ("core.buffer.long_term_kept", "count", "lower"),
    ("core.buffer.pressure_discards", "count", "lower"),
    ("core.buffer.evicted_for_capacity", "count", "lower"),
    ("core.buffer.peak_entries_max", "count", "lower"),
    ("core.buffer.share", "share", "lower"),
    ("core.policy.two-phase.run_s", "s", "lower"),
    ("core.policy.hash.run_s", "s", "lower"),
    ("core.policy.sender-based.run_s", "s", "lower"),
    ("core.policy.stability.run_s", "s", "lower"),
    ("core.policy.tree-rmtp.run_s", "s", "lower"),
    ("core.policy.requests_shed", "count", "lower"),
    ("core.policy.watchdog_rearms", "count", "lower"),
    ("core.policy.admission_declined", "count", "lower"),
    ("core.packet.encode_data_1k_ns", "ns", "lower"),
    ("core.packet.decode_data_1k_ns", "ns", "lower"),
    ("core.packet.encode_ctrl_ns", "ns", "lower"),
    ("core.packet.decode_ctrl_ns", "ns", "lower"),
    ("core.packet.share", "share", "lower"),
    ("core.interval_set.insert_ns", "ns", "lower"),
    ("core.interval_set.contains_ns", "ns", "lower"),
    ("core.history.digest_build_ns", "ns", "lower"),
    ("core.history.tracker_record_ns", "ns", "lower"),
    ("core.history.digests_sent", "count", "lower"),
    ("core.history.share", "share", "lower"),
    ("trace.sink.record_ns", "ns", "lower"),
    ("trace.sink.armed_ratio", "ratio", "lower"),
    ("trace.sink.events_dropped", "count", "lower"),
    ("trace.hist.record_ns", "ns", "lower"),
    ("udp.runtime.add_member_ns", "ns", "lower"),
    ("udp.runtime.multicast_call_ns", "ns", "lower"),
    ("udp.runtime.drain_ns_per_delivery", "ns", "lower"),
    ("udp.runtime.poll_wakeups", "count", "lower"),
    ("udp.runtime.idle_ticks", "count", "lower"),
    ("udp.runtime.deliveries_per_wakeup", "ratio", "higher"),
    ("udp.runtime.send_drops", "count", "lower"),
    ("udp.runtime.cpu_util", "share", "lower"),
    ("udp.runtime.share", "share", "lower"),
    ("udp.batch.poll_wait_ns_at_n_fds", "ns", "lower"),
    ("udp.batch.recv_batch_ns_per_datagram", "ns", "lower"),
    ("udp.batch.send_to_many_ns_per_datagram", "ns", "lower"),
    ("udp.batch.share", "share", "lower"),
    ("udp.pool.acquire_ns", "ns", "lower"),
    ("udp.pool.release_ns", "ns", "lower"),
    ("udp.pool.hit_rate", "share", "higher"),
    ("udp.pool.steady_miss_rate", "share", "lower"),
    ("udp.pool.forfeited", "count", "lower"),
    ("udp.pool.high_water_mb", "MiB", "lower"),
    ("udp.pool.datagrams_received", "count", "lower"),
    ("udp.pool.share", "share", "lower"),
    ("udp.group.view_for_ns", "ns", "lower"),
    ("bench.pass_spread", "ratio", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.unattributed_share", "share", "lower"),
];

/// What a `--trace 1` run reports, in order: the layers' own metrics,
/// then the one-family end-to-end metrics (0 where they do not apply),
/// taken from that run's untraced pass.
pub fn per_layer() -> impl Iterator<Item = (&'static str, &'static str, &'static str)> {
    let one_family = END_TO_END.iter().filter(|m| m.family != Family::All);
    LAYER_METRICS.iter().copied().chain(one_family.map(|m| (m.name, m.unit, m.better)))
}

/// `BENCHMARK.json`'s `end_to_end`: the metrics every workload measures.
pub fn on_every_workload() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END.iter().filter(|m| m.family == Family::All)
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

fn name_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks the in-code lists against the contract's limits, and
/// `BENCHMARK.json` against the in-code lists.
pub fn validate(benchmark_json: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let mut names: Vec<&str> = Vec::new();
    names.extend(WORKLOADS.iter().map(|w| w.name));
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(LAYER_METRICS.iter().map(|m| m.0));
    for (i, n) in names.iter().enumerate() {
        if !name_ok(n) {
            errs.push(format!("bad name {n:?}"));
        }
        if names[..i].contains(n) {
            errs.push(format!("name {n:?} used twice"));
        }
    }
    if !(2..=8).contains(&WORKLOADS.len()) {
        errs.push("need 2 to 8 workloads".into());
    }
    if !(1..=16).contains(&END_TO_END.len()) || !(1..=128).contains(&per_layer().count()) {
        errs.push("need 1 to 16 end-to-end and 1 to 128 per-layer metrics".into());
    }
    for w in &WORKLOADS {
        if w.why.len() > 200 || w.why.contains('\n') {
            errs.push(format!("why of {} is not one line of at most 200 characters", w.name));
        }
    }
    for m in &END_TO_END {
        if !unit_ok(m.unit) || !matches!(m.better, "lower" | "higher") {
            errs.push(format!("{}: bad unit or direction", m.name));
        }
        if !(m.bound > 0.0 && m.bound <= 0.25) {
            errs.push(format!("{}: bound {} outside (0, 0.25]", m.name, m.bound));
        }
    }
    for (name, unit, better) in per_layer() {
        if !unit_ok(unit) || !matches!(better, "lower" | "higher") {
            errs.push(format!("{name}: bad unit or direction"));
        }
    }

    let doc = match Value::parse(benchmark_json) {
        Ok(v) => v,
        Err(e) => {
            errs.push(format!("BENCHMARK.json does not parse: {e}"));
            return errs;
        }
    };
    let list = |key: &str| -> Vec<Value> {
        match doc.get(key) {
            Some(Value::Arr(items)) => items.clone(),
            _ => Vec::new(),
        }
    };
    let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap_or("").to_string();
    if doc.get("run_seconds").and_then(Value::as_u64) != Some(RUN_SECONDS) {
        errs.push(format!("run_seconds must be {RUN_SECONDS}"));
    }
    let got: Vec<(String, String)> =
        list("workloads").iter().map(|w| (text(w, "name"), text(w, "why"))).collect();
    let want: Vec<(String, String)> =
        WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
    if got != want {
        errs.push("workloads differ from perf/src/spec.rs".into());
    }
    let got: Vec<(String, String, String, f64)> = list("end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(f64::NAN);
            (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
        })
        .collect();
    let want: Vec<(String, String, String, f64)> = on_every_workload()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string(), m.bound))
        .collect();
    if got != want {
        errs.push("end_to_end differs from perf/src/spec.rs".into());
    }
    let got: Vec<(String, String, String)> = list("per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let want: Vec<(String, String, String)> =
        per_layer().map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string())).collect();
    if got != want {
        errs.push("per_layer differs from perf/src/spec.rs".into());
    }
    if list("paths").iter().map(|p| p.as_str().unwrap_or("").to_string()).collect::<Vec<_>>()
        != ["perf"]
    {
        errs.push("paths must be [\"perf\"]".into());
    }
    errs
}

/// `BENCHMARK.json` as the lists above define it.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"perf/run.sh\"],\n");
    out.push_str("  \"paths\": [\"perf\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n", w.name, w.why));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = on_every_workload()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push('\n');
    out.push_str("  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .map(|m| {
            format!("    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}", m.0, m.1, m.2)
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push('\n');
    out.push_str("  ]\n}\n");
    out
}
