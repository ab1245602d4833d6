//! Runs the directed partition→heal chaos scenario with the observer
//! armed and exports the three observability artifacts:
//!
//! * `<base>.trace.jsonl` — the merged structured event trace (one JSON
//!   object per line, canonical order — byte-identical across shard
//!   counts);
//! * `<base>.report.json` — the machine-readable [`RunReport`];
//! * `<base>.hist.json` — the recovery-latency / repair-RTT /
//!   inter-arrival histograms with p50/p90/p99/max.
//!
//! The scenario: a three-region tree where region 1 is cut off from both
//! neighbors past its retry caps, then heals — so the trace carries loss
//! detections, exhausted recovery, give-ups, heal re-arms, and real
//! recovery latencies.
//!
//! Usage: `trace_dump [--shards N] [--out BASE]`
//!
//! `--shards N` runs the sharded engine (default 1, the sequential
//! oracle); the exported trace must not depend on it. `--out` sets the
//! artifact base path (default `trace_dump`); the `RRMP_TRACE`
//! environment variable overrides the trace path itself, with the other
//! artifacts placed alongside.
//!
//! [`RunReport`]: rrmp::core::harness::RunReport

use std::path::PathBuf;

use rrmp::core::harness::trace_path_from_env;
use rrmp::prelude::*;

/// Ring large enough that this scenario never evicts (the run is a few
/// hundred events per node); eviction would silently truncate the export.
const RING: usize = 65_536;

fn main() {
    let (shards, base) = parse_args();
    let trace_path = trace_path_from_env()
        .unwrap_or_else(|| PathBuf::from(format!("{}.trace.jsonl", base.display())));
    let report_path = sibling(&trace_path, &base, "report.json");
    let hist_path = sibling(&trace_path, &base, "hist.json");

    // The partition→heal scenario from the chaos suite: region 1 (nodes
    // 4..8) is cut off from regions 0 and 2 for 100ms..700ms — long past
    // the retry caps — then heals. KeepAll guarantees the other regions
    // still buffer the message at heal time.
    let topo = presets::region_tree(4, 2, 1, SimDuration::from_millis(15));
    let region1: Vec<NodeId> = (4..8).map(NodeId).collect();
    let heal = SimTime::from_millis(700);
    let plan = FaultPlan::new(9)
        .partition(RegionId(0), RegionId(1), SimTime::from_millis(100), heal)
        .partition(RegionId(1), RegionId(2), SimTime::from_millis(100), heal);
    let cfg = ProtocolConfig {
        policy: PolicyKind::KeepAll,
        max_local_attempts: 6,
        max_remote_attempts: 6,
        max_search_attempts: 6,
        ..ProtocolConfig::default()
    };
    // Always the sharded engine (a one-shard run is the sequential
    // oracle): its canonical cross-region merge makes the export
    // byte-identical for every `--shards` value.
    let mut net = RrmpNetwork::with_shards(topo, cfg, 9, shards);
    net.arm_fault_plan(plan);
    net.arm_observer(TraceConfig {
        ring_capacity: RING,
        sample_every: Some(SimDuration::from_millis(50)),
    });

    // Message `a` misses all of region 1 mid-partition; message `b`
    // (delivered everywhere) reveals the gap and starts recovery the
    // cut-off members cannot complete until the heal.
    let plan_a = DeliveryPlan::all_but(net.topology(), region1.iter().copied());
    net.run_until(SimTime::from_millis(120));
    let mut sent = vec![net.now()];
    let mut ids = vec![net.multicast_with_plan("during-partition-a", &plan_a)];
    let plan_b = DeliveryPlan::all(net.topology());
    net.run_until(SimTime::from_millis(150));
    sent.push(net.now());
    ids.push(net.multicast_with_plan("during-partition-b", &plan_b));
    net.run_until(SimTime::from_secs(4));

    let report = net.run_report("two-phase", &ids, &sent);
    let trace = net.trace_jsonl();
    let hists = net.histograms_json();
    assert_eq!(net.trace_events_dropped(), 0, "ring evicted events; raise RING");

    std::fs::write(&trace_path, &trace).expect("write trace");
    std::fs::write(&report_path, report.to_json()).expect("write report");
    std::fs::write(&hist_path, &hists).expect("write histograms");

    println!(
        "scenario partition-heal: shards={} members={} delivered={}/{}",
        shards, report.members, report.fully_delivered_members, report.members,
    );
    println!("  {} trace events -> {}", trace.lines().count(), trace_path.display());
    println!("  report -> {}", report_path.display());
    println!("  histograms -> {}", hist_path.display());
}

/// `<base>.<suffix>` next to the trace file (same directory).
fn sibling(trace_path: &std::path::Path, base: &std::path::Path, suffix: &str) -> PathBuf {
    let stem =
        base.file_name().map_or_else(|| "trace_dump".into(), |s| s.to_string_lossy().into_owned());
    trace_path
        .parent()
        .unwrap_or_else(|| std::path::Path::new("."))
        .join(format!("{stem}.{suffix}"))
}

fn parse_args() -> (usize, PathBuf) {
    let mut shards = 1usize;
    let mut base = PathBuf::from("trace_dump");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" => {
                let v = args.next().expect("--shards needs a value");
                shards = v.parse().expect("--shards must be a positive integer");
                assert!(shards >= 1, "--shards must be a positive integer");
            }
            "--out" => {
                base = PathBuf::from(args.next().expect("--out needs a value"));
            }
            other => {
                panic!("unknown argument {other:?} (usage: trace_dump [--shards N] [--out BASE])")
            }
        }
    }
    (shards, base)
}
