//! A1: two-phase buffering vs fixed-time, keep-all, hash-deterministic,
//! sender-based, stability-detection and tree/RMTP on an identical lossy
//! workload.

use rrmp_bench::ablations::{ablation_buffer_policies, PolicyWorkload};
use rrmp_core::harness::RunReport;

fn main() {
    let workload = PolicyWorkload::default();
    println!(
        "# A1 — buffer-policy comparison ({} msgs, {:.0}% loss, 3 regions of {:?})",
        workload.messages,
        workload.loss_p * 100.0,
        workload.region_sizes
    );
    println!("{}", table_header());
    for report in ablation_buffer_policies(&workload, 0xA1) {
        println!("{}", table_row(&report));
    }
    println!("# Expect: two-phase ≪ keep-all in byte·ms; tree concentrates peak(max);");
    println!("# stability pays standing history traffic (pkts) even where losses are few.");
}

/// The header matching [`table_row`].
fn table_header() -> String {
    format!(
        "{:<14} {:>9} {:>16} {:>10} {:>12} {:>12} {:>12} {:>9} {:>9} {:>8} {:>11} {:>7}",
        "scheme",
        "delivered",
        "byte·ms buffered",
        "peak(max)",
        "peak(mean)",
        "pkts",
        "lat(ms)",
        "residual",
        "gaveup/pe",
        "gaveups",
        "fault(d/x)",
        "rearms"
    )
}

/// One row of the comparison table.
fn table_row(r: &RunReport) -> String {
    format!(
        "{:<14} {:>9} {:>16} {:>10} {:>12.1} {:>12} {:>12} {:>9} {:>9} {:>8} {:>11} {:>7}",
        r.scheme,
        format!("{}/{}", r.fully_delivered_members, r.members),
        r.byte_time_total / 1000, // byte·ms
        r.peak_entries_max,
        r.peak_entries_mean,
        r.packets_sent,
        r.mean_recovery_latency_ms.map_or_else(|| "-".to_string(), |v| format!("{v:.1}")),
        r.residual_losses,
        // The split: gave up cleanly vs still pending at run end.
        format!("{}/{}", r.residual_gave_up, r.residual_pending),
        r.recovery_gave_up,
        // Fault-plan activity at the network edge: drops/duplicates.
        format!("{}/{}", r.faults_dropped, r.faults_duplicated),
        r.watchdog_rearms,
    )
}
