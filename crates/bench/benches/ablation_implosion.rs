//! A7: message implosion — the paper's §1 motivation for distributed
//! error recovery. With sender-based recovery, every NACK and every
//! repair concentrates on one node; RRMP spreads recovery across the
//! group. We sweep the number of simultaneous missers and report the
//! busiest node's packet load under both schemes.

use rrmp_bench::ablations::implosion_point;
use rrmp_core::prelude::PolicyKind;

fn main() {
    let n = 100;
    let seeds = 10;
    println!("# A7 — message implosion: sender-based recovery vs RRMP (n = {n}, {seeds} seeds)");
    println!(
        "{:>9} {:>22} {:>22} {:>12}",
        "#missers", "sender-based hotspot", "rrmp busiest node", "ratio"
    );
    for &missers in &[10usize, 25, 50, 75, 99] {
        let mut hotspot = 0.0f64;
        let mut rrmp_max = 0.0f64;
        for s in 0..seeds {
            // Sender-based: all recovery traffic lands on node 0.
            hotspot += implosion_point(PolicyKind::SenderBased, n, missers, s) as f64;
            rrmp_max += implosion_point(PolicyKind::TwoPhase, n, missers, s) as f64;
        }
        hotspot /= seeds as f64;
        rrmp_max /= seeds as f64;
        println!(
            "{:>9} {:>22.1} {:>22.1} {:>12.1}",
            missers,
            hotspot,
            rrmp_max,
            hotspot / rrmp_max.max(1.0)
        );
    }
    println!("# Expect: the sender-based hotspot grows with the misser count; RRMP's busiest");
    println!("# node stays near the per-member average (the load-spreading claim of §6).");
}
