//! Host-side measurement: process CPU time and peak RSS from `/proc`,
//! order statistics, and the in-memory span recorder of the traced run.

use std::time::Instant;

use rrmp_netsim::stats::percentile;

/// User + system CPU seconds the whole process (every thread, exited
/// ones included) has consumed so far, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    // Kernel clock ticks are 100 Hz on every Linux ABI this repo targets.
    const TICKS_PER_SEC: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')').expect("stat has a command field").1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).expect("utime field");
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).expect("stime field");
    (utime + stime) / TICKS_PER_SEC
}

/// Moves this process to `SCHED_BATCH`, the kernel's policy for
/// CPU-bound non-interactive work; threads spawned later inherit it.
/// Needs no privilege. Returns whether the kernel accepted it.
///
/// Every run asks for it. The sharded engine has a coordinator thread
/// wake two workers for every window; under the default policy a woken
/// thread may preempt a running one, and on this two-core box that puts
/// about one `sim_wan_sharded` process in three — the whole process, all
/// its passes — into a mode a third slower at the same CPU time. Under
/// `SCHED_BATCH` (no wake-up preemption) it does not happen: 7 slow
/// processes of 20 against 0 of 20, alternating, one seed. The other
/// workloads measure the same under either policy.
pub fn batch_scheduling() -> bool {
    const SCHED_BATCH: i32 = 3;
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }
    // `struct sched_param { int sched_priority; }`
    let priority = 0i32;
    // SAFETY: `param` points to a live, initialized `sched_param`-shaped
    // value for the duration of the call; pid 0 names the calling process.
    unsafe { sched_setscheduler(0, SCHED_BATCH, &priority) == 0 }
}

fn status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key} line in /proc/self/status"))
}

/// Peak resident set of the process (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Resident set of the process right now (VmRSS) in bytes.
pub fn current_rss_bytes() -> u64 {
    (status_kb("VmRSS:") * 1024.0) as u64
}

/// Sorts `values` and returns the quantiles `qs` of them (linear
/// interpolation; `NaN` for an empty sample).
pub fn quantiles_of<const N: usize>(values: &mut [f64], qs: [f64; N]) -> [f64; N] {
    values.sort_by(f64::total_cmp);
    qs.map(|q| percentile(values, q))
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantiles_of(values, [0.5])[0]
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method) — the rule the acceptance check applies.
pub fn quartiles_exclusive(values: &mut [f64]) -> [f64; 3] {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    assert!(n >= 2, "quartiles need two samples");
    [1usize, 2, 3].map(|i| {
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        values[j - 1] + (values[j] - values[j - 1]) * frac
    })
}

/// One recorded span: a call the benchmark made into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
}

/// In-memory span recorder. Off (the untraced run) every call is one
/// branch; on, a span costs two clock reads and a vector push, and
/// nothing is written until [`Spans::to_jsonl`] at the end of the run.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    rows: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans { on, epoch: Instant::now(), rows: Vec::new(), open: Vec::new() }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let parent = self.open.last().copied();
        self.open.push(self.rows.len());
        self.rows.push(Span { name, start_ns, end_ns: start_ns, parent });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("exit without enter");
        self.rows[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Total and self nanoseconds per span name, in first-seen order.
    /// Self time is a span's duration minus its direct children's.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.rows.len()];
        for s in &self.rows {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (i, s) in self.rows.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child_ns[i]);
            match out.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => out.push((s.name, 1, total, own)),
            }
        }
        out
    }

    /// One JSON object per span, in open order.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.rows.len() * 96);
        for (i, s) in self.rows.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{workload}\"}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&mut v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let mut v = vec![3.0, 1.0];
        assert_eq!(quartiles_exclusive(&mut v), [0.5, 2.0, 3.5]);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        s.enter("root");
        s.enter("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.exit();
        s.exit();
        let rows = s.self_times();
        let root = rows.iter().find(|r| r.0 == "root").unwrap();
        let child = rows.iter().find(|r| r.0 == "child").unwrap();
        assert_eq!(root.3, root.2 - child.2);
    }
}
