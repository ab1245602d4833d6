//! The one command: every workload in its own child process, repeated,
//! with the output checks, the noise self-report and the results file.

use std::process::{Command, ExitCode};

use rrmp_trace::{JsonArr, JsonObj, Value};

use crate::measure::quartiles_exclusive;
use crate::{spec, Options};

/// What one child run printed.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    /// The `#exact` line: counts that must repeat per seed on `sim_*`.
    exact: String,
    stdout: String,
}

fn run_child(workload: &str, o: &Options, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &o.seed.to_string()]).args([
        "--seconds",
        &o.seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if o.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "exit {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    let doc = Value::parse(last).map_err(|e| format!("result line: {e}"))?;
    let mut metrics: Vec<(String, f64)> = match doc.get("metrics") {
        Some(Value::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| (k.clone(), v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN)))
            .collect(),
        _ => return Err("result line has no metrics".into()),
    };
    // The end-to-end metrics only this workload's family has.
    if let Some(line) = stdout.lines().find_map(|l| l.strip_prefix("#family ")) {
        match Value::parse(line).map_err(|e| format!("#family line: {e}"))? {
            Value::Obj(fields) => metrics
                .extend(fields.iter().map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))),
            _ => return Err("#family line is not an object".into()),
        }
    }
    Ok(ChildRun {
        correct: doc.get("correct") == Some(&Value::Bool(true)),
        attempted: doc.get("attempted").and_then(Value::as_u64).unwrap_or(0),
        failed: doc.get("failed").and_then(Value::as_u64).unwrap_or(0),
        metrics,
        exact: stdout.lines().find(|l| l.starts_with("#exact")).unwrap_or("").to_string(),
        stdout,
    })
}

pub fn run(o: &Options) -> ExitCode {
    let reps = spec::RUNS_PER_WORKLOAD;
    let mut failures: Vec<String> = Vec::new();
    let mut results = JsonArr::new();
    println!(
        "rrmp-perf: seed {} ({} runs per workload{}); UDP workloads use the loopback interface only",
        o.seed,
        reps,
        if o.quick { ", --quick sizes" } else { "" }
    );

    for w in spec::WORKLOADS.iter().filter(|w| o.workload.as_deref().is_none_or(|n| n == w.name)) {
        println!("\n== {} ==\n   {}", w.name, w.why);
        let mut runs = Vec::new();
        for rep in 0..reps {
            match run_child(w.name, o, false) {
                Ok(r) => runs.push(r),
                Err(e) => failures.push(format!("{} run {rep}: {e}", w.name)),
            }
        }
        if runs.len() < 2 {
            continue;
        }
        for (rep, r) in runs.iter().enumerate() {
            if !r.correct {
                failures.push(format!("{} run {rep}: an output check failed", w.name));
            }
        }
        if w.name.starts_with("sim_") && runs.iter().any(|r| r.exact != runs[0].exact) {
            failures.push(format!(
                "{}: events, deliveries or sim_* sums differ between runs of seed {}",
                w.name, o.seed
            ));
        }
        let (attempted, failed) = (runs[0].attempted, runs.iter().map(|r| r.failed).max().unwrap());
        println!("   attempted {attempted} pairs, at most {failed} undelivered; {}", runs[0].exact);
        println!(
            "   {:<34} {:>14} {:>14} {:>14}  n  spread  bound",
            "metric [clock]", "median", "q1", "q3"
        );

        let mut obj = JsonObj::new();
        obj.str("workload", w.name);
        obj.u64("seed", o.seed);
        obj.u64("attempted", attempted);
        obj.u64("failed", failed);
        let mut rows = JsonArr::new();
        for m in spec::END_TO_END.iter().filter(|m| m.applies_to(w.name)) {
            let mut values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(k, _)| k == m.name).map(|(_, v)| *v))
                .collect();
            let [q1, median, q3] = quartiles_exclusive(&mut values);
            let spread = (q3 - q1) / median;
            let resolved = spread <= m.bound || q3 - q1 <= m.floor;
            let label = format!("{} [{}]", m.name, m.clock);
            let shown = if resolved { format!("{median:.4}") } else { "unresolved".to_string() };
            println!(
                "   {label:<34} {shown:>14} {q1:>14.4} {q3:>14.4} {:>2} {spread:>7.4} {:>6} {}",
                values.len(),
                m.bound,
                m.unit
            );
            let mut row = JsonObj::new();
            row.str("name", m.name);
            row.str("unit", m.unit);
            row.str("clock", m.clock);
            if resolved {
                row.raw("median", &median.to_string());
            } else {
                row.str("median", "unresolved");
            }
            row.raw("q1", &q1.to_string());
            row.raw("q3", &q3.to_string());
            row.u64("samples", values.len() as u64);
            row.raw("spread", &spread.to_string());
            row.raw("bound", &m.bound.to_string());
            rows.raw(&row.finish());
        }
        obj.raw("end_to_end", &rows.finish());

        if o.traced {
            match run_child(w.name, o, true) {
                Ok(t) => {
                    for line in t.stdout.lines().filter(|l| !l.starts_with(['#', '{'])) {
                        println!("   {line}");
                    }
                    let mut layers = JsonObj::new();
                    for (k, v) in &t.metrics {
                        layers.raw(k, &v.to_string());
                    }
                    obj.raw("per_layer", &layers.finish());
                }
                Err(e) => failures.push(format!("{} traced run: {e}", w.name)),
            }
        }
        results.raw(&obj.finish());
    }

    let mut doc = JsonObj::new();
    doc.u64("seed", o.seed);
    doc.u64("default_seed", spec::DEFAULT_SEED);
    doc.u64("held_out_seed", spec::HELD_OUT_SEED);
    doc.raw("claim", "null");
    doc.bool("quick", o.quick);
    doc.u64("runs_per_workload", reps as u64);
    doc.raw("workloads", &results.finish());
    let path = std::path::Path::new("perf/out/results.json");
    match std::fs::create_dir_all("perf/out").and_then(|()| std::fs::write(path, doc.finish())) {
        Ok(()) => println!("\nresults written to {}", path.display()),
        Err(e) => failures.push(format!("cannot write {}: {e}", path.display())),
    }

    if failures.is_empty() {
        println!("all output checks passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}
