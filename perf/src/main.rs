//! `rrmp-perf`: the repository's benchmark.
//!
//! ```text
//! rrmp-perf --workload W --seed N --seconds S --trace 0|1   one run, in this process
//! rrmp-perf [--seed N] [--traced] [--quick] [--only W]    every workload, one child per run
//! rrmp-perf validate BENCHMARK.json | spec                  check / print the contract file
//! ```
//!
//! `perf/run.sh` builds this binary and passes its arguments through.

mod measure;
mod probes;
mod run;
mod sim;
mod spec;
mod suite;
mod udp;

use std::process::ExitCode;

/// How much of a workload's nominal size a run carries.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Share of the nominal message count (`--seconds / RUN_SECONDS`).
    pub scale: f64,
    /// `--quick`: `sim_scale_100k` shrinks to 10,000 members.
    pub quick: bool,
}

impl Size {
    pub fn messages(self, nominal: usize) -> usize {
        ((nominal as f64 * self.scale).round() as usize).max(1)
    }

    /// The discarded warm-up pass of a simulator workload.
    pub fn warmup(self) -> Size {
        Size { scale: self.scale / 10.0, quick: true }
    }
}

/// Command-line options of both modes.
#[derive(Debug)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" | "--only" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => o.traced = value()? == "1",
            "--traced" => o.traced = true,
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &o.workload {
        if !spec::is_workload(w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    if !(o.seconds > 0.0 && o.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(o)
}

/// One run in this process; the last line printed is the result object.
fn child(o: &Options) -> ExitCode {
    let workload = o.workload.as_deref().expect("child mode has a workload");
    let scale = if o.quick { 0.05 } else { o.seconds / spec::RUN_SECONDS as f64 };
    let size = Size { scale, quick: o.quick };
    println!(
        "# {workload} seed={} seconds={} traced={} cores={}",
        o.seed,
        o.seconds,
        o.traced,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    if workload.starts_with("udp_") {
        println!("# all traffic crosses the host's loopback interface only, never a real link");
    }
    if measure::batch_scheduling() {
        println!("# scheduling policy: SCHED_BATCH");
    } else {
        println!("# scheduling policy: default (SCHED_BATCH refused); wall times may be bimodal");
    }

    let mut report = run::run(workload, size, o.seed, o.traced);
    if let Some(why) = &report.measured.failure {
        eprintln!("{workload}: check failed: {why}");
    }
    let values = report.measured.end_to_end();
    if values.iter().flatten().any(|v| !v.is_finite()) {
        eprintln!("{workload}: no result: a metric is not finite: {values:?}");
        return ExitCode::FAILURE;
    }

    let mut metrics = Vec::new();
    if let Some(layers) = &report.per_layer {
        println!("per-layer metrics (probe ns/op x counted ops / run_s gives each share):");
        for (m, v) in spec::per_layer().zip(layers) {
            println!("  {:<44} {:>16.4} {}", m.0, v, m.1);
            metrics.push((m.0, *v, m.1));
        }
        println!("spans (count, total ms, self ms):");
        for (name, count, total, own) in &report.span_table {
            let (total, own) = (*total as f64 / 1e6, *own as f64 / 1e6);
            println!("  {name:<28} {count:>8} {total:>12.3} {own:>12.3}");
        }
        if let Some(jsonl) = &report.spans_jsonl {
            let dir = std::path::Path::new("perf/out");
            let path = dir.join(format!("spans-{workload}-seed{}.jsonl", o.seed));
            match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, jsonl)) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => eprintln!("cannot write {}: {e}", path.display()),
            }
        }
    } else if o.traced {
        // A failed check in the traced run leaves no per-layer numbers.
        return ExitCode::FAILURE;
    } else {
        // The result line carries the metrics every workload measures;
        // the suite reads this family's own from the `#family` line.
        println!("end-to-end metrics (tracing off):");
        let mut family = Vec::new();
        for (m, v) in spec::END_TO_END.iter().zip(&values) {
            let Some(v) = *v else { continue };
            println!("  {:<34} {:>18.6} {:<6} [{}]", m.name, v, m.unit, m.clock);
            if m.family == spec::Family::All {
                metrics.push((m.name, v, m.unit));
            } else {
                family.push(format!("\"{}\":{v}", m.name));
            }
        }
        println!("#family {{{}}}", family.join(","));
    }

    let counts: Vec<String> =
        report.measured.exact_counts().iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!("#exact {{{}}}", counts.join(","));
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    let m = &report.measured;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.failure.is_none(),
        m.attempted,
        m.attempted - m.delivered,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        Some("validate") => {
            let path = args.get(1).map_or("BENCHMARK.json", String::as_str);
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let errs = spec::validate(&text);
            for e in &errs {
                eprintln!("{path}: {e}");
            }
            if errs.is_empty() {
                println!("{path}: matches perf/src/spec.rs and the contract's limits");
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => match parse(&args) {
            Err(e) => {
                eprintln!("rrmp-perf: {e}");
                ExitCode::from(2)
            }
            // `--workload` is the one-run form; `--only` filters the suite.
            Ok(o) if args.iter().any(|a| a == "--workload") => child(&o),
            Ok(o) => suite::run(&o),
        },
    }
}
