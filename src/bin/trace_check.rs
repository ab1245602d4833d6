//! Schema checker for `trace_dump` artifacts — the gate the CI `trace`
//! job runs on every exported trace.
//!
//! Validates:
//!
//! * every trace line is a well-formed JSON object carrying the required
//!   `at`/`node`/`stream`/`emit`/`kind` fields with a known event kind;
//! * lines appear in strictly increasing canonical order
//!   (`(at, node, stream, emit)`) — the determinism contract a sharded
//!   export must honour;
//! * the histogram export has a non-empty recovery-latency histogram
//!   with its quantile fields present (the scenario *must* exercise
//!   recovery, or the trace job is testing nothing).
//!
//! Usage: `trace_check <base.trace.jsonl> <base.hist.json>`
//!
//! Exits nonzero with a description of the first violation.

use std::process::ExitCode;

use rrmp::trace::{EventKind, Value};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(trace_path), Some(hist_path)) = (args.next(), args.next()) else {
        eprintln!("usage: trace_check <base.trace.jsonl> <base.hist.json>");
        return ExitCode::FAILURE;
    };
    match check_trace(&trace_path).and_then(|events| check_hist(&hist_path).map(|()| events)) {
        Ok(events) => {
            println!("trace_check: {events} events ok, histograms ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace_check: {e}");
            ExitCode::FAILURE
        }
    }
}

fn check_trace(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let names = EventKind::all_names();
    let mut prev: Option<(u64, u64, u64, u64)> = None;
    let mut count = 0usize;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        let v = Value::parse(line).map_err(|e| format!("{path}:{n}: {e}"))?;
        let mut key = [0u64; 4];
        for (slot, field) in key.iter_mut().zip(["at", "node", "stream", "emit"]) {
            *slot = v
                .get(field)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{path}:{n}: missing or non-integer {field:?}"))?;
        }
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{n}: missing \"kind\""))?;
        if !names.contains(&kind) {
            return Err(format!("{path}:{n}: unknown event kind {kind:?}"));
        }
        let key = (key[0], key[1], key[2], key[3]);
        if let Some(p) = prev {
            if key <= p {
                return Err(format!("{path}:{n}: canonical order violated: {key:?} after {p:?}"));
            }
        }
        prev = Some(key);
        count += 1;
    }
    if count == 0 {
        return Err(format!("{path}: empty trace"));
    }
    Ok(count)
}

fn check_hist(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    for key in ["recovery_latency_micros", "repair_rtt_micros", "inter_arrival_micros"] {
        let h = v.get(key).ok_or_else(|| format!("{path}: missing {key:?}"))?;
        for field in ["count", "sum", "mean", "p50", "p90", "p99", "max"] {
            if h.get(field).and_then(Value::as_f64).is_none() {
                return Err(format!("{path}: {key}.{field} missing or non-numeric"));
            }
        }
    }
    let recovered = v
        .get("recovery_latency_micros")
        .and_then(|h| h.get("count"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    if recovered == 0 {
        return Err(format!(
            "{path}: recovery-latency histogram is empty — the scenario exercised no recovery"
        ));
    }
    Ok(())
}
