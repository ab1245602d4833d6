#!/usr/bin/env bash
# Gate for changes to the benchmark itself: formatting, lints and unit
# tests of the `perf` package, BENCHMARK.json against perf/src/spec.rs and
# the contract's limits, and one --quick pass of every workload.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-perf/target}"
manifest=(--manifest-path perf/Cargo.toml)
cargo fmt "${manifest[@]}" -- --check
cargo clippy --offline "${manifest[@]}" --target-dir "$target" --all-targets -- -D warnings
cargo test --offline --release --quiet "${manifest[@]}" --target-dir "$target"
perf/run.sh validate BENCHMARK.json
perf/run.sh --quick --traced
