#!/usr/bin/env bash
# The benchmark's one command. Builds the `perf` package in release mode
# (offline: every dependency is a path in this repository) and runs it.
#
#   perf/run.sh [--seed N] [--traced] [--quick] [--only WORKLOAD]
#       every workload, each run in its own child process, with output
#       checks, median/quartiles per metric, results in perf/out/
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result object
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-perf/target}"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml --target-dir "$target"
exec "$target/release/rrmp-perf" "$@"
