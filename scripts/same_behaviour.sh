#!/usr/bin/env bash
# Checks that the working tree behaves byte for byte like revision REV:
# the `trace_dump` exports at 1, 2 and 4 shards, every `rrmp-bench`
# figure and ablation printer, the `quickstart`, `wan_dissemination`
# and `live_feed_churn` examples, and the outcome of each `sim_*` perf
# workload at seeds 2002 and 90125 (its `#exact` line and `failed`
# count, from `perf/run.sh --workload W --seed S --trace 0` at the
# default run length). Every one of them is deterministic, so a change
# that claims to keep behaviour must leave each output identical.
#
#   scripts/same_behaviour.sh REV
#
# REV is unpacked from `git archive` into target/same_behaviour/tree
# (so `.git` is only read; files get the time of unpacking, so cargo
# never takes a build of another revision for this one's) and built with
# its own CARGO_TARGET_DIR (and `perf/` with its own, below that), which
# later runs reuse. The first output that differs is named, and the
# script exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."
rev=${1:?usage: scripts/same_behaviour.sh REV}
here=$PWD
base=$here/target/same_behaviour
rm -rf "$base/tree" "$base/rev" "$base/work"
mkdir -p "$base/tree"
git archive "$rev" | tar -x -m -C "$base/tree"

benches() { # the printer names of tree $1
    for f in "$1"/crates/bench/benches/*.rs; do basename "$f" .rs; done
}
if [[ "$(benches "$here")" != "$(benches "$base/tree")" ]]; then
    echo "differs: the list of rrmp-bench printers" >&2
    exit 1
fi

# run_all TREE TARGET OUT: writes every output of TREE into OUT.
run_all() {
    local tree=$1 target=$2 out=$3
    local cargo=(env CARGO_TARGET_DIR="$target" cargo)
    local manifest=(--offline --quiet --manifest-path "$tree/Cargo.toml")
    mkdir -p "$out"
    for shards in 1 2 4; do
        # Relative --out, so the paths trace_dump prints match across trees.
        (cd "$out" && "${cargo[@]}" run --release "${manifest[@]}" --bin trace_dump -- \
            --shards "$shards" --out "trace_dump_$shards" >"trace_dump_$shards.stdout")
    done
    for bench in $(benches "$tree"); do
        "${cargo[@]}" bench "${manifest[@]}" -p rrmp-bench --bench "$bench" >"$out/$bench.stdout"
    done
    for example in quickstart wan_dissemination live_feed_churn; do
        "${cargo[@]}" run --release "${manifest[@]}" --example "$example" >"$out/$example.stdout"
    done
    # Timings differ run to run; the outcome does not.
    for workload in sim_lan_stream sim_wan_sharded sim_scale_100k sim_policy_overload; do
        for seed in 2002 90125; do
            CARGO_TARGET_DIR="$target/perf" "$tree/perf/run.sh" \
                --workload "$workload" --seed "$seed" --trace 0 >"$out/perf.log"
            { grep '^#exact' "$out/perf.log"; tail -n 1 "$out/perf.log" | grep -o '"failed": [0-9]*'; } \
                >"$out/perf_${workload}_$seed.outcome"
        done
    done
    rm "$out/perf.log"
}

echo "running $rev" >&2
run_all "$base/tree" "$base/target" "$base/rev"
echo "running the working tree" >&2
run_all "$here" "${CARGO_TARGET_DIR:-$here/target}" "$base/work"

for f in "$base"/rev/*; do
    name=$(basename "$f")
    if ! cmp "$f" "$base/work/$name" >&2; then
        echo "differs: $name ($rev vs the working tree)" >&2
        exit 1
    fi
done
echo "same behaviour as $rev: $(find "$base/rev" -type f | wc -l) outputs identical" >&2
