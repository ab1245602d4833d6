#!/usr/bin/env bash
# Gate that receive slabs are reused: on a traced `udp_repair_64b` run no
# slab may be released while something still points into it
# (`udp.pool.forfeited` 0), and after warmup nearly every receive must
# come off a freelist (`udp.pool.steady_miss_rate` at most 0.05). A
# decoded payload that shares its receive slab pins the slab for as long
# as the message is buffered; it reads tens of thousands of forfeited
# slabs and a steady miss rate near 0.85 here.
set -euo pipefail
cd "$(dirname "$0")/.."

perf/run.sh --workload udp_repair_64b --seed 2002 --trace 1 --seconds 1 | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
if result["correct"] is not True:
    sys.exit("run reported correct: " + json.dumps(result["correct"]))
metrics = result["metrics"]
forfeited = metrics["udp.pool.forfeited"]["value"]
miss = metrics["udp.pool.steady_miss_rate"]["value"]
print(f"udp.pool.forfeited {forfeited:g} (ceiling 0), udp.pool.steady_miss_rate {miss:.3f} (ceiling 0.05)")
sys.exit(0 if forfeited == 0 and miss <= 0.05 else 1)'
