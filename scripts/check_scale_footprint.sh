#!/usr/bin/env bash
# Gate on the 100,000-member footprint: a `sim_scale_100k` run must be
# `correct` and peak at no more than 180 MiB resident (about 10 % over
# the ≈164 MiB it reads). It fails when a cross-region fan-out goes back
# to one mailbox entry and one wheel event per member instead of one per
# destination region and arrival (≈212 MiB). The event slab's growth
# by a quarter saves ≈7 MiB more, which this ceiling does not hold.
set -euo pipefail
cd "$(dirname "$0")/.."

perf/run.sh --workload sim_scale_100k --seed 2002 --trace 0 --seconds 8 | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
if result["correct"] is not True:
    sys.exit("run reported correct: " + json.dumps(result["correct"]))
rss = result["metrics"]["peak_rss_mb"]["value"]
print(f"sim_scale_100k peak_rss_mb {rss:.1f} (ceiling 180)")
sys.exit(0 if rss <= 180 else 1)'
