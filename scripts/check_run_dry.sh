#!/usr/bin/env bash
# Gate against the event queue's run-dry quadratic: host time per event on
# `sim_scale_100k` (idle members whose only outstanding work is a far-off
# sweep, then one burst) must stay within 20x that of `sim_lan_stream`
# (a busy queue). A cursor parked on the sweep makes every schedule a
# sorted insert and reads ~230x here; scheduling on the wheel reads ~5x.
# Both runs share the runner, so its speed cancels out of the ratio.
set -euo pipefail
cd "$(dirname "$0")/.."

per_event() { # prints run_s / events: the `#exact` line and the result object (the last line)
    perf/run.sh --workload "$1" --seed 2002 --trace 0 --seconds "$2" | python3 -c '
import json, sys
lines = sys.stdin.read().splitlines()
result = json.loads(lines[-1])
if result["correct"] is not True:
    sys.exit("run reported correct: " + json.dumps(result["correct"]))
exact = next(json.loads(l[len("#exact "):]) for l in lines if l.startswith("#exact "))
print(result["metrics"]["run_s"]["value"] / exact["events"])'
}

busy=$(per_event sim_lan_stream 1)
dry=$(per_event sim_scale_100k 8)
python3 - "$busy" "$dry" <<'PY'
import sys
busy, dry = map(float, sys.argv[1:])
ratio = dry / busy
print(f"host time per event: {busy * 1e6:.3f} us on sim_lan_stream, {dry * 1e6:.3f} us on sim_scale_100k, ratio {ratio:.1f} (ceiling 20)")
sys.exit(0 if ratio <= 20 else 1)
PY
