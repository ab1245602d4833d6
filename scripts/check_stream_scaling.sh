#!/usr/bin/env bash
# Gate against per-message state that grows with the stream: the
# receivers of `sim_lan_stream` must deliver as fast at 12,000 messages
# (--seconds 8) as at 1,500 (--seconds 1). A table that is searched or
# shifted per message reads 0.8 or less here; O(1) bookkeeping reads ~1.
set -euo pipefail
cd "$(dirname "$0")/.."

rate() { # the result object is the last line of standard output
    perf/run.sh --workload sim_lan_stream --seed 2002 --trace 0 --seconds "$1" | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
if result["correct"] is not True:
    sys.exit("run reported correct: " + json.dumps(result["correct"]))
print(result["metrics"]["deliveries_per_sec"]["value"])'
}

short=$(rate 1)
long=$(rate 8)
python3 - "$short" "$long" <<'PY'
import sys
short, long = map(float, sys.argv[1:])
ratio = long / short
print(f"deliveries_per_sec: {short:,.0f} at --seconds 1, {long:,.0f} at --seconds 8, ratio {ratio:.2f} (floor 0.90)")
sys.exit(0 if ratio >= 0.9 else 1)
PY
