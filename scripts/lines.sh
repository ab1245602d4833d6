#!/usr/bin/env bash
# Counts the lines of `crates/**/*.rs` and their non-test part: each file
# under a crate's `src/` up to its top-level `#[cfg(test)] mod` (files
# under `tests/` and `benches/` count only in the total). Prints the
# total, the non-test count, then the non-test count per crate.
#
#   scripts/lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."
echo "crates/**/*.rs $(find crates -name '*.rs' -print0 | xargs -0 cat | wc -l)"
find crates -path '*/src/*' -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { split(FILENAME, path, "/"); crate = path[2]; done = 0; held = 0 }
    done { next }
    held && /^(pub(\(crate\))? )?mod / { done = 1; next }
    held { n[crate]++; held = 0 }
    /^#\[cfg\(test\)\]/ { held = 1; next }
    { n[crate]++ }
    END {
        for (c in n) total += n[c]
        print "non-test", total
        for (c in n) print "  " c, n[c] | "sort"
    }'
