#!/usr/bin/env bash
# Replays the mutation catalogue: every entry of scripts/mutants.txt (or
# of CATALOGUE) is a deliberate bug that its named test must catch.
#
#   scripts/mutants.sh [CATALOGUE]
#
# The tracked files of the working tree are copied to target/mutants_sh/
# tree and built there with their own CARGO_TARGET_DIR, which later runs
# reuse. The unmutated copy must pass `cargo test --workspace` first. Then
# each entry's snippet is replaced in the copy, the whole workspace is
# tested, and the file is restored. Each entry prints one verdict:
#   killed    its named test failed;
#   survived  its named test passed (other failures are listed);
#   stale     its snippet no longer occurs exactly once in its file;
#   broken    the mutated tree did not build.
# Any verdict but `killed` fails the script, except a survivor whose entry
# gives an `accepted:` reason.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - "${1:-scripts/mutants.txt}" <<'PY'
import os, pathlib, re, shutil, subprocess, sys

here = pathlib.Path.cwd()
base = here / "target" / "mutants_sh"
tree = base / "tree"
KEYS = {"file", "find", "replace", "killer", "accepted"}

entries, block = [], {}
lines = pathlib.Path(sys.argv[1]).read_text().splitlines() + [""]
for n, line in enumerate(lines, 1):
    if line.startswith("#"):
        continue
    if not line.strip():
        if block:
            missing = {"file", "find", "replace", "killer"} - block.keys()
            if missing:
                sys.exit(f"{sys.argv[1]}:{n}: entry lacks {sorted(missing)}")
            entries.append(block)
            block = {}
        continue
    key, sep, value = line.partition(": ")
    if not sep or key not in KEYS or key in block:
        sys.exit(f"{sys.argv[1]}:{n}: expected one of {sorted(KEYS)} once per entry")
    block[key] = value

# Copy the tracked files as they stand in the working tree.
shutil.rmtree(tree, ignore_errors=True)
tree.mkdir(parents=True)
files = subprocess.run(["git", "ls-files", "-z"], check=True, capture_output=True).stdout
for name in files.decode().split("\0"):
    if name and (here / name).is_file():
        (tree / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(here / name, tree / name)

env = dict(os.environ, CARGO_TARGET_DIR=str(base / "target"))
def test():
    """Tests the workspace in the copy: (passed, built, names of failed tests)."""
    run = subprocess.run(
        ["cargo", "test", "--offline", "--workspace", "-q", "--no-fail-fast"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = set(re.findall(r"^---- (\S+) stdout ----$", run.stdout, re.M))
    return run.returncode == 0, "could not compile" not in run.stderr, failed

passed, built, failed = test()
if not passed:
    sys.exit(f"the unmutated tree does not pass: {sorted(failed) or 'see cargo test'}")

tally = {"killed": 0, "survived": 0, "stale": 0, "broken": 0}
bad = 0
for e in entries:
    original = (here / e["file"]).read_text() if (here / e["file"]).is_file() else ""
    label = f"{e['file']}: {e['find']}"
    count = original.count(e["find"])
    if count != 1:
        verdict, note = "stale", f"(snippet found {count} times)"
    else:
        (tree / e["file"]).write_text(original.replace(e["find"], e["replace"]))
        try:
            _, built, failed = test()
        finally:
            (tree / e["file"]).write_text(original)
        killer = re.compile(rf"(^|::){re.escape(e['killer'])}$")
        if not built:
            verdict, note = "broken", "(did not build)"
        elif any(killer.search(t) for t in failed):
            verdict, note = "killed", f"by {e['killer']} (+{len(failed) - 1} other tests)"
        else:
            verdict = "survived"
            note = f"{e['killer']} passed; failed: {sorted(failed) or 'nothing'}"
            if "accepted" in e:
                note += f"; accepted: {e['accepted']}"
    tally[verdict] += 1
    bad += verdict != "killed" and not (verdict == "survived" and "accepted" in e)
    print(f"{verdict:9} {label}  {note}", flush=True)

print(", ".join(f"{v} {k}" for k, v in tally.items()))
sys.exit(1 if bad else 0)
PY
