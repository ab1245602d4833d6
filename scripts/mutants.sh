#!/usr/bin/env bash
# Replays the mutation catalogue: every entry of scripts/mutants.txt (or
# of CATALOGUE) is a deliberate bug that its named test must catch.
#
#   scripts/mutants.sh [CATALOGUE]
#
# The tracked files of the working tree are copied to target/mutants_sh/
# tree (a file only when its content changed) and built there with their
# own CARGO_TARGET_DIR, which later runs reuse. The unmutated copy must
# pass `cargo test --workspace` first. Then each entry's snippet is
# replaced in the copy, its killer is run in its package (`cargo test -p
# PACKAGE KILLER`), and the file is restored. Each entry prints one
# verdict and its wall time:
#   killed    its named test failed;
#   survived  its named test passed (other failures are listed);
#   stale     its snippet no longer occurs exactly once in its file, or
#             its killer names no test of its package;
#   broken    the mutated tree did not build.
# Any verdict but `killed` fails the script, except a survivor whose entry
# gives an `accepted:` reason.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - "${1:-scripts/mutants.txt}" <<'PY'
import os, pathlib, re, shutil, subprocess, sys, time

here = pathlib.Path.cwd()
base = here / "target" / "mutants_sh"
tree = base / "tree"
KEYS = {"file", "find", "replace", "killer", "package", "accepted"}

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
    block[key] = value.replace("\\n", "\n") if key in ("find", "replace") else value

def owner(file):
    """The package whose manifest is nearest above `file`."""
    for d in (here / file).parents:
        manifest = d / "Cargo.toml"
        if manifest.is_file():
            name = re.search(r'^\[package\]\s*\nname = "([^"]+)"', manifest.read_text(), re.M)
            if name:
                return name.group(1)
    sys.exit(f"{file}: no package owns it; give the entry a `package:`")

for e in entries:
    if "package" not in e:
        e["package"] = owner(e["file"])

# Bring the copy to the tracked files as they stand in the working tree.
# A file is written only when its content differs, so its mtime is when
# the copy's content last changed: cargo then rebuilds every target a
# previous run's mutation or an edit touched, and nothing else (copying
# the working tree's older mtimes would let it reuse a mutated build).
files = subprocess.run(["git", "ls-files", "-z"], check=True, capture_output=True).stdout
names = {n for n in files.decode().split("\0") if n and (here / n).is_file()}
for old in [f for f in tree.rglob("*") if f.is_file()]:
    if str(old.relative_to(tree)) not in names:
        old.unlink()
for name in names:
    src, dst = here / name, tree / name
    if not dst.is_file() or dst.read_bytes() != src.read_bytes():
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(src, dst)
        shutil.copymode(src, dst)

env = dict(os.environ, CARGO_TARGET_DIR=str(base / "target"))
def test(*scope):
    """Tests `scope` in the copy: (passed, built, tests run, names of failed tests)."""
    run = subprocess.run(
        ["cargo", "test", "--offline", "-q", "--no-fail-fast", *scope],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = set(re.findall(r"^---- (\S+) stdout ----$", run.stdout, re.M))
    ran = sum(int(p) + int(f) for p, f in re.findall(r"(\d+) passed; (\d+) failed", run.stdout))
    return run.returncode == 0, "could not compile" not in run.stderr, ran, failed

passed, built, _, failed = test("--workspace")
if not passed:
    sys.exit(f"the unmutated tree does not pass: {sorted(failed) or 'see cargo test'}")

tally = {"killed": 0, "survived": 0, "stale": 0, "broken": 0}
bad = 0
for e in entries:
    original = (here / e["file"]).read_text() if (here / e["file"]).is_file() else ""
    label = f"{e['file']}: {e['find']}".split("\n")[0]
    count = original.count(e["find"])
    start = time.monotonic()
    if count != 1:
        verdict, note = "stale", f"(snippet found {count} times)"
    else:
        (tree / e["file"]).write_text(original.replace(e["find"], e["replace"]))
        try:
            _, built, ran, failed = test("-p", e["package"], e["killer"])
        finally:
            (tree / e["file"]).write_text(original)
        killer = re.compile(rf"(^|::){re.escape(e['killer'])}$")
        if not built:
            verdict, note = "broken", "(did not build)"
        elif ran == 0:
            verdict, note = "stale", f"(no test of {e['package']} matches {e['killer']})"
        elif any(killer.search(t) for t in failed):
            verdict, note = "killed", f"by {e['killer']} (+{len(failed) - 1} other tests)"
        else:
            verdict = "survived"
            note = f"{e['killer']} passed; failed: {sorted(failed) or 'nothing'}"
            if "accepted" in e:
                note += f"; accepted: {e['accepted']}"
    tally[verdict] += 1
    bad += verdict != "killed" and not (verdict == "survived" and "accepted" in e)
    print(f"{verdict:9} {time.monotonic() - start:5.1f}s {label}  {note}", flush=True)

print(", ".join(f"{v} {k}" for k, v in tally.items()))
sys.exit(1 if bad else 0)
PY
