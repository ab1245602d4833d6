#!/usr/bin/env bash
# Every public item has a user. Each `pub fn|struct|enum|trait|const|type|
# static` declared under `crates/*/src` must be named, as a whole word, in
# the code of some file other than its own under `crates`, `src`, `tests`,
# `examples` or `perf/src`. Comments (`//`, `///`, `//!`, `/* */`) are
# dropped first, so a doc link or a mention in prose is not a use. Neither
# a `pub use` re-export nor another file's `pub` declaration of the same
# name is a use: a prelude entry that nothing imports, or a twin method on
# another type, keeps nothing alive. An item only its own file names is
# either `pub(crate)` or deleted. The exceptions are listed in
# `scripts/check_unused_pub.allow`, one `file name reason` line each:
# types that a used public signature reaches, so demoting them is a
# `private_interfaces` warning or an E0446 error.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - scripts/check_unused_pub.allow <<'PY'
import pathlib, re, sys

MAX_ALLOWED = 25
DECL = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe|async|extern\s+\"C\")\s+)*"
    r"(?:fn|struct|enum|trait|const|type|static)\s+([A-Za-z_][A-Za-z0-9_]*)",
    re.M,
)
REEXPORT = re.compile(r"\bpub\s+use\s+[^;]*;", re.S)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

allowed = {}
for n, line in enumerate(pathlib.Path(sys.argv[1]).read_text().splitlines(), 1):
    if not line.strip() or line.startswith("#"):
        continue
    parts = line.split(None, 2)
    if len(parts) < 3:
        sys.exit(f"{sys.argv[1]}:{n}: want `file name reason`, got {line!r}")
    allowed[(parts[0], parts[1])] = parts[2]
if len(allowed) > MAX_ALLOWED:
    sys.exit(f"allowlist has {len(allowed)} entries; the ceiling is {MAX_ALLOWED}")

files = sorted(
    p
    for root in ("crates", "src", "tests", "examples", "perf/src")
    for p in pathlib.Path(root).rglob("*.rs")
    if "target" not in p.parts
)


def code(src):
    """`src` with its comments removed; string and char literals are kept."""
    out, i, n = [], 0, len(src)
    while i < n:
        if src.startswith("//", i):
            i = src.find("\n", i)
            i = n if i < 0 else i
        elif src.startswith("/*", i):
            end = src.find("*/", i + 2)
            i = n if end < 0 else end + 2
            out.append(" ")
        elif not WORD_CHAR.match(src, i - 1 if i else n) and (raw := RAW_STRING.match(src, i)):
            end = src.find('"' + raw.group(1), raw.end())
            end = n if end < 0 else end + 1 + len(raw.group(1))
            out.append(src[i:end])
            i = end
        elif src[i] == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            out.append(src[i : j + 1])
            i = j + 1
        elif char := CHAR.match(src, i):
            out.append(char.group(0))
            i = char.end()
        else:
            out.append(src[i])
            i += 1
    return "".join(out)


RAW_STRING = re.compile(r'b?r(#*)"')
WORD_CHAR = re.compile(r"\w")
CHAR = re.compile(r"b?'(?:[^'\\\n]|\\[^\n]+?)'")
text = {p: code(p.read_text()) for p in files}
# A declaration is not a use: strip `pub` declarations (like re-exports)
# before collecting words, so a same-named item in another file keeps
# nothing alive.
words = {p: set(WORD.findall(DECL.sub("", REEXPORT.sub("", t)))) for p, t in text.items()}

unused, stale = [], set(allowed)
for p in files:
    if not (p.parts[0] == "crates" and "src" in p.parts):
        continue
    for name in sorted(set(DECL.findall(text[p]))):
        key = (str(p), name)
        if any(name in w for q, w in words.items() if q != p):
            continue
        if key in allowed:
            stale.discard(key)
            continue
        unused.append(f"{p}: pub {name} is named only in its own file")

for key in sorted(stale):
    unused.append(f"allowlist entry {key[0]} {key[1]} no longer matches an unused pub item")
for line in unused:
    print(line)
print(f"{len(unused)} problem(s); {len(allowed)} allowlisted item(s)")
sys.exit(1 if unused else 0)
PY
