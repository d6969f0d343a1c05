#!/usr/bin/env python3
"""How much non-test code is written twice, and how much JSON by hand.

Not a CI gate: the numbers ROADMAP quotes when it decides whether an
extraction (a shared `Action` host, one JSON writer) would remove more
than its interface adds. Run from the repository root:
`python3 .github/scripts/duplicate_scan.py [checkout]`.

A *window* is 8 consecutive lines of `crates/*/{src,benches}` after
dropping comments, blank lines and lone brackets, collapsing whitespace
and cutting each file at its first `#[cfg(test)]`; it is *repeated* if
the same 8 lines occur anywhere else in that code.
"""
import collections
import pathlib
import re
import sys

W = 8
ROOT = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
HOSTS = ["crates/core/src/testkit.rs", "crates/node/src/world.rs", "crates/rt/src/cluster.rs"]
JSON_KEY = re.compile(r'\\"[A-Za-z_0-9]+\\" ?:')

seen = collections.defaultdict(set)  # window -> {(file, first line)}
json_lines = collections.Counter()
for p in sorted([*ROOT.glob("crates/*/src/**/*.rs"), *ROOT.glob("crates/*/benches/*.rs")]):
    if p.name.startswith("tests_"):
        continue
    name = str(p.relative_to(ROOT))
    code = p.read_text().split("#[cfg(test)]")[0]
    json_lines[name] = sum(1 for l in code.splitlines() if JSON_KEY.search(l))
    lines = [re.sub(r"\s+", " ", l.split("//")[0]).strip() for l in code.splitlines()]
    lines = [l for l in lines if l and l not in "{}()[];,"]
    for i in range(len(lines) - W + 1):
        seen[tuple(lines[i : i + W])].add((name, i))

per_file = collections.Counter()
between_hosts = 0
for where in seen.values():
    if len(where) > 1:
        per_file.update(f for f, _ in where)
        between_hosts += len({f for f, _ in where} & set(HOSTS)) > 1
print("repeated %d-line windows, worst files:" % W)
for f, n in per_file.most_common(6):
    print("  %4d  %s" % (n, f))
print("windows shared between the Action interpreters (%s): %d" % (", ".join(HOSTS), between_hosts))
emitters = {f: n for f, n in json_lines.items() if n}
print("hand-emitted JSON: %d key-bearing lines in %d files" % (sum(emitters.values()), len(emitters)))
