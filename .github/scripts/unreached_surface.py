#!/usr/bin/env python3
"""Fails when configuration or a build edge exists that nothing reaches.

(i)  Every `pub` field of `RtConfig`, `SocketConfig`, `SupervisorConfig`,
     `EngineConfig` and `WorldConfig` must be given a value somewhere
     outside the file that defines it
     (tests, benches, examples and the ladder count as setters): in a
     `Type { field: .. }` literal, by a `.field = ..` assignment in a
     file that names the type, or as a same-named argument of one of the
     type's constructors. A field only its own default ever sets is a
     constant, not an option.
(ii) Every `[dependencies]` / `[dev-dependencies]` entry of a workspace
     member must be named in at least one of that member's sources.
(iii) Every flag in a tool's flag table (`camelot_types::flags` rows in
     `src/bin/*.rs` and `crates/chaos/src/main.rs`) must be named
     somewhere else in the repository — a test, a script, CI, the ladder
     or the documentation (ISSUE, CHANGES and ROADMAP record history and
     do not count). A flag nobody passes and nobody is told about is a
     constant. And every `camelot-*` command line in `ci.yml`, a fenced
     block of README.md or the verify skill passes only flags the
     tool's table has, and integers written in decimal or `0x…`.
(iv) A message, record or ctrl kind is one row of its type's
     `wire_struct!` / `wire_enum!` table: no `impl Wire for` in
     `crates/{net,wal,node}` outside a `macro_rules!` definition, and no
     `const (T|Q|R|TAG)_*: u8` tag constant anywhere.
(v)  A `pub fn` in `crates/*/src` (before the file's `#[cfg(test)]`)
     whose name no product code, binary, bench, example or ladder
     source mentions (a `pub use` re-export is not a mention) is called
     by tests only: delete it with the test
     that exists to call it, unless it is in `ONLY_TESTS_CALL` — the
     hooks a test needs to observe behaviour nothing else observes.
(vi) `camelot_node::procs::Supervisor` is the one owner of a cluster of
     site processes: no source outside `crates/node/src/procs.rs` calls
     `set_peers(` or polls `debug_state()` in a `loop` / `while` — the
     two calls only a cluster owner makes. `ladder/` is the instrument's
     own code and is not scanned.
(vii) A scripted fault is installed in one place, `Supervisor::inject`:
     no source that names `camelot_node` calls `.partition(` or
     `.set_skew(` — the control client's fault installs — outside
     `procs.rs` and `camelot-site`'s request handler.

Run from the repository root: `python3 .github/scripts/unreached_surface.py`.
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
CONFIGS = {
    "RtConfig": "crates/rt/src/cluster.rs",
    "SocketConfig": "crates/net/src/socket.rs",
    "SupervisorConfig": "crates/node/src/procs.rs",
    "EngineConfig": "crates/core/src/config.rs",
    "WorldConfig": "crates/node/src/config.rs",
}
SOURCE_DIRS = ["src", "tests", "benches", "examples"]


def block(text, open_at):
    """The text between the brace at `open_at` and its partner."""
    depth = 0
    for i in range(open_at, len(text)):
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        if depth == 0:
            return text[open_at + 1 : i]
    return text[open_at + 1 :]


def rust_sources(base, dirs=SOURCE_DIRS):
    return [p for d in dirs for p in sorted((base / d).rglob("*.rs"))]


def unset_fields(name, home):
    text = (ROOT / home).read_text()
    decl = re.search(r"pub struct %s\s*\{" % name, text)
    fields = re.findall(r"^\s*pub (\w+)\s*:", block(text, decl.end() - 1), re.M)
    # Arguments of `pub fn ..(..) -> Name` constructors: callers set those.
    impl = re.search(r"impl %s\s*\{" % name, text)
    ctor_args = set()
    if impl:
        for args in re.findall(
            r"pub fn \w+\(([^)]*)\)\s*->\s*(?:%s|Self)\b" % name, block(text, impl.end() - 1)
        ):
            ctor_args.update(re.findall(r"(\w+)\s*:", args))
    users = [
        t
        for base in [ROOT, ROOT / "ladder", *sorted((ROOT / "crates").iterdir())]
        for p in rust_sources(base)
        if p != ROOT / home and name in (t := p.read_text())
    ]
    unset = []
    for f in fields:
        assigned = re.compile(r"\.\s*%s\s*=(?!=)" % f)
        literal = re.compile(r"\b%s\s*\{" % name)
        named = re.compile(r"\b%s\b" % f)
        if f in ctor_args or any(
            assigned.search(t)
            or any(named.search(block(t, m.end() - 1)) for m in literal.finditer(t))
            for t in users
        ):
            continue
        unset.append(f)
    return len(fields), unset


def unnamed_dependencies():
    members = [ROOT, *sorted((ROOT / "crates").iterdir()), *sorted((ROOT / "vendor").iterdir())]
    out = []
    for m in members:
        manifest = (m / "Cargo.toml").read_text()
        sources = "\n".join(p.read_text() for p in rust_sources(m))
        for section in ("dependencies", "dev-dependencies"):
            body = re.search(r"^\[%s\]\n(.*?)(?=^\[|\Z)" % section, manifest, re.M | re.S)
            if not body:
                continue
            for dep in re.findall(r"^([A-Za-z0-9_-]+)\s*[.=]", body.group(1), re.M):
                if not re.search(r"\b%s\b" % dep.replace("-", "_"), sources):
                    out.append("%s: [%s] %s" % (m.relative_to(ROOT) or ".", section, dep))
    return out


def tracked_text_files():
    skip_dirs = {".git", "target", "vendor", ".bench_build"}
    history = {"ISSUE.md", "CHANGES.md", "ROADMAP.md", "REVIEW.md"}
    suffixes = {".rs", ".md", ".yml", ".sh", ".py", ".toml"}
    out = []
    for p in sorted(ROOT.rglob("*")):
        rel = p.relative_to(ROOT)
        if skip_dirs & set(rel.parts) or not p.is_file():
            continue
        if p.suffix in suffixes and str(rel) not in history:
            out.append(p)
    return out


TOOL_SOURCES = ["crates/*/src/bin/*.rs", "crates/chaos/src/main.rs"]
ROW = re.compile(r'\(\s*"(--[a-z][a-z0-9-]*)"\s*,\s*("[^"]*"|SWITCH)\s*,')
INT_VALUES = {"N", "MS", "SECS", "PM"}
COMMAND_DOCS = [".github/workflows/ci.yml", "README.md", ".claude/skills/verify/SKILL.md"]
COMMAND = re.compile(r"(?<![\w-])(camelot-[a-z-]+)\b(.*)")


def flag_tables():
    """{tool name as typed: {flag: value name, "" for a switch}} and
    {source file: its flags}, read from the `Tool` literals and the rows
    next to them. A file with several tools (subcommands) names each
    before its rows."""
    tools, by_file = {}, {}
    for pattern in TOOL_SOURCES:
        for p in sorted(ROOT.glob(pattern)):
            text = p.read_text()
            names = [(m.start(), m.group(1)) for m in re.finditer(r'(?:name: |Tool::new\()"(camelot-[a-z -]+)"', text)]
            for _, name in names:
                tools.setdefault(name, {})
            for m in ROW.finditer(text):
                before = [n for at, n in names if at < m.start()]
                owner = names[0][1] if len(names) == 1 else before[-1]
                tools[owner][m.group(1)] = m.group(2).strip('"').replace("SWITCH", "")
                by_file.setdefault(p, set()).add(m.group(1))
    return tools, by_file


def unnamed_flags(by_file):
    files = {p: p.read_text() for p in tracked_text_files()}
    out = []
    for p, flags in by_file.items():
        for flag in sorted(flags):
            named = re.compile(r"(?<![\w-])%s(?![\w-])" % re.escape(flag))
            if not any(named.search(t) for q, t in files.items() if q != p):
                out.append("%s %s" % (p.relative_to(ROOT), flag))
    return out


def command_lines(path):
    """The shell lines of a document: all of a workflow, the fenced
    blocks of a markdown file; continuation lines joined."""
    text = (ROOT / path).read_text().replace("\\\n", " ")
    if path.endswith(".md"):
        text = "\n".join(re.findall(r"^```[a-z]*\n(.*?)^```", text, re.M | re.S))
    return text.splitlines()


def bad_command_lines(tools):
    out = []
    for path in COMMAND_DOCS:
        for line in command_lines(path):
            m = COMMAND.search(line.split("#")[0])
            if not m or "cargo build" in line or "cargo test" in line:
                continue
            tool, rest = m.group(1), m.group(2)
            if "cargo " in line:
                rest = rest.split(" -- ", 1)[1] if " -- " in rest else ""
            words = re.split(r"\s+", rest.strip())
            if tool == "camelot-scope" and words[0]:
                tool += " " + words.pop(0)
            if tool not in tools:
                continue
            table, i = tools[tool], 0
            while i < len(words) and words[i] not in ("|", ">", "&&", ";", "2>&1"):
                word, i = words[i].strip("`"), i + 1
                if not word.startswith("--") or word == "--help":
                    continue
                if word not in table:
                    out.append("%s: %s has no flag %s" % (path, tool, word))
                elif table[word]:
                    value, i = (words[i].strip("`") if i < len(words) else ""), i + 1
                    if (
                        table[word] in INT_VALUES
                        and value != table[word]
                        and not re.fullmatch(r"\d+|0x[0-9a-fA-F]+", value)
                    ):
                        out.append("%s: %s %s %s is not an integer" % (path, tool, word, value))
    return out


# Public functions only tests call, and why each stays.
ONLY_TESTS_CALL = {
    # core::testkit's assertion helpers are the tests' reference.
    "crates/core/src/testkit.rs": {
        "outcome_of", "server_committed", "server_aborted", "assert_agreement",
        "assert_no_conflict",
    },
    # How a test observes behaviour nothing else observes.
    "crates/wal/src/codec.rs": {"read_frame"},
    "crates/rt/src/stats.rs": {"total_commits"},
    # The exact protocol-cost audit: `rt_trace` runs it per protocol in
    # both execution modes (chaos checks only the floor).
    "crates/obs/src/audit.rs": {"audit_family"},
    # What ROADMAP item 3 builds on.
    "crates/harness/src/staticpath.rs": {"critical_path_counts", "nonblocking_read", "nonblocking_update"},
    # Test hooks a campaign or a golden vector names.
    "crates/server/src/server.rs": {"poison"},
    "crates/wal/src/record.rs": {"normally_forced"},
    "crates/node/src/ctrl.rs": {"fill_trace"},
}


def functions_only_tests_call():
    def product(p):
        """`p` without its `#[cfg(test)]` tail, its comments and its
        re-exports (a `pub use` names a function without calling it)."""
        text = re.sub(r"//[^\n]*", "", p.read_text().split("#[cfg(test)]")[0])
        return re.sub(r"pub use [^;]*;", "", text)

    callers, crate_src = [], {}
    for crate in sorted((ROOT / "crates").iterdir()):
        for p in rust_sources(crate, ["src"]):
            if not p.name.startswith("tests_"):
                crate_src[p] = product(p)
        callers += [p.read_text() for p in rust_sources(crate, ["benches", "examples"])]
    callers += [product(p) for p in rust_sources(ROOT, ["src", "examples"])]
    callers += [product(p) for p in rust_sources(ROOT / "ladder", ["src"])]
    everything = "\n".join(list(crate_src.values()) + callers)
    found, unlisted = 0, []
    for p, text in crate_src.items():
        if p.parent.name == "bin":
            continue
        rel = str(p.relative_to(ROOT))
        for name in re.findall(r"^\s*pub fn (\w+)", text, re.M):
            mentions = len(re.findall(r"(?<!\w)%s\b(?!\s*:)" % name, everything))
            if mentions > len(re.findall(r"\bfn %s\b" % name, everything)):
                continue
            found += 1
            if name not in ONLY_TESTS_CALL.get(rel, ()):
                unlisted.append("%s::%s" % (rel, name))
    return found, unlisted


def strip_macro_definitions(text):
    """`text` without the bodies of its `macro_rules!` definitions."""
    for m in reversed(list(re.finditer(r"macro_rules!\s*\w+\s*\{", text))):
        body = block(text, m.end() - 1)
        text = text[: m.end()] + text[m.end() + len(body) :]
    return text


def hand_written_codecs():
    impls, tags = [], []
    for crate in sorted((ROOT / "crates").iterdir()):
        for p in rust_sources(crate):
            text = p.read_text()
            rel = p.relative_to(ROOT)
            if crate.name in ("net", "wal", "node"):
                for m in re.finditer(r"impl\b[^{;]*\bWire for (\w+)", strip_macro_definitions(text)):
                    impls.append("%s: impl Wire for %s" % (rel, m.group(1)))
            for m in re.finditer(r"const ((?:T|Q|R|TAG)_[A-Z_]+): u8", text):
                tags.append("%s: %s" % (rel, m.group(1)))
    return impls, tags


CLUSTER_OWNER = "crates/node/src/procs.rs"


def cluster_owners():
    """Where a source other than the cluster owner distributes peers or
    waits for the cluster to go quiet."""
    sources = rust_sources(ROOT) + [
        p for crate in sorted((ROOT / "crates").iterdir()) for p in rust_sources(crate)
    ]
    out = []
    for p in sources:
        rel = str(p.relative_to(ROOT))
        if rel == CLUSTER_OWNER:
            continue
        text = re.sub(r"//[^\n]*", "", p.read_text())
        loops = [
            (m.end(), m.end() + len(block(text, m.end() - 1)))
            for m in re.finditer(r"\bloop\s*\{|^\s*while\b[^{;]*\{", text, re.M)
        ]
        line = lambda at: text.count("\n", 0, at) + 1
        for m in re.finditer(r"(?<!fn )\bset_peers\(", text):
            out.append("%s:%d: set_peers(" % (rel, line(m.start())))
        for m in re.finditer(r"\bdebug_state\(\)", text):
            if any(a <= m.start() < b for a, b in loops):
                out.append("%s:%d: debug_state() polled in a loop" % (rel, line(m.start())))
    return out


FAULT_HANDLER = "crates/node/src/bin/camelot-site.rs"


def fault_installs():
    """Where a control-client user installs a partition or skew itself
    instead of through the supervisor."""
    sources = rust_sources(ROOT) + [
        p for crate in sorted((ROOT / "crates").iterdir()) for p in rust_sources(crate)
    ]
    out = []
    for p in sources:
        rel = str(p.relative_to(ROOT))
        text = re.sub(r"//[^\n]*", "", p.read_text())
        if rel in (CLUSTER_OWNER, FAULT_HANDLER) or not (
            rel.startswith("crates/node/") or "camelot_node" in text
        ):
            continue
        for m in re.finditer(r"\.(partition|set_skew)\(", text):
            out.append("%s:%d: .%s(" % (rel, text.count("\n", 0, m.start()) + 1, m.group(1)))
    return out


def main():
    failed = False
    counts = []
    for name, home in CONFIGS.items():
        n, unset = unset_fields(name, home)
        counts.append("%s %d" % (name, n))
        for f in unset:
            failed = True
            print("%s::%s is set nowhere outside %s: make it a constant" % (name, f, home))
    print("config fields: " + ", ".join(counts))
    unnamed = unnamed_dependencies()
    for line in unnamed:
        failed = True
        print("dependency no source names: " + line)
    print("unnamed dependencies: %d" % len(unnamed))
    tools, by_file = flag_tables()
    flags = unnamed_flags(by_file)
    for line in flags:
        failed = True
        print("flag named nowhere but its table: " + line)
    print("flag tables: %d tools, %d flags" % (len(tools), sum(map(len, tools.values()))))
    print("unnamed flags: %d" % len(flags))
    commands = bad_command_lines(tools)
    for line in commands:
        failed = True
        print("command line its tool would refuse: " + line)
    print("refused command lines: %d" % len(commands))
    found, unlisted = functions_only_tests_call()
    for line in unlisted:
        failed = True
        print("public function only tests call (delete it with its test): " + line)
    print("functions only tests call: %d" % found)
    impls, tags = hand_written_codecs()
    for line in impls:
        failed = True
        print("hand-written codec beside the tables: " + line)
    for line in tags:
        failed = True
        print("tag constant (a tag is written in its table row only): " + line)
    print("hand-written codecs / tag constants: %d / %d" % (len(impls), len(tags)))
    owners = cluster_owners()
    for line in owners:
        failed = True
        print("cluster owned outside %s: %s" % (CLUSTER_OWNER, line))
    print("cluster owners outside procs.rs: %d" % len(owners))
    installs = fault_installs()
    for line in installs:
        failed = True
        print("fault installed outside %s: %s" % (CLUSTER_OWNER, line))
    print("fault installs outside procs.rs: %d" % len(installs))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
