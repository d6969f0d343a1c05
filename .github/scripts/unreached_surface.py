#!/usr/bin/env python3
"""Fails when configuration or a build edge exists that nothing reaches.

(i)  Every `pub` field of `RtConfig`, `SocketConfig`, `SupervisorConfig`
     and `EngineConfig` must be given a value somewhere outside the file
     that defines it
     (tests, benches, examples and the ladder count as setters): in a
     `Type { field: .. }` literal, by a `.field = ..` assignment in a
     file that names the type, or as a same-named argument of one of the
     type's constructors. A field only its own default ever sets is a
     constant, not an option.
(ii) Every `[dependencies]` / `[dev-dependencies]` entry of a workspace
     member must be named in at least one of that member's sources.
(iii) Every `"--flag"` a `src/bin/*.rs` parses must be named somewhere
     else in the repository — a test, a script, CI, the ladder or the
     documentation (ISSUE, CHANGES and ROADMAP record history and do not
     count). A flag nobody passes and nobody is told about is a constant.
(iv) A message, record or ctrl kind is one row of its type's
     `wire_struct!` / `wire_enum!` table: no `impl Wire for` in
     `crates/{net,wal,node}` outside a `macro_rules!` definition, and no
     `const (T|Q|R|TAG)_*: u8` tag constant anywhere.

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


def unnamed_flags():
    files = {p: p.read_text() for p in tracked_text_files()}
    out = []
    for p, text in files.items():
        if p.suffix != ".rs" or p.parent.name != "bin" or p.parent.parent.name != "src":
            continue
        for flag in sorted(set(re.findall(r'"(--[a-z][a-z0-9-]*)"', text))):
            named = re.compile(r"(?<![\w-])%s(?![\w-])" % re.escape(flag))
            if not any(named.search(t) for q, t in files.items() if q != p):
                out.append("%s %s" % (p.relative_to(ROOT), flag))
    return out


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
    flags = unnamed_flags()
    for line in flags:
        failed = True
        print("flag named nowhere but its parser: " + line)
    print("unnamed flags: %d" % len(flags))
    impls, tags = hand_written_codecs()
    for line in impls:
        failed = True
        print("hand-written codec beside the tables: " + line)
    for line in tags:
        failed = True
        print("tag constant (a tag is written in its table row only): " + line)
    print("hand-written codecs / tag constants: %d / %d" % (len(impls), len(tags)))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
