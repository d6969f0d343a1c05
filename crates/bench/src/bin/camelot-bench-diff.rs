//! Compares two bench JSON reports and fails on a knee regression.
//!
//! CI usage: extract the committed baseline (`git show
//! HEAD:BENCH_socket.json`), run the bench to produce a fresh report,
//! then
//!
//! ```text
//! camelot-bench-diff --baseline baseline.json --current BENCH_socket.json
//! ```
//!
//! Exit codes: `0` pass (including a config-hash mismatch, which is a
//! *skip* — the workload changed, re-record the baseline), `1` a
//! saturation knee dropped by more than 15 % (`diff::THRESHOLD_PCT`)
//! or a baseline curve vanished, `2` usage or unreadable input.
//! CI greps the output for `PASS:`, so there a skip fails the job.

use std::process::exit;

use camelot_bench::diff::{diff, parse_summary, DiffVerdict, THRESHOLD_PCT};
use camelot_types::flags::{Row, Tool, REQUIRED};

#[rustfmt::skip]
const FLAGS: &[Row] = &[
    ("--baseline", "FILE", REQUIRED, "the committed report to compare against"),
    ("--current", "FILE", REQUIRED, "the report of the run under test"),
];
const TOOL: Tool = Tool::new("camelot-bench-diff", FLAGS);

fn main() {
    let (baseline, current): (String, String) =
        TOOL.from_env(|p| Ok((p.val("--baseline")?, p.val("--current")?)));

    let read = |path: &str| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("camelot-bench-diff: read {path}: {e}");
            exit(2);
        })
    };
    let parse = |path: &str, text: &str| {
        parse_summary(text).unwrap_or_else(|e| {
            eprintln!("camelot-bench-diff: parse {path}: {e}");
            exit(2);
        })
    };
    let base_text = read(&baseline);
    let cur_text = read(&current);
    let base = parse(&baseline, &base_text);
    let cur = parse(&current, &cur_text);

    if base.bench != cur.bench {
        eprintln!(
            "camelot-bench-diff: different benches ({} vs {}); nothing to compare",
            base.bench, cur.bench
        );
        exit(2);
    }

    match diff(&base, &cur) {
        DiffVerdict::SkippedConfigMismatch {
            baseline: b,
            current: c,
        } => {
            println!(
                "camelot-bench-diff: SKIP: config_hash changed ({b} -> {c}); \
                 baseline is not comparable, re-record it"
            );
        }
        DiffVerdict::Pass(rows) => {
            for (label, b, c, d) in &rows {
                println!("camelot-bench-diff: {label}: {b:.1} -> {c:.1} commits/s ({d:+.1}%)");
            }
            println!(
                "camelot-bench-diff: PASS: {} curve(s) within {THRESHOLD_PCT}% of baseline",
                rows.len()
            );
        }
        DiffVerdict::Fail { rows, failures } => {
            for (label, b, c, d) in &rows {
                println!("camelot-bench-diff: {label}: {b:.1} -> {c:.1} commits/s ({d:+.1}%)");
            }
            for f in &failures {
                eprintln!("camelot-bench-diff: FAIL: {f}");
            }
            exit(1);
        }
    }
}
