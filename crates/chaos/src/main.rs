//! Chaos campaign CLI.
//!
//! ```text
//! cargo run -p camelot-chaos --release -- --seed 1 --schedules 1000
//! cargo run -p camelot-chaos --release -- --exhaustive 5000
//! cargo run -p camelot-chaos --release -- --replay 0,3,1,7,2
//! cargo run -p camelot-chaos --release -- --canary --schedules 50
//! cargo run -p camelot-chaos --release -- --rt --seed 7 --schedules 100
//! ```
//!
//! `--rt` aims the drawn fault plans at the *real-thread* runtime
//! (`camelot-rt`) instead of the deterministic sim: real worker
//! pools, the pipelined disk thread, crash points inside the log
//! pipeline, and WAL corruption across restarts. Expect roughly a
//! couple of seconds per schedule.
//!
//! `--trace` (with `--rt`) writes each failing schedule's culprit
//! timeline — the JSONL trace of the transaction families blamed by
//! the violation, drained from the runtime's per-site trace rings —
//! to `rt_trace_<index>.jsonl` in the working directory. CI uploads
//! these as artifacts.
//!
//! Exit status is nonzero iff any schedule violated an invariant, so
//! the binary slots straight into CI.

use std::process::ExitCode;

use camelot_chaos::{
    campaign, exhaustive, format_trace, parse_trace, run_trace, Failure, RtRunResult, RunResult,
    Schedule,
};
use camelot_types::flags::{Parsed, Row, Tool, SWITCH};

#[rustfmt::skip]
const FLAGS: &[Row] = &[
    ("--seed", "N", "0xCA3E107", "campaign seed; each schedule's seed derives from it"),
    ("--schedules", "N", "1000", "randomized schedules to run"),
    ("--canary", SWITCH, "", "run the engine that does not force its commit record"),
    ("--rt", SWITCH, "", "aim the fault plans at the real-thread runtime"),
    ("--trace", SWITCH, "", "write each failure's culprit timeline to rt_trace_<index>.jsonl"),
    ("--exhaustive", "N", "", "enumerate schedules 0..N instead of drawing them (sim only)"),
    ("--replay", "TRACE", "", "replay one printed decision trace, e.g. 0,3,1,7,2"),
];
const TOOL: Tool = Tool::new("camelot-chaos", FLAGS);

/// Writes a failing schedule's culprit timeline to `path` (JSONL, one
/// event per line), if the runner kept one.
fn write_culprit_trace(path: &str, result: &impl Schedule) {
    let Some(jsonl) = result.culprit_trace() else {
        return;
    };
    match std::fs::write(path, jsonl) {
        Ok(()) => println!(
            "  culprit timeline: {path} ({} event(s))",
            jsonl.lines().count()
        ),
        Err(e) => eprintln!("  culprit timeline: failed to write {path}: {e}"),
    }
}

/// What a campaign prints for one failure: `kind` is `"rt "` for the
/// real-thread runner and empty for the sim, `rt_flag` likewise the
/// flag its replay needs.
fn failure_report<R: Schedule>(kind: &str, rt_flag: &str, f: &Failure<R>) -> String {
    let mut lines = vec![format!(
        "{kind}schedule {} (seed {:#x}): {} violation(s)",
        f.index,
        f.seed,
        f.result.violations().len()
    )];
    lines.push(format!("  {}", f.result.describe()));
    for v in f.result.violations() {
        lines.push(format!("  violation: {v}"));
    }
    lines.push(format!(
        "  shrunk trace ({} of {} decisions): {}",
        f.shrunk.len(),
        f.result.trace().len(),
        format_trace(&f.shrunk)
    ));
    lines.push(format!(
        "  replay: cargo run -p camelot-chaos -- {rt_flag}--replay {}",
        format_trace(&f.shrunk)
    ));
    lines.join("\n")
}

/// The whole CLI over one runner: a replay, or a campaign (drawn or
/// enumerated) with its failure reports and summary. The only `Err` is
/// a bad flag value, before any schedule runs.
fn drive<R: Schedule>(p: &Parsed) -> Result<ExitCode, String> {
    let (seed, schedules): (u64, u64) = (p.int("--seed")?, p.int("--schedules")?);
    let (canary, trace) = (p.on("--canary"), p.on("--trace"));
    let (kind, rt_flag) = if p.on("--rt") {
        ("rt ", "--rt ")
    } else {
        ("", "")
    };
    let limit: Option<u64> = p.int_opt("--exhaustive")?;
    if limit.is_some() && p.on("--rt") {
        return Err("--exhaustive is sim-only (real threads are not enumerable)".into());
    }
    if let Some(replay) = p.get("--replay").map(parse_trace).transpose()? {
        let result: R = run_trace(&replay, canary);
        println!("{}", result.describe());
        if result.violations().is_empty() {
            println!("clean: no invariant violations");
            return Ok(ExitCode::SUCCESS);
        }
        for v in result.violations() {
            println!("violation: {v}");
        }
        if trace {
            write_culprit_trace("rt_trace_replay.jsonl", &result);
        }
        return Ok(ExitCode::FAILURE);
    }

    let report = if let Some(limit) = limit {
        let (report, overflowed) = exhaustive::<R>(limit, canary);
        println!(
            "exhaustive: {} indices, {} beyond the decision space",
            limit, overflowed
        );
        report
    } else {
        println!(
            "{kind}campaign: {schedules} schedules from seed {seed:#x}{}",
            if canary { " (CANARY config)" } else { "" }
        );
        campaign(seed, schedules, canary)
    };

    for f in &report.failures {
        println!("{}", failure_report(kind, rt_flag, f));
        if trace {
            write_culprit_trace(&format!("rt_trace_{}.jsonl", f.index), &f.result);
        }
    }
    Ok(if report.clean() {
        println!(
            "clean: {} {kind}schedules, zero invariant violations",
            report.schedules
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "{} of {} {kind}schedules violated invariants",
            report.failures.len(),
            report.schedules
        );
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    TOOL.from_env(|p| match p.on("--rt") {
        true => drive::<RtRunResult>(p),
        false => drive::<RunResult>(p),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_chaos::{schedule_seed, Chooser};

    /// A runner that draws six decisions and fails iff the third is 5.
    struct Stub(Vec<u32>, Vec<String>);

    impl Schedule for Stub {
        fn run_one(ch: &mut Chooser, _canary: bool) -> Stub {
            let drawn: Vec<usize> = (0..6).map(|_| ch.choose(8)).collect();
            let bad = (drawn[2] == 5).then(|| "third decision is 5".to_string());
            Stub(ch.trace.clone(), bad.into_iter().collect())
        }
        fn trace(&self) -> &[u32] {
            &self.0
        }
        fn violations(&self) -> &[String] {
            &self.1
        }
        fn describe(&self) -> String {
            "stub: six draws".to_string()
        }
    }

    #[test]
    fn the_one_campaign_finds_shrinks_and_reports_a_stub_failure() {
        const BASE: u64 = 77;
        let fails = |i: u64| {
            let mut ch = Chooser::random(schedule_seed(BASE, i));
            !Stub::run_one(&mut ch, false).1.is_empty()
        };
        let want: Vec<u64> = (0..64).filter(|&i| fails(i)).collect();
        assert!(!want.is_empty() && want.len() < 64, "{want:?}");

        let report = campaign::<Stub>(BASE, 64, false);
        assert_eq!(report.schedules, 64);
        let found: Vec<u64> = report.failures.iter().map(|f| f.index).collect();
        assert_eq!(found, want);
        let f = &report.failures[0];
        assert_eq!(f.seed, schedule_seed(BASE, f.index));
        assert_eq!(f.result.trace().len(), 6);
        assert_eq!(f.shrunk, [0, 0, 5]);
        assert_eq!(
            failure_report("rt ", "--rt ", f),
            format!(
                "rt schedule {} (seed {:#x}): 1 violation(s)\n  stub: six draws\n  \
                 violation: third decision is 5\n  shrunk trace (3 of 6 decisions): 0,0,5\n  \
                 replay: cargo run -p camelot-chaos -- --rt --replay 0,0,5",
                f.index, f.seed
            )
        );
        let replayed: Stub = run_trace(&f.shrunk, false);
        assert_eq!(replayed.violations(), f.result.violations());

        // Enumerated: index = d0 + 8·d1 + 64·d2 + …, so 320..384 are the
        // 64 schedules whose third digit is 5.
        let (report, overflowed) = exhaustive::<Stub>(400, false);
        let found: Vec<u64> = report.failures.iter().map(|f| f.index).collect();
        assert_eq!(found, (320..384).collect::<Vec<_>>());
        assert_eq!(overflowed, 0);
    }
}
