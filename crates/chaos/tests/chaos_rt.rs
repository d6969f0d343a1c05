//! Real-thread chaos: bounded integration tests.
//!
//! Each schedule here spins up a real [`camelot_rt::Cluster`] (worker
//! pools, pipelined disk threads, router) and runs for a couple of
//! seconds of wall clock, so these tests stay deliberately small; the
//! broad campaigns run from the CLI (`camelot-chaos --rt`) in the
//! nightly CI job. The `#[ignore]`d test at the bottom is the
//! minutes-long canary-shrink exercise nightly runs with
//! `cargo test -- --ignored`.

use camelot_chaos::{campaign, run_trace, RtRunResult};

/// Hand-written decision trace: 2 sites, 2 transactions (both
/// S1-coordinated, S2 subordinate, two-phase), clean links, and the
/// coordinator killed right after transaction 0's commit call
/// returns — inside the lazy-flush window.
///
/// Decisions, in draw order: sites, n_txns, then per txn
/// (home, remote, mode), link profile, victim, queued?, crash mode
/// (4 = kill-after-commit in the lock-based menu), WAL corruption,
/// partition, skew, recovery fault, datagram delay. A trace that ends
/// early draws 0 from there on: no recovery fault, and the 1 ms
/// datagram delay.
const KILL_AFTER_COMMIT: &[u32] = &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0];

/// Under the honest protocol the kill-after-commit schedule is
/// harmless: the commit record was *forced* before the client heard
/// "Committed", so recovery replays it and every invariant holds.
#[test]
fn kill_after_commit_is_harmless_with_forced_commits() {
    let result = run_trace::<RtRunResult>(KILL_AFTER_COMMIT, false);
    assert!(
        result.violations.is_empty(),
        "honest run violated: {:?} (plan: {})",
        result.violations,
        result.plan
    );
    assert!(
        result.culprit_trace.is_none(),
        "clean runs must not dump a culprit timeline"
    );
}

/// The same two transactions with each bounded-recovery fault in
/// turn: a clean checkpoint after transaction 0 (so the rest of the
/// run, and the probe, work on a truncated log), a checkpoint that
/// dies between snapshot and marker, one that dies between marker and
/// truncation, and — with the coordinator killed after its commit —
/// a restart that dies half way and is restarted again. Agreement, no
/// lost update and progress must hold through all four.
#[test]
fn checkpoint_truncation_and_restart_crashes_keep_the_invariants() {
    for (crash, recovery) in [(0, 1), (0, 2), (0, 3), (4, 4)] {
        let mut trace = KILL_AFTER_COMMIT.to_vec();
        trace[11] = crash;
        trace.push(recovery);
        let result = run_trace::<RtRunResult>(&trace, false);
        assert!(
            result.violations.is_empty(),
            "recovery fault {recovery} violated: {:?} (plan: {})",
            result.violations,
            result.plan
        );
    }
}

/// The same schedule against the `unsafe_no_commit_force` canary
/// must be caught: the coordinator *appended* its commit record
/// without forcing, the kill lands before the lazy flush, recovery
/// presumes abort, and the subordinate (which already committed)
/// disagrees with both the replica and the application.
#[test]
fn kill_after_commit_catches_the_forceless_canary() {
    let result = run_trace::<RtRunResult>(KILL_AFTER_COMMIT, true);
    assert!(
        !result.violations.is_empty(),
        "canary survived the kill-after-commit schedule (plan: {})",
        result.plan
    );
    assert!(
        result
            .violations
            .iter()
            .any(|v| v.starts_with("lost-update:") || v.starts_with("agreement:")),
        "expected an atomicity violation, got: {:?}",
        result.violations
    );
    // The violation must come with the culpable family's timeline,
    // as JSONL: the evidence for the bug report.
    let trace = result
        .culprit_trace
        .as_deref()
        .expect("violation without a culprit timeline");
    assert!(
        trace.lines().count() > 0
            && trace
                .lines()
                .all(|l| l.starts_with('{') && l.ends_with('}')),
        "culprit timeline is not JSONL: {trace:?}"
    );
    assert!(
        trace.contains("\"family\":") && trace.contains("\"ev\":\"commit_call\""),
        "culprit timeline lacks the victim family's commit events"
    );
}

/// Scripted-fault schedule: 2 sites, 2 S1-coordinated 2PC
/// transactions, and exactly datagram #1 on the 1→2 link dropped
/// (decision 8 picks the scripted profile, decision 9 the ordinal;
/// the remaining draws — victim, queued, crash, corruption,
/// partition, skew — are all zero). The protocols' resend/timeout
/// machinery must absorb a single deterministic drop with every
/// invariant intact.
const SCRIPTED_DROP: &[u32] = &[0, 0, 0, 0, 0, 0, 0, 0, 3, 1, 0, 0, 0, 0, 0];

#[test]
fn scripted_single_drop_is_absorbed_by_the_honest_protocol() {
    let result = run_trace::<RtRunResult>(SCRIPTED_DROP, false);
    assert!(
        result.plan.contains("scripted drop of datagram #1"),
        "trace decoded to the wrong plan: {}",
        result.plan
    );
    assert!(
        result.violations.is_empty(),
        "scripted drop violated: {:?} (plan: {})",
        result.violations,
        result.plan
    );
}

/// A small randomized campaign over the honest protocol is clean.
#[test]
fn small_rt_campaign_is_clean() {
    let report = campaign::<RtRunResult>(0xF1E1D, 2, false);
    assert!(
        report.clean(),
        "violations: {:?}",
        report
            .failures
            .iter()
            .map(|f| (&f.result.plan, &f.result.violations))
            .collect::<Vec<_>>()
    );
}

/// Nightly-profile exercise (minutes of real-thread schedules): a
/// canary campaign must find the planted atomicity violation and
/// shrink the failing schedule, and the shrunk trace must still
/// reproduce a violation when replayed.
#[test]
#[ignore = "minutes of real-thread schedules; nightly CI runs with --ignored"]
fn rt_canary_campaign_catches_and_shrinks() {
    let report = campaign::<RtRunResult>(11, 12, true);
    assert!(
        !report.clean(),
        "12 canary schedules found nothing — the checker is blind"
    );
    let f = &report.failures[0];
    assert!(
        f.shrunk.len() <= f.result.trace.len(),
        "shrinking grew the trace"
    );
    let replay = run_trace::<RtRunResult>(&f.shrunk, true);
    assert!(
        !replay.violations.is_empty(),
        "shrunk trace {:?} no longer reproduces (original seed {:#x})",
        f.shrunk,
        f.seed
    );
}
