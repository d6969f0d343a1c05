//! CI-bounded chaos campaigns.
//!
//! The full nightly runs live behind the `camelot-chaos` binary
//! (`cargo run -p camelot-chaos --release -- --schedules 10000`);
//! these tests keep a representative slice in the ordinary test
//! suite: a clean randomized campaign, a slice of the
//! bounded-exhaustive enumeration, seed/trace replay determinism,
//! shrinking, and the canary proving the checker actually fires when
//! atomicity is broken.

use camelot_chaos::{campaign, exhaustive, run_seed, run_trace, schedule_seed, shrink, RunResult};

/// A schedule seed (found by `--canary --schedules 5000`) whose
/// schedule crashes a two-phase coordinator inside the canary's
/// append-without-force window. Regenerate with
/// `cargo run -p camelot-chaos --release -- --canary --schedules 5000`
/// if the scenario generator or move enumeration changes.
const CANARY_SEED: u64 = 0xc6fcbeac7f94222;

#[test]
fn ci_campaign_is_clean() {
    let report = campaign::<RunResult>(0xCA3E107, 500, false);
    for f in &report.failures {
        eprintln!("failure: {:?}", f.result.violations);
    }
    assert!(report.clean(), "randomized campaign found violations");
}

#[test]
fn ci_exhaustive_slice_is_clean() {
    let (report, _overflowed) = exhaustive::<RunResult>(1500, false);
    for f in &report.failures {
        eprintln!("failure: {:?}", f.result.violations);
    }
    assert!(report.clean(), "exhaustive slice found violations");
}

#[test]
fn seed_replay_is_byte_identical() {
    for i in 0..50 {
        let seed = schedule_seed(0xD0_0D, i);
        let a = run_seed::<RunResult>(seed, false);
        let b = run_seed::<RunResult>(seed, false);
        assert_eq!(a.trace, b.trace, "seed {seed:#x} diverged between runs");
        assert_eq!(a.violations, b.violations);
        // A recorded trace replays to itself: the printed trace IS
        // the schedule.
        let c = run_trace::<RunResult>(&a.trace, false);
        assert_eq!(c.trace, a.trace, "trace replay diverged for {seed:#x}");
        assert_eq!(c.violations, a.violations);
    }
}

#[test]
fn canary_trips_the_atomicity_checker() {
    // The same schedule must be clean with the real protocol and
    // broken with the forceless-commit canary — i.e. the checker
    // keys on the injected bug, not on the schedule.
    let honest = run_seed::<RunResult>(CANARY_SEED, false);
    assert!(
        honest.violations.is_empty(),
        "schedule is supposed to be clean without the canary: {:?}",
        honest.violations
    );
    let broken = run_seed::<RunResult>(CANARY_SEED, true);
    assert!(
        !broken.violations.is_empty(),
        "canary schedule no longer trips the checker; regenerate CANARY_SEED"
    );
    assert!(
        broken.violations.iter().any(|v| v.contains("app-outcome")
            || v.contains("durability")
            || v.contains("agreement")),
        "unexpected violation class: {:?}",
        broken.violations
    );
}

#[test]
fn canary_campaign_finds_the_bug() {
    // Campaign-level: the stock seed finds the canary within the
    // first 600 schedules (first hit is index 582).
    let report = campaign::<RunResult>(0xCA3E107, 600, true);
    assert!(
        !report.clean(),
        "canary campaign of 600 schedules found nothing"
    );
}

#[test]
fn shrunk_canary_trace_still_fails() {
    let original = run_seed::<RunResult>(CANARY_SEED, true);
    assert!(!original.violations.is_empty());
    let shrunk = shrink::shrink(&original.trace, |t| {
        !run_trace::<RunResult>(t, true).violations.is_empty()
    });
    assert!(shrunk.len() <= original.trace.len());
    let replayed = run_trace::<RunResult>(&shrunk, true);
    assert!(
        !replayed.violations.is_empty(),
        "shrinking lost the failure"
    );
}
