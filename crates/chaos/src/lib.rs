//! # camelot-chaos
//!
//! Deterministic fault-schedule exploration for the Camelot
//! commitment protocols. Where the property suites in `tests/`
//! randomize *workloads* over the happy path, this crate randomizes
//! the *schedule*: which queued message is delivered next, which
//! timer fires early, which datagram is dropped or duplicated, which
//! site crashes, restarts, or is partitioned away — then heals the
//! cluster and checks the invariants the paper's protocols promise:
//!
//! - **agreement** — the coordinator and the updating subordinates of
//!   a family never resolve it differently (read-only participants
//!   may forget a committed family: that is the presumed-abort
//!   read-only optimization working as designed);
//! - **app-outcome stability** — the outcome returned to the
//!   application never degrades: a reported commit of an updating
//!   transaction re-resolves Committed at every subject site after
//!   any amount of healing and recovery, and a reported abort never
//!   turns into a commit;
//! - **durability** — a committed outcome at the coordinator or an
//!   updating subordinate survives a full-cluster crash, and nothing
//!   flips from Aborted to Committed after the fact;
//! - **progress** — after healing, no site holding a durable prepared
//!   record is left blocked in doubt, and every coordinator that
//!   never crashed answers its application;
//! - **lock hygiene** — once a family is resolved anywhere, no data
//!   server anywhere still holds locks or family state for it after
//!   full healing (the engine's orphan watchdog closes the
//!   joined-but-never-prepared gap by inquiring at the origin), and
//!   no locks survive without a live family.
//!
//! Every run is a pure function of a decision trace ([`Chooser`]),
//! so a failure prints a seed and a (shrunk) trace that replays the
//! exact schedule: `cargo run -p camelot-chaos -- --replay <trace>`.

use camelot_types::splitmix64;

pub mod choice;
pub mod rt;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use choice::Chooser;
pub use rt::RtRunResult;
pub use runner::RunResult;

/// What a campaign needs of one schedule's result; the campaign loop,
/// the shrinker and the CLI are written once over it. [`RunResult`]
/// (the deterministic sim) and [`RtRunResult`] (real threads) are the
/// two runners.
pub trait Schedule: Sized {
    /// Runs one schedule, every decision drawn from `ch`. With `canary`
    /// the engines run the deliberately broken
    /// `unsafe_no_commit_force` config.
    fn run_one(ch: &mut Chooser, canary: bool) -> Self;
    /// The complete decision trace.
    fn trace(&self) -> &[u32];
    /// Invariant violations, empty on a clean run.
    fn violations(&self) -> &[String];
    /// One line saying what the decisions decoded to.
    fn describe(&self) -> String;
    /// The culprit families' timeline (JSONL), if the runner keeps one.
    fn culprit_trace(&self) -> Option<&str> {
        None
    }
}

/// One failing schedule, minimized.
#[derive(Debug)]
pub struct Failure<R> {
    /// Index of the schedule within the campaign.
    pub index: u64,
    /// Per-schedule seed (for `--seed <s> --schedules 1` replay).
    pub seed: u64,
    /// The full run result of the original failure.
    pub result: R,
    /// Greedily shrunk trace that still reproduces a violation.
    pub shrunk: Vec<u32>,
}

/// Summary of a campaign.
#[derive(Debug)]
pub struct CampaignReport<R> {
    pub schedules: u64,
    pub failures: Vec<Failure<R>>,
}

impl<R> CampaignReport<R> {
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// SplitMix64 — derives independent per-schedule seeds from the
/// campaign seed.
pub fn schedule_seed(base: u64, index: u64) -> u64 {
    splitmix64(base.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(index.wrapping_add(1))))
}

/// Runs the trace-replay of one schedule.
pub fn run_trace<R: Schedule>(trace: &[u32], canary: bool) -> R {
    R::run_one(&mut Chooser::replay(trace), canary)
}

/// Runs one randomized schedule from a seed.
pub fn run_seed<R: Schedule>(seed: u64, canary: bool) -> R {
    R::run_one(&mut Chooser::random(seed), canary)
}

/// Runs schedules `0..schedules`; `run` gives each index its seed, its
/// result and whether an enumerated index overflowed the decision
/// space (such a schedule repeats a smaller index and is only
/// counted). Failures are shrunk — greedily, re-running each candidate
/// trace — before being reported.
fn explore<R: Schedule>(
    schedules: u64,
    canary: bool,
    run: impl Fn(u64) -> (u64, R, bool),
) -> (CampaignReport<R>, u64) {
    let mut failures = Vec::new();
    let mut overflowed = 0;
    for index in 0..schedules {
        let (seed, result, overflow) = run(index);
        if overflow {
            overflowed += 1;
        } else if !result.violations().is_empty() {
            let shrunk = shrink::shrink(result.trace(), |t| {
                !run_trace::<R>(t, canary).violations().is_empty()
            });
            failures.push(Failure {
                index,
                seed,
                result,
                shrunk,
            });
        }
    }
    let report = CampaignReport {
        schedules,
        failures,
    };
    (report, overflowed)
}

/// Runs `schedules` randomized schedules derived from `base_seed`.
pub fn campaign<R: Schedule>(base_seed: u64, schedules: u64, canary: bool) -> CampaignReport<R> {
    let run = |i| {
        let seed = schedule_seed(base_seed, i);
        (seed, run_seed(seed, canary), false)
    };
    explore(schedules, canary, run).0
}

/// Runs schedules `0..limit` of the bounded-exhaustive enumeration
/// (mixed-radix indices). Returns the report plus the number of
/// indices that overflowed the decision space (an all-overflow tail
/// means the space below `limit` is exhausted).
pub fn exhaustive<R: Schedule>(limit: u64, canary: bool) -> (CampaignReport<R>, u64) {
    explore(limit, canary, |i| {
        let mut ch = Chooser::enumerated(i);
        let result = R::run_one(&mut ch, canary);
        (i, result, ch.enumeration_overflowed())
    })
}

/// Formats a trace the way the CLI prints and parses it.
pub fn format_trace(trace: &[u32]) -> String {
    trace
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses a CLI trace string (`"0,3,1,2"`).
pub fn parse_trace(s: &str) -> Result<Vec<u32>, String> {
    s.split(',')
        .filter(|p| !p.trim().is_empty())
        .map(|p| {
            p.trim()
                .parse::<u32>()
                .map_err(|e| format!("bad trace element {p:?}: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_roundtrip() {
        let t = vec![0, 3, 11, 2];
        assert_eq!(parse_trace(&format_trace(&t)).unwrap(), t);
        assert_eq!(parse_trace("").unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn schedule_seeds_are_spread() {
        let a = schedule_seed(1, 0);
        let b = schedule_seed(1, 1);
        let c = schedule_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
