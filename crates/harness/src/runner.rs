//! Experiment runners: latency and throughput sweeps over the
//! simulated world.

use camelot_core::{CommitMode, EngineConfig, TwoPhaseVariant};
use camelot_net::Outcome;
use camelot_node::{AppSpec, World, WorldConfig};
use camelot_sim::{Scheduler, Series};
use camelot_types::{Duration, ObjectId, ServerId, SiteId, Time};

/// Result of one latency experiment (one configuration, many
/// repetitions).
#[derive(Debug)]
pub struct LatencyResult {
    /// End-to-end transaction latency (ms).
    pub total: Series,
    /// Transaction-management-only latency: total minus the §4.2
    /// operation-cost constant (3.5 + 29.5·n ms).
    pub tm_only: Series,
    /// Measured time inside operation calls (ms) — exceeds the
    /// constant exactly when operations waited for locks.
    pub op_time: Series,
}

/// Runs the paper's basic latency experiment: a minimal transaction on
/// a coordinator and `subs` subordinate sites, repeated `reps` times
/// back to back (as in §4.2, where the same application re-runs the
/// transaction and the previous transaction's lock release interleaves
/// with the next one's operations).
pub fn run_latency(
    subs: u32,
    write: bool,
    mode: CommitMode,
    variant: TwoPhaseVariant,
    multicast: bool,
    reps: u32,
    seed: u64,
) -> LatencyResult {
    let mut engine = EngineConfig::for_variant(variant);
    // Keep commit-ack flushes prompt so back-to-back transactions see
    // realistic piggyback traffic.
    engine.ack_flush_interval = Duration::from_millis(50);
    let mut cfg = WorldConfig::latency(subs + 1, engine, seed);
    cfg.multicast = multicast;
    // Per-process CPU overhead the paper's static analysis ignores;
    // calibrated so the local update lands near the measured 31 ms.
    cfg.hop_overhead_mean = Duration::from_micros(600);
    let sub_sites: Vec<SiteId> = (2..=subs + 1).map(SiteId).collect();
    let spec = AppSpec::minimal(SiteId(1), &sub_sites, write, mode, reps);
    let mut world = World::new(cfg);
    let app = world.add_app(spec);
    let mut sched = Scheduler::new(seed);
    world.start(&mut sched);
    let finished = world.run(&mut sched, Time(3_600_000_000));
    assert!(finished, "latency experiment did not finish");
    world.settle(&mut sched, Duration::from_secs(5));
    let op_constant = 3.5 + 29.5 * subs as f64;
    let mut total = Series::new();
    let mut tm_only = Series::new();
    let mut op_time = Series::new();
    for r in world.records(app) {
        assert_eq!(r.outcome, Outcome::Committed, "minimal txns must commit");
        let ms = r.latency().as_millis_f64();
        total.add(ms);
        tm_only.add((ms - op_constant).max(0.0));
        op_time.add(r.op_time.as_millis_f64());
    }
    LatencyResult {
        total,
        tm_only,
        op_time,
    }
}

/// Result of one throughput experiment.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputResult {
    /// Committed transactions per second over the measured window.
    pub tps: f64,
    /// Platter writes per second (shows what group commit saves).
    pub writes_per_sec: f64,
}

/// Runs the paper's throughput experiment: `pairs` application/server
/// pairs (each pair has its own server, so operation processing never
/// bottlenecks) execute minimal local transactions until `txns` each;
/// TPS is total transactions over elapsed virtual time.
pub fn run_throughput(
    threads: usize,
    pairs: u32,
    write: bool,
    group_commit: bool,
    txns: u32,
    seed: u64,
) -> ThroughputResult {
    let cfg = WorldConfig::throughput(threads, group_commit, pairs, seed);
    let mut world = World::new(cfg);
    for k in 0..pairs {
        let mut spec = AppSpec::minimal(SiteId(1), &[], write, CommitMode::TwoPhase, txns);
        spec.ops[0].server = ServerId(k + 1);
        spec.ops[0].object = ObjectId(10_000 + k as u64);
        world.add_app(spec);
    }
    let mut sched = Scheduler::new(seed);
    world.start(&mut sched);
    let finished = world.run(&mut sched, Time(3_600_000_000));
    assert!(finished, "throughput experiment did not finish");
    let elapsed = sched.now().as_secs_f64();
    let committed: usize = (0..pairs as usize)
        .map(|a| {
            world
                .records(a)
                .iter()
                .filter(|r| r.outcome == Outcome::Committed)
                .count()
        })
        .sum();
    let writes = world.platter_writes(SiteId(1));
    ThroughputResult {
        tps: committed as f64 / elapsed,
        writes_per_sec: writes as f64 / elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_runner_produces_reps_samples() {
        let r = run_latency(
            0,
            true,
            CommitMode::TwoPhase,
            TwoPhaseVariant::Optimized,
            false,
            10,
            42,
        );
        assert_eq!(r.total.count(), 10);
        // Local update: static 24.5; measured must exceed it (jitter
        // is off for local transactions but contention from
        // back-to-back lock drops can add a little).
        assert!(r.total.mean() >= 24.5, "mean {}", r.total.mean());
        assert!(r.tm_only.mean() >= 20.0);
    }

    #[test]
    fn distributed_latency_exceeds_local() {
        let local = run_latency(
            0,
            true,
            CommitMode::TwoPhase,
            TwoPhaseVariant::Optimized,
            false,
            5,
            1,
        );
        let dist = run_latency(
            1,
            true,
            CommitMode::TwoPhase,
            TwoPhaseVariant::Optimized,
            false,
            5,
            1,
        );
        assert!(dist.total.mean() > local.total.mean() + 50.0);
    }

    #[test]
    fn throughput_runner_reports_tps() {
        let r = run_throughput(5, 2, false, true, 20, 3);
        assert!(r.tps > 5.0, "tps {}", r.tps);
        assert_eq!(r.writes_per_sec, 0.0, "reads never hit the platter");
        let w = run_throughput(5, 2, true, true, 20, 3);
        assert!(w.writes_per_sec > 1.0, "updates write the log");
    }
}
