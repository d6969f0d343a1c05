//! Ablations of the two design choices the paper calls out.
//!
//! **A1 — delayed-commit benefit vs distributed fraction.** "The
//! amount of improvement is dependent upon the fraction of
//! transactions that require distributed commitment" (§3.2): the
//! optimization saves one subordinate log force per *distributed*
//! update transaction, so its effect on a subordinate's logging load
//! scales with the distributed fraction of the workload.
//!
//! **A2 — group-commit window sweep.** "It sacrifices latency in
//! order to increase throughput" (§3.5): a longer accumulation window
//! batches more commit records per platter write, raising TPS at
//! saturation while raising per-transaction latency.

use camelot_core::{CommitMode, EngineConfig, TwoPhaseVariant};
use camelot_net::Outcome;
use camelot_node::{AppSpec, World, WorldConfig};
use camelot_sim::Scheduler;
use camelot_types::{Duration, ObjectId, ServerId, SiteId, Time};
use camelot_wal::BatchPolicy;

use crate::fmt::{Report, Table};

// =====================================================================
// A1: delayed commit vs distributed fraction
// =====================================================================

/// Measures subordinate log forces per distributed update transaction
/// for one protocol variant.
pub fn sub_forces_per_txn(variant: TwoPhaseVariant, quick: bool) -> f64 {
    let reps = if quick { 20 } else { 100 };
    let mut engine = EngineConfig::for_variant(variant);
    engine.ack_flush_interval = Duration::from_millis(50);
    let mut cfg = WorldConfig::latency(2, engine, 77);
    // Give the background flush time to batch several lazy commit
    // records per platter write, as a loaded disk manager would.
    cfg.disk.lazy_flush = Duration::from_millis(500);
    let spec = AppSpec::minimal(SiteId(1), &[SiteId(2)], true, CommitMode::TwoPhase, reps);
    let mut world = World::new(cfg);
    let app = world.add_app(spec);
    let mut sched = Scheduler::new(77);
    world.start(&mut sched);
    assert!(world.run(&mut sched, Time(3_600_000_000)));
    world.settle(&mut sched, Duration::from_secs(2));
    let committed = world
        .records(app)
        .iter()
        .filter(|r| r.outcome == Outcome::Committed)
        .count() as f64;
    world.platter_writes(SiteId(2)) as f64 / committed
}

/// Builds the A1 report: subordinate log writes per 100 transactions
/// as the distributed fraction varies.
pub fn run_delayed_commit(quick: bool) -> Report {
    let opt = sub_forces_per_txn(TwoPhaseVariant::Optimized, quick);
    let unopt = sub_forces_per_txn(TwoPhaseVariant::Unoptimized, quick);
    let mut t = Table::new(vec![
        "DISTRIBUTED FRACTION",
        "SUB WRITES/100 TXNS (OPTIMIZED)",
        "SUB WRITES/100 TXNS (UNOPTIMIZED)",
        "SAVED",
    ]);
    for f in [0u32, 25, 50, 75, 100] {
        let o = opt * f as f64;
        let u = unopt * f as f64;
        t.row(vec![
            format!("{f}%"),
            format!("{o:.0}"),
            format!("{u:.0}"),
            format!("{:.0}", u - o),
        ]);
    }
    let mut text = t.render();
    text.push_str(&format!(
        "\nmeasured per distributed txn: optimized {opt:.2} vs unoptimized {unopt:.2} \
         subordinate platter writes.\nLocal transactions write nothing at the \
         subordinate, so the saving scales with the distributed fraction (§3.2).\n",
    ));
    Report::new(
        "Ablation A1: delayed-commit saving vs distributed fraction",
        text,
    )
}

// =====================================================================
// A2: group-commit window sweep
// =====================================================================

/// One window-sweep point.
#[derive(Debug, Clone, Copy)]
pub struct WindowPoint {
    pub window_ms: u64,
    pub tps: f64,
    pub mean_latency_ms: f64,
    pub writes_per_sec: f64,
}

/// Runs the update-throughput workload under a `Window(d)` batching
/// policy (d = 0 means plain coalescing).
pub fn window_sweep(quick: bool) -> Vec<WindowPoint> {
    let txns = if quick { 20 } else { 100 };
    let pairs = 4u32;
    let mut out = Vec::new();
    for window_ms in [0u64, 5, 15, 30, 60] {
        let mut cfg = WorldConfig::throughput(20, true, pairs, 88);
        cfg.disk.policy = if window_ms == 0 {
            BatchPolicy::Coalesce
        } else {
            BatchPolicy::Window(Duration::from_millis(window_ms))
        };
        let mut world = World::new(cfg);
        for k in 0..pairs {
            let mut spec = AppSpec::minimal(SiteId(1), &[], true, CommitMode::TwoPhase, txns);
            spec.ops[0].server = ServerId(k + 1);
            spec.ops[0].object = ObjectId(20_000 + k as u64);
            world.add_app(spec);
        }
        let mut sched = Scheduler::new(88);
        world.start(&mut sched);
        assert!(world.run(&mut sched, Time(3_600_000_000)));
        let elapsed = sched.now().as_secs_f64();
        let mut committed = 0usize;
        let mut lat_sum = 0.0;
        for a in 0..pairs as usize {
            for r in world.records(a) {
                if r.outcome == Outcome::Committed {
                    committed += 1;
                    lat_sum += r.latency().as_millis_f64();
                }
            }
        }
        out.push(WindowPoint {
            window_ms,
            tps: committed as f64 / elapsed,
            mean_latency_ms: lat_sum / committed as f64,
            writes_per_sec: world.platter_writes(SiteId(1)) as f64 / elapsed,
        });
    }
    out
}

/// Builds the A2 report.
pub fn run_group_commit(quick: bool) -> Report {
    let points = window_sweep(quick);
    let mut t = Table::new(vec!["WINDOW (ms)", "TPS", "MEAN LATENCY (ms)", "WRITES/s"]);
    for p in &points {
        t.row(vec![
            format!("{}", p.window_ms),
            format!("{:.1}", p.tps),
            format!("{:.1}", p.mean_latency_ms),
            format!("{:.1}", p.writes_per_sec),
        ]);
    }
    let mut text = t.render();
    text.push_str(
        "\ngroup commit trades latency for throughput (§3.5): wider windows \
         batch more commit records per platter write, at higher per-\
         transaction latency.\n",
    );
    Report::new("Ablation A2: group-commit window sweep", text)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Extra sanity experiment for A1: the optimized
    /// variant's end-to-end latency does not exceed the unoptimized one
    /// ("throughput is improved at no cost to latency"). Measured on a
    /// deterministic (jitter-free) network so the comparison is exact.
    fn latency_cost_of_optimization(quick: bool) -> (f64, f64) {
        let reps = if quick { 10 } else { 60 };
        let mut out = [0.0f64; 2];
        for (i, variant) in [TwoPhaseVariant::Optimized, TwoPhaseVariant::Unoptimized]
            .iter()
            .enumerate()
        {
            let engine = EngineConfig::for_variant(*variant);
            let mut cfg = WorldConfig::latency(2, engine, 5);
            cfg.net = camelot_node::NetConfig::deterministic();
            let spec = AppSpec::minimal(SiteId(1), &[SiteId(2)], true, CommitMode::TwoPhase, reps);
            let mut world = World::new(cfg);
            let app = world.add_app(spec);
            let mut sched = Scheduler::new(5);
            world.start(&mut sched);
            assert!(world.run(&mut sched, Time(3_600_000_000)));
            let mean: f64 = world
                .records(app)
                .iter()
                .map(|r| r.latency().as_millis_f64())
                .sum::<f64>()
                / reps as f64;
            out[i] = mean;
        }
        (out[0], out[1])
    }

    #[test]
    fn delayed_commit_saves_about_one_force_per_distributed_txn() {
        let opt = sub_forces_per_txn(TwoPhaseVariant::Optimized, true);
        let unopt = sub_forces_per_txn(TwoPhaseVariant::Unoptimized, true);
        assert!(
            (1.8..2.2).contains(&unopt),
            "unoptimized {unopt} ~ 2 forces/txn"
        );
        assert!(
            opt < unopt - 0.5,
            "optimized {opt} must save most of a force"
        );
    }

    #[test]
    fn optimization_costs_no_latency() {
        let (opt, unopt) = latency_cost_of_optimization(true);
        assert!(
            opt <= unopt + 3.0,
            "optimized latency {opt:.1} must not exceed unoptimized {unopt:.1}"
        );
    }

    #[test]
    fn wider_windows_trade_latency_for_fewer_writes() {
        let points = window_sweep(true);
        let first = points.first().unwrap();
        let last = points.last().unwrap();
        assert!(
            last.writes_per_sec < first.writes_per_sec,
            "wider window must batch more: {} vs {}",
            last.writes_per_sec,
            first.writes_per_sec
        );
        assert!(
            last.mean_latency_ms > first.mean_latency_ms,
            "wider window must cost latency: {} vs {}",
            last.mean_latency_ms,
            first.mean_latency_ms
        );
    }
}
