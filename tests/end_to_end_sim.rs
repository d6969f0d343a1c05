//! Cross-crate integration tests on the deterministic simulator:
//! multi-site, multi-application scenarios checking end-to-end data
//! consistency, both commit protocols, and determinism.

use camelot::core::{CommitMode, EngineConfig, TwoPhaseVariant};
use camelot::net::Outcome;
use camelot::node::{AppSpec, OpSpec, World, WorldConfig};
use camelot::sim::Scheduler;
use camelot::types::{Duration, ObjectId, ServerId, SiteId, Time};

const HOUR: Time = Time(3_600_000_000);

fn deterministic(sites: u32, seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::latency(sites, EngineConfig::default(), seed);
    cfg.jitter = false;
    cfg
}

#[test]
fn three_sites_two_apps_interleave_safely() {
    // Two applications at different home sites write to overlapping
    // remote servers; everything must commit and the final values
    // must come from one of the committed transactions.
    let cfg = deterministic(3, 11);
    let mut world = World::new(cfg);
    let a = world.add_app(AppSpec {
        home: SiteId(1),
        ops: vec![
            OpSpec::write(SiteId(1), ServerId(1), ObjectId(10)),
            OpSpec::write(SiteId(3), ServerId(1), ObjectId(30)),
        ],
        mode: CommitMode::TwoPhase,
        reps: 10,
        think: Duration::from_millis(3),
    });
    let b = world.add_app(AppSpec {
        home: SiteId(2),
        ops: vec![
            OpSpec::write(SiteId(2), ServerId(1), ObjectId(20)),
            OpSpec::write(SiteId(3), ServerId(1), ObjectId(30)),
        ],
        mode: CommitMode::TwoPhase,
        reps: 10,
        think: Duration::from_millis(5),
    });
    let mut sched = Scheduler::new(11);
    world.start(&mut sched);
    assert!(world.run(&mut sched, HOUR));
    world.settle(&mut sched, Duration::from_secs(10));
    for app in [a, b] {
        assert_eq!(world.records(app).len(), 10);
        for r in world.records(app) {
            assert_eq!(r.outcome, Outcome::Committed);
        }
    }
    // The contended object holds the value of some committed txn.
    assert!(!world
        .committed_value(SiteId(3), ServerId(1), ObjectId(30))
        .is_empty());
    // No engine retains transaction state.
    for s in 1..=3 {
        assert_eq!(world.engine(SiteId(s)).live_families(), 0, "site{s}");
    }
}

#[test]
fn nonblocking_and_two_phase_mix() {
    let cfg = deterministic(3, 13);
    let mut world = World::new(cfg);
    let nb = world.add_app(AppSpec::minimal(
        SiteId(1),
        &[SiteId(2), SiteId(3)],
        true,
        CommitMode::NonBlocking,
        8,
    ));
    let tp = world.add_app(AppSpec {
        home: SiteId(2),
        ops: vec![OpSpec::write(SiteId(2), ServerId(1), ObjectId(99))],
        mode: CommitMode::TwoPhase,
        reps: 8,
        think: Duration::ZERO,
    });
    let mut sched = Scheduler::new(13);
    world.start(&mut sched);
    assert!(world.run(&mut sched, HOUR));
    world.settle(&mut sched, Duration::from_secs(10));
    for app in [nb, tp] {
        for r in world.records(app) {
            assert_eq!(r.outcome, Outcome::Committed);
        }
    }
}

#[test]
fn simulation_is_deterministic_per_seed() {
    let run = |seed: u64| -> Vec<u64> {
        let mut cfg = WorldConfig::latency(2, EngineConfig::default(), seed);
        cfg.seed = seed;
        let mut world = World::new(cfg);
        let app = world.add_app(AppSpec::minimal(
            SiteId(1),
            &[SiteId(2)],
            true,
            CommitMode::TwoPhase,
            10,
        ));
        let mut sched = Scheduler::new(seed);
        world.start(&mut sched);
        assert!(world.run(&mut sched, HOUR));
        world
            .records(app)
            .iter()
            .map(|r| r.latency().as_micros())
            .collect()
    };
    assert_eq!(run(42), run(42), "same seed, same trace");
    assert_ne!(run(42), run(43), "different seed, different jitter");
}

#[test]
fn variants_rank_correctly_on_subordinate_forces() {
    // Per distributed update transaction, the subordinate's protocol
    // forces: optimized 1, semi/unoptimized 2. End-to-end check via
    // engine force counters.
    let mut forces = Vec::new();
    for variant in [
        TwoPhaseVariant::Optimized,
        TwoPhaseVariant::SemiOptimized,
        TwoPhaseVariant::Unoptimized,
    ] {
        let mut cfg = deterministic(2, 17);
        cfg.engine = EngineConfig::for_variant(variant);
        let mut world = World::new(cfg);
        world.add_app(AppSpec::minimal(
            SiteId(1),
            &[SiteId(2)],
            true,
            CommitMode::TwoPhase,
            10,
        ));
        let mut sched = Scheduler::new(17);
        world.start(&mut sched);
        assert!(world.run(&mut sched, HOUR));
        world.settle(&mut sched, Duration::from_secs(10));
        forces.push(world.engine(SiteId(2)).stats().forces);
    }
    assert_eq!(forces[0], 10, "optimized: one force per txn");
    assert_eq!(forces[1], 20, "semi-optimized: two forces per txn");
    assert_eq!(forces[2], 20, "unoptimized: two forces per txn");
}

#[test]
fn nonblocking_critical_path_counts_match_paper() {
    // 4 LF / 5 DG vs 2 LF / 3 DG: verify via engine counters over one
    // 1-subordinate update under each protocol.
    let run = |mode: CommitMode| -> (u64, u64) {
        let cfg = deterministic(2, 19);
        let mut world = World::new(cfg);
        world.add_app(AppSpec::minimal(SiteId(1), &[SiteId(2)], true, mode, 1));
        let mut sched = Scheduler::new(19);
        world.start(&mut sched);
        assert!(world.run(&mut sched, HOUR));
        world.settle(&mut sched, Duration::from_secs(20));
        let forces =
            world.engine(SiteId(1)).stats().forces + world.engine(SiteId(2)).stats().forces;
        let lazy = world.engine(SiteId(1)).stats().lazy_appends
            + world.engine(SiteId(2)).stats().lazy_appends;
        (forces, lazy)
    };
    let (tp_forces, tp_lazy) = run(CommitMode::TwoPhase);
    let (nb_forces, nb_lazy) = run(CommitMode::NonBlocking);
    // Two-phase: coordinator commit force + subordinate prepare force.
    assert_eq!(tp_forces, 2);
    assert_eq!(tp_lazy, 1, "the delayed commit record");
    // Non-blocking: begin + sub prepare + sub replicate + commit.
    assert_eq!(nb_forces, 4);
    assert_eq!(nb_lazy, 1, "the subordinate's lazy outcome record");
}

#[test]
fn throughput_world_saturates_not_crashes() {
    // Push the throughput configuration hard and verify it completes
    // with consistent data.
    let cfg = WorldConfig::throughput(5, true, 6, 23);
    let mut world = World::new(cfg);
    for k in 0..6u32 {
        let mut spec = AppSpec::minimal(SiteId(1), &[], true, CommitMode::TwoPhase, 30);
        spec.ops[0].server = ServerId(k + 1);
        spec.ops[0].object = ObjectId(k as u64);
        world.add_app(spec);
    }
    let mut sched = Scheduler::new(23);
    world.start(&mut sched);
    assert!(world.run(&mut sched, HOUR));
    world.settle(&mut sched, Duration::from_secs(10));
    for k in 0..6u32 {
        assert_eq!(world.records(k as usize).len(), 30);
        assert!(!world
            .committed_value(SiteId(1), ServerId(k + 1), ObjectId(k as u64))
            .is_empty());
    }
}
