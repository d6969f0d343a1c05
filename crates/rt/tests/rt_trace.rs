//! Tracing and auditing on the real-thread runtime: every protocol
//! configuration runs one clean 1-subordinate transaction with the
//! trace ring on, in each execution mode, and the drained timeline
//! must satisfy the paper's cost budget under the *full* (exact) check
//! — the same budgets the harness oracle pins against
//! `harness::counts::measure`. Plus the phase-histogram wiring and the
//! determinism of `debug_state`.

use std::time::Duration as StdDuration;

use camelot_core::{CommitMode, EngineConfig, TwoPhaseVariant};
use camelot_net::Outcome;
use camelot_rt::{
    audit_family, budget_for, AuditProtocol, Cluster, ExecMode, Phase, RtConfig, TraceEvent,
    TraceEventKind,
};
use camelot_types::{FamilyId, ObjectId, ServerId, SiteId};

const S1: SiteId = SiteId(1);
const S2: SiteId = SiteId(2);
const SRV: ServerId = ServerId(1);

/// Fast disks and links, but *default* (long) protocol timers: no
/// timer-driven retries pollute the primitive counts, so the exact
/// budget check is deterministic.
fn traced_cfg() -> RtConfig {
    RtConfig {
        datagram_delay: StdDuration::from_millis(1),
        platter_delay: StdDuration::from_millis(1),
        trace: true,
        ..RtConfig::default()
    }
}

/// Runs one clean 2-site transaction (home + one subordinate) under
/// `cfg`/`mode`, waits out the cleanup traffic (ack flush, lazy
/// commit-record flush), and returns the family with the full drained
/// timeline.
fn run_traced(cfg: RtConfig, mode: CommitMode, write: bool) -> (FamilyId, Vec<TraceEvent>) {
    let cluster = Cluster::new(2, cfg);
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    if write {
        client
            .write(&tid, S1, SRV, ObjectId(1), b"home".to_vec())
            .unwrap();
        client
            .write(&tid, S2, SRV, ObjectId(2), b"remote".to_vec())
            .unwrap();
    } else {
        client.read(&tid, S1, SRV, ObjectId(1)).unwrap();
        client.read(&tid, S2, SRV, ObjectId(2)).unwrap();
    }
    let out = client.commit(&tid, mode).unwrap();
    assert_eq!(out, Outcome::Committed);
    // The audited budget includes cleanup primitives (acknowledgement
    // flush at 50ms, lazy commit-record flush): let them happen
    // before the rings are drained.
    std::thread::sleep(StdDuration::from_millis(400));
    let family = tid.family;
    let events = cluster.drain_trace();
    assert_eq!(
        cluster.stats().total_trace_dropped(),
        0,
        "trace ring overflowed"
    );
    cluster.shutdown();
    (family, events)
}

/// Audits one protocol under both execution modes: queueing data
/// operations may change where time goes, never how many forces and
/// datagrams the protocol costs.
fn audit_one(cfg: RtConfig, mode: CommitMode, write: bool, protocol: AuditProtocol) {
    for exec_mode in [ExecMode::LockBased, ExecMode::Queued] {
        let cfg = RtConfig {
            exec_mode,
            ..cfg.clone()
        };
        let (family, events) = run_traced(cfg, mode, write);
        let budget = budget_for(protocol);
        let counts = audit_family(family, &events, &budget)
            .unwrap_or_else(|e| panic!("{exec_mode:?}: audit failed: {e}"));
        assert!(
            counts.datagrams >= budget.datagrams_min,
            "{exec_mode:?}: timeline missing wire traffic for {family}"
        );
    }
}

#[test]
fn audit_two_phase_delayed_update() {
    audit_one(
        traced_cfg(),
        CommitMode::TwoPhase,
        true,
        AuditProtocol::TwoPhaseDelayed,
    );
}

#[test]
fn audit_two_phase_standard_update() {
    let mut cfg = traced_cfg();
    cfg.engine = EngineConfig::for_variant(TwoPhaseVariant::Unoptimized);
    audit_one(
        cfg,
        CommitMode::TwoPhase,
        true,
        AuditProtocol::TwoPhaseStandard,
    );
}

#[test]
fn audit_two_phase_read_only() {
    audit_one(
        traced_cfg(),
        CommitMode::TwoPhase,
        false,
        AuditProtocol::ReadOnly,
    );
}

#[test]
fn audit_non_blocking_update() {
    audit_one(
        traced_cfg(),
        CommitMode::NonBlocking,
        true,
        AuditProtocol::NonBlocking,
    );
}

#[test]
fn audit_non_blocking_read() {
    audit_one(
        traced_cfg(),
        CommitMode::NonBlocking,
        false,
        AuditProtocol::NonBlockingRead,
    );
}

/// The timeline tells the whole commit story in order: the commit
/// call precedes the coordinator's forced record becoming durable,
/// which precedes the resolution, which precedes the subordinate
/// datagram traffic being acknowledged. Spot-check the structural
/// ordering the auditor and the chaos failure dumps rely on.
#[test]
fn timeline_orders_commit_force_before_resolution() {
    let (family, events) = run_traced(traced_cfg(), CommitMode::TwoPhase, true);
    let mine: Vec<&TraceEvent> = events.iter().filter(|e| e.family == Some(family)).collect();
    let pos = |pred: &dyn Fn(&TraceEventKind) -> bool| mine.iter().position(|e| pred(&e.kind));
    let commit_call = pos(&|k| matches!(k, TraceEventKind::CommitCall { .. }))
        .expect("no commit_call in timeline");
    let force_durable = pos(&|k| matches!(k, TraceEventKind::LogDurable { lazy: false, .. }))
        .expect("no forced log_durable in timeline");
    let resolved =
        pos(&|k| matches!(k, TraceEventKind::Resolved { .. })).expect("no resolution in timeline");
    assert!(commit_call < force_durable, "force before the commit call");
    assert!(
        force_durable < resolved,
        "resolution before the commit record was durable"
    );
    // Timestamps are monotone within the merged timeline.
    assert!(events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    // Site attribution: both sites contributed events for the family.
    assert!(mine.iter().any(|e| e.site == S1) && mine.iter().any(|e| e.site == S2));
}

/// Non-blocking commit's begin record is forced *concurrently* with
/// phase one (paper §3.3 change 5: it gates only the replication
/// phase). The engine emits the force ahead of `AskVote` and the
/// `NbPrepare` broadcast in one batch, on the committing thread — which
/// therefore must not lead that platter write: under a slow disk the
/// prepare reaches the subordinate long before the coordinator's write
/// completes, and a read-only commit (which never needs the begin
/// record) returns without waiting for a platter at all.
#[test]
fn nb_begin_force_overlaps_phase_one() {
    let platter = StdDuration::from_millis(80);
    let cfg = RtConfig {
        datagram_delay: StdDuration::from_millis(5),
        platter_delay: platter,
        // No background flush: the coordinator's first write is the
        // begin record's.
        lazy_flush: StdDuration::from_secs(60),
        ..traced_cfg()
    };
    let (_, events) = run_traced(cfg.clone(), CommitMode::NonBlocking, true);
    let at = |site: SiteId, pred: &dyn Fn(&TraceEventKind) -> bool| {
        events
            .iter()
            .find(|e| e.site == site && pred(&e.kind))
            .map(|e| e.at_us)
    };
    let begin_durable = at(S1, &|k| matches!(k, TraceEventKind::BatchDurable { .. }))
        .expect("the coordinator wrote nothing");
    let prepared = at(
        S2,
        &|k| matches!(k, TraceEventKind::DatagramRecv { msg, .. } if *msg == "NbPrepare"),
    )
    .expect("the subordinate never heard NbPrepare");
    assert!(
        prepared < begin_durable,
        "NbPrepare arrived at {prepared} µs, after the begin record's platter \
         write completed at {begin_durable} µs: phase one waited for the force"
    );

    // Read-only, one site and two: the outcome never waits for the
    // begin record, so the call is shorter than one platter write.
    for sites in [1, 2] {
        let cluster = Cluster::new(sites, cfg.clone());
        let client = cluster.client(S1);
        let tid = client.begin().unwrap();
        for site in (1..=sites).map(SiteId) {
            client.read(&tid, site, SRV, ObjectId(1)).unwrap();
        }
        let started = std::time::Instant::now();
        let out = client.commit(&tid, CommitMode::NonBlocking).unwrap();
        let took = started.elapsed();
        assert_eq!(out, Outcome::Committed);
        assert!(
            took < platter,
            "{sites}-site read-only commit took {took:?}: it sat through a \
             {platter:?} platter write"
        );
        cluster.shutdown();
    }
}

/// Draining consumes: a second drain on a quiesced cluster is empty.
#[test]
fn drain_consumes_the_rings() {
    let cluster = Cluster::new(1, traced_cfg());
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    client
        .write(&tid, S1, SRV, ObjectId(1), b"x".to_vec())
        .unwrap();
    client.commit(&tid, CommitMode::TwoPhase).unwrap();
    std::thread::sleep(StdDuration::from_millis(150));
    assert!(!cluster.drain_trace().is_empty());
    assert!(cluster.drain_trace().is_empty(), "drain must consume");
    cluster.shutdown();
}

/// A cluster built without `trace` pays nothing and yields nothing.
#[test]
fn untraced_cluster_yields_no_events() {
    let mut cfg = traced_cfg();
    cfg.trace = false;
    let cluster = Cluster::new(1, cfg);
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    client
        .write(&tid, S1, SRV, ObjectId(1), b"x".to_vec())
        .unwrap();
    client.commit(&tid, CommitMode::TwoPhase).unwrap();
    assert!(cluster.drain_trace().is_empty());
    assert_eq!(cluster.stats().total_trace_dropped(), 0);
    cluster.shutdown();
}

/// The phase histograms are always on (independent of `trace`): a
/// committed update must have samples in every client-visible phase
/// and in the disk pipeline phases.
#[test]
fn phase_histograms_capture_the_commit_pipeline() {
    let mut cfg = traced_cfg();
    cfg.trace = false;
    let cluster = Cluster::new(2, cfg);
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    client
        .write(&tid, S1, SRV, ObjectId(1), b"a".to_vec())
        .unwrap();
    client
        .write(&tid, S2, SRV, ObjectId(2), b"b".to_vec())
        .unwrap();
    client.commit(&tid, CommitMode::TwoPhase).unwrap();
    std::thread::sleep(StdDuration::from_millis(150));
    let phases = cluster.stats().phases();
    assert_eq!(phases.get(Phase::BeginCall).count(), 1);
    assert_eq!(phases.get(Phase::OpCall).count(), 2);
    assert_eq!(phases.get(Phase::Commit2pc).count(), 1);
    assert!(phases.get(Phase::CommitNb).is_empty());
    assert!(
        phases.get(Phase::ForceWait).count() >= 2,
        "coordinator commit + subordinate prepare forces"
    );
    assert!(phases.get(Phase::PlatterWrite).count() >= 2);
    // Percentiles read coherently off the merged snapshot.
    let commit = phases.get(Phase::Commit2pc);
    assert!(commit.percentile(50.0) <= commit.percentile(99.0));
    assert!(commit.percentile(99.0) <= commit.max_us());
    cluster.shutdown();
}

/// `debug_state` is deterministic: with in-doubt protocol state held
/// still, two dumps of the same site compare equal, and families
/// appear sorted by id whatever order they began or arrived in.
#[test]
fn debug_state_is_deterministic() {
    let cluster = Cluster::new(2, traced_cfg());
    let client = cluster.client(S1);
    // Pin several live families in each site's engine by leaving
    // transactions open mid-flight.
    let mut open = Vec::new();
    for i in 0..6u64 {
        let tid = client.begin().unwrap();
        client
            .write(&tid, S1, SRV, ObjectId(100 + i), vec![i as u8])
            .unwrap();
        client
            .write(&tid, S2, SRV, ObjectId(200 + i), vec![i as u8])
            .unwrap();
        open.push(tid);
    }
    for site in [S1, S2] {
        let a = cluster.debug_state(site);
        let b = cluster.debug_state(site);
        assert_eq!(a, b, "debug_state not stable across calls");
        assert!(!a.is_empty(), "open families must show up");
        // Engine lines are sorted by family id: extract the family
        // seq numbers ("F1.4" → 4) in print order, check monotonicity.
        let seqs: Vec<u64> = a
            .split("; ")
            .filter(|l| l.contains("engine:"))
            .filter_map(|l| {
                let id = l.split_whitespace().nth(2)?;
                id.split('.').next_back()?.parse().ok()
            })
            .collect();
        assert!(seqs.len() >= 2, "expected several engine lines: {a}");
        assert!(seqs.windows(2).all(|w| w[0] <= w[1]), "unsorted: {a}");
    }
    for tid in &open {
        client.abort(tid).unwrap();
    }
    cluster.shutdown();
}

#[test]
fn chunked_drain_returns_everything_then_terminates() {
    let cluster = Cluster::new(2, traced_cfg());
    let client = cluster.client(S1);
    for i in 0..4u64 {
        let tid = client.begin().unwrap();
        client
            .write(&tid, S1, SRV, ObjectId(300 + i), vec![i as u8])
            .unwrap();
        client
            .write(&tid, S2, SRV, ObjectId(400 + i), vec![i as u8])
            .unwrap();
        let out = client.commit(&tid, CommitMode::TwoPhase).unwrap();
        assert_eq!(out, Outcome::Committed);
    }
    std::thread::sleep(StdDuration::from_millis(300));
    // Trace counters must surface in the stats snapshot.
    let stats = cluster.stats();
    assert!(
        stats.sites.iter().map(|s| s.trace_emitted).sum::<u64>() > 0,
        "traced run must report emitted events"
    );
    assert_eq!(stats.total_trace_dropped(), 0);
    // Chunked drain: bounded slices, merged-timeline order, empty
    // chunk terminates, and nothing is lost or duplicated.
    let mut chunks = Vec::new();
    loop {
        let chunk = cluster.drain_trace_chunk(7);
        if chunk.is_empty() {
            break;
        }
        assert!(chunk.len() <= 7);
        chunks.extend(chunk);
    }
    assert!(chunks.len() > 14, "expected several chunks of events");
    assert!(
        chunks.windows(2).all(|w| w[0].at_us <= w[1].at_us),
        "chunks must come out in timeline order"
    );
    // Rings are dry now: a full drain yields nothing more.
    assert!(cluster.drain_trace().is_empty());
    cluster.shutdown();
}
