//! Chaos over real threads.
//!
//! The sim campaigns (`runner`) own the *interleaving*: every queue
//! pop is a recorded decision, so a trace replays bit-for-bit. The
//! real-thread runtime cannot promise that — the OS schedules the
//! worker pools — so this module explores a different axis: the
//! *fault plan*. Every run draws a workload and a fault schedule
//! (link faults, a crash at a named [`CrashPoint`], optional WAL
//! corruption between crash and restart, a checkpoint — clean or
//! crashed — and a crash inside a restart) from one [`Chooser`], aims
//! it at a live [`Cluster`], heals, and checks the same invariant
//! families as the sim runner:
//!
//! - **atomic commit / agreement** — every object a transaction wrote
//!   converges to the same value at every replica site;
//! - **no lost updates** — a commit reported `Committed` to the
//!   application survives the crash and the heal at every replica;
//! - **corruption detection** — a bit-flipped committed record makes
//!   the restart fail with the *typed* corruption error and leaves
//!   the site down (never a panic, never silent truncation);
//! - **lock hygiene / progress** — after healing, a probe transaction
//!   reacquires every object the workload touched, cluster-wide: a
//!   leaked lock or a wedged worker pool fails the probe.
//!
//! A trace replays the same fault *plan*; against real threads that
//! is statistical (same dose, same crash point, same corruption), not
//! bitwise. Shrinking still works because the violations these plans
//! provoke — most importantly the `unsafe_no_commit_force` canary,
//! whose append-without-force commit evaporates when the coordinator
//! dies inside the lazy-flush window — depend on the plan, not on a
//! particular thread interleaving.

use std::sync::Arc;
use std::time::Duration as StdDuration;

use camelot_core::{CommitMode, CrashPoint, EngineConfig, ExecMode};
use camelot_net::Outcome;
use camelot_rt::{
    budget_for, count_family, AuditProtocol, Cluster, FaultPlan, LinkDecision, RtConfig, TraceEvent,
};
use camelot_scope::{merge_skew_aware, ScopeEvent};
use camelot_types::{CamelotError, FamilyId, ObjectId, ServerId, SiteId, Tid};

use crate::choice::Chooser;
use crate::Schedule;

const SRV: ServerId = ServerId(1);

/// Outcome of one real-thread schedule.
#[derive(Debug)]
pub struct RtRunResult {
    /// The complete decision trace (workload + fault plan).
    pub trace: Vec<u32>,
    /// Invariant violations, empty on a clean run.
    pub violations: Vec<String>,
    /// Human-readable description of the drawn plan.
    pub plan: String,
    /// On violation: the JSONL timeline of the culpable transaction
    /// families (plus site-level events), drained from the cluster's
    /// trace rings. When no specific family could be blamed (e.g. a
    /// corruption or progress violation), the whole timeline is
    /// dumped. `None` on clean runs.
    pub culprit_trace: Option<String>,
}

impl Schedule for RtRunResult {
    fn run_one(ch: &mut Chooser, canary: bool) -> RtRunResult {
        rt_run_one(ch, canary)
    }
    fn trace(&self) -> &[u32] {
        &self.trace
    }
    fn violations(&self) -> &[String] {
        &self.violations
    }
    fn describe(&self) -> String {
        format!("plan: {}", self.plan)
    }
    fn culprit_trace(&self) -> Option<&str> {
        self.culprit_trace.as_deref()
    }
}

fn rt_cfg(canary: bool, queued: bool) -> RtConfig {
    let mut cfg = RtConfig {
        datagram_delay: StdDuration::from_millis(1),
        platter_delay: StdDuration::from_millis(1),
        // A wide lazy window keeps the canary's append-without-force
        // commit record volatile long enough for a post-commit kill
        // to expose it.
        lazy_flush: StdDuration::from_millis(20),
        call_timeout: StdDuration::from_secs(2),
        engine: EngineConfig::default(),
        // Always on for chaos: a violation report without the
        // timeline that led to it wastes the schedule that found it.
        trace: true,
        ..RtConfig::default()
    };
    if queued {
        cfg.exec_mode = ExecMode::Queued;
        // Short enough that a parked prepare orphaned by a shard-owner
        // crash resolves inside the heal window.
        cfg.queued_vote_timeout = StdDuration::from_millis(300);
    }
    cfg.engine.unsafe_no_commit_force = canary;
    // Every protocol patience shortened so that dropped datagrams
    // resolve within the heal window: a coordinator missing votes
    // aborts in 400ms instead of the production 5s.
    cfg.engine.vote_timeout = camelot_types::Duration::from_millis(400);
    cfg.engine.nb_outcome_timeout = camelot_types::Duration::from_millis(150);
    cfg.engine.takeover_window = camelot_types::Duration::from_millis(80);
    cfg.engine.recruit_window = camelot_types::Duration::from_millis(80);
    cfg.engine.takeover_retry = camelot_types::Duration::from_millis(150);
    cfg.engine.inquiry_interval = camelot_types::Duration::from_millis(200);
    cfg.engine.notify_resend_interval = camelot_types::Duration::from_millis(200);
    cfg.engine.orphan_check_interval = camelot_types::Duration::from_millis(250);
    // A partition window can burn several retry attempts while the
    // links are cut; with the production 60s cap the post-heal retry
    // would land far outside the settle window. Cap the backoff so
    // healed clusters re-converge at chaos timescales.
    cfg.engine.retry_cap = camelot_types::Duration::from_millis(800);
    cfg
}

struct TxnSpec {
    home: SiteId,
    remote: SiteId,
    mode: CommitMode,
    obj: ObjectId,
    value: Vec<u8>,
}

/// When the drawn crash fires, relative to the victim transaction.
enum CrashMode {
    None,
    /// Armed on the coordinator just before the commit call; fires at
    /// the named point inside the log pipeline.
    At(CrashPoint),
    /// The coordinator is killed right after the commit call returns:
    /// inside the lazy-flush window, where only a properly *forced*
    /// commit record survives. This is the schedule that catches the
    /// `unsafe_no_commit_force` canary.
    AfterCommit,
}

/// The drawn fault on the checkpoint / truncation / restart path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecoveryFault {
    None,
    /// Checkpoint the victim's home site after the victim
    /// transaction, crashing at the given point if any.
    Checkpoint(Option<CrashPoint>),
    /// Kill the first site the heal phase restarts between its server
    /// rebuild and its engine rebuild, then restart it again.
    MidRecovery,
}

/// Runs one fault plan drawn from `ch` against a real-thread cluster.
fn rt_run_one(ch: &mut Chooser, canary: bool) -> RtRunResult {
    // ---- Draw the plan ----
    let sites = 2 + ch.choose(2) as u32; // 2..=3
    let n_txns = 2 + ch.choose(3); // 2..=4
    let mut txns = Vec::new();
    for i in 0..n_txns {
        let home = SiteId(1 + ch.choose(sites as usize) as u32);
        let remote = {
            let pick = 1 + ch.choose((sites - 1) as usize) as u32;
            let r = SiteId(if pick == home.0 { sites } else { pick });
            debug_assert_ne!(r, home);
            r
        };
        let mode = if ch.choose(2) == 0 {
            CommitMode::TwoPhase
        } else {
            CommitMode::NonBlocking
        };
        txns.push(TxnSpec {
            home,
            remote,
            mode,
            obj: ObjectId(100 + i as u64),
            value: format!("txn{i}").into_bytes(),
        });
    }
    // Link-fault profile. Drops are dosed with a small budget so the
    // protocols' resend machinery can finish inside the call timeout.
    let link_choice = ch.choose(4);
    let (profile, fault) = match link_choice {
        0 => ("clean links".to_string(), FaultPlan::disabled()),
        1 => (
            "dup+delay links".to_string(),
            FaultPlan::new(
                0xBAD_5EED ^ ch.choose(1 << 16) as u64,
                0,
                300,
                300,
                StdDuration::from_millis(6),
                40,
            ),
        ),
        2 => (
            "lossy links".to_string(),
            FaultPlan::new(
                0xD0_D0 ^ ch.choose(1 << 16) as u64,
                150,
                0,
                150,
                StdDuration::from_millis(6),
                5,
            ),
        ),
        _ => {
            // Deterministic single-datagram fault: drop exactly the
            // Nth datagram ever sent on the 1→2 link. Unlike the
            // seeded profiles, every run of this plan hits the same
            // logical message, so the schedule reproduces the same
            // protocol recovery path (resend, inquiry, or abort).
            let nth = ch.choose(6) as u64;
            let fault = FaultPlan::disabled();
            fault.script_fault(SiteId(1), SiteId(2), nth, LinkDecision::Drop);
            (format!("scripted drop of datagram #{nth} on 1->2"), fault)
        }
    };
    let victim = ch.choose(n_txns);
    // Queued execution gets its own crash points: the interesting
    // instants live inside the shard-owner queues, not the log
    // pipeline.
    let queued = ch.choose(2) == 1;
    let crash_mode = if queued {
        match ch.choose(7) {
            0 => CrashMode::None,
            1 => CrashMode::At(CrashPoint::PreForce),
            2 => CrashMode::At(CrashPoint::PostForcePreSend),
            3 => CrashMode::At(CrashPoint::MidPlatterWrite),
            4 => CrashMode::At(CrashPoint::QueueMidBurst),
            5 => CrashMode::At(CrashPoint::QueueParkedPrepare),
            _ => CrashMode::AfterCommit,
        }
    } else {
        match ch.choose(5) {
            0 => CrashMode::None,
            1 => CrashMode::At(CrashPoint::PreForce),
            2 => CrashMode::At(CrashPoint::PostForcePreSend),
            3 => CrashMode::At(CrashPoint::MidPlatterWrite),
            _ => CrashMode::AfterCommit,
        }
    };
    let corrupt_wal = ch.choose(2) == 1;
    // Partition window: cut the cluster into {1..=m} | {m+1..=sites}
    // just before a drawn transaction; the heal phase lifts it. Calls
    // that straddle the cut time out with typed errors — exactly the
    // outcomes the healed-state invariants must absorb.
    let partition = if ch.choose(3) == 0 {
        None
    } else {
        let at = ch.choose(n_txns);
        let m = 1 + ch.choose((sites - 1) as usize) as u32;
        Some((at, m))
    };
    // Clock skew: one site's protocol timers run late (1500‰) or fast
    // (500‰) for the whole run. Skew must never break safety — it only
    // shifts which timeout fires first.
    let skew = match ch.choose(3) {
        0 => None,
        1 => Some((SiteId(1 + ch.choose(sites as usize) as u32), 1500u32)),
        _ => Some((SiteId(1 + ch.choose(sites as usize) as u32), 500u32)),
    };
    // Bounded-recovery fault: a checkpoint of the victim's home site
    // right after the victim transaction — clean, crashed between
    // snapshot and marker, or crashed between marker and truncation —
    // or a crash half way through the heal phase's first restart. The
    // clean checkpoint matters as much as the crashed ones: whatever
    // dies afterwards recovers from a truncated log.
    let recovery_fault = match ch.choose(5) {
        0 => RecoveryFault::None,
        1 => RecoveryFault::Checkpoint(None),
        2 => RecoveryFault::Checkpoint(Some(CrashPoint::MidCheckpoint)),
        3 => RecoveryFault::Checkpoint(Some(CrashPoint::MidTruncate)),
        _ => RecoveryFault::MidRecovery,
    };
    // A plan with clean links, no crash, no partition/skew and no
    // corruption exercises the protocols' *cost*, not their fault
    // recovery: committed transactions on such runs are audited
    // against the paper's primitive budgets below (floor semantics —
    // timer-driven retries on a loaded machine may add traffic, but a
    // protocol that skips a budgeted durability step is always
    // broken). Queued mode routes operations differently, so its cost
    // is audited by its own benches, not here.
    let clean_plan = link_choice == 0
        && matches!(crash_mode, CrashMode::None)
        && !corrupt_wal
        && partition.is_none()
        && skew.is_none()
        && recovery_fault == RecoveryFault::None
        && !queued;
    let mut plan = format!(
        "{sites} sites, {n_txns} txns, {profile}, queued={queued}, crash={} on txn {victim}, \
         corrupt_wal={corrupt_wal}, partition={}, skew={}, recovery={recovery_fault:?}",
        match crash_mode {
            CrashMode::None => "none".to_string(),
            CrashMode::At(p) => format!("{p:?}"),
            CrashMode::AfterCommit => "AfterCommit".to_string(),
        },
        match partition {
            Some((at, m)) => format!("{{1..={m}}}|{{{}..={sites}}} before txn {at}", m + 1),
            None => "none".to_string(),
        },
        match skew {
            Some((s, pm)) => format!("{s}@{pm}‰"),
            None => "none".to_string(),
        },
    );

    // ---- Run the workload with the plan armed ----
    let fault = Arc::new(fault);
    let cluster = Cluster::new_with_faults(sites, rt_cfg(canary, queued), fault.clone());
    if let Some((site, pm)) = skew {
        fault.set_skew(site, pm);
    }
    let mut violations = Vec::new();
    let mut outcomes: Vec<Result<Outcome, CamelotError>> = Vec::new();
    let mut tids: Vec<Option<Tid>> = Vec::new();
    for (i, t) in txns.iter().enumerate() {
        if let Some((at, m)) = partition {
            if i == at {
                let a: Vec<SiteId> = (1..=m).map(SiteId).collect();
                let b: Vec<SiteId> = (m + 1..=sites).map(SiteId).collect();
                fault.partition(&a, &b);
            }
        }
        let client = cluster.client(t.home);
        let mut started = None;
        let run = (|| {
            let tid = client.begin()?;
            started = Some(tid.clone());
            client.write(&tid, t.home, SRV, t.obj, t.value.clone())?;
            client.write(&tid, t.remote, SRV, t.obj, t.value.clone())?;
            if i == victim {
                if let CrashMode::At(point) = crash_mode {
                    fault.arm_crash(t.home, point);
                }
            }
            client.commit(&tid, t.mode)
        })();
        if i == victim && matches!(crash_mode, CrashMode::AfterCommit) {
            cluster.crash(t.home);
        }
        if let (true, RecoveryFault::Checkpoint(crash)) = (i == victim, recovery_fault) {
            if let Some(point) = crash {
                fault.arm_crash(t.home, point);
            }
            // Returns when the checkpoint is durable and truncated,
            // or at once if the site is (or goes) down.
            cluster.checkpoint(t.home);
        }
        tids.push(started);
        outcomes.push(run);
    }
    let summary: Vec<String> = txns
        .iter()
        .zip(&outcomes)
        .map(|(t, o)| {
            let app = match o {
                Ok(out) => format!("{out:?}"),
                Err(e) => format!("{e}"),
            };
            format!("{}@{}:{:?}={app}", t.obj, t.home, t.mode)
        })
        .collect();
    plan.push_str(&format!("; [{}]", summary.join(", ")));

    // ---- Optional WAL corruption against a crashed site ----
    let crashed: Vec<SiteId> = (1..=sites)
        .map(SiteId)
        .filter(|s| !cluster.is_alive(*s))
        .collect();
    if corrupt_wal {
        if let Some(&s) = crashed.first() {
            match cluster.wal_image(s) {
                Ok(pristine) if pristine.len() > 8 => {
                    let mut evil = pristine.clone();
                    evil[8] ^= 0x01;
                    let _ = cluster.set_wal_image(s, &evil);
                    match cluster.restart(s) {
                        Err(CamelotError::Corruption { .. }) => {
                            if cluster.is_alive(s) {
                                violations
                                    .push(format!("corruption: {s} came up despite a corrupt log"));
                            }
                        }
                        Err(other) => violations.push(format!(
                            "corruption: {s} failed restart with untyped error {other}"
                        )),
                        Ok(()) => violations.push(format!(
                            "corruption: {s} restarted cleanly over a bit-flipped \
                             committed record"
                        )),
                    }
                    let _ = cluster.set_wal_image(s, &pristine);
                }
                _ => {}
            }
        }
    }

    // ---- Heal: stop injecting, restart the dead, let timers run ----
    fault.heal();
    let mut crash_a_restart = recovery_fault == RecoveryFault::MidRecovery;
    for s in (1..=sites).map(SiteId) {
        if !cluster.is_alive(s) {
            if std::mem::take(&mut crash_a_restart) {
                fault.arm_crash(s, CrashPoint::MidRecovery);
                match cluster.restart(s) {
                    Err(CamelotError::SiteDown(_)) if !cluster.is_alive(s) => {}
                    other => violations.push(format!(
                        "heal: {s} should have died half way through its restart: {other:?}"
                    )),
                }
            }
            if let Err(e) = cluster.restart(s) {
                violations.push(format!(
                    "heal: {s} failed to restart on a pristine log: {e}"
                ));
            }
        }
    }
    // Typed-error recovery: a call that failed with `Timeout { tid }`
    // or `SiteDown` names (or implies) a transaction whose outcome is
    // unknown — an application that walks away leaves an *active*
    // family holding locks, which is abandonment, not a protocol
    // leak. Do what the error type tells the application to do:
    // abort the named transaction, best-effort, now that the cluster
    // is healed. The probe below then verifies the locks actually
    // came back.
    for (t, (tid, out)) in txns.iter().zip(tids.iter().zip(&outcomes)) {
        if let (Some(tid), Err(_)) = (tid, out) {
            let _ = cluster.client(t.home).abort(tid);
        }
    }
    std::thread::sleep(StdDuration::from_millis(1500));

    // ---- Invariants ----
    // Families blamed by a violation; their timelines form the
    // culprit dump. Violations that name no family dump everything.
    let mut culprits: Vec<FamilyId> = Vec::new();
    for (t, (tid, out)) in txns.iter().zip(tids.iter().zip(&outcomes)) {
        let mut blame = |violation: String, culprits: &mut Vec<FamilyId>| {
            if let Some(tid) = tid {
                culprits.push(tid.family);
            }
            violations.push(violation);
        };
        let vh = cluster.committed_value(t.home, SRV, t.obj);
        let vr = cluster.committed_value(t.remote, SRV, t.obj);
        if vh != vr {
            blame(
                format!(
                    "agreement: {} diverged for {:?} ({vh:?} at {} vs {vr:?} at {})",
                    t.obj, out, t.home, t.remote
                ),
                &mut culprits,
            );
        }
        match out {
            Ok(Outcome::Committed) if vh != t.value => {
                blame(
                    format!(
                        "lost-update: commit of {} returned Committed but {} holds \
                         {vh:?} after healing",
                        t.obj, t.home
                    ),
                    &mut culprits,
                );
            }
            Ok(Outcome::Aborted) if vh == t.value => {
                blame(
                    format!(
                        "app-outcome: {} returned Aborted but its value is installed",
                        t.obj
                    ),
                    &mut culprits,
                );
            }
            _ => {} // Timeout/SiteDown: outcome unknown, agreement was checked.
        }
    }
    // Lock hygiene + progress, cluster-wide: a probe transaction
    // re-writes every workload object at every site that replicates
    // it. Retries with a bounded deadline absorb stragglers still
    // resolving on a backed-off timer; a genuinely leaked lock or
    // wedged pipeline never commits and fails the schedule.
    let probe_client = cluster.client(SiteId(1));
    let probe_deadline = std::time::Instant::now() + StdDuration::from_secs(6);
    let probe = loop {
        let attempt = (|| {
            let tid = probe_client.begin()?;
            for t in &txns {
                probe_client.write(&tid, t.home, SRV, t.obj, b"probe".to_vec())?;
                probe_client.write(&tid, t.remote, SRV, t.obj, b"probe".to_vec())?;
            }
            probe_client.commit(&tid, CommitMode::TwoPhase)
        })();
        match attempt {
            Ok(Outcome::Committed) => break attempt,
            _ if std::time::Instant::now() < probe_deadline => {
                std::thread::sleep(StdDuration::from_millis(300));
            }
            _ => break attempt,
        }
    };
    match probe {
        Ok(Outcome::Committed) => {}
        other => {
            let state: Vec<String> = (1..=sites)
                .map(SiteId)
                .map(|s| cluster.debug_state(s))
                .filter(|d| !d.is_empty())
                .collect();
            violations.push(format!(
                "progress: post-heal probe over every workload object did not commit: \
                 {other:?} [{}]",
                state.join(" | ")
            ));
        }
    }

    // ---- Protocol-cost audit + culprit timeline dump ----
    // One drain serves both: the rings are consumed exactly once.
    let events = cluster.drain_trace();
    if clean_plan {
        for (t, (tid, out)) in txns.iter().zip(tids.iter().zip(&outcomes)) {
            if let (Some(tid), Ok(Outcome::Committed)) = (tid, out) {
                let protocol = match t.mode {
                    // rt_cfg runs the default engine config, i.e. the
                    // delayed-commit (Optimized) 2PC variant.
                    CommitMode::TwoPhase => AuditProtocol::TwoPhaseDelayed,
                    CommitMode::NonBlocking => AuditProtocol::NonBlocking,
                };
                let counts = count_family(tid.family, &events);
                if let Err(e) = budget_for(protocol).check_floor(&counts) {
                    culprits.push(tid.family);
                    violations.push(format!("audit: {}: {e}", tid.family));
                }
            }
        }
    }
    let culprit_trace = if violations.is_empty() {
        None
    } else {
        let filtered: Vec<TraceEvent> = if culprits.is_empty() {
            events
        } else {
            events
                .into_iter()
                .filter(|e| e.family.is_none_or(|f| culprits.contains(&f)))
                .collect()
        };
        // One merged cluster timeline, not per-site fragments: the
        // skew-aware merge is an identity rebase in-process (shared
        // clock) but still orders events, repairs happens-before, and
        // stamps the clock-map header the tooling expects.
        let scoped: Vec<_> = filtered.iter().map(ScopeEvent::from_trace).collect();
        Some(merge_skew_aware(scoped).to_jsonl())
    };
    cluster.shutdown();

    RtRunResult {
        trace: ch.trace.clone(),
        violations,
        plan,
        culprit_trace,
    }
}
