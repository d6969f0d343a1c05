//! One chaos run: generate a workload, explore one fault schedule
//! over it, heal the cluster, and check the protocol invariants.
//!
//! The run drives `camelot_core::testkit::Net` in manual-stepping
//! mode. At every step the explorer enumerates the *legal moves* —
//! deliver one of the first few queued inputs, fire a timer (possibly
//! out of deadline order), flush a site's lazy log tail, restart a
//! down site, or (while the fault budget lasts) drop or duplicate a
//! message, crash a site, or partition one away — and asks the
//! [`Chooser`] to pick one. The move list is built in a fixed,
//! deterministic order, so a trace replays the run exactly.
//!
//! Alongside each engine the runner keeps a *mirror* data server
//! (a real [`camelot_server::DataServer`]) that performs the
//! workload's writes, holds the corresponding locks, and applies the
//! engine's `ServerCommit`/`ServerAbort` notifications — the
//! lock-leak invariant is checked against these mirrors, and on a
//! crash they are rebuilt through `camelot_server::recover` from the
//! site's surviving log, like any real server would be.

use std::collections::BTreeMap;

use camelot_core::testkit::{self, Net};
use camelot_core::{Action, EngineConfig};
use camelot_net::Outcome;
use camelot_server::{DataServer, Request};
use camelot_types::{FamilyId, SiteId};
use camelot_wal::{LogRecord, StableStore};

use crate::choice::Chooser;
use crate::scenario::{self, OpKind, Scenario, TxnSpec, SRV};
use crate::Schedule;

/// Upper bound on explorer steps before the run is force-healed.
const STEP_BUDGET: usize = 300;
/// Faults (drop/duplicate/crash/partition) injected per schedule.
const FAULT_BUDGET: usize = 3;
/// How deep into the queue reordering reaches. A window of 3 keeps
/// the per-step branching factor small (important for the enumerated
/// mode) while still generating every permutation via repeated
/// window-local swaps.
const WINDOW: usize = 3;

/// Outcome of one schedule.
#[derive(Debug)]
pub struct RunResult {
    pub scenario: Scenario,
    /// The complete decision trace (workload + schedule).
    pub trace: Vec<u32>,
    /// Invariant violations, empty on a clean run.
    pub violations: Vec<String>,
    /// Explorer steps taken before healing.
    pub steps: usize,
    /// [`Net::action_digest`] at the end of the run: every engine
    /// step of the schedule (input and actions) folded into one word.
    pub action_digest: u64,
    /// Each site's final log image, in site order.
    pub wal_images: Vec<(SiteId, Vec<u8>)>,
}

/// One legal explorer move.
#[derive(Debug, Clone, Copy)]
enum Mv {
    Deliver(usize),
    FireTimer(usize),
    Flush(SiteId),
    Restart(SiteId),
    HealNet,
    DropMsg(usize),
    DupMsg(usize),
    Crash(SiteId),
    Isolate(SiteId),
}

impl Schedule for RunResult {
    fn run_one(ch: &mut Chooser, canary: bool) -> RunResult {
        run_one(ch, canary)
    }
    fn trace(&self) -> &[u32] {
        &self.trace
    }
    fn violations(&self) -> &[String] {
        &self.violations
    }
    fn describe(&self) -> String {
        format!("scenario: {:?}; {} steps", self.scenario, self.steps)
    }
}

fn run_one(ch: &mut Chooser, canary: bool) -> RunResult {
    let sc = scenario::generate(ch);
    let mut config = EngineConfig::for_variant(sc.variant);
    config.unsafe_no_commit_force = canary;
    let mut net = Net::new(sc.sites, config.clone());
    net.action_digest = Some(testkit::FNV_OFFSET);
    // Stand in for the communication managers' abort relaying (§3.1):
    // without it a lost abort notice can leave an unprepared
    // subordinate holding locks forever, which is a runtime gap, not
    // a protocol bug.
    net.relay_aborts = true;
    let mut mirrors: BTreeMap<SiteId, DataServer> = (1..=sc.sites)
        .map(|s| (SiteId(s), DataServer::new(SiteId(s), SRV)))
        .collect();
    let mut cursor = 0usize; // net.events consumed so far

    // ---- Workload setup (instant delivery; not under exploration) ----
    let mut tids = Vec::new();
    for (idx, txn) in sc.txns.iter().enumerate() {
        let tid = net.begin(txn.coord);
        for (site, kind) in &txn.ops {
            match kind {
                OpKind::Update => {
                    net.update_op(*site, SRV, &tid);
                    let m = mirrors.get_mut(site).expect("mirror exists");
                    let req = net.next_req();
                    let fx = m.handle(Request::Write {
                        req,
                        tid: tid.clone(),
                        object: TxnSpec::object(idx),
                        value: vec![idx as u8 + 1],
                    });
                    debug_assert!(!fx.blocked, "chaos workloads are conflict-free");
                    // The runtime reports update records "as late as
                    // possible": lazy appends, made durable by the
                    // prepare force.
                    let sb = net.sites.get_mut(site).expect("site exists");
                    for rec in fx.log {
                        sb.wal.append(&rec).expect("append");
                    }
                }
                OpKind::ReadOnly => net.read_op(*site, SRV, &tid),
                OpKind::Veto => net.veto_op(*site, SRV, &tid),
            }
        }
        tids.push(tid);
    }
    apply_events(&net, &mut mirrors, &mut cursor);

    // ---- Commit requests queue up; the explorer takes over ----
    net.auto_drain = false;
    for (txn, tid) in sc.txns.iter().zip(&tids) {
        net.commit(txn.coord, tid, txn.mode, txn.participants());
    }

    let mut faults_left = FAULT_BUDGET;
    let mut ever_crashed: std::collections::BTreeSet<SiteId> = Default::default();
    let mut steps = 0;
    while steps < STEP_BUDGET {
        if net.queue_len() == 0
            && net.timer_len() == 0
            && net.down.is_empty()
            && net.partition.is_empty()
        {
            break;
        }
        let moves = legal_moves(&net, faults_left);
        if moves.is_empty() {
            break;
        }
        let mv = moves[ch.choose(moves.len())];
        if matches!(
            mv,
            Mv::DropMsg(_) | Mv::DupMsg(_) | Mv::Crash(_) | Mv::Isolate(_)
        ) {
            faults_left -= 1;
        }
        if let Mv::Crash(s) = mv {
            ever_crashed.insert(s);
        }
        apply_move(&mut net, &mut mirrors, &config, mv);
        apply_events(&net, &mut mirrors, &mut cursor);
        steps += 1;
    }

    // ---- Heal: everything restarts, every message flows, timers run ----
    heal(&mut net, &mut mirrors, &config, &mut cursor);

    // A coordinator crash can orphan a family before the protocol
    // reaches any commit point: the in-flight commit-transaction call
    // died with the site's volatile state, and no survivor has a
    // reason to act. The real application sees its call time out and
    // issues abort-transaction; emulate that, then let the abort
    // protocol run.
    let mut app_aborted = false;
    for (txn, tid) in sc.txns.iter().zip(&tids) {
        let resolved_anywhere = net
            .sites
            .values()
            .any(|sb| sb.engine.resolution(&tid.family).is_some());
        if !resolved_anywhere {
            net.abort(txn.coord, tid, txn.participants());
            app_aborted = true;
        }
    }
    if app_aborted {
        heal(&mut net, &mut mirrors, &config, &mut cursor);
    }

    // The first `Resolved` per family is the protocol's answer to the
    // application — the strongest promise in the system. Everything
    // the cluster does afterwards (heal, recover, full crash) must
    // stay consistent with it.
    let app = app_outcomes(&net, &tids);

    let mut violations = Vec::new();
    check_agreement(&net, &sc, &tids, &mut violations);
    check_progress(&mut net, &sc, &tids, &ever_crashed, &mut violations);
    check_locks(&net, &tids, &mirrors, &mut violations);
    check_app_outcomes(&net, &sc, &tids, &app, "after healing", &mut violations);

    // ---- Durability: a committed outcome survives a full-cluster
    // crash; nothing ever flips to commit after the fact ----
    let pre = resolution_map(&net, &tids);
    let sites: Vec<SiteId> = (1..=sc.sites).map(SiteId).collect();
    for &s in &sites {
        net.crash(s);
        mirrors.remove(&s);
        ever_crashed.insert(s);
    }
    cursor = net.events.len(); // stale notifications died with the cluster
    for &s in &sites {
        restart_site(&mut net, &mut mirrors, &config, s);
    }
    heal(&mut net, &mut mirrors, &config, &mut cursor);
    let post = resolution_map(&net, &tids);
    for (txn, tid) in sc.txns.iter().zip(&tids) {
        // Only sites whose resolution has observable effects are held
        // to "committed stays committed": the coordinator (it answered
        // the application from a forced commit point) and the updating
        // subordinates (they installed data under that outcome). A
        // read-only participant may legitimately forget a committed
        // family — presumed abort — since it has nothing to redo.
        if !txn.ops.iter().any(|(_, k)| *k == OpKind::Update) {
            continue;
        }
        let mut subjects = txn.update_sites();
        subjects.push(txn.coord);
        subjects.sort();
        subjects.dedup();
        for s in subjects {
            if pre.get(&(s, tid.family)) == Some(&Outcome::Committed)
                && post.get(&(s, tid.family)) != Some(&Outcome::Committed)
            {
                violations.push(format!(
                    "durability: {s} resolved {} Committed before the cluster-wide \
                     crash but {:?} after recovery",
                    tid.family,
                    post.get(&(s, tid.family))
                ));
            }
        }
    }
    // Nothing may flip to Committed after the fact, anywhere.
    for ((site, family), outcome) in &pre {
        if *outcome == Outcome::Aborted && post.get(&(*site, *family)) == Some(&Outcome::Committed)
        {
            violations.push(format!(
                "durability: {site} flipped {family} from Aborted to Committed \
                 across recovery"
            ));
        }
    }
    check_agreement(&net, &sc, &tids, &mut violations);
    check_progress(&mut net, &sc, &tids, &ever_crashed, &mut violations);
    check_locks(&net, &tids, &mirrors, &mut violations);
    check_app_outcomes(
        &net,
        &sc,
        &tids,
        &app,
        "after the cluster-wide crash",
        &mut violations,
    );
    violations.sort();
    violations.dedup();

    let wal_images = sites
        .iter()
        .map(|s| {
            let wal = &mut net.sites.get_mut(s).expect("site exists").wal;
            wal.force().expect("force");
            (*s, wal.store_mut().durable_bytes().expect("image"))
        })
        .collect();
    RunResult {
        scenario: sc,
        trace: ch.trace.clone(),
        violations,
        steps,
        action_digest: net.action_digest.expect("recording since the start"),
        wal_images,
    }
}

/// Enumerates the legal moves in a fixed deterministic order.
fn legal_moves(net: &Net, faults_left: usize) -> Vec<Mv> {
    let mut moves = Vec::new();
    let q = net.queue_len().min(WINDOW);
    for i in 0..q {
        moves.push(Mv::Deliver(i));
    }
    for k in 0..net.timer_len().min(2) {
        moves.push(Mv::FireTimer(k));
    }
    let mut sites: Vec<SiteId> = net.sites.keys().copied().collect();
    sites.sort();
    for &s in &sites {
        if !net.down.contains(&s) && !net.sites[&s].lazy.is_empty() {
            moves.push(Mv::Flush(s));
        }
    }
    for &s in net.down.iter() {
        moves.push(Mv::Restart(s));
    }
    if !net.partition.is_empty() {
        moves.push(Mv::HealNet);
    }
    if faults_left > 0 {
        // Only network datagrams are lossy/duplicating — application
        // requests and log-completion notifications are local and
        // reliable.
        for i in 0..q {
            if matches!(
                net.queued(i),
                Some((_, camelot_core::Input::Datagram { .. }))
            ) {
                moves.push(Mv::DropMsg(i));
                moves.push(Mv::DupMsg(i));
            }
        }
        for &s in &sites {
            if !net.down.contains(&s) {
                moves.push(Mv::Crash(s));
                if net.partition.is_empty() && sites.len() > 1 {
                    moves.push(Mv::Isolate(s));
                }
            }
        }
    }
    moves
}

fn apply_move(
    net: &mut Net,
    mirrors: &mut BTreeMap<SiteId, DataServer>,
    config: &EngineConfig,
    mv: Mv,
) {
    match mv {
        Mv::Deliver(i) => {
            net.step_at(i);
        }
        Mv::FireTimer(k) => {
            net.fire_timer_at(k);
        }
        Mv::Flush(s) => net.flush_lazy(s),
        Mv::Restart(s) => restart_site(net, mirrors, config, s),
        Mv::HealNet => net.partition.clear(),
        Mv::DropMsg(i) => {
            net.drop_at(i);
        }
        Mv::DupMsg(i) => {
            net.dup_at(i);
        }
        Mv::Crash(s) => {
            net.crash(s);
            // Volatile server state dies with the site; the mirror is
            // rebuilt from the durable log at restart.
            mirrors.remove(&s);
        }
        Mv::Isolate(s) => {
            let rest: std::collections::BTreeSet<SiteId> =
                net.sites.keys().copied().filter(|x| *x != s).collect();
            net.partition = vec![[s].into_iter().collect(), rest];
        }
    }
}

/// Restarts a down site: the engine recovers from the durable log and
/// the mirror server is rebuilt the way a real disk manager would —
/// committed families redone, unresolved prepared families reinstated
/// in doubt with their locks.
fn restart_site(
    net: &mut Net,
    mirrors: &mut BTreeMap<SiteId, DataServer>,
    config: &EngineConfig,
    site: SiteId,
) {
    net.restart(site, config.clone());
    let records: Vec<LogRecord> = {
        let sb = net.sites.get_mut(&site).expect("site exists");
        sb.wal
            .recover()
            .expect("recover")
            .into_iter()
            .map(|(_, r)| r)
            .collect()
    };
    let recovered = camelot_server::recover(site, SRV, &records);
    mirrors.insert(site, recovered.server);
}

/// Applies freshly emitted engine notifications to the mirrors.
fn apply_events(net: &Net, mirrors: &mut BTreeMap<SiteId, DataServer>, cursor: &mut usize) {
    for (site, action) in &net.events[*cursor..] {
        let Some(m) = mirrors.get_mut(site) else {
            continue;
        };
        match action {
            Action::ServerCommit { tid, .. } => {
                m.commit_family(tid.family);
            }
            Action::ServerAbort { tid, .. } => {
                m.abort_family(tid.family);
            }
            Action::ServerSubCommit { tid, .. } => {
                m.sub_commit(tid);
            }
            Action::ServerSubAbort { tid, .. } => {
                m.sub_abort(tid);
            }
            _ => {}
        }
    }
    *cursor = net.events.len();
}

/// Restores full connectivity, restarts everything, and lets the
/// retry machinery run the cluster to quiescence.
fn heal(
    net: &mut Net,
    mirrors: &mut BTreeMap<SiteId, DataServer>,
    config: &EngineConfig,
    cursor: &mut usize,
) {
    net.partition.clear();
    net.drop_every = 0;
    let downs: Vec<SiteId> = net.down.iter().copied().collect();
    for s in downs {
        restart_site(net, mirrors, config, s);
    }
    net.auto_drain = true;
    net.drain();
    let sites: Vec<SiteId> = net.sites.keys().copied().collect();
    for rounds in 0..3 {
        for &s in &sites {
            net.flush_lazy(s);
        }
        net.run_timers(if rounds == 0 { 400 } else { 100 });
    }
    apply_events(net, mirrors, cursor);
}

/// The first `Resolved` action per family: what the application was
/// told when its commit (or abort) call returned.
fn app_outcomes(net: &Net, tids: &[camelot_types::Tid]) -> BTreeMap<FamilyId, Outcome> {
    let mut map = BTreeMap::new();
    for (_, action) in &net.events {
        if let Action::Resolved { tid, outcome, .. } = action {
            if tids.iter().any(|t| t.family == tid.family) {
                map.entry(tid.family).or_insert(*outcome);
            }
        }
    }
    map
}

/// Invariant: an outcome reported to the application is stable. If a
/// commit call returned Committed for an updating transaction, the
/// coordinator and every updating subordinate must (re)resolve
/// Committed after any amount of healing and recovery — a commit
/// point that can be lost was never durable. Symmetrically, a
/// reported abort may never turn into a commit. Fully read-only
/// transactions are exempt from the positive direction: presumed
/// abort lets every trace of them vanish.
fn check_app_outcomes(
    net: &Net,
    sc: &Scenario,
    tids: &[camelot_types::Tid],
    app: &BTreeMap<FamilyId, Outcome>,
    when: &str,
    violations: &mut Vec<String>,
) {
    for (txn, tid) in sc.txns.iter().zip(tids) {
        let Some(outcome) = app.get(&tid.family) else {
            continue; // The call never returned (e.g. coordinator died).
        };
        let mut subjects = txn.update_sites();
        subjects.push(txn.coord);
        subjects.sort();
        subjects.dedup();
        let updating = txn.ops.iter().any(|(_, k)| *k == OpKind::Update);
        for s in subjects {
            let r = net.sites[&s].engine.resolution(&tid.family);
            match outcome {
                Outcome::Committed if updating && r != Some(Outcome::Committed) => {
                    violations.push(format!(
                        "app-outcome: commit of {} returned Committed but {s} \
                         resolves {r:?} {when}",
                        tid.family
                    ));
                }
                Outcome::Aborted if r == Some(Outcome::Committed) => {
                    violations.push(format!(
                        "app-outcome: {} returned Aborted to the application but \
                         {s} resolves Committed {when}",
                        tid.family
                    ));
                }
                _ => {}
            }
        }
    }
}

fn resolution_map(net: &Net, tids: &[camelot_types::Tid]) -> BTreeMap<(SiteId, FamilyId), Outcome> {
    let mut map = BTreeMap::new();
    for (site, sb) in &net.sites {
        for tid in tids {
            if let Some(o) = sb.engine.resolution(&tid.family) {
                map.insert((*site, tid.family), o);
            }
        }
    }
    map
}

/// Invariant: no two sites whose resolution matters — the coordinator
/// and the updating subordinates — resolve a family differently. A
/// read-only participant that crashed may recover a presumed abort
/// for a family the others committed; since it installed nothing,
/// that is the optimization working as designed, not a split brain.
fn check_agreement(
    net: &Net,
    sc: &Scenario,
    tids: &[camelot_types::Tid],
    violations: &mut Vec<String>,
) {
    for (txn, tid) in sc.txns.iter().zip(tids) {
        let mut subjects = txn.update_sites();
        subjects.push(txn.coord);
        subjects.sort();
        subjects.dedup();
        let mut seen: Option<(SiteId, Outcome)> = None;
        for s in subjects {
            if let Some(o) = net.sites[&s].engine.resolution(&tid.family) {
                match seen {
                    None => seen = Some((s, o)),
                    Some((first, prev)) if prev != o => violations.push(format!(
                        "agreement: {} says {prev:?} but {s} says {o:?} for {}",
                        first, tid.family
                    )),
                    _ => {}
                }
            }
        }
    }
}

/// Invariant: after the cluster heals, a site holding a durable
/// prepared record for a family knows the outcome — nobody is left
/// blocked in doubt — and a coordinator that stayed up answered its
/// application. (A crashed coordinator loses the in-flight commit
/// request with its volatile state; presumed abort covers the family,
/// so only never-crashed coordinators are held to resolving.)
fn check_progress(
    net: &mut Net,
    sc: &Scenario,
    tids: &[camelot_types::Tid],
    ever_crashed: &std::collections::BTreeSet<SiteId>,
    violations: &mut Vec<String>,
) {
    for (txn, tid) in sc.txns.iter().zip(tids) {
        if !ever_crashed.contains(&txn.coord)
            && net.sites[&txn.coord]
                .engine
                .resolution(&tid.family)
                .is_none()
        {
            violations.push(format!(
                "progress: coordinator {} never resolved {}",
                txn.coord, tid.family
            ));
        }
    }
    let sites: Vec<SiteId> = net.sites.keys().copied().collect();
    for s in sites {
        let records: Vec<LogRecord> = {
            let sb = net.sites.get_mut(&s).expect("site exists");
            sb.wal
                .recover()
                .expect("recover")
                .into_iter()
                .map(|(_, r)| r)
                .collect()
        };
        for tid in tids {
            let prepared = records.iter().any(|r| {
                matches!(r,
                    LogRecord::Prepared { tid: t, .. } | LogRecord::NbPrepared { tid: t, .. }
                        if t.family == tid.family)
            });
            if prepared && net.sites[&s].engine.resolution(&tid.family).is_none() {
                violations.push(format!(
                    "progress: {s} is prepared for {} but still in doubt after healing",
                    tid.family
                ));
            }
        }
    }
}

/// Invariant: once a family is resolved *anywhere*, no server
/// anywhere in the cluster still holds locks or family state for it
/// after full healing. A subordinate that joined but never prepared
/// and lost every abort notice used to be exempt (it had no local
/// resolution to check against); the engine's orphan watchdog now
/// inquires at the family's origin — where presumed abort answers for
/// even forgotten families — so after healing, relayed-abort gaps
/// must close cluster-wide, not just at sites holding a local
/// resolution.
fn check_locks(
    net: &Net,
    tids: &[camelot_types::Tid],
    mirrors: &BTreeMap<SiteId, DataServer>,
    violations: &mut Vec<String>,
) {
    for tid in tids {
        let f = tid.family;
        let resolved_anywhere = net
            .sites
            .values()
            .any(|sb| sb.engine.resolution(&f).is_some());
        if !resolved_anywhere {
            continue;
        }
        for (site, m) in mirrors {
            if m.families().contains(&f) || m.in_doubt_families().contains(&f) {
                violations.push(format!(
                    "locks: {f} is resolved in the cluster but {site}'s server \
                     still tracks the family ({} locked objects)",
                    m.locks().locked_objects()
                ));
            }
        }
    }
    for (site, m) in mirrors {
        if m.active_families() == 0
            && m.in_doubt_families().is_empty()
            && m.locks().locked_objects() != 0
        {
            violations.push(format!(
                "locks: {site} holds {} locked objects with no live family",
                m.locks().locked_objects()
            ));
        }
    }
}
