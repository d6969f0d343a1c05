//! Restart recovery, read once: the data servers and the transaction
//! manager of a restarted site act on one classification of each
//! family in its log (`camelot::wal::families`). Each case is a shape
//! on which two readings of the log used to disagree.
//!
//! The runtime cases wait on state (committed values, `debug_state`),
//! never on the clock. The last one is the outcome a non-blocking
//! subordinate remembers across restarts: its tombstone is its only
//! memory of the family, rebuilt from its log and kept by retention.

use std::sync::Arc;
use std::time::{Duration, Instant};

use camelot::core::testkit::Net;
use camelot::core::{CommitMode, EngineConfig, Input};
use camelot::net::{FaultPlan, LinkDecision, NbSiteState, Outcome, TmMessage};
use camelot::rt::{Cluster, CrashPoint, RtConfig};
use camelot::types::{ObjectId, ServerId, SiteId};

const S1: SiteId = SiteId(1);
const S2: SiteId = SiteId(2);
const S3: SiteId = SiteId(3);
const SRV: ServerId = ServerId(1);

/// How long a restarted site may take to reach the expected state.
const WITHIN: Duration = Duration::from_secs(10);

/// Short protocol timers; no background flush of lazily appended
/// records, so a subordinate's lazy commit record stays volatile.
fn config() -> RtConfig {
    let mut cfg = RtConfig {
        datagram_delay: Duration::from_millis(1),
        platter_delay: Duration::from_millis(1),
        lazy_flush: Duration::from_secs(30),
        call_timeout: Duration::from_secs(5),
        ..RtConfig::default()
    };
    let ms = camelot::types::Duration::from_millis;
    cfg.engine.nb_outcome_timeout = ms(150);
    cfg.engine.takeover_window = ms(80);
    cfg.engine.recruit_window = ms(80);
    cfg.engine.takeover_retry = ms(150);
    cfg.engine.inquiry_interval = ms(200);
    cfg.engine.notify_resend_interval = ms(200);
    cfg.engine.orphan_check_interval = ms(250);
    cfg
}

/// Waits until `done` holds; fails with the live sites' dumps after
/// [`WITHIN`].
fn wait_for(cluster: &Cluster, what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + WITHIN;
    while !done() {
        let dumps: Vec<String> = [S1, S2, S3]
            .into_iter()
            .filter(|s| cluster.is_alive(*s))
            .map(|s| cluster.debug_state(s))
            .collect();
        assert!(
            Instant::now() < deadline,
            "not {what} after {WITHIN:?}: {}",
            dumps.join(" | ")
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Waits until `site`'s committed `obj` reads `want`.
fn wait_value(cluster: &Cluster, site: SiteId, obj: ObjectId, want: &[u8]) {
    let what = format!("{site} {obj:?} = {want:?}");
    wait_for(cluster, &what, || {
        cluster.committed_value(site, SRV, obj) == want
    });
}

/// (A) A child writes at S2 and aborts there; the parent writes at S2
/// and commits. S2 dies before its lazy commit record is durable, so its
/// log holds the child's abort record and the family's prepared
/// record. The child's abort aborts only its subtree: the restarted
/// S2 is in doubt about the family, learns that it committed, and
/// installs the parent's update but not the child's.
#[test]
fn a_nested_abort_does_not_abort_the_family() {
    for mode in [CommitMode::TwoPhase, CommitMode::NonBlocking] {
        let cluster = Cluster::new(2, config());
        let client = cluster.client(S1);
        let (by_child, by_parent) = (ObjectId(1), ObjectId(2));
        let top = client.begin().unwrap();
        let child = client.begin_nested(&top).unwrap();
        client
            .write(&child, S2, SRV, by_child, b"child".to_vec())
            .unwrap();
        client.abort(&child).unwrap();
        // The abort reaches S2 (its server lets go of the child's
        // lock) before the parent prepares there, so the child's abort
        // record precedes the prepared record in S2's log.
        wait_for(&cluster, "the child aborted at S2", || {
            !cluster.debug_state(S2).contains("locked object")
        });
        client
            .write(&top, S2, SRV, by_parent, b"parent".to_vec())
            .unwrap();
        assert_eq!(client.commit(&top, mode).unwrap(), Outcome::Committed);
        wait_value(&cluster, S2, by_parent, b"parent");
        assert_eq!(
            cluster.committed_value(S2, SRV, by_child),
            b"",
            "{mode:?}: PRECRASH child committed"
        );
        cluster.crash(S2);
        cluster.restart(S2).expect("clean log recovers");
        wait_value(&cluster, S2, by_parent, b"parent");
        assert_eq!(
            cluster.committed_value(S2, SRV, by_child),
            b"",
            "{mode:?}: the aborted child's update was redone"
        );
        cluster.shutdown();
    }
}

/// (B) A non-blocking coordinator dies inside the platter write of its
/// commit record, after its begin record and its subordinates'
/// replication records are durable. The subordinates take over and
/// commit. The restarted coordinator is in doubt, not dead: its
/// servers hold its updates until its takeover learns the outcome,
/// and then install them.
#[test]
fn a_coordinator_that_died_after_its_begin_record_keeps_its_updates() {
    let fault = Arc::new(FaultPlan::disabled());
    let cfg = RtConfig {
        platter_delay: Duration::from_millis(100),
        ..config()
    };
    let cluster = Arc::new(Cluster::new_with_faults(3, cfg, fault.clone()));
    let obj = ObjectId(7);
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    for site in [S1, S2, S3] {
        client
            .write(&tid, site, SRV, obj, b"fate".to_vec())
            .unwrap();
    }
    let committer = {
        let cluster = cluster.clone();
        std::thread::spawn(move || cluster.client(S1).commit(&tid, CommitMode::NonBlocking))
    };
    // Past the begin record (phase one done, the family is resolving)
    // and a force waiting: the commit record's write is under way.
    loop {
        let dump = cluster.debug_state(S1);
        if dump.contains("nb-coordinator Resolving") && dump.contains("waiting") {
            break;
        }
        assert!(cluster.is_alive(S1), "S1 died early: {dump}");
        std::thread::yield_now();
    }
    fault.arm_crash(S1, CrashPoint::MidPlatterWrite);
    let outcome = committer.join().expect("no committer panics");
    assert!(!cluster.is_alive(S1), "S1 survived its commit write");
    assert_eq!(fault.stats().crashes, 1);
    assert!(
        outcome.is_err(),
        "S1 died, yet the commit returned {outcome:?}"
    );
    for site in [S2, S3] {
        wait_value(&cluster, site, obj, b"fate");
    }
    cluster.restart(S1).expect("clean log recovers");
    wait_value(&cluster, S1, obj, b"fate");
    Arc::try_unwrap(cluster)
        .ok()
        .expect("sole owner")
        .shutdown();
}

/// (C) A read-only participant's part of a family dies in its crash:
/// it never voted, so it has nothing to say about the outcome. Asked
/// by a takeover after its restart, it answers `Unknown`, not a
/// presumed `Aborted` that would end the takeover on the spot.
#[test]
fn a_restarted_read_only_participant_answers_unknown() {
    let mut net = Net::new(3, EngineConfig::default());
    let tid = net.begin(S1);
    net.read_op(S2, SRV, &tid);
    // A background flush makes everything S2 logged durable.
    net.flush_lazy(S2);
    net.crash(S2);
    net.restart(S2, EngineConfig::default());
    net.auto_drain = false;
    let msg = TmMessage::NbStatusReq {
        tid: tid.clone(),
        from: S3,
    };
    net.inject(S2, Input::Datagram { from: S3, msg });
    assert!(net.step_at(net.queue_len() - 1));
    let answers: Vec<NbSiteState> = (0..net.queue_len())
        .filter_map(|i| match net.queued(i) {
            Some((
                S3,
                Input::Datagram {
                    msg: TmMessage::NbStatus { state, .. },
                    ..
                },
            )) => Some(*state),
            _ => None,
        })
        .collect();
    assert_eq!(answers, vec![NbSiteState::Unknown]);
    assert_eq!(net.decision(S2, &tid.family), None);
}

/// (D) Non-blocking commit over S1, S2, S3: S1 decides commit with the
/// quorum {S1, S2}, while its replication request and its outcome
/// never reach S3, which stays prepared. S1 then dies for good, and S2,
/// which committed, restarts twice. Each restart ends with a
/// checkpoint that truncates its log below every family it does not
/// hold. S2 holds the family as a tombstone, so after the second
/// restart it still answers S3's takeover "committed", and S3 commits
/// too. Were the outcome kept anywhere but in the family, the
/// truncation would lose it: S2 would answer "unknown", join S3's
/// abort quorum, and S3 would abort what S1 and S2 committed.
#[test]
fn a_subordinate_restarted_twice_still_answers_with_its_outcome() {
    let fault = Arc::new(FaultPlan::disabled());
    // Everything S1 sends S3 after its prepare is lost, and S2 and S3
    // cannot talk until S2 has restarted twice.
    for nth in 1..400 {
        fault.script_fault(S1, S3, nth, LinkDecision::Drop);
    }
    fault.partition(&[S2], &[S3]);
    let cluster = Cluster::new_with_faults(3, config(), fault.clone());
    let obj = ObjectId(5);
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    for site in [S1, S2, S3] {
        client
            .write(&tid, site, SRV, obj, b"kept".to_vec())
            .unwrap();
    }
    let outcome = client.commit(&tid, CommitMode::NonBlocking).unwrap();
    assert_eq!(outcome, Outcome::Committed);
    wait_value(&cluster, S2, obj, b"kept");
    // S2's lazily appended commit record is durable once this returns.
    cluster.checkpoint(S2);
    cluster.crash(S1);
    for _ in 0..2 {
        cluster.crash(S2);
        cluster.restart(S2).expect("clean log recovers");
    }
    assert_eq!(cluster.committed_value(S3, SRV, obj), b"");
    assert!(
        cluster.debug_state(S3).contains("nb-"),
        "S3 is not in doubt: {}",
        cluster.debug_state(S3)
    );
    fault.heal();
    wait_value(&cluster, S3, obj, b"kept");
    assert_eq!(cluster.committed_value(S2, SRV, obj), b"kept");
    cluster.shutdown();
}
