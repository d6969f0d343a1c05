//! Fault injection against the real-thread runtime: the crash-point
//! matrix, crashes under a committing caller and under the leader of a
//! group commit, crashes inside checkpoints, truncations and restarts,
//! WAL corruption across a restart, and link faults.
//!
//! The matrix tests assert the *recovery contract*, not a particular
//! outcome: whatever instant the coordinator dies at, once it restarts
//! and the protocol timers run, every site must agree on the
//! transaction's fate and the cluster must accept new work. Which fate
//! (committed if the decision survived on disk, aborted otherwise)
//! depends on which side of the force the crash landed — exactly what
//! the named crash points pin down.

mod common;

use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use camelot_core::CommitMode;
use camelot_rt::{Cluster, CrashPoint, FaultPlan, RtConfig};
use camelot_types::wire::Wire;
use camelot_types::{CamelotError, ObjectId, ServerId, SiteId};
use camelot_wal::LogRecord;
use common::wait_quiet;

const S1: SiteId = SiteId(1);
const S2: SiteId = SiteId(2);
const S3: SiteId = SiteId(3);
const SRV: ServerId = ServerId(1);

fn quick_cfg() -> RtConfig {
    let mut cfg = RtConfig {
        datagram_delay: StdDuration::from_millis(1),
        platter_delay: StdDuration::from_millis(1),
        lazy_flush: StdDuration::from_millis(5),
        call_timeout: StdDuration::from_secs(2),
        ..RtConfig::default()
    };
    // Short protocol timeouts so in-doubt transactions resolve fast.
    cfg.engine.nb_outcome_timeout = camelot_types::Duration::from_millis(150);
    cfg.engine.takeover_window = camelot_types::Duration::from_millis(80);
    cfg.engine.recruit_window = camelot_types::Duration::from_millis(80);
    cfg.engine.takeover_retry = camelot_types::Duration::from_millis(150);
    cfg.engine.inquiry_interval = camelot_types::Duration::from_millis(200);
    cfg.engine.notify_resend_interval = camelot_types::Duration::from_millis(200);
    cfg.engine.orphan_check_interval = camelot_types::Duration::from_millis(250);
    cfg
}

/// One cell of the matrix: crash the coordinator at `point` during a
/// distributed commit under `mode`, restart it, and require a
/// consistent, live cluster.
fn crash_point_round_trip(point: CrashPoint, mode: CommitMode) {
    let fault = Arc::new(FaultPlan::disabled());
    let cluster = Cluster::new_with_faults(2, quick_cfg(), fault.clone());
    let obj = ObjectId(7);
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    client.write(&tid, S1, SRV, obj, b"fate".to_vec()).unwrap();
    client.write(&tid, S2, SRV, obj, b"fate".to_vec()).unwrap();
    // Arm only now, so the crash fires inside the commit protocol and
    // not on the writes' lazy log traffic.
    fault.arm_crash(S1, point);
    let outcome = client.commit(&tid, mode);
    // The site must actually have died at the armed point.
    assert!(
        !cluster.is_alive(S1),
        "{point:?}/{mode:?}: coordinator should have crashed"
    );
    assert_eq!(cluster.faults().stats().crashes, 1);
    cluster.restart(S1).expect("clean log recovers");
    // Recovery announcements, inquiries and takeovers settle.
    wait_quiet(&cluster);
    let v1 = cluster.committed_value(S1, SRV, obj);
    let v2 = cluster.committed_value(S2, SRV, obj);
    assert_eq!(
        v1, v2,
        "{point:?}/{mode:?}: sites disagree after recovery (client saw {outcome:?})"
    );
    // If the client got a definite answer before the lights went out,
    // recovery must honour it.
    if let Ok(camelot_net::Outcome::Committed) = outcome {
        assert_eq!(v1, b"fate", "{point:?}/{mode:?}: committed value lost");
    }
    // The recovered cluster accepts and resolves new transactions.
    let probe = client.begin().unwrap();
    client
        .write(&probe, S1, SRV, ObjectId(99), b"alive".to_vec())
        .unwrap();
    client
        .write(&probe, S2, SRV, ObjectId(99), b"alive".to_vec())
        .unwrap();
    client.commit(&probe, CommitMode::TwoPhase).unwrap();
    wait_quiet(&cluster);
    assert_eq!(cluster.committed_value(S2, SRV, ObjectId(99)), b"alive");
    cluster.shutdown();
}

#[test]
fn crash_matrix_two_phase() {
    for point in CrashPoint::ALL {
        // The queued points only fire under ExecMode::Queued, the
        // recovery points outside a commit; the tests below cover
        // them.
        if CrashPoint::QUEUED.contains(&point) || CrashPoint::RECOVERY.contains(&point) {
            continue;
        }
        crash_point_round_trip(point, CommitMode::TwoPhase);
    }
}

#[test]
fn crash_matrix_nonblocking() {
    for point in CrashPoint::ALL {
        if CrashPoint::QUEUED.contains(&point) || CrashPoint::RECOVERY.contains(&point) {
            continue;
        }
        crash_point_round_trip(point, CommitMode::NonBlocking);
    }
}

/// Commits `value` into `obj` at both sites.
fn commit_both(cluster: &Cluster, obj: ObjectId, value: &[u8]) {
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    client.write(&tid, S1, SRV, obj, value.to_vec()).unwrap();
    client.write(&tid, S2, SRV, obj, value.to_vec()).unwrap();
    client.commit(&tid, CommitMode::TwoPhase).unwrap();
}

/// The crash points on the bounded-recovery path. A site that dies
/// inside a checkpoint ([`CrashPoint::MidCheckpoint`]: snapshot in the
/// log, marker not) or inside a truncation
/// ([`CrashPoint::MidTruncate`]: checkpoint durable, old prefix still
/// there) must restart into the same committed state as if the
/// checkpoint had never begun, with nothing lost and nothing
/// resurrected; and the next checkpoint must then go through and
/// truncate.
#[test]
fn crash_inside_checkpoint_or_truncation_loses_nothing() {
    for point in [CrashPoint::MidCheckpoint, CrashPoint::MidTruncate] {
        let fault = Arc::new(FaultPlan::disabled());
        let cluster = Cluster::new_with_faults(2, quick_cfg(), fault.clone());
        for i in 0..10u64 {
            commit_both(&cluster, ObjectId(i % 3), &[i as u8; 32]);
        }
        // An open transaction: its update is in the log the crashed
        // checkpoint scanned, and must come back undone.
        let client = cluster.client(S1);
        let open = client.begin().unwrap();
        client
            .write(&open, S1, SRV, ObjectId(50), b"never".to_vec())
            .unwrap();
        std::thread::sleep(StdDuration::from_millis(50));
        fault.arm_crash(S1, point);
        // Returns once the site is down: a checkpoint that cannot
        // finish releases its waiter.
        cluster.checkpoint(S1);
        assert!(!cluster.is_alive(S1), "{point:?} should have fired");
        assert_eq!(fault.stats().crashes, 1);
        assert_eq!(cluster.stats().sites[0].checkpoints, 0, "{point:?}");
        cluster.restart(S1).expect("clean log recovers");
        for k in 0..3u64 {
            let want = (0..10u64).rev().find(|i| i % 3 == k).unwrap();
            for site in [S1, S2] {
                assert_eq!(
                    cluster.committed_value(site, SRV, ObjectId(k)),
                    [want as u8; 32],
                    "{point:?}: object {k} at {site}"
                );
            }
        }
        assert_eq!(cluster.committed_value(S1, SRV, ObjectId(50)), b"");
        // The restart's own checkpoint, or this one, truncates.
        cluster.checkpoint(S1);
        let s = cluster.stats().sites[0].clone();
        assert!(s.checkpoints >= 1 && s.wal_truncated_bytes > 0, "{s:?}");
        commit_both(&cluster, ObjectId(99), b"alive");
        wait_quiet(&cluster);
        assert_eq!(cluster.committed_value(S2, SRV, ObjectId(99)), b"alive");
        cluster.shutdown();
    }
}

/// [`CrashPoint::MidRecovery`]: the site dies again half way through
/// its restart, servers rebuilt and engines not. `restart` reports the
/// site down; restarting again — recovery only reads the log — ends
/// where an undisturbed restart would have, in-doubt family included.
#[test]
fn crash_during_recovery_then_restart_again() {
    let fault = Arc::new(FaultPlan::disabled());
    let cluster = Cluster::new_with_faults(2, quick_cfg(), fault.clone());
    commit_both(&cluster, ObjectId(1), b"kept");
    cluster.checkpoint(S1);
    commit_both(&cluster, ObjectId(2), b"after the checkpoint");
    wait_quiet(&cluster);
    // Leave site 2 prepared and in doubt: its coordinator dies after
    // the commit record is durable and before anyone is told.
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    client
        .write(&tid, S1, SRV, ObjectId(3), b"decided".to_vec())
        .unwrap();
    client
        .write(&tid, S2, SRV, ObjectId(3), b"decided".to_vec())
        .unwrap();
    fault.arm_crash(S1, CrashPoint::PostForcePreSend);
    let _ = client.commit(&tid, CommitMode::TwoPhase);
    assert!(!cluster.is_alive(S1));
    fault.arm_crash(S1, CrashPoint::MidRecovery);
    assert!(matches!(
        cluster.restart(S1),
        Err(CamelotError::SiteDown(S1))
    ));
    assert!(
        !cluster.is_alive(S1),
        "a restart that crashed leaves the site down"
    );
    cluster
        .restart(S1)
        .expect("the second restart goes through");
    wait_quiet(&cluster);
    for site in [S1, S2] {
        assert_eq!(cluster.committed_value(site, SRV, ObjectId(1)), b"kept");
        assert_eq!(
            cluster.committed_value(site, SRV, ObjectId(2)),
            b"after the checkpoint"
        );
        assert_eq!(cluster.committed_value(site, SRV, ObjectId(3)), b"decided");
    }
    cluster.shutdown();
}

/// Ladder finding 4 (PR 11): after a crash and restart of one site,
/// coordinators elsewhere sat in `Resolving` for a whole
/// `notify_resend_interval` waiting for the restarted site's delayed
/// commit-acks. The cause was not in recovery at all. A restarted
/// engine numbers its timer tokens from 1 again, and the router of the
/// day remembered every cancelled token forever; the restarted
/// subordinate's ack-flush timer came up under a number its previous
/// incarnation had once cancelled, the router swallowed it, and the
/// piggy-backed acks sat unflushed until the coordinator's resend drew
/// a fresh one. PR 12's router deletes on cancel and forgets, so a
/// reused token is a new timer; this is the case that shows it, with
/// the resend interval left at its 5 s default so nothing but the
/// flush timer can release the coordinators in time.
#[test]
fn restarted_subordinate_still_flushes_its_commit_acks() {
    let cfg = RtConfig {
        datagram_delay: StdDuration::ZERO,
        platter_delay: StdDuration::ZERO,
        call_timeout: StdDuration::from_secs(2),
        ..RtConfig::default()
    };
    let cluster = Arc::new(Cluster::new(3, cfg));
    let quiet_within = |limit: StdDuration, what: &str| {
        let start = std::time::Instant::now();
        loop {
            let stats = cluster.stats();
            let busy = stats
                .sites
                .iter()
                .any(|s| s.live_families > 0 || s.lazy_drained < s.engine.lazy_appends);
            if !busy {
                return;
            }
            assert!(
                start.elapsed() < limit,
                "{what}: not quiet after {limit:?}: {} | {}",
                cluster.debug_state(SiteId(2)),
                cluster.debug_state(SiteId(3))
            );
            std::thread::sleep(StdDuration::from_millis(2));
        }
    };
    // Two drivers, homes round-robin, every site a subordinate of the
    // other two: enough set-and-cancelled timers to cover the low
    // token numbers the restarted engine will reuse.
    let traffic = |n: u64| {
        let drivers: Vec<_> = (0..2u64)
            .map(|d| {
                let cluster = cluster.clone();
                std::thread::spawn(move || {
                    for i in (d..n).step_by(2) {
                        let client = cluster.client(SiteId((i % 3 + 1) as u32));
                        let tid = client.begin().unwrap();
                        for site in [S1, S2, SiteId(3)] {
                            client.write(&tid, site, SRV, ObjectId(i), vec![1]).unwrap();
                        }
                        client.commit(&tid, CommitMode::TwoPhase).unwrap();
                    }
                })
            })
            .collect();
        for d in drivers {
            d.join().unwrap();
        }
    };
    traffic(300);
    quiet_within(StdDuration::from_secs(2), "before the crash");
    cluster.crash(S1);
    cluster.restart(S1).unwrap();
    traffic(300);
    quiet_within(StdDuration::from_secs(2), "after the restart");
    Arc::try_unwrap(cluster)
        .ok()
        .expect("sole owner")
        .shutdown();
}

/// The log records in a durable image, each with its offset into it.
fn records_of(image: &[u8]) -> Vec<(usize, LogRecord)> {
    camelot_wal::codec::frames(image)
        .map(|frame| {
            let (offset, payload) = frame.unwrap();
            (offset as usize, LogRecord::from_bytes(payload).unwrap())
        })
        .collect()
}

/// A coordinator's end record is a plain append, so a crash right
/// after a commit settles can lose it. The family then restarts as a
/// resolving 2PC coordinator and re-announces its outcome to
/// subordinates that have long forgotten it. They used to queue the
/// re-ack behind the ack-flush timer, and until it arrived the
/// coordinator held the family — and every checkpoint it took kept the
/// log from the family's first record on, so a site crashed again
/// within that interval retained more log at every restart. A
/// forgotten family is re-acknowledged at once: the family is gone well
/// inside the (here long) ack-flush interval, and the next restart
/// truncates to its own checkpoint, one snapshot and its marker.
#[test]
fn a_coordinator_that_lost_its_end_record_forgets_the_family_at_once() {
    let ack_flush = StdDuration::from_secs(1);
    let mut cfg = RtConfig {
        datagram_delay: StdDuration::ZERO,
        platter_delay: StdDuration::ZERO,
        lazy_flush: StdDuration::from_millis(5),
        ..RtConfig::default()
    };
    cfg.engine.ack_flush_interval = camelot_types::Duration::from_secs(ack_flush.as_secs());
    let cluster = Cluster::new(3, cfg);
    let durable_records = |site| records_of(&cluster.wal_image(site).unwrap());
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    for site in [S1, S2, S3] {
        client
            .write(&tid, site, SRV, ObjectId(1), b"once".to_vec())
            .unwrap();
    }
    client.commit(&tid, CommitMode::TwoPhase).unwrap();
    // Settled: the subordinates' acks arrived and the coordinator's end
    // record reached the platter.
    let is_end = |rec: &LogRecord| matches!(rec, LogRecord::End { tid: t } if *t == tid);
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while !durable_records(S1).iter().any(|(_, r)| is_end(r)) {
        assert!(
            Instant::now() < deadline,
            "the end record never became durable"
        );
        std::thread::sleep(StdDuration::from_millis(5));
    }
    // Lose it, and the tail after it, as a crash before the write that
    // would have carried it does.
    cluster.crash(S1);
    let image = cluster.wal_image(S1).unwrap();
    let (end_at, _) = records_of(&image)
        .into_iter()
        .find(|(_, r)| is_end(r))
        .unwrap();
    cluster.set_wal_image(S1, &image[..end_at]).unwrap();
    // Engine steps, not worker inputs: a zero-delay datagram runs on
    // the thread that posted it, here the restarting one.
    let sub_inputs = |c: &Cluster| -> u64 { c.stats().sites[1..].iter().map(|s| s.inputs).sum() };
    let before = sub_inputs(&cluster);
    let restarted = Instant::now();
    cluster.restart(S1).unwrap();
    let live = |c: &Cluster| c.stats().sites[0].live_families;
    while live(&cluster) != 0 {
        assert!(
            restarted.elapsed() < ack_flush / 4,
            "the recovered coordinator still holds the family: {}",
            cluster.debug_state(S1)
        );
        std::thread::sleep(StdDuration::from_millis(1));
    }
    assert_eq!(
        sub_inputs(&cluster) - before,
        2,
        "each subordinate hears the re-announced commit once"
    );
    // A local commit's force carries the new end record to the platter;
    // then the next restart's checkpoint has no family to keep.
    let next = client.begin().unwrap();
    client
        .write(&next, S1, SRV, ObjectId(2), b"later".to_vec())
        .unwrap();
    client.commit(&next, CommitMode::TwoPhase).unwrap();
    cluster.crash(S1);
    cluster.restart(S1).unwrap();
    let records = durable_records(S1);
    let snapshots = records
        .iter()
        .filter(|(_, r)| matches!(r, LogRecord::ServerSnapshot { .. }))
        .count();
    assert_eq!(snapshots, 1, "retained log: {records:?}");
    for site in [S1, S2, S3] {
        assert_eq!(cluster.committed_value(site, SRV, ObjectId(1)), b"once");
    }
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(2)), b"later");
    cluster.shutdown();
}

/// A subordinate's prepare record is forced by the TranMan worker that
/// received the prepare, and with the site's other workers idle that
/// worker leads the platter write itself. Here the site dies inside
/// that write ([`CrashPoint::MidPlatterWrite`]). While the leader
/// sleeps through the write, the site's other workers keep serving: a
/// read-only transaction that needs a worker there commits before the
/// write ends. The torn prepare record never counts as a vote, so every
/// site agrees the family aborted, and after a restart the cluster
/// takes new work.
#[test]
fn a_worker_leading_a_prepare_write_dies_mid_write() {
    let fault = Arc::new(FaultPlan::disabled());
    let mut cfg = RtConfig {
        platter_delay: StdDuration::from_millis(300),
        // No background flush: the prepare record's is the site's only
        // platter write.
        lazy_flush: StdDuration::from_secs(60),
        ..quick_cfg()
    };
    cfg.engine.vote_timeout = camelot_types::Duration::from_millis(400);
    let cluster = Arc::new(Cluster::new_with_faults(3, cfg, fault.clone()));
    let obj = ObjectId(7);
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    for site in [S1, S2] {
        client
            .write(&tid, site, SRV, obj, b"fate".to_vec())
            .unwrap();
    }
    fault.arm_crash(S2, CrashPoint::MidPlatterWrite);
    let committer = {
        let cluster = cluster.clone();
        std::thread::spawn(move || cluster.client(S1).commit(&tid, CommitMode::TwoPhase))
    };
    while !cluster.debug_state(S2).contains("waiting") {
        std::thread::yield_now();
    }
    // The prepare write is under way at site 2. A read-only transaction
    // homed at site 3 needs a site-2 worker to take its prepare and
    // vote.
    let reader = cluster.client(S3);
    let other = reader.begin().unwrap();
    for site in [S2, S3] {
        reader.read(&other, site, SRV, ObjectId(8)).unwrap();
    }
    let out = reader.commit(&other, CommitMode::TwoPhase).unwrap();
    assert_eq!(out, camelot_net::Outcome::Committed);
    assert!(
        cluster.is_alive(S2) && fault.stats().crashes == 0,
        "the read-only commit should have finished inside the prepare write"
    );
    let outcome = committer.join().expect("no committer panics");
    assert!(
        !cluster.is_alive(S2),
        "the prepare write should have killed site 2"
    );
    assert_eq!(fault.stats().crashes, 1);
    assert!(
        !matches!(outcome, Ok(camelot_net::Outcome::Committed)),
        "site 2 never voted, yet the commit returned {outcome:?}"
    );
    cluster.restart(S2).expect("clean log recovers");
    wait_quiet(&cluster);
    for site in [S1, S2] {
        assert_eq!(cluster.committed_value(site, SRV, obj), b"", "{site}");
    }
    let probe = client.begin().unwrap();
    for site in [S1, S2] {
        client
            .write(&probe, site, SRV, obj, b"alive".to_vec())
            .unwrap();
    }
    client.commit(&probe, CommitMode::TwoPhase).unwrap();
    // Site 2's lazy commit record waits for a background flush this
    // cluster never runs, so the family stays open: wait for both
    // sites to apply the commit instead of for quiet.
    let deadline = Instant::now() + StdDuration::from_secs(10);
    for site in [S1, S2] {
        while cluster.committed_value(site, SRV, obj) != b"alive" {
            assert!(Instant::now() < deadline, "{}", cluster.debug_state(site));
            std::thread::yield_now();
        }
    }
    Arc::try_unwrap(cluster)
        .ok()
        .expect("sole owner")
        .shutdown();
}

/// Application calls run the engine step and its actions on the
/// calling thread, and a local update's committing thread leads its own
/// platter write and runs its own `LogForced`. So all three log-path
/// crash points fire inside `commit` itself, on the application's
/// thread: [`CrashPoint::PreForce`] half way through applying the
/// commit's actions, [`CrashPoint::MidPlatterWrite`] in the write it
/// leads, [`CrashPoint::PostForcePreSend`] after its `LogForced` step.
/// The caller must come back with a typed error (not a panic) and at
/// once — it saw the site die, it does not park to wait for a reply —
/// without a worker ever having been involved, leaving no site lock
/// held; and the restart must land on the right side of the force.
#[test]
fn site_killed_under_a_caller_mid_commit() {
    for (point, survives) in [
        (CrashPoint::PreForce, false),
        (CrashPoint::MidPlatterWrite, false),
        (CrashPoint::PostForcePreSend, true),
    ] {
        let fault = Arc::new(FaultPlan::disabled());
        let cluster = Arc::new(Cluster::new_with_faults(1, quick_cfg(), fault.clone()));
        let obj = ObjectId(7);
        let client = cluster.client(S1);
        let tid = client.begin().unwrap();
        client.write(&tid, S1, SRV, obj, b"fate".to_vec()).unwrap();
        let worker_inputs = cluster.stats().sites[0].worker_inputs;
        fault.arm_crash(S1, point);
        let started = std::time::Instant::now();
        let outcome = client.commit(&tid, CommitMode::TwoPhase);
        assert!(
            matches!(outcome, Err(CamelotError::Timeout { tid: Some(_) })),
            "{point:?}: want a typed unknown-outcome error, got {outcome:?}"
        );
        assert!(
            started.elapsed() < quick_cfg().call_timeout / 2,
            "{point:?}: the caller waited out its call timeout, so the site \
             did not die on its thread"
        );
        assert!(
            !cluster.is_alive(S1),
            "{point:?} should have killed the site"
        );
        assert_eq!(fault.stats().crashes, 1);
        assert_eq!(
            cluster.stats().sites[0].worker_inputs,
            worker_inputs,
            "{point:?}: no worker took part"
        );
        assert!(
            !cluster.debug_state(S1).contains("waiting"),
            "{point:?}: a force is left waiting"
        );
        // Every site lock (engine shards, WAL, batcher, servers) can
        // still be taken: the dying call left none behind.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let probe = cluster.clone();
        let locks = std::thread::spawn(move || {
            let _ = (probe.stats(), probe.debug_state(S1));
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(StdDuration::from_secs(5))
            .expect("a site lock is still held after the kill");
        locks.join().unwrap();
        // Before the commit record is durable recovery presumes abort
        // and releases the family's lock; after, it redoes the commit.
        // Either way the site serves again.
        cluster.restart(S1).expect("clean log recovers");
        let want: &[u8] = if survives { b"fate" } else { b"" };
        assert_eq!(cluster.committed_value(S1, SRV, obj), want, "{point:?}");
        let next = client.begin().unwrap();
        client
            .write(&next, S1, SRV, obj, b"alive".to_vec())
            .unwrap();
        client.commit(&next, CommitMode::TwoPhase).unwrap();
        assert_eq!(cluster.committed_value(S1, SRV, obj), b"alive");
        Arc::try_unwrap(cluster)
            .ok()
            .expect("sole owner")
            .shutdown();
    }
}

/// Three followers ride behind a leader whose site dies at
/// [`CrashPoint::MidPlatterWrite`]: the write they were all waiting
/// for tears, and none of the four commit records is durable. Every
/// caller gets the typed unknown-outcome error at once — the crash
/// drops the followers' parked completions, so none waits out its
/// call timeout — the batcher keeps no force of the dead incarnation
/// (a token left behind would be answered to an engine that never
/// asked), and the restart presumes abort for all four.
#[test]
fn followers_of_a_leader_whose_site_dies_mid_write_get_typed_errors() {
    let fault = Arc::new(FaultPlan::disabled());
    let cfg = RtConfig {
        platter_delay: StdDuration::from_millis(100),
        // No background flush: the only platter write is the leader's.
        lazy_flush: StdDuration::from_secs(60),
        call_timeout: StdDuration::from_millis(500),
        ..quick_cfg()
    };
    let call_timeout = cfg.call_timeout;
    let cluster = Arc::new(Cluster::new_with_faults(1, cfg, fault.clone()));
    fault.arm_crash(S1, CrashPoint::MidPlatterWrite);
    let committers: Vec<_> = (0..4u64)
        .map(|i| {
            let cluster = cluster.clone();
            std::thread::spawn(move || {
                let client = cluster.client(S1);
                let tid = client.begin().unwrap();
                client
                    .write(&tid, S1, SRV, ObjectId(i), b"torn".to_vec())
                    .unwrap();
                // Thread 0 finds the disk idle and leads; the others
                // commit once its force is waiting on the write, so
                // theirs queue up behind it.
                while i > 0 && !cluster.debug_state(S1).contains("waiting") {
                    std::thread::yield_now();
                }
                let started = Instant::now();
                (client.commit(&tid, CommitMode::TwoPhase), started.elapsed())
            })
        })
        .collect();
    for (i, committer) in committers.into_iter().enumerate() {
        let (outcome, took) = committer.join().expect("no committer panics");
        assert!(
            matches!(outcome, Err(CamelotError::Timeout { tid: Some(_) })),
            "committer {i}: want a typed unknown-outcome error, got {outcome:?}"
        );
        assert!(
            took < call_timeout / 2,
            "committer {i} waited {took:?}: the crash did not wake it"
        );
    }
    assert!(!cluster.is_alive(S1));
    assert_eq!(fault.stats().crashes, 1);
    assert!(!cluster.debug_state(S1).contains("waiting"));
    cluster.restart(S1).expect("clean log recovers");
    // No family, no lock, no force: nothing of the dead incarnation.
    assert_eq!(cluster.debug_state(S1), "");
    let client = cluster.client(S1);
    for i in 0..4u64 {
        assert_eq!(cluster.committed_value(S1, SRV, ObjectId(i)), b"");
        let tid = client.begin().unwrap();
        client
            .write(&tid, S1, SRV, ObjectId(i), b"alive".to_vec())
            .unwrap();
        client.commit(&tid, CommitMode::TwoPhase).unwrap();
    }
    Arc::try_unwrap(cluster)
        .ok()
        .expect("sole owner")
        .shutdown();
}

/// A restart *takes* its closing checkpoint: when it returns the
/// checkpoint is durable and the log truncated below it. It used to
/// only ask for one, which came first purely because the next commit's
/// force queued behind it on the disk thread; a commit that no longer
/// visits that thread, or a second crash, could land before it, and the
/// second restart would replay the same tail. Crash, restart, crash at
/// once, restart: the second scan reads the snapshot, the marker and
/// nothing else.
#[test]
fn restart_returns_with_its_checkpoint_durable_and_the_log_truncated() {
    let cluster = Cluster::new(1, quick_cfg());
    let client = cluster.client(S1);
    for i in 0..40u64 {
        let tid = client.begin().unwrap();
        client
            .write(&tid, S1, SRV, ObjectId(i % 4), vec![i as u8; 256])
            .unwrap();
        client.commit(&tid, CommitMode::TwoPhase).unwrap();
    }
    cluster.crash(S1);
    let first_scan = cluster.wal_image(S1).unwrap().len() as u64;
    cluster.restart(S1).unwrap();
    let s = cluster.stats().sites[0].clone();
    cluster.crash(S1);
    let second_scan = cluster.wal_image(S1).unwrap().len() as u64;
    assert_eq!(s.checkpoints, 1, "the restart's own");
    // Four 256-byte objects; the old and new value of 40 updates.
    assert!(s.snapshot_bytes > 4 * 256 && first_scan > 40 * 512);
    assert!(
        second_scan < s.snapshot_bytes + 64,
        "the second restart would scan {second_scan} B: more than a \
         {} B snapshot and its marker (the first scanned {first_scan} B)",
        s.snapshot_bytes
    );
    cluster.restart(S1).unwrap();
    for k in 0..4u64 {
        assert_eq!(
            cluster.committed_value(S1, SRV, ObjectId(k)),
            vec![(36 + k) as u8; 256]
        );
    }
    cluster.shutdown();
}

/// A call on a dead home site provably never started: it reports
/// [`CamelotError::SiteDown`] without reaching the engine, a worker or
/// the completion table.
#[test]
fn call_on_a_dead_home_site_never_touches_the_engine() {
    let cluster = Cluster::new(1, quick_cfg());
    let client = cluster.client(S1);
    let open = client.begin().unwrap();
    cluster.crash(S1);
    let counts = |c: &Cluster| {
        let s = &c.stats().sites[0];
        (s.inputs, s.worker_inputs, s.engine.begins, s.engine.aborts)
    };
    let before = counts(&cluster);
    assert!(matches!(client.begin(), Err(CamelotError::SiteDown(S1))));
    assert!(matches!(
        client.commit(&open, CommitMode::TwoPhase),
        Err(CamelotError::SiteDown(S1))
    ));
    assert!(matches!(
        client.abort(&open),
        Err(CamelotError::SiteDown(S1))
    ));
    assert_eq!(counts(&cluster), before);
    cluster.shutdown();
}

/// Queued execution, [`CrashPoint::QueueMidBurst`]: a shard-owner
/// worker dies while draining a burst — the site goes down with ops
/// and markers still queued. After a restart the cluster must agree
/// and make progress, exactly like the log-pipeline matrix.
#[test]
fn queued_crash_mid_burst_recovers() {
    let fault = Arc::new(FaultPlan::disabled());
    let mut cfg = quick_cfg();
    cfg.exec_mode = camelot_core::ExecMode::Queued;
    // One shard: every op lands in the same FIFO, so two concurrent
    // writers are certain to stack a multi-job burst.
    cfg.data_shards = 1;
    let cluster = Cluster::new_with_faults(2, cfg, fault.clone());
    let obj = ObjectId(7);
    let client = cluster.client(S1);
    // Warm transaction so the crash doesn't land on an empty cluster.
    let warm = client.begin().unwrap();
    client.write(&warm, S1, SRV, obj, b"warm".to_vec()).unwrap();
    client.write(&warm, S2, SRV, obj, b"warm".to_vec()).unwrap();
    client.commit(&warm, CommitMode::TwoPhase).unwrap();
    // Arm the mid-burst kill, then hammer the shard from two threads.
    // The kill fires on the second job of a drain burst; concurrent
    // writers make that overwhelmingly likely, and every client call
    // is bounded by the 2s call timeout even if it never fires.
    fault.arm_crash(S1, CrashPoint::QueueMidBurst);
    let rival = cluster.client(S1);
    let noise = std::thread::spawn(move || {
        let _ = (|| {
            let tid = rival.begin()?;
            for i in 0..200u64 {
                rival.write(&tid, S1, SRV, ObjectId(200 + i), vec![i as u8])?;
            }
            rival.commit(&tid, CommitMode::TwoPhase)
        })();
    });
    let outcome = (|| {
        let tid = client.begin()?;
        for i in 0..200u64 {
            client.write(&tid, S1, SRV, ObjectId(500 + i), vec![i as u8])?;
        }
        client.commit(&tid, CommitMode::TwoPhase)
    })();
    noise.join().unwrap();
    // Whatever the app saw, a restarted cluster must agree and serve.
    if !cluster.is_alive(S1) {
        cluster.restart(S1).expect("clean log recovers");
    } else {
        // The burst never overlapped a drain; the schedule is vacuous
        // but the cluster must still be healthy.
        fault.heal();
    }
    wait_quiet(&cluster);
    assert_eq!(
        cluster.committed_value(S1, SRV, obj),
        cluster.committed_value(S2, SRV, obj),
        "sites disagree after mid-burst crash (client saw {outcome:?})"
    );
    let probe = client.begin().unwrap();
    client
        .write(&probe, S1, SRV, ObjectId(99), b"alive".to_vec())
        .unwrap();
    client
        .write(&probe, S2, SRV, ObjectId(99), b"alive".to_vec())
        .unwrap();
    client.commit(&probe, CommitMode::TwoPhase).unwrap();
    wait_quiet(&cluster);
    assert_eq!(cluster.committed_value(S2, SRV, ObjectId(99)), b"alive");
    cluster.shutdown();
}

/// Queued execution, [`CrashPoint::QueueParkedPrepare`]: a prepared
/// marker that would park (its family has an unresolved dependency)
/// is lost instead. The shard never answers its local sub-vote, and
/// the engine's vote timeout only covers *remote* subordinates — so
/// for a purely local family the client's call timeout is the
/// resolution path. The typed error names the transaction; the
/// application aborts it explicitly, and the dependency's writer
/// must be unaffected.
#[test]
fn queued_lost_parked_prepare_resolves_by_client_timeout() {
    let fault = Arc::new(FaultPlan::disabled());
    let mut cfg = quick_cfg();
    cfg.exec_mode = camelot_core::ExecMode::Queued;
    cfg.data_shards = 1; // One shard: the dependency is guaranteed.
    cfg.engine.vote_timeout = camelot_types::Duration::from_millis(400);
    cfg.queued_vote_timeout = StdDuration::from_millis(300);
    let cluster = Cluster::new_with_faults(1, cfg, fault.clone());
    let obj = ObjectId(5);
    let client = cluster.client(S1);
    // t1 writes and stays open: t2's write on the same object takes a
    // commit-order dependency on t1, so t2's prepare must park.
    let t1 = client.begin().unwrap();
    client.write(&t1, S1, SRV, obj, b"first".to_vec()).unwrap();
    let t2 = client.begin().unwrap();
    client.write(&t2, S1, SRV, obj, b"second".to_vec()).unwrap();
    fault.arm_crash(S1, CrashPoint::QueueParkedPrepare);
    // The lost marker means no local sub-vote: local vote collection
    // never completes, so the commit surfaces as a client timeout
    // naming the stuck transaction.
    let out2 = client.commit(&t2, CommitMode::TwoPhase);
    assert!(
        matches!(out2, Err(CamelotError::Timeout { tid: Some(_) })),
        "a family whose prepare marker was lost must surface a typed \
         timeout, got {out2:?}"
    );
    assert_eq!(fault.stats().crashes, 1, "the armed point must have fired");
    // Do what the error type tells the application to do: abort the
    // named transaction.
    client.abort(&t2).unwrap();
    // The dependency's writer is unharmed.
    client.commit(&t1, CommitMode::TwoPhase).unwrap();
    wait_quiet(&cluster);
    assert_eq!(cluster.committed_value(S1, SRV, obj), b"first");
    cluster.shutdown();
}

/// WAL corruption across a restart: a bit-flipped committed record
/// makes `restart` return the typed corruption error and leaves the
/// site down; restoring the pristine image heals it with no data loss.
#[test]
fn corrupted_wal_fails_restart_with_typed_error_then_heals() {
    let cluster = Cluster::new(1, quick_cfg());
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    client
        .write(&tid, S1, SRV, ObjectId(1), b"precious".to_vec())
        .unwrap();
    client.commit(&tid, CommitMode::TwoPhase).unwrap();
    wait_quiet(&cluster);
    cluster.crash(S1);
    let pristine = cluster.wal_image(S1).unwrap();
    assert!(pristine.len() > 8, "commit records should be durable");
    // Flip one bit inside the first frame's payload (the frame header
    // is [len][crc], 8 bytes): the frame stays complete, so the
    // recovery scan must report corruption, not a torn tail.
    let mut evil = pristine.clone();
    evil[8] ^= 0x01;
    cluster.set_wal_image(S1, &evil).unwrap();
    let err = cluster.restart(S1).unwrap_err();
    assert!(
        matches!(err, CamelotError::Corruption { offset: 0 }),
        "want Corruption at frame 0, got {err}"
    );
    assert!(!cluster.is_alive(S1), "site must stay down on a bad log");
    // Restore the good image: recovery succeeds and the committed
    // value is intact.
    cluster.set_wal_image(S1, &pristine).unwrap();
    cluster.restart(S1).unwrap();
    assert!(cluster.is_alive(S1));
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(1)), b"precious");
    cluster.shutdown();
}

/// Duplicated and delayed (reordered) datagrams: the commit protocols
/// must be idempotent against them — every transaction still commits
/// and both replicas converge.
#[test]
fn duplicated_and_reordered_datagrams_are_harmless() {
    // No drops: 300‰ duplicates + 300‰ delays, generous budget.
    let fault = Arc::new(FaultPlan::new(
        0xC0FFEE,
        0,
        300,
        300,
        StdDuration::from_millis(8),
        1_000,
    ));
    let cluster = Cluster::new_with_faults(2, quick_cfg(), fault.clone());
    let client = cluster.client(S1);
    for i in 0..10u64 {
        let tid = client.begin().unwrap();
        client
            .write(&tid, S1, SRV, ObjectId(5), vec![i as u8])
            .unwrap();
        client
            .write(&tid, S2, SRV, ObjectId(5), vec![i as u8])
            .unwrap();
        let out = client.commit(&tid, CommitMode::TwoPhase).unwrap();
        assert_eq!(out, camelot_net::Outcome::Committed, "txn {i}");
    }
    let stats = fault.stats();
    assert!(
        stats.duplicates + stats.delays > 0,
        "the fault mix never fired: {stats:?}"
    );
    fault.heal();
    wait_quiet(&cluster);
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(5)), [9]);
    assert_eq!(cluster.committed_value(S2, SRV, ObjectId(5)), [9]);
    cluster.shutdown();
}

/// A commit parked on remote votes wakes as soon as its home site
/// crashes, whichever thread crashes it: the crash drops every
/// completion parked at the site, so the caller gets the typed
/// unknown-outcome error now, not after the 30 s default call timeout.
#[test]
fn a_crash_wakes_a_commit_parked_on_remote_votes() {
    let fault = Arc::new(FaultPlan::disabled());
    let cfg = RtConfig {
        call_timeout: RtConfig::default().call_timeout,
        ..quick_cfg()
    };
    let cluster = Arc::new(Cluster::new_with_faults(2, cfg, fault.clone()));
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    for site in [S1, S2] {
        client
            .write(&tid, site, SRV, ObjectId(1), b"fate".to_vec())
            .unwrap();
    }
    // Site 2 never hears the prepare, so its vote never comes.
    fault.partition(&[S1], &[S2]);
    let committer = {
        let cluster = cluster.clone();
        std::thread::spawn(move || {
            let outcome = cluster.client(S1).commit(&tid, CommitMode::TwoPhase);
            (outcome, Instant::now())
        })
    };
    // The prepare is dropped after the commit parked its completion.
    // The scenario is a caller already waiting on it, so give the
    // caller time to get from posting the prepare to the wait.
    while fault.stats().partition_drops == 0 {
        std::thread::yield_now();
    }
    std::thread::sleep(StdDuration::from_millis(50));
    let crashed = Instant::now();
    cluster.crash(S1);
    let (outcome, returned) = committer.join().expect("no committer panics");
    assert!(
        matches!(outcome, Err(CamelotError::Timeout { tid: Some(_) })),
        "want a typed unknown-outcome error, got {outcome:?}"
    );
    let waited = returned.saturating_duration_since(crashed);
    assert!(
        waited < StdDuration::from_secs(1),
        "the commit returned {waited:?} after its site crashed"
    );
    Arc::try_unwrap(cluster)
        .ok()
        .expect("sole owner")
        .shutdown();
}

/// A write parked behind another transaction's lock wakes as soon as
/// the site holding the lock crashes: nothing there will ever grant it,
/// and the caller gets the typed unknown-outcome error at once instead
/// of after the 30 s default call timeout.
#[test]
fn a_crash_wakes_a_write_parked_on_a_lock() {
    let cfg = RtConfig {
        call_timeout: RtConfig::default().call_timeout,
        ..quick_cfg()
    };
    let cluster = Arc::new(Cluster::new(2, cfg));
    let holder = cluster.client(S1);
    let held = holder.begin().unwrap();
    holder
        .write(&held, S2, SRV, ObjectId(1), b"first".to_vec())
        .unwrap();
    let waiter = {
        let cluster = cluster.clone();
        std::thread::spawn(move || {
            let client = cluster.client(S1);
            let tid = client.begin().unwrap();
            let outcome = client.write(&tid, S2, SRV, ObjectId(1), b"second".to_vec());
            (outcome, Instant::now())
        })
    };
    // A lock wait is counted under the server mutex it parked under.
    while cluster.stats().sites[1].servers.lock_waits == 0 {
        std::thread::yield_now();
    }
    let crashed = Instant::now();
    cluster.crash(S2);
    let (outcome, returned) = waiter.join().expect("no waiter panics");
    assert!(
        matches!(outcome, Err(CamelotError::Timeout { tid: Some(_) })),
        "want a typed unknown-outcome error, got {outcome:?}"
    );
    let waited = returned.saturating_duration_since(crashed);
    assert!(
        waited < StdDuration::from_secs(1),
        "the write returned {waited:?} after its site crashed"
    );
    Arc::try_unwrap(cluster)
        .ok()
        .expect("sole owner")
        .shutdown();
}
