//! Integration tests of the real-thread runtime: the same protocols
//! as the simulator, under genuine concurrency.

use std::time::Duration as StdDuration;

use camelot_core::CommitMode;
use camelot_net::Outcome;
use camelot_rt::{Cluster, ExecMode, RtConfig};
use camelot_types::{CamelotError, ObjectId, ServerId, SiteId};

const S1: SiteId = SiteId(1);
const S2: SiteId = SiteId(2);
const S3: SiteId = SiteId(3);
const SRV: ServerId = ServerId(1);

fn quick_cfg() -> RtConfig {
    let mut cfg = RtConfig {
        datagram_delay: StdDuration::from_millis(1),
        platter_delay: StdDuration::from_millis(1),
        lazy_flush: StdDuration::from_millis(5),
        ..RtConfig::default()
    };
    // Short protocol timeouts so failure tests run quickly.
    cfg.engine.nb_outcome_timeout = camelot_types::Duration::from_millis(150);
    cfg.engine.takeover_window = camelot_types::Duration::from_millis(80);
    cfg.engine.recruit_window = camelot_types::Duration::from_millis(80);
    cfg.engine.takeover_retry = camelot_types::Duration::from_millis(150);
    cfg.engine.inquiry_interval = camelot_types::Duration::from_millis(200);
    cfg.engine.notify_resend_interval = camelot_types::Duration::from_millis(200);
    cfg
}

#[test]
fn local_transaction_commits_and_reads_back() {
    let cluster = Cluster::new(1, quick_cfg());
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    client
        .write(&tid, S1, SRV, ObjectId(1), b"hello".to_vec())
        .unwrap();
    let v = client.read(&tid, S1, SRV, ObjectId(1)).unwrap();
    assert_eq!(v, b"hello");
    let out = client.commit(&tid, CommitMode::TwoPhase).unwrap();
    assert_eq!(out, Outcome::Committed);
    // A later transaction sees the committed value.
    let tid2 = client.begin().unwrap();
    let v = client.read(&tid2, S1, SRV, ObjectId(1)).unwrap();
    assert_eq!(v, b"hello");
    client.commit(&tid2, CommitMode::TwoPhase).unwrap();
    cluster.shutdown();
}

#[test]
fn distributed_two_phase_commit() {
    let cluster = Cluster::new(3, quick_cfg());
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    client
        .write(&tid, S1, SRV, ObjectId(1), b"a".to_vec())
        .unwrap();
    client
        .write(&tid, S2, SRV, ObjectId(2), b"b".to_vec())
        .unwrap();
    client
        .write(&tid, S3, SRV, ObjectId(3), b"c".to_vec())
        .unwrap();
    let out = client.commit(&tid, CommitMode::TwoPhase).unwrap();
    assert_eq!(out, Outcome::Committed);
    // Every site applied its write.
    std::thread::sleep(StdDuration::from_millis(100));
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(1)), b"a");
    assert_eq!(cluster.committed_value(S2, SRV, ObjectId(2)), b"b");
    assert_eq!(cluster.committed_value(S3, SRV, ObjectId(3)), b"c");
    cluster.shutdown();
}

#[test]
fn distributed_nonblocking_commit() {
    let cluster = Cluster::new(3, quick_cfg());
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    client
        .write(&tid, S2, SRV, ObjectId(2), b"nb".to_vec())
        .unwrap();
    client
        .write(&tid, S3, SRV, ObjectId(3), b"nb".to_vec())
        .unwrap();
    let out = client.commit(&tid, CommitMode::NonBlocking).unwrap();
    assert_eq!(out, Outcome::Committed);
    std::thread::sleep(StdDuration::from_millis(100));
    assert_eq!(cluster.committed_value(S2, SRV, ObjectId(2)), b"nb");
    assert_eq!(cluster.committed_value(S3, SRV, ObjectId(3)), b"nb");
    cluster.shutdown();
}

#[test]
fn abort_undoes_everywhere() {
    let cluster = Cluster::new(2, quick_cfg());
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    client
        .write(&tid, S1, SRV, ObjectId(1), b"x".to_vec())
        .unwrap();
    client
        .write(&tid, S2, SRV, ObjectId(2), b"y".to_vec())
        .unwrap();
    client.abort(&tid).unwrap();
    std::thread::sleep(StdDuration::from_millis(100));
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(1)), b"");
    assert_eq!(cluster.committed_value(S2, SRV, ObjectId(2)), b"");
    cluster.shutdown();
}

/// Children write at the remote site, so their resolution reaches it
/// as a `SubResolved` notice: c1 commits into the parent, c2
/// overwrites the parent's remote value, writes a new key and aborts.
#[test]
fn nested_transactions_commit_and_abort() {
    for exec_mode in [ExecMode::LockBased, ExecMode::Queued] {
        for mode in [CommitMode::TwoPhase, CommitMode::NonBlocking] {
            let cluster = Cluster::new(
                2,
                RtConfig {
                    exec_mode,
                    ..quick_cfg()
                },
            );
            let client = cluster.client(S1);
            let top = client.begin().unwrap();
            client
                .write(&top, S1, SRV, ObjectId(1), b"base".to_vec())
                .unwrap();
            client
                .write(&top, S2, SRV, ObjectId(2), b"parent".to_vec())
                .unwrap();
            let c1 = client.begin_nested(&top).unwrap();
            client
                .write(&c1, S2, SRV, ObjectId(3), b"kept".to_vec())
                .unwrap();
            client.commit_nested(&c1).unwrap();
            let c2 = client.begin_nested(&top).unwrap();
            client
                .write(&c2, S2, SRV, ObjectId(2), b"child".to_vec())
                .unwrap();
            client
                .write(&c2, S2, SRV, ObjectId(4), b"gone".to_vec())
                .unwrap();
            client.abort(&c2).unwrap();
            if exec_mode == ExecMode::LockBased {
                // The abort notice may still be on its way to site 2:
                // the parent's read waits for it behind c2's lock.
                let v = client.read(&top, S2, SRV, ObjectId(2)).unwrap();
                assert_eq!(v, b"parent", "{exec_mode:?} {mode:?}");
            }
            let out = client.commit(&top, mode).unwrap();
            assert_eq!(out, Outcome::Committed, "{exec_mode:?} {mode:?}");
            std::thread::sleep(StdDuration::from_millis(100));
            for (site, object, value) in [
                (S1, 1, &b"base"[..]),
                (S2, 2, b"parent"),
                (S2, 3, b"kept"),
                (S2, 4, b""),
            ] {
                let got = cluster.committed_value(site, SRV, ObjectId(object));
                assert_eq!(got, value, "{exec_mode:?} {mode:?} object {object}");
            }
            cluster.shutdown();
        }
    }
}

#[test]
fn lock_conflict_resolves_at_commit() {
    let cluster = Cluster::new(1, quick_cfg());
    let c1 = cluster.client(S1);
    let c2 = cluster.client(S1);
    let t1 = c1.begin().unwrap();
    c1.write(&t1, S1, SRV, ObjectId(9), b"first".to_vec())
        .unwrap();
    // The second writer blocks until t1 commits; run it on a thread.
    let h = std::thread::spawn(move || {
        let t2 = c2.begin().unwrap();
        c2.write(&t2, S1, SRV, ObjectId(9), b"second".to_vec())
            .unwrap();
        c2.commit(&t2, CommitMode::TwoPhase).unwrap()
    });
    std::thread::sleep(StdDuration::from_millis(50));
    c1.commit(&t1, CommitMode::TwoPhase).unwrap();
    assert_eq!(h.join().unwrap(), Outcome::Committed);
    std::thread::sleep(StdDuration::from_millis(50));
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(9)), b"second");
    cluster.shutdown();
}

#[test]
fn crash_and_restart_recovers_committed_data() {
    let cluster = Cluster::new(1, quick_cfg());
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    client
        .write(&tid, S1, SRV, ObjectId(7), b"durable".to_vec())
        .unwrap();
    client.commit(&tid, CommitMode::TwoPhase).unwrap();
    // Give the lazy machinery a moment, then crash.
    std::thread::sleep(StdDuration::from_millis(30));
    cluster.crash(S1);
    assert!(!cluster.is_alive(S1));
    cluster.restart(S1).unwrap();
    assert!(cluster.is_alive(S1));
    // The committed value survived (redo from the log).
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(7)), b"durable");
    // And new transactions run.
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    let v = client.read(&tid, S1, SRV, ObjectId(7)).unwrap();
    assert_eq!(v, b"durable");
    client.commit(&tid, CommitMode::TwoPhase).unwrap();
    cluster.shutdown();
}

#[test]
fn uncommitted_data_lost_in_crash() {
    let cluster = Cluster::new(1, quick_cfg());
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    client
        .write(&tid, S1, SRV, ObjectId(8), b"volatile".to_vec())
        .unwrap();
    // No commit: crash loses it.
    cluster.crash(S1);
    cluster.restart(S1).unwrap();
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(8)), b"");
    cluster.shutdown();
}

#[test]
fn operation_on_crashed_site_fails_cleanly() {
    let cluster = Cluster::new(2, quick_cfg());
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    cluster.crash(S2);
    let err = client.read(&tid, S2, SRV, ObjectId(1)).unwrap_err();
    assert!(matches!(err, CamelotError::SiteDown(s) if s == S2));
    client.abort(&tid).unwrap();
    cluster.shutdown();
}

#[test]
fn nonblocking_survives_coordinator_crash_mid_protocol() {
    // The headline §3.3 property, on real threads: the coordinator
    // dies right after issuing the commit; the subordinates finish
    // the transaction among themselves.
    let cluster = Cluster::new(3, quick_cfg());
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    client
        .write(&tid, S2, SRV, ObjectId(2), b"v2".to_vec())
        .unwrap();
    client
        .write(&tid, S3, SRV, ObjectId(3), b"v3".to_vec())
        .unwrap();
    // Fire the commit from a thread; crash the coordinator while the
    // protocol is in flight.
    let h = std::thread::spawn(move || {
        // The call may fail (coordinator dies under it) — that's fine.
        let _ = client.commit(&tid, CommitMode::NonBlocking);
    });
    std::thread::sleep(StdDuration::from_millis(4));
    cluster.crash(S1);
    let _ = h.join();
    // Subordinate takeover must resolve both survivors identically:
    // either both commit, or (if the prepares never arrived) both
    // abort and stay empty. Poll until the takeover settles.
    let deadline = std::time::Instant::now() + StdDuration::from_secs(10);
    let (v2, v3) = loop {
        let v2 = cluster.committed_value(S2, SRV, ObjectId(2));
        let v3 = cluster.committed_value(S3, SRV, ObjectId(3));
        let committed = v2 == b"v2" && v3 == b"v3";
        if committed || std::time::Instant::now() > deadline {
            break (v2, v3);
        }
        std::thread::sleep(StdDuration::from_millis(25));
    };
    assert_eq!(
        v2 == b"v2",
        v3 == b"v3",
        "sites must agree: {v2:?} vs {v3:?}"
    );
    cluster.shutdown();
}

#[test]
fn many_concurrent_clients_stay_consistent() {
    // 8 clients hammer 4 counters with read-modify-write transactions;
    // the final sum must equal the number of successful increments.
    let cluster = std::sync::Arc::new(Cluster::new(1, quick_cfg()));
    let mut handles = Vec::new();
    for k in 0..8u64 {
        let cluster = cluster.clone();
        handles.push(std::thread::spawn(move || {
            let client = cluster.client(S1);
            let mut commits = 0u64;
            for i in 0..10u64 {
                let obj = ObjectId(k % 4);
                let tid = match client.begin() {
                    Ok(t) => t,
                    Err(_) => continue,
                };
                let cur = match client.read(&tid, S1, SRV, obj) {
                    Ok(v) => v,
                    Err(_) => {
                        let _ = client.abort(&tid);
                        continue;
                    }
                };
                let n = if cur.is_empty() {
                    0u64
                } else {
                    u64::from_le_bytes(cur.try_into().unwrap())
                };
                let next = (n + 1).to_le_bytes().to_vec();
                if client.write(&tid, S1, SRV, obj, next).is_err() {
                    let _ = client.abort(&tid);
                    continue;
                }
                if let Ok(Outcome::Committed) = client.commit(&tid, CommitMode::TwoPhase) {
                    commits += 1;
                }
                let _ = i;
            }
            commits
        }));
    }
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    std::thread::sleep(StdDuration::from_millis(100));
    let mut sum = 0u64;
    for obj in 0..4u64 {
        let v = cluster.committed_value(S1, SRV, ObjectId(obj));
        if !v.is_empty() {
            sum += u64::from_le_bytes(v.try_into().unwrap());
        }
    }
    assert_eq!(sum, total, "lost or phantom increments");
    match std::sync::Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still referenced"),
    }
}

#[test]
fn persistent_logs_survive_whole_cluster_restart() {
    // File-backed logs: commit, shut the whole cluster down, start a
    // new cluster on the same directory — the data is still there.
    let dir = std::env::temp_dir().join(format!("camelot-rt-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = quick_cfg();
    cfg.log_dir = Some(dir.clone());
    {
        let cluster = Cluster::new(2, cfg.clone());
        let client = cluster.client(S1);
        let tid = client.begin().unwrap();
        client
            .write(&tid, S1, SRV, ObjectId(5), b"persistent".to_vec())
            .unwrap();
        client
            .write(&tid, S2, SRV, ObjectId(6), b"also".to_vec())
            .unwrap();
        client.commit(&tid, CommitMode::TwoPhase).unwrap();
        // Let the subordinate's lazy commit record flush.
        std::thread::sleep(StdDuration::from_millis(80));
        cluster.shutdown();
    }
    {
        let cluster = Cluster::new(2, cfg);
        // Startup recovery replays the logs.
        assert_eq!(cluster.committed_value(S1, SRV, ObjectId(5)), b"persistent");
        assert_eq!(cluster.committed_value(S2, SRV, ObjectId(6)), b"also");
        // And the cluster is fully operational.
        let client = cluster.client(S1);
        let tid = client.begin().unwrap();
        let v = client.read(&tid, S1, SRV, ObjectId(5)).unwrap();
        assert_eq!(v, b"persistent");
        client.commit(&tid, CommitMode::TwoPhase).unwrap();
        cluster.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_then_crash_recovers_from_snapshot() {
    let cluster = Cluster::new(1, quick_cfg());
    let client = cluster.client(S1);
    // Several generations of committed state.
    for (obj, val) in [(1u64, b"one".to_vec()), (2, b"two".to_vec())] {
        let tid = client.begin().unwrap();
        client.write(&tid, S1, SRV, ObjectId(obj), val).unwrap();
        client.commit(&tid, CommitMode::TwoPhase).unwrap();
    }
    cluster.checkpoint(S1);
    // Post-checkpoint activity: an overwrite and an uncommitted write.
    let tid = client.begin().unwrap();
    client
        .write(&tid, S1, SRV, ObjectId(1), b"one-v2".to_vec())
        .unwrap();
    client.commit(&tid, CommitMode::TwoPhase).unwrap();
    let doomed = client.begin().unwrap();
    client
        .write(&doomed, S1, SRV, ObjectId(3), b"volatile".to_vec())
        .unwrap();
    // Crash with the last transaction unresolved.
    std::thread::sleep(StdDuration::from_millis(40));
    cluster.crash(S1);
    cluster.restart(S1).unwrap();
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(1)), b"one-v2");
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(2)), b"two");
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(3)), b"");
    cluster.shutdown();
}

/// A checkpoint gives the log a beginning: the records below the
/// snapshot are discarded, a restart scans only what is left, and the
/// family ids spent below the truncation point are not handed out
/// again.
#[test]
fn checkpoint_truncates_the_log_and_restart_starts_at_its_base() {
    let cluster = Cluster::new(1, quick_cfg());
    let client = cluster.client(S1);
    let mut last_seq = 0;
    for i in 0..20u64 {
        let tid = client.begin().unwrap();
        last_seq = last_seq.max(tid.family.seq);
        client
            .write(&tid, S1, SRV, ObjectId(i % 4), vec![i as u8; 64])
            .unwrap();
        client.commit(&tid, CommitMode::TwoPhase).unwrap();
    }
    // A commit that led its own force has told the server by the time
    // it returns. One that followed (a background flush had the disk)
    // is answered by a worker that tells the server *afterwards*, and
    // a checkpoint taken in between finds the family still held and
    // keeps its records: wait for the server to let go.
    let deadline = std::time::Instant::now() + StdDuration::from_secs(5);
    while !cluster.debug_state(S1).is_empty() {
        assert!(std::time::Instant::now() < deadline, "never went quiet");
        std::thread::yield_now();
    }
    let before = cluster.stats().sites[0].clone();
    assert_eq!(
        (before.checkpoints, before.wal_truncated_bytes),
        (0, 0),
        "20 small transactions are far below the 64 KiB trigger"
    );
    cluster.checkpoint(S1);
    let after = cluster.stats().sites[0].clone();
    assert_eq!(after.checkpoints, 1);
    assert!(after.wal_truncated_bytes >= before.wal_live_bytes);
    // Four 64-byte objects and a marker are all a restart would read.
    assert!(after.snapshot_bytes > 4 * 64 && after.snapshot_bytes < 512);
    assert!(after.wal_live_bytes < after.snapshot_bytes + 64);
    cluster.crash(S1);
    cluster.restart(S1).unwrap();
    for k in 0..4u64 {
        assert_eq!(
            cluster.committed_value(S1, SRV, ObjectId(k)),
            vec![(16 + k) as u8; 64]
        );
    }
    let tid = client.begin().unwrap();
    assert!(
        tid.family.seq > last_seq,
        "family {} reuses a sequence number at or below {last_seq}",
        tid.family
    );
    client.commit(&tid, CommitMode::TwoPhase).unwrap();
    assert!(cluster.stats().sites[0].last_restart > StdDuration::ZERO);
    cluster.shutdown();
}

/// Nobody calls `checkpoint` here: the disk manager schedules its own
/// once the tail outgrows `max(64 KiB, 2 × snapshot)`, on a site that
/// is never idle. A transaction left open across those checkpoints
/// pins the log at its first record (retention is by live family);
/// once it resolves, the next checkpoint lets go of everything below.
#[test]
fn a_busy_site_checkpoints_itself_and_retains_what_live_families_need() {
    let cluster = Cluster::new(1, quick_cfg());
    let client = cluster.client(S1);
    let commit_kib = |n: u64| {
        for i in 0..n {
            let tid = client.begin().unwrap();
            client
                .write(&tid, S1, SRV, ObjectId(i % 8), vec![i as u8; 1024])
                .unwrap();
            client.commit(&tid, CommitMode::TwoPhase).unwrap();
        }
    };
    let stats = || cluster.stats().sites[0].clone();
    commit_kib(8);
    let pinned = client.begin().unwrap();
    client
        .write(&pinned, S1, SRV, ObjectId(100), b"held".to_vec())
        .unwrap();
    let pinned_at = stats().wal_truncated_bytes + stats().wal_live_bytes;
    // ~2 KiB of log per transaction (old and new value): 400 KiB.
    commit_kib(200);
    let held = stats();
    assert!(held.checkpoints >= 2, "self-scheduled: {held:?}");
    assert!(
        held.wal_truncated_bytes <= pinned_at,
        "truncated past the open transaction's first record"
    );
    assert!(
        held.wal_live_bytes > 300 * 1024,
        "the open family pins its tail"
    );
    // A crash now undoes the open transaction and keeps the rest.
    cluster.crash(S1);
    cluster.restart(S1).unwrap();
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(100)), b"");
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(7))[0], 199);
    // The restart ended with a checkpoint, and nothing is held any
    // more: the log is a snapshot and change again.
    commit_kib(100);
    let free = stats();
    assert!(free.wal_truncated_bytes > pinned_at);
    assert!(
        free.wal_live_bytes <= 64 * 1024 + 4 * free.snapshot_bytes,
        "live WAL {} B, snapshot {} B",
        free.wal_live_bytes,
        free.snapshot_bytes
    );
    for k in 0..8u64 {
        let last = (0..100u64).rev().find(|i| i % 8 == k).unwrap();
        let v = cluster.committed_value(S1, SRV, ObjectId(k));
        assert_eq!((v.len(), v[0]), (1024, last as u8), "object {k}");
    }
    cluster.shutdown();
}

#[test]
fn deadlock_resolves_via_call_timeout_and_abort() {
    // Two clients acquire X locks in opposite orders: a classic
    // deadlock. Camelot's answer at the data level is the call
    // timeout: the blocked operation errors, the application aborts,
    // and the other transaction proceeds.
    let mut cfg = quick_cfg();
    cfg.call_timeout = StdDuration::from_millis(400);
    let cluster = std::sync::Arc::new(Cluster::new(1, cfg));
    let a = cluster.client(S1);
    let b = cluster.client(S1);
    let ta = a.begin().unwrap();
    let tb = b.begin().unwrap();
    a.write(&ta, S1, SRV, ObjectId(1), b"a1".to_vec()).unwrap();
    b.write(&tb, S1, SRV, ObjectId(2), b"b2".to_vec()).unwrap();
    // Cross: each now wants the other's object.
    let h = {
        let cluster = cluster.clone();
        std::thread::spawn(move || {
            let r = b.write(&tb, S1, SRV, ObjectId(1), b"b1".to_vec());
            match r {
                Ok(_) => b.commit(&tb, CommitMode::TwoPhase).map(|_| true),
                Err(_) => {
                    // Timed out: abort and report.
                    let _ = b.abort(&tb);
                    Ok(false)
                }
            }
            .inspect(|_| {
                let _ = &cluster;
            })
        })
    };
    let ra = a.write(&ta, S1, SRV, ObjectId(2), b"a2".to_vec());
    let a_committed = match ra {
        Ok(_) => {
            a.commit(&ta, CommitMode::TwoPhase).unwrap();
            true
        }
        Err(_) => {
            let _ = a.abort(&ta);
            false
        }
    };
    let b_committed = h.join().unwrap().unwrap();
    // At least one side must have made progress (no permanent hang),
    // and the committed values must be internally consistent.
    assert!(
        a_committed || b_committed,
        "deadlock must resolve via timeout"
    );
    std::thread::sleep(StdDuration::from_millis(100));
    if a_committed {
        assert_eq!(cluster.committed_value(S1, SRV, ObjectId(2)), b"a2");
    }
    if b_committed {
        assert_eq!(cluster.committed_value(S1, SRV, ObjectId(1)), b"b1");
    }
    match std::sync::Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still referenced"),
    }
}
