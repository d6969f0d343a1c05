//! Integration tests of [`ExecMode::Queued`]: per-shard FIFO
//! operation queues with single-owner workers, resolving through the
//! unmodified 2PC/NB commitment machinery.
//!
//! Queued-mode visibility note: a commit's write-through to the data
//! servers happens when the shard workers process the Resolve job,
//! *after* the client's commit call returns — tests wait for the
//! cluster to go quiet (the shards included) before asserting on
//! `committed_value`, as the lock-based tests do for lazy commit
//! records.

mod common;

use std::time::Duration as StdDuration;

use camelot_core::CommitMode;
use camelot_net::Outcome;
use camelot_rt::{Cluster, ExecMode, RtConfig};
use camelot_types::{ObjectId, ServerId, SiteId};
use common::wait_quiet;

const S1: SiteId = SiteId(1);
const S2: SiteId = SiteId(2);
const SRV: ServerId = ServerId(1);

fn queued_cfg() -> RtConfig {
    let mut cfg = RtConfig {
        datagram_delay: StdDuration::from_millis(1),
        platter_delay: StdDuration::from_millis(1),
        lazy_flush: StdDuration::from_millis(5),
        exec_mode: ExecMode::Queued,
        data_shards: 4,
        ..RtConfig::default()
    };
    cfg.engine.nb_outcome_timeout = camelot_types::Duration::from_millis(150);
    cfg.engine.takeover_window = camelot_types::Duration::from_millis(80);
    cfg.engine.recruit_window = camelot_types::Duration::from_millis(80);
    cfg.engine.takeover_retry = camelot_types::Duration::from_millis(150);
    cfg.engine.inquiry_interval = camelot_types::Duration::from_millis(200);
    cfg.engine.notify_resend_interval = camelot_types::Duration::from_millis(200);
    cfg
}

#[test]
fn queued_local_commit_and_read_back() {
    let cluster = Cluster::new(1, queued_cfg());
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    client
        .write(&tid, S1, SRV, ObjectId(1), b"hello".to_vec())
        .unwrap();
    // Own write visible within the transaction.
    assert_eq!(client.read(&tid, S1, SRV, ObjectId(1)).unwrap(), b"hello");
    assert_eq!(
        client.commit(&tid, CommitMode::TwoPhase).unwrap(),
        Outcome::Committed
    );
    wait_quiet(&cluster);
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(1)), b"hello");
    // A later transaction reads the committed value through the queue.
    let tid2 = client.begin().unwrap();
    assert_eq!(client.read(&tid2, S1, SRV, ObjectId(1)).unwrap(), b"hello");
    client.commit(&tid2, CommitMode::TwoPhase).unwrap();
    let stats = cluster.stats();
    assert!(
        stats.sites.iter().map(|s| s.queue_ops).sum::<u64>() >= 3,
        "operations must have flowed through the shard queues"
    );
    cluster.shutdown();
}

#[test]
fn queued_distributed_two_phase_commit() {
    let cluster = Cluster::new(2, queued_cfg());
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    client
        .write(&tid, S1, SRV, ObjectId(1), b"a".to_vec())
        .unwrap();
    client
        .write(&tid, S2, SRV, ObjectId(2), b"b".to_vec())
        .unwrap();
    assert_eq!(
        client.commit(&tid, CommitMode::TwoPhase).unwrap(),
        Outcome::Committed
    );
    wait_quiet(&cluster);
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(1)), b"a");
    assert_eq!(cluster.committed_value(S2, SRV, ObjectId(2)), b"b");
    cluster.shutdown();
}

#[test]
fn queued_distributed_nonblocking_commit() {
    let cluster = Cluster::new(2, queued_cfg());
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    client
        .write(&tid, S1, SRV, ObjectId(3), b"nb1".to_vec())
        .unwrap();
    client
        .write(&tid, S2, SRV, ObjectId(4), b"nb2".to_vec())
        .unwrap();
    assert_eq!(
        client.commit(&tid, CommitMode::NonBlocking).unwrap(),
        Outcome::Committed
    );
    wait_quiet(&cluster);
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(3)), b"nb1");
    assert_eq!(cluster.committed_value(S2, SRV, ObjectId(4)), b"nb2");
    cluster.shutdown();
}

#[test]
fn queued_abort_discards_speculative_writes() {
    let cluster = Cluster::new(2, queued_cfg());
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    client
        .write(&tid, S1, SRV, ObjectId(1), b"x".to_vec())
        .unwrap();
    client
        .write(&tid, S2, SRV, ObjectId(2), b"y".to_vec())
        .unwrap();
    client.abort(&tid).unwrap();
    wait_quiet(&cluster);
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(1)), b"");
    assert_eq!(cluster.committed_value(S2, SRV, ObjectId(2)), b"");
    // The speculative version is gone: a new transaction reads empty.
    let tid2 = client.begin().unwrap();
    assert_eq!(client.read(&tid2, S1, SRV, ObjectId(1)).unwrap(), b"");
    client.commit(&tid2, CommitMode::TwoPhase).unwrap();
    cluster.shutdown();
}

#[test]
fn queued_dirty_read_chain_serializes_after_writer() {
    // T2 reads T1's uncommitted write (a dirty read, recorded as a
    // cascading dependency); once T1 commits, T2 commits carrying the
    // value forward.
    let cluster = Cluster::new(1, queued_cfg());
    let c1 = cluster.client(S1);
    let c2 = cluster.client(S1);
    let t1 = c1.begin().unwrap();
    c1.write(&t1, S1, SRV, ObjectId(10), b"a".to_vec()).unwrap();
    let t2 = c2.begin().unwrap();
    let seen = c2.read(&t2, S1, SRV, ObjectId(10)).unwrap();
    assert_eq!(seen, b"a", "queued readers see the newest version");
    c2.write(&t2, S1, SRV, ObjectId(11), seen).unwrap();
    assert_eq!(
        c1.commit(&t1, CommitMode::TwoPhase).unwrap(),
        Outcome::Committed
    );
    assert_eq!(
        c2.commit(&t2, CommitMode::TwoPhase).unwrap(),
        Outcome::Committed
    );
    wait_quiet(&cluster);
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(10)), b"a");
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(11)), b"a");
    cluster.shutdown();
}

#[test]
fn queued_dirty_read_cascade_aborts_reader() {
    // T2 read T1's uncommitted data; T1 aborts, so T2 must too.
    let cluster = Cluster::new(1, queued_cfg());
    let c1 = cluster.client(S1);
    let c2 = cluster.client(S1);
    let t1 = c1.begin().unwrap();
    c1.write(&t1, S1, SRV, ObjectId(20), b"doomed".to_vec())
        .unwrap();
    let t2 = c2.begin().unwrap();
    assert_eq!(c2.read(&t2, S1, SRV, ObjectId(20)).unwrap(), b"doomed");
    c2.write(&t2, S1, SRV, ObjectId(21), b"tainted".to_vec())
        .unwrap();
    c1.abort(&t1).unwrap();
    assert_eq!(
        c2.commit(&t2, CommitMode::TwoPhase).unwrap(),
        Outcome::Aborted,
        "a dirty reader of an aborted writer must cascade-abort"
    );
    wait_quiet(&cluster);
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(20)), b"");
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(21)), b"");
    let stats = cluster.stats();
    assert!(
        stats.sites.iter().map(|s| s.queue_cascades).sum::<u64>() >= 1,
        "the cascade must be counted"
    );
    cluster.shutdown();
}

#[test]
fn queued_write_write_order_installs_last_committer() {
    // Two writers on one hot key: neither blocks at execution; the
    // second's commit waits (parked vote) for the first, and the
    // installed value is the later one in queue order.
    let cluster = Cluster::new(1, queued_cfg());
    let c1 = cluster.client(S1);
    let c2 = cluster.client(S1);
    let t1 = c1.begin().unwrap();
    c1.write(&t1, S1, SRV, ObjectId(30), b"first".to_vec())
        .unwrap();
    let t2 = c2.begin().unwrap();
    // Does NOT block, unlike the lock-based mode.
    c2.write(&t2, S1, SRV, ObjectId(30), b"second".to_vec())
        .unwrap();
    // t2's commit parks behind t1; commit t1 from this thread while
    // t2 commits on another.
    let h = std::thread::spawn(move || c2.commit(&t2, CommitMode::TwoPhase).unwrap());
    std::thread::sleep(StdDuration::from_millis(50));
    assert_eq!(
        c1.commit(&t1, CommitMode::TwoPhase).unwrap(),
        Outcome::Committed
    );
    assert_eq!(h.join().unwrap(), Outcome::Committed);
    wait_quiet(&cluster);
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(30)), b"second");
    cluster.shutdown();
}

#[test]
fn queued_read_modify_write_first_committer_wins() {
    // Reads of committed state take no dependency, so two families can
    // both read `v` and both write `v + 1`. The shard validates at vote
    // time: whoever commits second wrote from a value that is no longer
    // the committed one, and is refused.
    let cluster = Cluster::new(1, queued_cfg());
    let (c1, c2) = (cluster.client(S1), cluster.client(S1));
    let bump = |v: Vec<u8>| vec![v.first().copied().unwrap_or(0) + 1];

    // The first commits before the second writes: no version chain is
    // left to order against, only validation can tell.
    let obj = ObjectId(35);
    let (t1, t2) = (c1.begin().unwrap(), c2.begin().unwrap());
    let seen1 = c1.read(&t1, S1, SRV, obj).unwrap();
    let seen2 = c2.read(&t2, S1, SRV, obj).unwrap();
    c1.write(&t1, S1, SRV, obj, bump(seen1)).unwrap();
    assert_eq!(
        c1.commit(&t1, CommitMode::TwoPhase).unwrap(),
        Outcome::Committed
    );
    // The shard installs t1 before t2 writes. t2 is open, so the site
    // is not quiet: wait for the shard to let go of t1 alone.
    let installing = format!("{S1} queue: {}", t1.family);
    let deadline = std::time::Instant::now() + StdDuration::from_secs(10);
    while cluster.debug_state(S1).split("; ").any(|l| l == installing) {
        assert!(std::time::Instant::now() < deadline, "{installing}");
        std::thread::yield_now();
    }
    c2.write(&t2, S1, SRV, obj, bump(seen2)).unwrap();
    assert_eq!(
        c2.commit(&t2, CommitMode::TwoPhase).unwrap(),
        Outcome::Aborted,
        "a write computed from a stale read must not commit"
    );
    // The retry reads the winner's value and goes through (once the
    // shard has heard of the abort: until then the newest version is
    // still the loser's, and reading it would cascade).
    wait_quiet(&cluster);
    let t3 = c2.begin().unwrap();
    let seen3 = c2.read(&t3, S1, SRV, obj).unwrap();
    c2.write(&t3, S1, SRV, obj, bump(seen3)).unwrap();
    assert_eq!(
        c2.commit(&t3, CommitMode::TwoPhase).unwrap(),
        Outcome::Committed
    );
    wait_quiet(&cluster);
    assert_eq!(cluster.committed_value(S1, SRV, obj), [2]);

    // Both write before either commits: write-write order parks the
    // second's vote behind the first, and would then install a value
    // computed without the first's update.
    let obj = ObjectId(36);
    let (t1, t2) = (c1.begin().unwrap(), c2.begin().unwrap());
    let seen1 = c1.read(&t1, S1, SRV, obj).unwrap();
    let seen2 = c2.read(&t2, S1, SRV, obj).unwrap();
    c1.write(&t1, S1, SRV, obj, bump(seen1)).unwrap();
    c2.write(&t2, S1, SRV, obj, bump(seen2)).unwrap();
    let second = std::thread::spawn(move || c2.commit(&t2, CommitMode::TwoPhase).unwrap());
    std::thread::sleep(StdDuration::from_millis(50));
    assert_eq!(
        c1.commit(&t1, CommitMode::TwoPhase).unwrap(),
        Outcome::Committed
    );
    assert_eq!(second.join().unwrap(), Outcome::Aborted);
    wait_quiet(&cluster);
    assert_eq!(cluster.committed_value(S1, SRV, obj), [1]);
    cluster.shutdown();
}

#[test]
fn queued_concurrent_increments_lose_no_update() {
    // The ladder's `hot_queued` shape: threads increment one counter
    // with read-modify-write, re-running a transaction that aborts.
    // Every acknowledged commit must be in the final value.
    const THREADS: u64 = 4;
    const INCREMENTS: u64 = 50;
    let cfg = RtConfig {
        datagram_delay: StdDuration::ZERO,
        platter_delay: StdDuration::ZERO,
        ..queued_cfg()
    };
    let cluster = std::sync::Arc::new(Cluster::new(1, cfg));
    let obj = ObjectId(80);
    let counters: Vec<_> = (0..THREADS)
        .map(|_| {
            let cluster = cluster.clone();
            std::thread::spawn(move || {
                let client = cluster.client(S1);
                let mut commits = 0u64;
                while commits < INCREMENTS {
                    let tid = client.begin().unwrap();
                    let seen = client.read(&tid, S1, SRV, obj).unwrap();
                    // Speculative values run ahead of the committed
                    // count (retries stack on versions whose abort the
                    // shard has yet to hear of): not a byte.
                    let n = seen.try_into().map_or(0, u64::from_le_bytes);
                    let next = (n + 1).to_le_bytes().to_vec();
                    client.write(&tid, S1, SRV, obj, next).unwrap();
                    if client.commit(&tid, CommitMode::TwoPhase).unwrap() == Outcome::Committed {
                        commits += 1;
                    }
                }
            })
        })
        .collect();
    for counter in counters {
        counter.join().expect("no counter panics");
    }
    wait_quiet(&cluster);
    assert_eq!(
        cluster.committed_value(S1, SRV, obj),
        (THREADS * INCREMENTS).to_le_bytes(),
        "an acknowledged increment is missing from the counter"
    );
    match std::sync::Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still referenced"),
    }
}

#[test]
fn queued_veto_does_not_overtake_its_own_prepare() {
    // A coordinator whose own shards refuse the family (a stale
    // read-modify-write) aborts while its commit batch is still being
    // applied — the shards answer on their own threads. The abort
    // notice must still leave after that batch's prepares: a
    // non-blocking subordinate drops an outcome for a family it has not
    // been asked to prepare, then prepares, and sits on its speculative
    // writes until the coordinator resends (5 s with these timers),
    // timing out everybody queued behind them. (One worker per site:
    // with more, two workers can still take the two datagrams in
    // either order at the subordinate — the engine's gap, ROADMAP.)
    let cfg = RtConfig {
        datagram_delay: StdDuration::ZERO,
        platter_delay: StdDuration::ZERO,
        tm_threads: 1,
        exec_mode: ExecMode::Queued,
        ..RtConfig::default()
    };
    let cluster = Cluster::new(2, cfg);
    let (c1, c2) = (cluster.client(S1), cluster.client(S1));
    let hot = ObjectId(90);
    for round in 0..40u8 {
        let t = c1.begin().unwrap();
        let seen = c1.read(&t, S1, SRV, hot).unwrap();
        let w = c2.begin().unwrap();
        c2.write(&w, S1, SRV, hot, vec![round, 1]).unwrap();
        assert_eq!(
            c2.commit(&w, CommitMode::TwoPhase).unwrap(),
            Outcome::Committed
        );
        c1.write(&t, S1, SRV, hot, [seen, vec![2]].concat())
            .unwrap();
        c1.write(&t, S2, SRV, ObjectId(91), vec![round]).unwrap();
        assert_eq!(
            c1.commit(&t, CommitMode::NonBlocking).unwrap(),
            Outcome::Aborted,
            "round {round}: the read of {hot:?} was stale"
        );
        let deadline = std::time::Instant::now() + StdDuration::from_millis(500);
        while !cluster.debug_state(S2).is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "round {round}: the subordinate still holds the aborted family: {}",
                cluster.debug_state(S2)
            );
            std::thread::yield_now();
        }
    }
    cluster.shutdown();
}

#[test]
fn queued_vote_timeout_breaks_dependency_cycles() {
    // Opposing write orders build a dependency cycle (the queued
    // analogue of a deadlock); the parked-vote timeout must break it
    // rather than hang both commits.
    let mut cfg = queued_cfg();
    cfg.queued_vote_timeout = StdDuration::from_millis(200);
    let cluster = Cluster::new(1, cfg);
    let c1 = cluster.client(S1);
    let c2 = cluster.client(S1);
    let t1 = c1.begin().unwrap();
    let t2 = c2.begin().unwrap();
    c1.write(&t1, S1, SRV, ObjectId(40), b"a1".to_vec())
        .unwrap();
    c2.write(&t2, S1, SRV, ObjectId(41), b"b1".to_vec())
        .unwrap();
    c1.write(&t1, S1, SRV, ObjectId(41), b"a2".to_vec())
        .unwrap();
    c2.write(&t2, S1, SRV, ObjectId(40), b"b2".to_vec())
        .unwrap();
    let h = std::thread::spawn(move || c2.commit(&t2, CommitMode::TwoPhase).unwrap());
    let o1 = c1.commit(&t1, CommitMode::TwoPhase).unwrap();
    let o2 = h.join().unwrap();
    assert!(
        o1 == Outcome::Aborted || o2 == Outcome::Aborted,
        "a dependency cycle cannot commit both sides: {o1:?} vs {o2:?}"
    );
    let stats = cluster.stats();
    assert!(
        stats
            .sites
            .iter()
            .map(|s| s.queue_vote_timeouts)
            .sum::<u64>()
            >= 1,
        "the cycle must have been broken by a vote timeout"
    );
    cluster.shutdown();
}

#[test]
fn queued_crash_and_restart_recovers_committed_data() {
    let cluster = Cluster::new(1, queued_cfg());
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    client
        .write(&tid, S1, SRV, ObjectId(60), b"durable".to_vec())
        .unwrap();
    client.commit(&tid, CommitMode::TwoPhase).unwrap();
    // Let the resolve write-through and lazy records land.
    wait_quiet(&cluster);
    // An uncommitted straggler, lost with the crash.
    let doomed = client.begin().unwrap();
    client
        .write(&doomed, S1, SRV, ObjectId(61), b"volatile".to_vec())
        .unwrap();
    cluster.crash(S1);
    cluster.restart(S1).unwrap();
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(60)), b"durable");
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(61)), b"");
    // The queue path works after restart (fresh incarnation).
    let client = cluster.client(S1);
    let tid = client.begin().unwrap();
    assert_eq!(
        client.read(&tid, S1, SRV, ObjectId(60)).unwrap(),
        b"durable"
    );
    client
        .write(&tid, S1, SRV, ObjectId(62), b"post".to_vec())
        .unwrap();
    assert_eq!(
        client.commit(&tid, CommitMode::TwoPhase).unwrap(),
        Outcome::Committed
    );
    wait_quiet(&cluster);
    assert_eq!(cluster.committed_value(S1, SRV, ObjectId(62)), b"post");
    cluster.shutdown();
}

#[test]
fn queued_hot_key_writers_never_block_and_stay_consistent() {
    // 8 clients blind-write one hot key concurrently. In queued mode
    // no writer blocks at execution; every commit should succeed, and
    // the final committed value must be one of the written values.
    let cluster = std::sync::Arc::new(Cluster::new(1, queued_cfg()));
    let mut handles = Vec::new();
    for k in 0..8u64 {
        let cluster = cluster.clone();
        handles.push(std::thread::spawn(move || {
            let client = cluster.client(S1);
            let mut commits = 0u64;
            for i in 0..5u64 {
                let tid = client.begin().unwrap();
                let val = format!("w{k}-{i}").into_bytes();
                if client.write(&tid, S1, SRV, ObjectId(70), val).is_err() {
                    let _ = client.abort(&tid);
                    continue;
                }
                if let Ok(Outcome::Committed) = client.commit(&tid, CommitMode::TwoPhase) {
                    commits += 1;
                }
            }
            commits
        }));
    }
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total >= 30, "hot-key writers should mostly commit: {total}");
    wait_quiet(&cluster);
    let v = cluster.committed_value(S1, SRV, ObjectId(70));
    assert!(
        v.starts_with(b"w") && v.len() >= 4,
        "final value must come from some committed writer: {v:?}"
    );
    let stats = cluster.stats();
    assert_eq!(
        stats.total_server_stats().lock_waits,
        0,
        "queued mode must never touch the lock table"
    );
    match std::sync::Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still referenced"),
    }
}
