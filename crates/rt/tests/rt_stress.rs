//! Multi-client stress tests: many real application threads driving
//! mixed local/distributed transactions through the sharded engine and
//! the leader/follower disk manager at once. These are the tests that
//! catch routing mistakes (an input handled by the wrong engine shard),
//! lost completions (a force token dropped by the disk pipeline — the
//! client would then hit its call timeout), and cross-site
//! inconsistency (a subordinate applying a different value than its
//! coordinator).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use camelot_core::CommitMode;
use camelot_net::Outcome;
use camelot_rt::{BatchPolicy, Cluster, RtConfig};
use camelot_types::{CamelotError, Duration, ObjectId, ServerId, SiteId};

const SRV: ServerId = ServerId(1);

fn quick_cfg() -> RtConfig {
    RtConfig {
        datagram_delay: StdDuration::from_millis(1),
        platter_delay: StdDuration::from_millis(1),
        lazy_flush: StdDuration::from_millis(5),
        ..RtConfig::default()
    }
}

/// N clients × M sites, mixed local and distributed update
/// transactions, every client on its own objects (writers never
/// conflict, so nothing may abort or time out under the default call
/// timeout). Afterwards the value of every distributed object must be
/// identical at every site that holds a replica of it — the
/// transactions wrote the same value everywhere, so any divergence
/// means a subordinate lost or misapplied a commit.
#[test]
fn many_clients_mixed_workload_stays_consistent() {
    let sites = 3u32;
    let clients_per_site = 2usize;
    let txns_per_client = 15u64;
    let cluster = Arc::new(Cluster::new(sites, quick_cfg()));
    let commits = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for home in 1..=sites {
        for c in 0..clients_per_site {
            let cluster = cluster.clone();
            let commits = commits.clone();
            handles.push(std::thread::spawn(move || {
                let me = SiteId(home);
                let remote = SiteId(home % sites + 1);
                let client = cluster.client(me);
                // Distinct objects per client: no data conflicts.
                let key = (home as u64) * 100 + c as u64;
                let local_obj = ObjectId(1000 + key);
                let shared_obj = ObjectId(2000 + key);
                for i in 0..txns_per_client {
                    let tid = client.begin().expect("begin");
                    let value = format!("c{key}-t{i}").into_bytes();
                    if i % 3 == 0 {
                        // Local-only update.
                        client
                            .write(&tid, me, SRV, local_obj, value)
                            .expect("local write");
                    } else {
                        // Distributed update: same value at two sites.
                        client
                            .write(&tid, me, SRV, shared_obj, value.clone())
                            .expect("home write");
                        client
                            .write(&tid, remote, SRV, shared_obj, value)
                            .expect("remote write");
                    }
                    let out = client.commit(&tid, CommitMode::TwoPhase).expect("commit");
                    assert_eq!(out, Outcome::Committed, "client {key} txn {i}");
                    commits.fetch_add(1, Ordering::Relaxed);
                }
                (key, local_obj, shared_obj, me, remote, txns_per_client)
            }));
        }
    }
    let mut expectations = Vec::new();
    for h in handles {
        expectations.push(h.join().expect("client thread"));
    }
    assert_eq!(
        commits.load(Ordering::Relaxed),
        sites as u64 * clients_per_site as u64 * txns_per_client
    );
    // Give lazily acknowledged subordinate commits a beat to apply.
    std::thread::sleep(StdDuration::from_millis(150));
    for (key, local_obj, shared_obj, me, remote, n) in expectations {
        let last_local = format!("c{key}-t{}", ((n - 1) / 3) * 3).into_bytes();
        assert_eq!(
            cluster.committed_value(me, SRV, local_obj),
            last_local,
            "client {key} local object"
        );
        // The last distributed txn's value, identical at both sites.
        let last_dist = (0..n).rev().find(|i| i % 3 != 0).unwrap();
        let expect = format!("c{key}-t{last_dist}").into_bytes();
        assert_eq!(
            cluster.committed_value(me, SRV, shared_obj),
            expect,
            "client {key} shared object at home"
        );
        assert_eq!(
            cluster.committed_value(remote, SRV, shared_obj),
            expect,
            "client {key} shared object at subordinate"
        );
    }
    // The contention counters saw the traffic.
    let stats = cluster.stats();
    assert!(stats.total_commits() >= sites as u64 * clients_per_site as u64 * txns_per_client);
    assert!(stats.total_platter_writes() > 0);
    let cluster = Arc::try_unwrap(cluster).ok().expect("sole owner");
    cluster.shutdown();
}

/// The pipelined disk driver under a Window policy, with on-demand
/// checkpoints racing the foreground forces. A checkpoint's snapshot
/// and marker ride the batcher as one more tokenless request, and the
/// truncation that follows moves the log's base under live appenders —
/// the batcher must never lose a force completion over it (a lost
/// completion would park a commit forever and trip the call timeout).
#[test]
fn window_policy_with_concurrent_checkpoints() {
    let cfg = RtConfig {
        batch: BatchPolicy::Window(Duration::from_millis(2)),
        ..quick_cfg()
    };
    let cluster = Arc::new(Cluster::new(2, cfg));
    let stop = Arc::new(AtomicU64::new(0));
    let ckpt = {
        let cluster = cluster.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while stop.load(Ordering::Relaxed) == 0 {
                cluster.checkpoint(SiteId(1));
                cluster.checkpoint(SiteId(2));
                std::thread::sleep(StdDuration::from_millis(3));
            }
        })
    };
    let mut handles = Vec::new();
    for c in 0..4u64 {
        let cluster = cluster.clone();
        handles.push(std::thread::spawn(move || {
            let client = cluster.client(SiteId(1));
            for i in 0..10u64 {
                let tid = client.begin().expect("begin");
                client
                    .write(&tid, SiteId(1), SRV, ObjectId(10 + c), vec![i as u8])
                    .expect("write home");
                client
                    .write(&tid, SiteId(2), SRV, ObjectId(10 + c), vec![i as u8])
                    .expect("write remote");
                let out = client.commit(&tid, CommitMode::TwoPhase).expect("commit");
                assert_eq!(out, Outcome::Committed);
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    stop.store(1, Ordering::Relaxed);
    ckpt.join().expect("checkpoint thread");
    std::thread::sleep(StdDuration::from_millis(100));
    for c in 0..4u64 {
        assert_eq!(
            cluster.committed_value(SiteId(1), SRV, ObjectId(10 + c)),
            [9]
        );
        assert_eq!(
            cluster.committed_value(SiteId(2), SRV, ObjectId(10 + c)),
            [9]
        );
    }
    let cluster = Arc::try_unwrap(cluster).ok().expect("sole owner");
    cluster.shutdown();
}

/// Leader/follower group commit under real concurrency: 8 application
/// threads committing local updates against a 5 ms platter. Whoever
/// finds the disk idle leads a write; the rest queue behind it. With
/// `Coalesce` those who queued share the next write, so there are fewer
/// writes than forces; with `Immediate` every force still gets a write
/// of its own (an occasional pair whose appends and requests crossed is
/// all that may share one). Either way every commit is acknowledged,
/// and every force released, exactly once.
#[test]
fn eight_committers_batch_under_coalesce_and_not_under_immediate() {
    const THREADS: u64 = 8;
    const TXNS: u64 = 12;
    for batch in [BatchPolicy::Coalesce, BatchPolicy::Immediate] {
        let cfg = RtConfig {
            batch,
            platter_delay: StdDuration::from_millis(5),
            ..quick_cfg()
        };
        let cluster = Arc::new(Cluster::new(1, cfg));
        let committers: Vec<_> = (0..THREADS)
            .map(|c| {
                let cluster = cluster.clone();
                std::thread::spawn(move || {
                    let client = cluster.client(SiteId(1));
                    for i in 0..TXNS {
                        let tid = client.begin().expect("begin");
                        client
                            .write(&tid, SiteId(1), SRV, ObjectId(c), vec![i as u8])
                            .expect("write");
                        let out = client.commit(&tid, CommitMode::TwoPhase).expect("commit");
                        assert_eq!(out, Outcome::Committed, "client {c} txn {i}");
                    }
                })
            })
            .collect();
        for committer in committers {
            committer.join().expect("no committer panics");
        }
        // A follower's reply comes from the worker that then tells the
        // server; wait for the last of them to let go.
        let deadline = std::time::Instant::now() + StdDuration::from_secs(5);
        while !cluster.debug_state(SiteId(1)).is_empty() {
            assert!(std::time::Instant::now() < deadline, "never went quiet");
            std::thread::yield_now();
        }
        for c in 0..THREADS {
            let value = cluster.committed_value(SiteId(1), SRV, ObjectId(c));
            assert_eq!(value, [TXNS as u8 - 1], "{batch:?}: client {c}");
        }
        // Quiet includes the batcher: no force is left waiting.
        let s = cluster.stats().sites[0].clone();
        assert_eq!(
            (s.engine.commits, s.forces_satisfied),
            (THREADS * TXNS, THREADS * TXNS),
            "{batch:?}: one commit, one force, one release each"
        );
        match batch {
            BatchPolicy::Coalesce => assert!(
                s.platter_writes < s.forces_satisfied && s.max_batch > 1,
                "{batch:?}: {} writes for {} forces, largest batch {}",
                s.platter_writes,
                s.forces_satisfied,
                s.max_batch
            ),
            _ => assert!(
                s.mean_batch() < 1.25,
                "{batch:?}: {} writes for {} forces",
                s.platter_writes,
                s.forces_satisfied
            ),
        }
        let cluster = Arc::try_unwrap(cluster).ok().expect("sole owner");
        cluster.shutdown();
    }
}

/// A leader performs one platter write and returns. Three followers
/// commit while the leader's write is in flight; when it completes the
/// batcher asks for their write at once, and that one belongs to the
/// disk thread — a leader that took it would hold its own caller for a
/// second platter delay, and the next leader's for a third.
#[test]
fn a_leader_writes_once_and_leaves_the_next_write_to_the_disk_thread() {
    let platter = StdDuration::from_millis(150);
    let cfg = RtConfig {
        platter_delay: platter,
        // No background flush: every platter write here is a commit's.
        lazy_flush: StdDuration::from_secs(60),
        ..quick_cfg()
    };
    let cluster = Arc::new(Cluster::new(1, cfg));
    let committers: Vec<_> = (0..4u64)
        .map(|i| {
            let cluster = cluster.clone();
            std::thread::spawn(move || {
                let client = cluster.client(SiteId(1));
                let tid = client.begin().expect("begin");
                client
                    .write(&tid, SiteId(1), SRV, ObjectId(i), b"v".to_vec())
                    .expect("write");
                // Thread 0 finds the disk idle and leads; the others
                // commit once its force is waiting on the write.
                while i > 0 && !cluster.debug_state(SiteId(1)).contains("waiting") {
                    std::thread::yield_now();
                }
                let started = std::time::Instant::now();
                let out = client.commit(&tid, CommitMode::TwoPhase).expect("commit");
                assert_eq!(out, Outcome::Committed);
                started.elapsed()
            })
        })
        .collect();
    let took: Vec<_> = committers
        .into_iter()
        .map(|committer| committer.join().expect("no committer panics"))
        .collect();
    assert!(
        took[0] >= platter && took[0] < 2 * platter,
        "the leader's commit took {:?}: not one {platter:?} write",
        took[0]
    );
    for follower in &took[1..] {
        assert!(
            *follower > platter && *follower < 3 * platter,
            "a follower's commit took {follower:?}: the rest of the \
             leader's {platter:?} write and then its own"
        );
    }
    let s = cluster.stats().sites[0].clone();
    assert_eq!(
        (s.platter_writes, s.forces_satisfied, s.max_batch),
        (2, 4, 3),
        "the leader's write, then one for the three followers"
    );
    let cluster = Arc::try_unwrap(cluster).ok().expect("sole owner");
    cluster.shutdown();
}

/// A blocked operation that outlives the call timeout surfaces as the
/// typed `Timeout` error *naming the blocked transaction* — not a
/// stringly error, and not `SiteDown` (the site is fine; the outcome
/// is merely unknown). The application can then abort precisely the
/// transaction the error names.
#[test]
fn blocked_operation_times_out_with_typed_error() {
    let cfg = RtConfig {
        call_timeout: StdDuration::from_millis(200),
        ..quick_cfg()
    };
    let cluster = Cluster::new(1, cfg);
    let holder = cluster.client(SiteId(1));
    let waiter = cluster.client(SiteId(1));
    let th = holder.begin().unwrap();
    holder
        .write(&th, SiteId(1), SRV, ObjectId(1), b"held".to_vec())
        .unwrap();
    // One-way block, no cycle: deadlock avoidance stays out of it and
    // the waiter rides the lock queue into the call timeout.
    let tw = waiter.begin().unwrap();
    let err = waiter
        .write(&tw, SiteId(1), SRV, ObjectId(1), b"blocked".to_vec())
        .unwrap_err();
    match err {
        CamelotError::Timeout { tid: Some(t) } => assert_eq!(t, tw),
        other => panic!("want Timeout naming {tw}, got {other}"),
    }
    // Recovery guidance encoded in the type: abort the named txn.
    waiter.abort(&tw).unwrap();
    holder.commit(&th, CommitMode::TwoPhase).unwrap();
    std::thread::sleep(StdDuration::from_millis(50));
    assert_eq!(
        cluster.committed_value(SiteId(1), SRV, ObjectId(1)),
        b"held"
    );
    cluster.shutdown();
}

/// Group commit off (`Immediate`): every force takes its own platter
/// write, so the write count must at least match the force count —
/// and everything still commits correctly, just slower.
#[test]
fn immediate_policy_correctness_and_write_accounting() {
    let cfg = RtConfig {
        batch: BatchPolicy::Immediate,
        ..quick_cfg()
    };
    let cluster = Cluster::new(2, cfg);
    let client = cluster.client(SiteId(1));
    for i in 0..8u64 {
        let tid = client.begin().expect("begin");
        client
            .write(&tid, SiteId(1), SRV, ObjectId(1), vec![i as u8])
            .expect("write home");
        client
            .write(&tid, SiteId(2), SRV, ObjectId(1), vec![i as u8])
            .expect("write remote");
        assert_eq!(
            client.commit(&tid, CommitMode::TwoPhase).expect("commit"),
            Outcome::Committed
        );
    }
    std::thread::sleep(StdDuration::from_millis(100));
    assert_eq!(cluster.committed_value(SiteId(1), SRV, ObjectId(1)), [7]);
    assert_eq!(cluster.committed_value(SiteId(2), SRV, ObjectId(1)), [7]);
    let stats = cluster.stats();
    for s in &stats.sites {
        assert!(
            s.platter_writes >= s.forces_satisfied,
            "site {}: Immediate may not batch ({} writes < {} forces)",
            s.site,
            s.platter_writes,
            s.forces_satisfied
        );
    }
    cluster.shutdown();
}
