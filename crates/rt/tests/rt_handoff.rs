//! The hand-off budget: how many inputs one transaction sends across
//! `tm_tx` to the worker pool, and how many of those the router thread
//! had to carry there, pinned per transaction shape.
//!
//! Application calls, local server votes and the `LogForced` of a
//! force its caller led run on the thread that produced them; only
//! what is genuinely asynchronous — a datagram, a timer firing, a log
//! completion somebody else produced — crosses to a worker, and each
//! crossing is one thread hand-off. The router thread is a second
//! hand-off in front of that one, paid only by what has to wait: a
//! timer that fires, a datagram with a delay. Like the paper's force
//! and datagram budgets these are exact counts, so a change that puts
//! a hand-off back on the path fails here as a number, not as noise in
//! a latency figure.

use std::time::{Duration as StdDuration, Instant};

use camelot_core::CommitMode;
use camelot_net::Outcome;
use camelot_rt::{Cluster, RtConfig};
use camelot_types::{ObjectId, ServerId, SiteId};

const SRV: ServerId = ServerId(1);

/// Zero simulated delays: nothing here waits on a disk or a wire. The
/// ack-flush timer is short so that a transaction's tail ends well
/// inside [`SETTLE`].
fn cfg() -> RtConfig {
    let mut cfg = RtConfig {
        datagram_delay: StdDuration::ZERO,
        platter_delay: StdDuration::ZERO,
        lazy_flush: StdDuration::from_millis(2),
        ..RtConfig::default()
    };
    cfg.engine.ack_flush_interval = camelot_types::Duration::from_millis(10);
    cfg
}

/// How long the counters must stand still before a transaction's tail
/// (acks, lazy commit records, the ack-flush timer) counts as over.
/// The only later input is the subordinates' orphan-check watchdog,
/// ten seconds out and a no-op by then; it is not part of the budget.
const SETTLE: StdDuration = StdDuration::from_millis(300);

/// Worker inputs per site, then the router thread's deliveries.
fn hand_offs(cluster: &Cluster) -> (Vec<u64>, u64) {
    let stats = cluster.stats();
    let workers = stats.sites.iter().map(|s| s.worker_inputs).collect();
    (workers, stats.router_delivered)
}

/// Waits until every family is forgotten and the hand-off counts have
/// not moved for [`SETTLE`]; returns them.
fn settled(cluster: &Cluster) -> (Vec<u64>, u64) {
    let deadline = Instant::now() + StdDuration::from_secs(10);
    let mut last = (hand_offs(cluster), Instant::now());
    loop {
        std::thread::sleep(StdDuration::from_millis(5));
        let live: usize = cluster.stats().sites.iter().map(|s| s.live_families).sum();
        let now = hand_offs(cluster);
        if live != 0 || now != last.0 {
            last = (now, Instant::now());
        } else if last.1.elapsed() >= SETTLE {
            return now;
        }
        assert!(
            Instant::now() < deadline,
            "never settled: {live} live families"
        );
    }
}

/// Runs one transaction writing (or, with `write` false, reading) one
/// object at each of `spread` sites from a client at site 1, and
/// returns the worker inputs it cost at each site and the deliveries
/// it cost the router thread.
fn budget_of(sites: u32, spread: u32, write: bool) -> (Vec<u64>, u64) {
    let cluster = Cluster::new(sites, cfg());
    let client = cluster.client(SiteId(1));
    let run = || {
        let tid = client.begin().unwrap();
        for s in 1..=spread {
            let (site, obj) = (SiteId(s), ObjectId(10 + s as u64));
            if write {
                client.write(&tid, site, SRV, obj, b"v".to_vec()).unwrap();
            } else {
                client.read(&tid, site, SRV, obj).unwrap();
            }
        }
        let out = client.commit(&tid, CommitMode::TwoPhase).unwrap();
        assert_eq!(out, Outcome::Committed);
        settled(&cluster)
    };
    // A first transaction of the same shape, so that nothing lazy
    // (thread start-up, first-touch allocation) sits in the measured
    // one; counts are per transaction either way.
    let (workers_before, router_before) = run();
    let (workers, router) = run();
    cluster.shutdown();
    let workers = workers.iter().zip(&workers_before).map(|(a, b)| a - b);
    (workers.collect(), router - router_before)
}

#[test]
fn read_only_local_transaction_never_leaves_the_calling_thread() {
    assert_eq!(budget_of(1, 1, false), (vec![0], 0));
}

/// The committing thread finds the disk idle, so it leads: it performs
/// the platter write and runs its own `LogForced`. No worker, no disk
/// thread, no router.
#[test]
fn local_update_never_leaves_the_calling_thread_either() {
    assert_eq!(budget_of(1, 1, true), (vec![0], 0));
}

/// Three-site delayed-commit 2PC (the default variant). Coordinator:
/// two votes, its commit record's LogForced and two acks = 5. Each
/// subordinate: the prepare, its prepare record's LogForced, the
/// commit, the lazy commit record's LogDurable and the ack-flush timer
/// (an isolated transaction has no later datagram to piggyback its ack
/// on) = 5. Every one of these forces is requested by a worker, and
/// workers do not lead, so each LogForced still crosses.
///
/// The router thread carries exactly the timers that fire — the two
/// subordinates' ack-flush timers — and no datagram: with no delay all
/// eight are due when posted and go straight to the destination's
/// workers. (The coordinator's vote timeout and notify-resend timer and
/// the subordinates' orphan and inquiry watchdogs are armed and
/// cancelled in place, without the router thread hearing of them.)
#[test]
fn three_site_delayed_commit_costs_fifteen_worker_inputs() {
    assert_eq!(budget_of(3, 3, true), (vec![5, 5, 5], 2));
}
