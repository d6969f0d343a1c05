//! The hand-off budget: how many inputs one transaction sends across
//! `tm_tx` to the worker pool, and how many of those the router thread
//! had to carry there, pinned per transaction shape.
//!
//! Application calls, local server votes and the `LogForced` of a
//! force its requester led run on the thread that produced them; only
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
/// object at each of `spread` sites from a client at site 1 and
/// committing it under `mode`, and returns the worker inputs it cost at
/// each site and the deliveries it cost the router thread.
fn budget_of(
    cfg: RtConfig,
    sites: u32,
    spread: u32,
    write: bool,
    mode: CommitMode,
) -> (Vec<u64>, u64) {
    let cluster = Cluster::new(sites, cfg);
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
        let out = client.commit(&tid, mode).unwrap();
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
    let budget = budget_of(cfg(), 1, 1, false, CommitMode::TwoPhase);
    assert_eq!(budget, (vec![0], 0));
}

/// The committing thread finds the disk idle, so it leads: it performs
/// the platter write and runs its own `LogForced`. No worker, no disk
/// thread, no router.
#[test]
fn local_update_never_leaves_the_calling_thread_either() {
    let budget = budget_of(cfg(), 1, 1, true, CommitMode::TwoPhase);
    assert_eq!(budget, (vec![0], 0));
}

/// Three-site delayed-commit 2PC (the default variant). Coordinator:
/// two votes and two acks = 4. Each subordinate: the prepare, the
/// commit, the lazy commit record's LogDurable and the ack-flush timer
/// (an isolated transaction has no later datagram to piggyback its ack
/// on) = 4. All three forces — each subordinate's prepare record, the
/// coordinator's commit record after the last vote — are requested by a
/// worker while the site's other workers sit idle, so that worker leads
/// the platter write and runs the force's `LogForced` itself: none of
/// them crosses.
///
/// The router thread carries exactly the timers that fire — the two
/// subordinates' ack-flush timers — and no datagram: with no delay all
/// eight are due when posted and go straight to the destination's
/// workers. (The coordinator's vote timeout and notify-resend timer and
/// the subordinates' orphan and inquiry watchdogs are armed and
/// cancelled in place, without the router thread hearing of them.)
#[test]
fn three_site_delayed_commit_costs_twelve_worker_inputs() {
    let budget = budget_of(cfg(), 3, 3, true, CommitMode::TwoPhase);
    assert_eq!(budget, (vec![4, 4, 4], 2));
}

/// The other side of the rule: with one TranMan worker per site there
/// is never a second, idle worker to serve the site's traffic, so the
/// one worker does not sleep through a platter write. Each of the
/// three forces is written by the disk thread and its `LogForced`
/// crosses back to the worker: one more input at every site.
#[test]
fn one_worker_per_site_never_leads_its_forces() {
    let cfg = RtConfig {
        tm_threads: 1,
        ..cfg()
    };
    let budget = budget_of(cfg, 3, 3, true, CommitMode::TwoPhase);
    assert_eq!(budget, (vec![5, 5, 5], 2));
}

/// Three-site non-blocking commit. Coordinator: its begin record's
/// LogForced (that force has phase one queued behind it, so it never
/// leads), two votes, two replication acks and two outcome acks = 7;
/// its commit record, forced after the last replication ack, is led.
/// Each subordinate: the prepare, the replication, the outcome, the
/// lazy outcome record's LogDurable and the forget note = 5; its
/// prepare and replication records are led. Five of the protocol's six
/// forces are led.
///
/// No timer fires, so the router thread carries nothing: a
/// subordinate acknowledges the outcome as soon as its record is
/// durable, with no ack-flush timer.
#[test]
fn three_site_nonblocking_commit_costs_seventeen_worker_inputs() {
    let budget = budget_of(cfg(), 3, 3, true, CommitMode::NonBlocking);
    assert_eq!(budget, (vec![7, 5, 5], 0));
}
