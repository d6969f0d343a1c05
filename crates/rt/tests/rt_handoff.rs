//! The hand-off budget: how many inputs one transaction sends across
//! `tm_tx` to the worker pool, and how many of those the router thread
//! had to carry there, pinned per transaction shape.
//!
//! Application calls, local server votes, the `LogForced` of a force
//! its requester led and a datagram due now for a site of the same
//! process run on the thread that produced them; only what is
//! genuinely asynchronous — a timer firing, a log completion somebody
//! else produced, a datagram a leader handed over before its platter
//! write — crosses to a worker, and each crossing is one thread
//! hand-off. The router thread is a second hand-off in front of that
//! one, paid only by what has to wait: a timer that fires, a datagram
//! with a delay. Like the paper's force and datagram budgets these are
//! exact counts, so a change that puts a hand-off back on the path
//! fails here as a number, not as noise in a latency figure.

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

/// Three-site delayed-commit 2PC (the default variant). The
/// committing thread posts both prepares into its inbox and runs the
/// first, site 2's, whose prepare record it leads: before the write it
/// hands site 3's prepare to site 3's workers (site 3: 1), so the two
/// subordinates write in parallel. Site 2's vote then runs on the
/// committing thread too. Site 3's worker leads its own prepare record
/// — the site's other workers sit idle — and runs its vote at the
/// coordinator, whose commit record it leads as well: the commit
/// notices to both subordinates and their acks all run on that one
/// thread. What is left crosses at each subordinate: the lazy commit
/// record's `LogDurable`, from the disk thread, and the ack-flush timer
/// (an isolated transaction has no later datagram to piggyback its ack
/// on). Site 2: 2, site 3: 3, the coordinator: 0.
///
/// The router thread carries exactly the timers that fire — the two
/// subordinates' ack-flush timers — and no datagram: with no delay
/// every datagram is due when posted. (The coordinator's vote timeout
/// and notify-resend timer and the subordinates' orphan and inquiry
/// watchdogs are armed and cancelled in place, without the router
/// thread hearing of them.)
#[test]
fn three_site_delayed_commit_costs_five_worker_inputs() {
    let budget = budget_of(cfg(), 3, 3, true, CommitMode::TwoPhase);
    assert_eq!(budget, (vec![0, 2, 3], 2));
}

/// The other side of the rule: with one TranMan worker per site there
/// is never a second, idle worker to serve the site's traffic, so a
/// worker does not sleep through its own site's platter write. The
/// committing thread still leads site 2's prepare record, as above;
/// site 3's prepare record is written by the disk thread and its
/// `LogForced` crosses back to the worker (site 3: one more, 4). That
/// worker then runs site 3's vote at the coordinator, whose one worker
/// sits idle, so it leads the coordinator's commit record: the
/// coordinator still receives nothing.
#[test]
fn one_worker_per_site_leaves_its_own_sites_force_to_the_disk_thread() {
    let cfg = RtConfig {
        tm_threads: 1,
        ..cfg()
    };
    let budget = budget_of(cfg, 3, 3, true, CommitMode::TwoPhase);
    assert_eq!(budget, (vec![0, 2, 4], 2));
}

/// Three-site non-blocking commit. Coordinator: its begin record's
/// `LogForced` — that force has phase one queued behind it, so it never
/// leads and the disk thread writes it — and nothing else = 1. The
/// committing thread runs site 2's prepare and leads its prepare
/// record, handing site 3's prepare over first. Whoever completes
/// phase one at the coordinator runs the replication into site 2 and
/// leads site 2's replication record, handing site 3's replication
/// over. The first replication ack closes the 2-of-3 quorum, and its
/// thread leads the coordinator's commit record and delivers the
/// outcome. What crosses at each subordinate besides is the lazy
/// outcome record's `LogDurable`: site 2: 1, site 3: 3. The outcome
/// acks and the forget notes run where they are posted.
///
/// No timer fires, so the router thread carries nothing: a
/// subordinate acknowledges the outcome as soon as its record is
/// durable, with no ack-flush timer.
#[test]
fn three_site_nonblocking_commit_costs_five_worker_inputs() {
    let budget = budget_of(cfg(), 3, 3, true, CommitMode::NonBlocking);
    assert_eq!(budget, (vec![1, 1, 3], 0));
}
