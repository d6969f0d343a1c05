//! One round of one workload: fresh cluster, set-up, warm-up,
//! fixed-rate phase, crash and recovery, saturation phase, with the
//! counter oracle read after recovery and again at the end.
//!
//! Load comes from exactly [`DRIVERS`] threads of this process. In the
//! open-loop phases each thread owns every second arrival slot and is
//! its own pacer: it sleeps to the slot's due time, runs the
//! transaction, and times it from the *due* time, so a stall is
//! charged to every arrival it delays. In the saturation phase the
//! same threads run back to back.

use std::path::Path;
use std::time::{Duration, Instant};

use camelot_core::CommitMode;
use camelot_rt::PhaseSnapshot;
use camelot_scope::ScopeEvent;
use camelot_types::FamilyId;

use crate::cpu;
use crate::oracle::{self, Ledger, Verdict};
use crate::pace;
use crate::stats;
use crate::target::{Conn, Connector, Counters, NetCounts, Target};
use crate::workload::{Generator, Host, Op, Txn, Workload};
use camelot_bench::SplitMix64;

/// Driver threads (and ctrl connections per site): the box has two
/// cores, and the contract allows no more load generators than cores.
pub const DRIVERS: usize = 2;
/// A transaction the program aborted (deadlock victim, vote No) is run
/// again, as an application would; after this many tries it has
/// failed.
const MAX_TRIES: u32 = 10;
const PRELOAD_BATCH: u64 = 64;

#[derive(Debug, Clone, Copy)]
pub struct PhaseLens {
    pub warm: Duration,
    pub fixed: Duration,
    pub sat: Duration,
}

impl PhaseLens {
    /// Splits one round's measuring time 15 % warm-up, 50 % fixed
    /// rate, 35 % saturation.
    pub fn of_round(round: Duration) -> PhaseLens {
        PhaseLens {
            warm: round.mul_f64(0.15),
            fixed: round.mul_f64(0.50),
            sat: round.mul_f64(0.35),
        }
    }
}

/// One driver-side span: a call into `rt` (or `node::ctrl`), or the
/// whole transaction around them. Times are nanoseconds since the
/// round's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The enclosing `txn` span; `None` for a `txn` span itself.
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Transaction family, once `begin` has returned one.
    pub family: Option<FamilyId>,
}

/// In-memory span recorder of one driver thread; off outside the
/// traced round.
pub struct SpanLog {
    epoch: Instant,
    spans: Option<Vec<Span>>,
    next_id: u64,
}

impl SpanLog {
    pub fn new(epoch: Instant, on: bool, thread: usize) -> SpanLog {
        SpanLog {
            epoch,
            spans: on.then(Vec::new),
            // Ids are unique across threads: thread in the top bits.
            next_id: (thread as u64) << 48,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when recording is off.
    pub fn open(&mut self, name: &'static str, parent: Option<u64>) -> Option<usize> {
        let start_ns = self.now_ns();
        let spans = self.spans.as_mut()?;
        self.next_id += 1;
        spans.push(Span {
            id: self.next_id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            family: None,
        });
        Some(spans.len() - 1)
    }

    pub fn close(&mut self, handle: Option<usize>, family: Option<FamilyId>) {
        if let (Some(i), Some(spans)) = (handle, self.spans.as_mut()) {
            spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
            spans[i].family = family;
        }
    }

    fn id_of(&self, handle: Option<usize>) -> Option<u64> {
        Some(self.spans.as_ref()?[handle?].id)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

enum Attempt {
    Committed,
    Aborted,
    Unknown,
}

/// What became of one transaction, after retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    Committed,
    /// Aborted on every try.
    GaveUp,
    /// A commit call failed: the outcome is not known.
    Unknown,
}

fn participants(txn: &Txn) -> Vec<u32> {
    let mut p: Vec<u32> = txn.ops.iter().map(|o| o.site).collect();
    p.push(txn.home);
    p.sort_unstable();
    p.dedup();
    p
}

fn run_ops(
    conn: &mut Conn,
    tid: &camelot_types::Tid,
    txn: &Txn,
    log: &mut SpanLog,
    parent: Option<u64>,
) -> camelot_types::Result<()> {
    for &Op { site, key, rmw } in &txn.ops {
        let s = log.open("rt.read", parent);
        let value = conn.read(tid, txn.home, site, key);
        log.close(s, Some(tid.family));
        if rmw {
            let next = oracle::encode(oracle::decode(&value?) + 1);
            let s = log.open("rt.write", parent);
            let wrote = conn.write(tid, txn.home, site, key, next);
            log.close(s, Some(tid.family));
            wrote?;
        } else {
            value?;
        }
    }
    Ok(())
}

fn attempt(conn: &mut Conn, txn: &Txn, log: &mut SpanLog) -> Attempt {
    let span = log.open("txn", None);
    let parent = log.id_of(span);
    let s = log.open("rt.begin", parent);
    let tid = conn.begin(txn.home);
    log.close(s, tid.as_ref().ok().map(|t| t.family));
    let Ok(tid) = tid else {
        log.close(span, None);
        return Attempt::Aborted;
    };
    let parts = participants(txn);
    let result = match run_ops(conn, &tid, txn, log, parent) {
        Err(_) => match conn.abort(&tid, txn.home, &parts) {
            Ok(()) => Attempt::Aborted,
            Err(_) => Attempt::Unknown,
        },
        Ok(()) => {
            let s = log.open("rt.commit", parent);
            let outcome = conn.commit(&tid, txn.home, txn.mode, &parts);
            log.close(s, Some(tid.family));
            match outcome {
                Ok(true) => Attempt::Committed,
                Ok(false) => Attempt::Aborted,
                Err(_) => {
                    let _ = conn.abort(&tid, txn.home, &parts);
                    Attempt::Unknown
                }
            }
        }
    };
    log.close(span, Some(tid.family));
    result
}

/// Per-thread tallies of one phase.
pub struct Tally {
    pub ledger: Ledger,
    pub attempted: u64,
    pub committed: u64,
    pub gave_up: u64,
    pub unknown: u64,
    /// Aborted tries that were run again.
    pub retries: u64,
    /// Latency from due time of committed transactions, µs.
    pub lat_us: Vec<f64>,
    /// How late each arrival was released, µs.
    pub late_us: Vec<f64>,
    pub spans: Vec<Span>,
    /// CPU this driver thread used (it exits before the process-wide
    /// reading is taken, which therefore misses it).
    pub cpu_ns: u64,
    pub finished: Instant,
}

struct Driver {
    conn: Conn,
    log: SpanLog,
    tally: Tally,
    /// Jitter for the pause before a retry.
    backoff: SplitMix64,
    cpu_at_start: u64,
}

impl Driver {
    fn new(
        connector: &Connector<'_>,
        w: &Workload,
        epoch: Instant,
        traced: bool,
        thread: usize,
    ) -> Result<Driver, String> {
        Ok(Driver {
            conn: connector.connect()?,
            log: SpanLog::new(epoch, traced, thread),
            tally: Tally {
                ledger: Ledger::new(w.sites, w.keys_per_site),
                attempted: 0,
                committed: 0,
                gave_up: 0,
                unknown: 0,
                retries: 0,
                lat_us: Vec::new(),
                late_us: Vec::new(),
                spans: Vec::new(),
                cpu_ns: 0,
                finished: epoch,
            },
            backoff: SplitMix64::new(thread as u64),
            cpu_at_start: cpu::thread_cpu_ns(),
        })
    }

    fn run(&mut self, txn: &Txn) -> Fate {
        self.tally.attempted += 1;
        for tries in 0..MAX_TRIES {
            if tries > 0 {
                // Two transactions that aborted each other (a deadlock
                // victim and its peer, or a queued-mode dependency
                // cycle) must not collide again in lock-step.
                let us = self.backoff.next_below(500 * tries as u64);
                std::thread::sleep(Duration::from_micros(us));
            }
            match attempt(&mut self.conn, txn, &mut self.log) {
                Attempt::Committed => {
                    self.tally.committed += 1;
                    self.tally.ledger.committed(txn);
                    return Fate::Committed;
                }
                Attempt::Unknown => {
                    self.tally.unknown += 1;
                    self.tally.ledger.unknown_outcome(txn);
                    return Fate::Unknown;
                }
                Attempt::Aborted => self.tally.retries += 1,
            }
        }
        self.tally.retries -= 1;
        self.tally.gave_up += 1;
        Fate::GaveUp
    }

    fn finish(mut self) -> Tally {
        self.tally.cpu_ns = cpu::thread_cpu_ns() - self.cpu_at_start;
        self.tally.finished = Instant::now();
        self.tally.spans = self.log.into_spans();
        self.tally
    }
}

/// Runs `drive(t)` on [`DRIVERS`] threads, `t` the thread's number,
/// and collects their tallies.
fn on_drivers(drive: impl Fn(usize) -> Result<Tally, String> + Sync) -> Result<Vec<Tally>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..DRIVERS)
            .map(|t| {
                let drive = &drive;
                s.spawn(move || drive(t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "driver thread panicked".to_string())?)
            .collect()
    })
}

/// Open loop: slot `i` of `txns` is due at `start + i / rate`; thread
/// `t` runs slots `t, t + DRIVERS, …`.
fn open_loop(
    target: &Target,
    w: &Workload,
    txns: &[Txn],
    epoch: Instant,
    traced: bool,
) -> Result<Vec<Tally>, String> {
    let connector = target.connector();
    // Far enough ahead that both drivers have connected (three TCP
    // connects each for `socket_2pc`) before the first slot is due.
    let start = Instant::now() + Duration::from_millis(10);
    let gap = Duration::from_secs_f64(1.0 / w.rate);
    on_drivers(|t| {
        pace::precise_sleeps();
        let mut d = Driver::new(&connector, w, epoch, traced, t)?;
        for (i, txn) in txns.iter().enumerate().skip(t).step_by(DRIVERS) {
            let due = start + gap.mul_f64(i as f64);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let late = Instant::now().saturating_duration_since(due);
            d.tally.late_us.push(late.as_secs_f64() * 1e6);
            if d.run(txn) == Fate::Committed {
                d.tally.lat_us.push(due.elapsed().as_secs_f64() * 1e6);
            }
        }
        Ok(d.finish())
    })
}

/// Closed loop: every driver thread runs its own seeded stream back to
/// back until `len` has passed.
fn closed_loop(
    target: &Target,
    w: &Workload,
    seed: u64,
    stream: u64,
    len: Duration,
    epoch: Instant,
) -> Result<(Vec<Tally>, Duration), String> {
    let connector = target.connector();
    let start = Instant::now();
    let tallies = on_drivers(|t| {
        let mut d = Driver::new(&connector, w, epoch, false, t)?;
        let mut gen = Generator::new(w, seed, stream + t as u64);
        while start.elapsed() < len {
            let txn = gen.next_txn();
            d.run(&txn);
        }
        Ok(d.finish())
    })?;
    let end = tallies.iter().map(|t| t.finished).max().unwrap_or(start);
    Ok((tallies, end - start))
}

/// Everything one round measured.
pub struct RoundResult {
    pub setup_s: f64,
    /// How slow the box was during this round for code that runs back
    /// to back: the reference round trip (before and after the
    /// fixed-rate phase and after the saturation phase, averaged) over
    /// its nominal value.
    pub slowdown: f64,
    /// The same for code that starts after an idle gap: the paced
    /// reference beside the fixed-rate phase over its nominal value.
    pub paced_slowdown: f64,
    /// Fixed-rate phase: sorted latencies of committed transactions.
    pub lat_us: Vec<f64>,
    pub late_us: Vec<f64>,
    pub fixed_commits: u64,
    pub fixed_cpu_ns: u64,
    pub sat_commits: u64,
    pub sat_elapsed: Duration,
    pub recovery_ms: f64,
    pub restart_ms: f64,
    pub attempted: u64,
    pub gave_up: u64,
    pub unknown: u64,
    pub retries: u64,
    /// Oracle after recovery and at the end of the round.
    pub after_recovery: Verdict,
    pub at_end: Verdict,
    /// Program counters over the fixed-rate phase.
    pub fixed: Counters,
    /// Whole-round counters (trace drops, vote time-outs).
    pub total: Counters,
    pub phases: PhaseSnapshot,
    /// Socket transport counters over the fixed-rate phase (zero
    /// in-process, where sites pass messages by value).
    pub net: NetCounts,
    pub spans: Vec<Span>,
    pub trace: Vec<ScopeEvent>,
}

impl RoundResult {
    /// Operations that went wrong: transactions that never committed,
    /// plus updates the oracle found lost or invented.
    pub fn failed(&self) -> u64 {
        self.gave_up
            + self.unknown
            + self
                .after_recovery
                .violations()
                .max(self.at_end.violations())
    }

    pub fn p(&self, pct: f64) -> f64 {
        stats::percentile(&self.lat_us, pct)
    }

    /// Slowdown of the fixed-rate phase: a paced transaction is a cold
    /// start followed by a warm run, so the geometric mean of the two
    /// references. Over twelve runs per workload that spanned a busy
    /// and a quiet half hour, the adjusted `txn_p50_us` of the six
    /// in-process workloads ranged over 1.10-1.22 with this mean,
    /// 1.09-1.25 with the paced reference alone and 1.11-1.36 with the
    /// back-to-back one alone (1.35-2.41 unadjusted).
    pub fn fixed_slowdown(&self) -> f64 {
        (self.slowdown * self.paced_slowdown).sqrt()
    }
}

struct Totals {
    ledger: Ledger,
    attempted: u64,
    gave_up: u64,
    unknown: u64,
    retries: u64,
}

impl Totals {
    fn absorb(&mut self, tallies: &[Tally]) {
        for t in tallies {
            self.ledger.merge(&t.ledger);
            self.attempted += t.attempted;
            self.gave_up += t.gave_up;
            self.unknown += t.unknown;
            self.retries += t.retries;
        }
    }
}

/// Reads every key back and holds the ledger against the values. A
/// committed value can trail the commit's reply — by the hand-off from
/// the transaction manager to the data server, and at a subordinate by
/// the commit notice's trip — so only a violation that is still there
/// after a pause counts. (Waiting for the cluster to go quiet instead
/// does not work after the crash phase: in the seed, coordinators then
/// wait out their 5 s resend interval for the restarted site's last
/// delayed commit-acks.)
fn settled_verdict(target: &mut Target, ledger: &Ledger, keys: u64) -> Result<Verdict, String> {
    let mut verdict = ledger.check(&target.values(keys)?);
    for _ in 0..3 {
        if verdict.violations() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
        verdict = ledger.check(&target.values(keys)?);
    }
    Ok(verdict)
}

fn single(site: u32, key: u64) -> Txn {
    Txn {
        home: site,
        ops: vec![Op {
            site,
            key,
            rmw: true,
        }],
        mode: CommitMode::TwoPhase,
    }
}

/// Writes 0 into every key, [`PRELOAD_BATCH`] keys per transaction.
fn preload(conn: &mut Conn, w: &Workload) -> Result<(), String> {
    for site in 1..=w.sites {
        for base in (0..w.keys_per_site).step_by(PRELOAD_BATCH as usize) {
            let mut run = || -> camelot_types::Result<bool> {
                let tid = conn.begin(site)?;
                for key in base..(base + PRELOAD_BATCH).min(w.keys_per_site) {
                    conn.write(&tid, site, site, key, oracle::encode(0))?;
                }
                conn.commit(&tid, site, CommitMode::TwoPhase, &[site])
            };
            match run() {
                Ok(true) => {}
                Ok(false) => return Err(format!("preload of site {site} aborted")),
                Err(e) => return Err(format!("preload of site {site}: {e}")),
            }
        }
    }
    Ok(())
}

/// Runs one round. `stream` separates this round's random streams
/// from other rounds of the same seed. An `Err` is an instrument
/// failure (the cluster would not start, the oracle could not be
/// read), not a property of the program.
pub fn run_round(
    w: &Workload,
    seed: u64,
    stream: u64,
    lens: PhaseLens,
    work: &Path,
    traced: bool,
) -> Result<RoundResult, String> {
    let epoch = Instant::now();
    let mut target = Target::start(w, work, traced)?;
    let result = drive(&mut target, w, seed, stream, lens, traced, epoch);
    target.shutdown();
    result
}

fn drive(
    target: &mut Target,
    w: &Workload,
    seed: u64,
    stream: u64,
    lens: PhaseLens,
    traced: bool,
    epoch: Instant,
) -> Result<RoundResult, String> {
    let mut totals = Totals {
        ledger: Ledger::new(w.sites, w.keys_per_site),
        attempted: 0,
        gave_up: 0,
        unknown: 0,
        retries: 0,
    };

    // Set-up: construct (done by the caller, on `epoch`), preload, and
    // the first commit after the preload.
    {
        let connector = target.connector();
        let mut d = Driver::new(&connector, w, epoch, false, 0)?;
        preload(&mut d.conn, w)?;
        if d.run(&single(1, 0)) != Fate::Committed {
            return Err("first commit after preload failed".into());
        }
        totals.absorb(&[d.finish()]);
    }
    let setup_s = epoch.elapsed().as_secs_f64();

    // Warm-up and fixed-rate phase share one generated sequence; only
    // the second part is measured.
    let slots = |d: Duration| (d.as_secs_f64() * w.rate).round().max(DRIVERS as f64) as usize;
    let mut gen = Generator::new(w, seed, stream);
    let warm_txns = gen.take(slots(lens.warm));
    let fixed_txns = gen.take(slots(lens.fixed));
    let warm = open_loop(target, w, &warm_txns, epoch, false)?;
    totals.absorb(&warm);
    if traced {
        // Keep only the measured phase in the program's trace.
        drop(target.drain_trace());
    }

    let mut speed = vec![pace::reference_roundtrip_us()];
    let pids = target.pids();
    let net_before = target.transport();
    let before = target.counters();
    let cpu_before = cpu::cpu_ns(&pids);
    let paced = pace::PacedReference::start();
    let fixed = open_loop(target, w, &fixed_txns, epoch, traced);
    let paced_us = paced.finish();
    let fixed = fixed?;
    let fixed_cpu_ns =
        cpu::cpu_ns(&pids) - cpu_before + fixed.iter().map(|t| t.cpu_ns).sum::<u64>();

    let after = target.counters();
    speed.push(pace::reference_roundtrip_us());
    totals.absorb(&fixed);
    let phases = target.phases();
    let net = target.transport().since(&net_before);
    let trace = if traced {
        target.drain_trace()
    } else {
        Vec::new()
    };
    let fixed_commits: u64 = fixed.iter().map(|t| t.committed).sum();
    let mut lat_us = Vec::new();
    let mut late_us = Vec::new();
    let mut spans = Vec::new();
    for t in fixed {
        lat_us.extend(t.lat_us);
        late_us.extend(t.late_us);
        spans.extend(t.spans);
    }
    if fixed_commits == 0 {
        return Err("no transaction committed in the fixed-rate phase".into());
    }

    // Crash site 1 while the cluster is quiet (so nothing is left in
    // doubt and the log to replay is the same size every round), and
    // time the way back to its first commit. In-process the cycle is
    // milliseconds, so it is run five times and the median kept; the
    // supervisor doubles its respawn delay with every death, so site
    // processes are killed once.
    let cycles = if w.host == Host::Sockets { 1 } else { 5 };
    let (mut recoveries, mut restarts) = (Vec::new(), Vec::new());
    for _ in 0..cycles {
        if !target.quiesce() {
            return Err("cluster did not go quiet before a crash".into());
        }
        let crash_at = Instant::now();
        let restart = target.crash_restart()?;
        let connector = target.connector();
        let mut d = Driver::new(&connector, w, epoch, false, 0)?;
        if d.run(&single(1, 0)) != Fate::Committed {
            return Err("first commit after recovery failed".into());
        }
        recoveries.push(crash_at.elapsed().as_secs_f64() * 1e3);
        restarts.push(restart.as_secs_f64() * 1e3);
        totals.absorb(&[d.finish()]);
    }
    let after_recovery = settled_verdict(target, &totals.ledger, w.keys_per_site)?;

    let (sat, sat_elapsed) = closed_loop(target, w, seed, stream + 8, lens.sat, epoch)?;

    totals.absorb(&sat);
    let sat_commits: u64 = sat.iter().map(|t| t.committed).sum();
    if sat_commits == 0 {
        return Err("no transaction committed in the saturation phase".into());
    }
    speed.push(pace::reference_roundtrip_us());
    let at_end = settled_verdict(target, &totals.ledger, w.keys_per_site)?;
    let total = target.counters();

    let slowdown = speed.iter().sum::<f64>() / speed.len() as f64 / pace::REFERENCE_NOMINAL_US;
    Ok(RoundResult {
        setup_s,
        slowdown,
        // A phase too short for one paced trip (`--seconds` of a few
        // milliseconds) falls back on the other reference.
        paced_slowdown: paced_us.map_or(slowdown, |us| us / pace::PACED_NOMINAL_US),
        lat_us: stats::sorted(lat_us),
        late_us: stats::sorted(late_us),
        fixed_commits,
        fixed_cpu_ns,
        sat_commits,
        sat_elapsed,
        recovery_ms: stats::median(&recoveries),
        restart_ms: stats::median(&restarts),
        attempted: totals.attempted,
        gave_up: totals.gave_up,
        unknown: totals.unknown,
        retries: totals.retries,
        after_recovery,
        at_end,
        fixed: after.since(&before),
        total,
        phases,
        net,
        spans,
        trace,
    })
}
