//! Soak campaign against a supervised socket cluster.
//!
//! `camelot-soak` stands up an N-site cluster of real `camelot-site`
//! processes under a [`Supervisor`], drives an open-loop transfer
//! workload from a pool of generator threads, and runs a *seeded,
//! scripted* fault schedule against it: process kills, symmetric
//! network partitions, per-site clock skew, and heals, in cycles, for
//! the whole soak. The point is not any single fault but the
//! *interleaving*: a site killed while partitioned, a partition cut
//! while a kill's recovery inquiries are in flight, skewed timers
//! racing real ones.
//!
//! Between fault cycles the harness pauses the generators, heals,
//! waits for the supervisor to restore full membership, and audits
//! the paper's invariants on live state:
//!
//! - **conservation** — committed balances sum to the funded total
//!   regardless of which transfers committed, aborted, or died with a
//!   site (atomicity makes every subset conserve);
//! - **durability ratchet** — a per-site counter committed once per
//!   audit never regresses: a lost update after a kill/recovery cycle
//!   is caught at the next audit, not at the end;
//! - **no wedged state** — every site's engine drains to idle within
//!   the quiesce window (leaked families/locks fail the audit);
//! - **bounded recovery** — no site's live WAL exceeds
//!   `64 KiB + 4 × snapshot bytes`, and no site's last restart spent
//!   more than 250 ms scanning its log: the checkpointer keeps
//!   truncating through kills and partitions;
//! - **membership** — every site is up (a site that burned its
//!   restart budget fails the soak with its stderr tail).
//!
//! On violation the harness dumps every site's protocol trace ring
//! and the fault script executed so far to `--trace-dir` and exits 1.
//! A clean soak exits 0. `QUICK=1` shrinks the duration for CI.
//!
//! Each worker runs the shared banking `transfer` over its own
//! [`CtrlSession`], which resolves control connections through the
//! supervisor's address board: ports are OS-assigned and change on
//! every respawn, so the session re-resolves when supervision bumps
//! the board's generation.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use camelot_bench::{quick, OpenLoop, SplitMix64};
use camelot_core::CommitMode;
use camelot_node::procs::{sibling_site_bin, AddrBoard, Supervisor, SupervisorConfig};
use camelot_node::session::{balance, fund, transfer, CtrlSession, SRV};
use camelot_obs::Phase;
use camelot_scope::{merge_skew_aware, parse_jsonl, Collector, ScopeEvent, ScrapeTarget};
use camelot_types::flags::Tool;
use camelot_types::{ObjectId, SiteId};

const INITIAL: i64 = 100;

/// Live WAL a quiet site may hold beyond four snapshots' worth.
const LIVE_WAL_BASE: u64 = 64 * 1024;

/// Longest a restart may spend reading and decoding its log. The
/// bounded log is a few hundred KiB at most; this leaves two orders
/// of magnitude for a cold file and a loaded host.
const RECOVER_SCAN_BOUND: Duration = Duration::from_millis(250);

/// Offered load in transactions per second, split evenly over
/// [`WORKERS`] open-loop threads.
const RATE: f64 = 25.0;
const WORKERS: usize = 2;

struct Opts {
    sites: u32,
    duration: Duration,
    accounts: u64,
    transport: String,
    seed: u64,
    restart_budget: u32,
    fault_every: Duration,
    audit_every: Duration,
    log_dir: Option<PathBuf>,
    trace_dir: PathBuf,
}

fn parse_opts() -> Opts {
    let (duration, audit) = if quick() { ("10", "5") } else { ("60", "12") };
    #[rustfmt::skip]
    let flags = [
        ("--sites", "N", "3", "sites in the cluster, at least 2"),
        ("--duration-secs", "SECS", duration, "length of the soak; 10 under QUICK=1"),
        ("--accounts", "N", "4", "transfer accounts per site"),
        ("--transport", "udp|tcp", "tcp", "data-plane socket kind"),
        ("--seed", "N", "1", "seed of the fault script and the workload"),
        ("--restart-budget", "N", "25", "respawns before a site is given up on"),
        ("--fault-every-ms", "MS", "1500", "time between scripted fault events"),
        ("--audit-every-secs", "SECS", audit, "time between audits; 5 under QUICK=1"),
        ("--log-dir", "DIR", "", "WAL root (else a fresh temp directory)"),
        ("--trace-dir", "DIR", "target/tmp/soak", "scrape series and violation dumps"),
    ];
    Tool::new("camelot-soak", &flags).from_env(|p| {
        let opts = Opts {
            sites: p.int("--sites")?,
            duration: Duration::from_secs(p.int("--duration-secs")?),
            accounts: p.int("--accounts")?,
            transport: p.val("--transport")?,
            seed: p.int("--seed")?,
            restart_budget: p.int("--restart-budget")?,
            fault_every: Duration::from_millis(p.int("--fault-every-ms")?),
            audit_every: Duration::from_secs(p.int("--audit-every-secs")?),
            log_dir: p.get("--log-dir").map(PathBuf::from),
            trace_dir: p.val("--trace-dir")?,
        };
        if opts.sites < 2 || opts.accounts == 0 {
            return Err("--sites must be at least 2 and --accounts at least 1".into());
        }
        Ok(opts)
    })
}

// ---------------------------------------------------------------- faults

/// One scripted fault event; the whole schedule derives from the seed
/// up front, so a soak replays the same script for the same flags.
#[derive(Debug, Clone)]
enum FaultEvent {
    Kill(SiteId),
    /// Symmetric cut `{1..=m} | {m+1..=sites}`.
    Partition(u32),
    /// `per_mille` of nominal timer speed: 1500 late, 500 fast.
    Skew(SiteId, u32),
    Heal,
}

fn draw_script(opts: &Opts) -> Vec<(Duration, FaultEvent)> {
    let mut rng = SplitMix64::new(opts.seed ^ 0x50AC_50AC);
    let mut script = Vec::new();
    let mut at = opts.fault_every;
    while at < opts.duration {
        let site = SiteId(1 + rng.next_below(opts.sites as u64) as u32);
        let ev = match rng.next_below(10) {
            0..=2 => FaultEvent::Kill(site),
            3..=5 => FaultEvent::Partition(1 + rng.next_below(opts.sites as u64 - 1) as u32),
            6..=7 => FaultEvent::Skew(site, if rng.next_below(2) == 0 { 1500 } else { 500 }),
            _ => FaultEvent::Heal,
        };
        script.push((at, ev));
        at += opts.fault_every;
    }
    script
}

/// Applies one scripted event through the supervisor's control plane.
/// Partition/skew installs broadcast to every *up* site — each site
/// only rolls its own outbound faults, so both partition groups need
/// the cut installed; a site that is down simply misses it (its links
/// run clean until the next install, which the cyclic script provides).
fn apply_event(sup: &mut Supervisor, sites: u32, ev: &FaultEvent, log: &mut Vec<String>) {
    let entry = match ev {
        FaultEvent::Kill(site) => {
            let hit = sup.kill_site(*site);
            format!(
                "kill site {} ({})",
                site.0,
                if hit { "hit" } else { "already down" }
            )
        }
        FaultEvent::Partition(m) => {
            let a: Vec<SiteId> = (1..=*m).map(SiteId).collect();
            let b: Vec<SiteId> = (*m + 1..=sites).map(SiteId).collect();
            for id in 1..=sites {
                if let Some(ctrl) = sup.ctrl(SiteId(id)) {
                    let _ = ctrl.partition(&a, &b);
                }
            }
            format!("partition {{1..={m}}}|{{{}..={sites}}}", m + 1)
        }
        FaultEvent::Skew(site, pm) => {
            for id in 1..=sites {
                if let Some(ctrl) = sup.ctrl(SiteId(id)) {
                    let _ = ctrl.set_skew(*site, *pm);
                }
            }
            format!("skew site {} to {pm}\u{2030}", site.0)
        }
        FaultEvent::Heal => {
            // A site that died since the last poll respawns healed.
            let _ = sup.heal_all();
            "heal".to_string()
        }
    };
    println!("camelot-soak: fault: {entry}");
    log.push(entry);
}

// ---------------------------------------------------------------- workers

#[derive(Default)]
struct Counters {
    committed: AtomicU64,
    aborted: AtomicU64,
    failed: AtomicU64,
    in_flight: AtomicU64,
}

struct WorkerShared {
    board: Arc<AddrBoard>,
    run: AtomicBool,
    paused: AtomicBool,
    counters: Counters,
}

fn worker_loop(shared: Arc<WorkerShared>, sites: u32, accounts: u64, rate: f64, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut session = CtrlSession::new(shared.board.clone());
    let mut pacer = OpenLoop::new(Instant::now(), rate, u64::MAX);
    while shared.run.load(Ordering::Acquire) {
        if shared.paused.load(Ordering::Acquire) {
            // Drain to idle; re-pace on resume so the pause does not
            // release a burst of "overdue" transfers.
            std::thread::sleep(Duration::from_millis(5));
            pacer = OpenLoop::new(Instant::now(), rate, u64::MAX);
            continue;
        }
        let due = pacer.due_now(Instant::now()).min(4);
        if due == 0 {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        }
        for _ in 0..due {
            if shared.paused.load(Ordering::Acquire) || !shared.run.load(Ordering::Acquire) {
                break;
            }
            let coord = SiteId(1 + rng.next_below(sites as u64) as u32);
            let src = SiteId(1 + rng.next_below(sites as u64) as u32);
            let mut dst = SiteId(1 + rng.next_below(sites as u64) as u32);
            if dst == src {
                dst = SiteId(dst.0 % sites + 1);
            }
            let src_acct = ObjectId(rng.next_below(accounts));
            let dst_acct = ObjectId(rng.next_below(accounts));
            let amount = rng.next_below(20) as i64 + 1;
            shared.counters.in_flight.fetch_add(1, Ordering::AcqRel);
            let res = transfer(
                &mut session,
                coord,
                (src, src_acct),
                (dst, dst_acct),
                amount,
                CommitMode::TwoPhase,
            );
            shared.counters.in_flight.fetch_sub(1, Ordering::AcqRel);
            match res {
                Ok(true) => shared.counters.committed.fetch_add(1, Ordering::Relaxed),
                Ok(false) => shared.counters.aborted.fetch_add(1, Ordering::Relaxed),
                Err(_) => {
                    // Dead site or timed-out call: back off a little
                    // instead of hammering a site mid-restart.
                    std::thread::sleep(Duration::from_millis(20));
                    shared.counters.failed.fetch_add(1, Ordering::Relaxed)
                }
            };
        }
    }
}

// ---------------------------------------------------------------- audits

struct AuditCtx<'a> {
    opts: &'a Opts,
    /// Expected durability-ratchet value per site (index `site-1`).
    ratchet: Vec<i64>,
    fault_log: Vec<String>,
    /// Scrapes every audit cycle; rates derive from counter deltas.
    collector: Collector,
    /// Accumulated scrape snapshots (JSONL, header first).
    scrape_series: String,
    /// Trace events drained each audit cycle, so rings never fill and
    /// a violation can dump one merged cluster timeline.
    drained: Vec<ScopeEvent>,
}

/// The ratchet object lives past the transfer accounts so the two
/// invariants never collide on a lock.
fn ratchet_obj(accounts: u64) -> ObjectId {
    ObjectId(accounts)
}

/// Pauses the world and audits invariants; returns violations.
fn audit(sup: &mut Supervisor, ctx: &mut AuditCtx<'_>) -> Vec<String> {
    let opts = ctx.opts;
    let mut violations = Vec::new();

    // Heal every fault so recovery machinery can actually run, then
    // give supervision a window to restore membership.
    let _ = sup.heal_all();
    if !sup.wait_all_up(Duration::from_secs(30)) {
        violations.push("membership: not every site came back up within 30s".into());
        return violations;
    }
    // Heal again now that every site is up: a site that respawned
    // mid-heal may have missed a partition lift (it boots clean, but
    // its peers' installs may target it again later in the script).
    let _ = sup.heal_all();

    // Quiesce: every engine drains to idle.
    if let Err(busy) = sup.quiesce(Duration::from_secs(20)) {
        violations.push(format!(
            "wedged: cluster did not quiesce within 20s [{busy}]"
        ));
    }

    // Observability sweep: scrape every site (trace-ring drops are a
    // violation in their own right — dropped events mean unauditable
    // transactions), then drain the rings in bounded chunks so they
    // never fill between audits and a later violation can dump one
    // merged cluster timeline.
    let targets = ScrapeTarget::from_board(&sup.board(), opts.sites);
    let mut snap = ctx.collector.scrape(&targets);
    let restarts = sup.restart_counts().into_iter();
    snap.restarts = Some(restarts.map(|(site, n)| (site.0, n)).collect());
    let dropped = snap.total_trace_dropped();
    ctx.scrape_series.push_str(&snap.to_json());
    ctx.scrape_series.push('\n');
    if dropped > 0 {
        violations.push(format!(
            "trace: {dropped} events dropped from trace rings (capacity too small for the audit cadence)"
        ));
    }
    // Bounded recovery: what a restart would have to scan stays
    // within what the checkpointer's trigger rule allows a quiet site
    // (a tail of at most max(64 KiB, 2 × snapshot) on top of the last
    // checkpoint, whose own snapshot the next one rewrites), and the
    // scan of every site's last restart was short. Both grew with the
    // site's lifetime before the log had a beginning.
    for s in &snap.sites {
        if let Some(st) = &s.stats {
            let bound = LIVE_WAL_BASE + 4 * st.snapshot_bytes;
            if st.wal_live_bytes > bound {
                violations.push(format!(
                    "recovery: site {} holds {} B of live WAL, bound {bound} B \
                     (snapshot {} B, {} checkpoints)",
                    s.site, st.wal_live_bytes, st.snapshot_bytes, st.checkpoints
                ));
            }
        }
        let scan_us = s
            .phases
            .as_ref()
            .map_or(0, |p| p.get(Phase::RecoverScan).max_us());
        if scan_us > RECOVER_SCAN_BOUND.as_micros() as u64 {
            violations.push(format!(
                "recovery: site {} scanned its log for {scan_us} us at restart, bound {:?}",
                s.site, RECOVER_SCAN_BOUND
            ));
        }
    }
    ctx.drained.extend(drained_events(sup));

    // Conservation over the transfer accounts.
    let expected = opts.sites as i64 * opts.accounts as i64 * INITIAL;
    let ledger = CtrlSession::new(sup.board()).ledger(opts.sites, opts.accounts);
    match ledger.map(|l| l.iter().sum::<i64>()) {
        Ok(total) if total != expected => violations.push(format!(
            "conservation: committed balances sum to {total}, funded {expected}"
        )),
        Ok(_) => {}
        Err(e) => violations.push(format!("audit read: {e}")),
    }

    // Durability ratchet: the previous audit's committed counter must
    // still be there; then advance it.
    for id in 1..=opts.sites {
        let want = ctx.ratchet[id as usize - 1];
        let Some(ctrl) = sup.ctrl(SiteId(id)) else {
            violations.push(format!("ratchet: site {id} down"));
            continue;
        };
        match ctrl.committed_value(SRV, ratchet_obj(opts.accounts)) {
            Ok(v) => {
                let got = balance(&v);
                if got != want {
                    violations.push(format!(
                        "ratchet: site {id} counter regressed to {got} (committed {want})"
                    ));
                }
            }
            Err(e) => violations.push(format!("ratchet: site {id} read: {e}")),
        }
        let bump = (|| -> camelot_types::Result<bool> {
            let tid = ctrl.begin()?;
            ctrl.write(
                &tid,
                SRV,
                ratchet_obj(opts.accounts),
                (want + 1).to_le_bytes().to_vec(),
            )?;
            ctrl.commit(&tid, false, vec![])
        })();
        match bump {
            Ok(true) => ctx.ratchet[id as usize - 1] = want + 1,
            Ok(false) => {} // aborted: counter unchanged, not a violation
            Err(e) => violations.push(format!("ratchet: site {id} bump: {e}")),
        }
    }
    violations
}

/// Every up site's drained trace events; a site whose drain fails adds
/// none.
fn drained_events(sup: &mut Supervisor) -> Vec<ScopeEvent> {
    let traces = sup.drain_traces().into_iter();
    traces
        .filter_map(|(_, t)| t.ok())
        .flat_map(|t| parse_jsonl(&t))
        .collect()
}

/// Dumps the merged cluster timeline (every site incarnation's drained
/// trace, sorted on the shared host clock), the scrape series, and the
/// fault script to the trace directory.
fn dump_traces(sup: &mut Supervisor, ctx: &mut AuditCtx<'_>, violations: &[String]) {
    let dir = &ctx.opts.trace_dir;
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("camelot-soak: create {}: {e}", dir.display());
        return;
    }
    let mut report = String::new();
    report.push_str("violations:\n");
    for v in violations {
        report.push_str(&format!("  {v}\n"));
    }
    report.push_str("fault script executed:\n");
    for f in &ctx.fault_log {
        report.push_str(&format!("  {f}\n"));
    }
    let _ = std::fs::write(dir.join("soak-report.txt"), &report);
    // Pick up whatever the rings hold beyond the last audit's drain,
    // then merge everything into one timeline.
    ctx.drained.extend(drained_events(sup));
    let merged = merge_skew_aware(std::mem::take(&mut ctx.drained));
    if let Ok(mut f) = std::fs::File::create(dir.join("cluster-timeline.jsonl")) {
        let _ = f.write_all(merged.to_jsonl().as_bytes());
    }
    let _ = std::fs::write(dir.join("scrape.jsonl"), &ctx.scrape_series);
    eprintln!(
        "camelot-soak: merged cluster timeline ({} events, {} happens-before violations) dumped to {}",
        merged.events.len(),
        merged.happens_before_violations(),
        dir.display()
    );
}

// ---------------------------------------------------------------- main

fn main() {
    let opts = parse_opts();
    let bin = sibling_site_bin().unwrap_or_else(|e| {
        eprintln!("camelot-soak: {e}");
        exit(1);
    });
    let log_dir = opts.log_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("camelot-soak-{}", std::process::id()))
    });
    std::fs::create_dir_all(&log_dir).expect("create log dir");

    let mut cfg = SupervisorConfig::new(bin, opts.sites, &opts.transport, log_dir);
    cfg.restart_budget = opts.restart_budget;
    // Bound the worst-case stall of a generator thread whose call
    // races a kill or partition.
    cfg.extra.push("--call-timeout-ms".into());
    cfg.extra.push("10000".into());
    // Rings must outlast an audit interval's worth of events: the
    // audit drains them, and any drop is itself a violation.
    cfg.extra.push("--trace-capacity".into());
    cfg.extra.push("65536".into());
    let mut sup = Supervisor::start(cfg).unwrap_or_else(|e| {
        eprintln!("camelot-soak: start cluster: {e}");
        exit(1);
    });
    println!(
        "camelot-soak: {} sites ({}), {:.0} tps across {} workers, {:?} soak, seed {}",
        opts.sites, opts.transport, RATE, WORKERS, opts.duration, opts.seed
    );

    // Fund the transfer accounts. The ratchet counters start at 0,
    // which is what an object no transaction has written reads as.
    let mut session = CtrlSession::new(sup.board());
    for id in 1..=opts.sites {
        fund(&mut session, SiteId(id), opts.accounts, INITIAL).expect("fund every site");
    }

    let shared = Arc::new(WorkerShared {
        board: sup.board(),
        run: AtomicBool::new(true),
        paused: AtomicBool::new(false),
        counters: Counters::default(),
    });
    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let shared = Arc::clone(&shared);
            let (sites, accounts) = (opts.sites, opts.accounts);
            let rate = RATE / WORKERS as f64;
            let seed = opts.seed.wrapping_add(w as u64).wrapping_mul(0x9E37_79B9);
            std::thread::spawn(move || worker_loop(shared, sites, accounts, rate, seed))
        })
        .collect();

    let script = draw_script(&opts);
    let scrape_config = format!(
        "soak sites={} transport={} rate={} seed={}",
        opts.sites, opts.transport, RATE, opts.seed
    );
    let mut ctx = AuditCtx {
        opts: &opts,
        ratchet: vec![0; opts.sites as usize],
        fault_log: Vec::new(),
        collector: Collector::new(),
        scrape_series: format!("{}\n", Collector::header_json(&scrape_config)),
        drained: Vec::new(),
    };
    let start = Instant::now();
    let mut next_event = 0usize;
    let mut next_audit = start + opts.audit_every;
    let mut audits = 0u32;
    let mut all_violations: Vec<String> = Vec::new();

    // Pauses the generators, runs one audit cycle, resumes.
    let run_audit = |sup: &mut Supervisor,
                     ctx: &mut AuditCtx<'_>,
                     shared: &WorkerShared,
                     audits: &mut u32|
     -> Vec<String> {
        shared.paused.store(true, Ordering::Release);
        let drain = Instant::now() + Duration::from_secs(30);
        while shared.counters.in_flight.load(Ordering::Acquire) > 0 && Instant::now() < drain {
            sup.poll();
            std::thread::sleep(Duration::from_millis(10));
        }
        let v = audit(sup, ctx);
        *audits += 1;
        println!(
            "camelot-soak: audit #{audits}: {}",
            if v.is_empty() {
                "clean".to_string()
            } else {
                format!("{} violation(s)", v.len())
            }
        );
        shared.paused.store(false, Ordering::Release);
        v
    };

    while start.elapsed() < opts.duration {
        sup.poll();
        sup.bail_on_budget_exhaustion("camelot-soak");
        while next_event < script.len() && start.elapsed() >= script[next_event].0 {
            let (_, ev) = &script[next_event];
            apply_event(&mut sup, opts.sites, ev, &mut ctx.fault_log);
            next_event += 1;
        }
        if Instant::now() >= next_audit {
            let v = run_audit(&mut sup, &mut ctx, &shared, &mut audits);
            if !v.is_empty() {
                all_violations = v;
                break;
            }
            next_audit = Instant::now() + opts.audit_every;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Stop the generators, then run the final audit on a quiet
    // cluster (unless a mid-run audit already failed).
    shared.run.store(false, Ordering::Release);
    for h in handles {
        let _ = h.join();
    }
    if all_violations.is_empty() {
        all_violations = run_audit(&mut sup, &mut ctx, &shared, &mut audits);
    }

    let c = &shared.counters;
    println!(
        "camelot-soak: {} committed, {} aborted, {} failed over {} audits, {} fault events",
        c.committed.load(Ordering::Relaxed),
        c.aborted.load(Ordering::Relaxed),
        c.failed.load(Ordering::Relaxed),
        audits,
        ctx.fault_log.len(),
    );
    let counts = sup.restart_counts();
    println!(
        "camelot-soak: restarts {}",
        counts
            .iter()
            .map(|(site, n)| format!("site {}: {n}", site.0))
            .collect::<Vec<_>>()
            .join(", ")
    );

    if !all_violations.is_empty() {
        for v in &all_violations {
            eprintln!("camelot-soak: VIOLATION: {v}");
        }
        dump_traces(&mut sup, &mut ctx, &all_violations);
        sup.shutdown();
        exit(1);
    }
    // Clean soak: keep the scrape series anyway — it is cheap and the
    // nightly job graphs it.
    if std::fs::create_dir_all(&opts.trace_dir).is_ok() {
        let _ = std::fs::write(opts.trace_dir.join("scrape.jsonl"), &ctx.scrape_series);
    }
    println!("camelot-soak: clean soak");
    sup.shutdown();
}
