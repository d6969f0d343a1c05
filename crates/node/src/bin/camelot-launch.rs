//! Launches an N-site localhost Camelot cluster as real OS processes
//! and runs the banking workload across it — under supervision.
//!
//! Each site is a `camelot-site` child process (found next to this
//! binary) with its own engine shards, WAL, disk-manager thread and
//! kernel socket. A [`Supervisor`] owns the children: it reads each
//! handshake, distributes the data-plane port map, and — when a site
//! dies — respawns it on the same WAL directory (recovery rebuilds
//! it) with capped exponential backoff, re-distributing the new port
//! map so peers reconnect. `--kill-every K` makes the launcher kill a
//! random site every K transfers, turning a plain run into a
//! self-healing demonstration.
//!
//! At the end it checks the paper's banking invariant — money is
//! conserved across every committed state — prints per-site restart
//! counts, and exits nonzero if the cluster disagrees or any site
//! burned its restart budget (in which case that site's last stderr
//! lines are printed).

use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration as StdDuration, Instant};

use camelot_core::CommitMode;
use camelot_node::procs::{sibling_site_bin, Supervisor, SupervisorConfig};
use camelot_node::session::{balance, transfer, CtrlSession, SRV};
use camelot_types::{ObjectId, SiteId};

const INITIAL: i64 = 100;

struct Opts {
    sites: u32,
    txns: u32,
    accounts: u64,
    transport: String,
    nonblocking: bool,
    log_dir: Option<PathBuf>,
    seed: u64,
    kill_every: u32,
    restart_budget: u32,
}

fn usage() -> ! {
    eprintln!(
        "usage: camelot-launch [--sites N] [--txns M] [--accounts K] \
         [--transport udp|tcp] [--nonblocking] [--log-dir DIR] [--seed S] \
         [--kill-every K] [--restart-budget N]"
    );
    exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        sites: 3,
        txns: 20,
        accounts: 4,
        transport: "udp".into(),
        nonblocking: false,
        log_dir: None,
        seed: 1,
        kill_every: 0,
        restart_budget: 5,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--sites" => opts.sites = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--txns" => opts.txns = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--accounts" => opts.accounts = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--transport" => opts.transport = value(&mut i),
            "--nonblocking" => opts.nonblocking = true,
            "--log-dir" => opts.log_dir = Some(PathBuf::from(value(&mut i))),
            "--seed" => opts.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--kill-every" => opts.kill_every = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--restart-budget" => {
                opts.restart_budget = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            _ => usage(),
        }
        i += 1;
    }
    if opts.sites == 0 || opts.accounts == 0 {
        usage();
    }
    opts
}

/// SplitMix64: cheap deterministic stream for workload choices.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Prints failed-site post-mortems and exits nonzero if any site has
/// burned its restart budget.
fn bail_on_budget_exhaustion(sup: &Supervisor) {
    let failed = sup.failed_sites();
    if failed.is_empty() {
        return;
    }
    for f in &failed {
        eprintln!(
            "camelot-launch: site {} exhausted its restart budget (last exit: {})",
            f.site.0, f.status
        );
        eprintln!("camelot-launch: site {} last stderr lines:", f.site.0);
        for line in &f.stderr_tail {
            eprintln!("  | {line}");
        }
    }
    exit(1);
}

fn main() {
    let opts = parse_opts();
    let bin = sibling_site_bin().unwrap_or_else(|e| {
        eprintln!("camelot-launch: {e}");
        exit(1);
    });

    // Supervision needs a stable WAL root so respawned sites recover
    // the incarnation they lost.
    let log_dir = opts.log_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("camelot-launch-{}", std::process::id()))
    });
    std::fs::create_dir_all(&log_dir).expect("create log dir");

    let mut cfg = SupervisorConfig::new(bin, opts.sites, &opts.transport, log_dir);
    cfg.restart_budget = opts.restart_budget;
    let mut sup = Supervisor::start(cfg).unwrap_or_else(|e| {
        eprintln!("camelot-launch: start cluster: {e}");
        exit(1);
    });
    println!(
        "camelot-launch: {} sites up ({}), {} accounts each, supervised",
        opts.sites, opts.transport, opts.accounts
    );

    // Fund every site's ledger with one local transaction.
    for id in 1..=opts.sites {
        let ctrl = sup.ctrl(SiteId(id)).expect("funding: site up");
        let tid = ctrl.begin().expect("begin funding txn");
        for a in 0..opts.accounts {
            ctrl.write(&tid, SRV, ObjectId(a), INITIAL.to_le_bytes().to_vec())
                .expect("fund account");
        }
        assert!(
            ctrl.commit(&tid, opts.nonblocking, vec![])
                .expect("funding commit"),
            "funding at site {id} must commit",
        );
    }

    // Transfers dial their own control connections through the address
    // board, so a transfer that touches a dead site fails with a typed
    // error (and is aborted best-effort) instead of wedging, and a
    // respawned site is re-resolved on its new ports.
    let mut session = CtrlSession::new(sup.board());
    let mode = if opts.nonblocking {
        CommitMode::NonBlocking
    } else {
        CommitMode::TwoPhase
    };
    let mut rng = opts.seed;
    let mut committed = 0u32;
    let mut aborted = 0u32;
    let mut failed = 0u32;
    for t in 0..opts.txns {
        sup.poll();
        bail_on_budget_exhaustion(&sup);
        if opts.kill_every > 0 && t > 0 && t % opts.kill_every == 0 {
            let victim = SiteId((mix(&mut rng) % opts.sites as u64) as u32 + 1);
            if sup.kill_site(victim) {
                println!("camelot-launch: killed site {} at txn {t}", victim.0);
            }
        }
        let coord = SiteId((t % opts.sites) + 1);
        let src = SiteId((mix(&mut rng) % opts.sites as u64) as u32 + 1);
        let mut dst = SiteId((mix(&mut rng) % opts.sites as u64) as u32 + 1);
        if dst == src {
            dst = SiteId(dst.0 % opts.sites + 1);
        }
        let src_acct = ObjectId(mix(&mut rng) % opts.accounts);
        let dst_acct = ObjectId(mix(&mut rng) % opts.accounts);
        let amount = (mix(&mut rng) % 20) as i64 + 1;
        match transfer(
            &mut session,
            coord,
            (src, src_acct),
            (dst, dst_acct),
            amount,
            mode,
        ) {
            Ok(true) => committed += 1,
            Ok(false) => aborted += 1,
            Err(e) => {
                failed += 1;
                eprintln!("camelot-launch: transfer {t} failed: {e}");
                // Give the supervisor's restart backoff a chance to
                // elapse instead of burning the remaining budget of
                // transfers against a site that is still down.
                std::thread::sleep(StdDuration::from_millis(25));
            }
        }
    }
    println!("camelot-launch: {committed} committed, {aborted} aborted, {failed} failed");

    // Let any in-flight restarts finish before auditing.
    if !sup.wait_all_up(StdDuration::from_secs(20)) {
        eprintln!("camelot-launch: not all sites came back up");
    }
    bail_on_budget_exhaustion(&sup);

    // A non-blocking commit returns at quorum; subordinates apply the
    // outcome in phase three. Audit only after the protocol quiesces.
    let quiesce_deadline = Instant::now() + StdDuration::from_secs(20);
    loop {
        sup.poll();
        let mut busy = false;
        for id in 1..=opts.sites {
            let Some(ctrl) = sup.ctrl(SiteId(id)) else {
                busy = true;
                continue;
            };
            if ctrl.debug_state().map(|d| !d.is_empty()).unwrap_or(true) {
                busy = true;
            }
        }
        if !busy {
            break;
        }
        if Instant::now() >= quiesce_deadline {
            eprintln!("camelot-launch: cluster did not quiesce");
            break;
        }
        std::thread::sleep(StdDuration::from_millis(50));
    }

    // Conservation: committed balances must sum to the funded total —
    // regardless of which transfers committed, aborted, or were cut
    // short by a kill (atomicity makes every subset conserve).
    let mut total = 0i64;
    for id in 1..=opts.sites {
        let ctrl = sup.ctrl(SiteId(id)).expect("audit: site up");
        let mut site_total = 0i64;
        for a in 0..opts.accounts {
            let v = balance(
                &ctrl
                    .committed_value(SRV, ObjectId(a))
                    .expect("committed value"),
            );
            site_total += v;
        }
        println!("camelot-launch: site {id} holds {site_total}");
        total += site_total;
    }
    let expected = opts.sites as i64 * opts.accounts as i64 * INITIAL;
    let conserved = total == expected;
    println!(
        "camelot-launch: ledger total {total} (expected {expected}) — {}",
        if conserved { "conserved" } else { "VIOLATION" }
    );
    let counts = sup.restart_counts();
    println!(
        "camelot-launch: restarts {}",
        counts
            .iter()
            .map(|e| format!("site {}: {}", e.site.0, e.restarts))
            .collect::<Vec<_>>()
            .join(", ")
    );

    sup.shutdown();
    if !conserved {
        exit(1);
    }
}
