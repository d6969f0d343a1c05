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
use camelot_types::flags::{Parsed, Row, Tool, SWITCH};
use camelot_types::{splitmix64, ObjectId, SiteId};

const INITIAL: i64 = 100;

#[rustfmt::skip]
const FLAGS: &[Row] = &[
    ("--sites", "N", "3", "sites in the cluster"),
    ("--txns", "N", "20", "transfers to run"),
    ("--accounts", "N", "4", "accounts per site"),
    ("--transport", "udp|tcp", "udp", "data-plane socket kind"),
    ("--nonblocking", SWITCH, "", "commit with the non-blocking protocol"),
    ("--log-dir", "DIR", "", "WAL root (else a fresh temp directory)"),
    ("--seed", "N", "1", "seed of the transfer and kill choices"),
    ("--kill-every", "N", "0", "kill a random site every N transfers; 0 never does"),
    ("--restart-budget", "N", "5", "respawns before a site is given up on"),
];
const TOOL: Tool = Tool::new("camelot-launch", FLAGS);

/// SplitMix64: cheap deterministic stream for workload choices.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    splitmix64(*x)
}

fn main() {
    TOOL.from_env(run)
}

/// The whole run; the only `Err` is a bad flag value, before anything starts.
fn run(p: &Parsed) -> Result<(), String> {
    let (sites, txns): (u32, u32) = (p.int("--sites")?, p.int("--txns")?);
    let accounts: u64 = p.int("--accounts")?;
    let transport: String = p.val("--transport")?;
    let nonblocking = p.on("--nonblocking");
    let seed: u64 = p.int("--seed")?;
    let kill_every: u32 = p.int("--kill-every")?;
    let restart_budget: u32 = p.int("--restart-budget")?;
    if sites == 0 || accounts == 0 {
        return Err("--sites and --accounts must be at least 1".into());
    }
    let bin = sibling_site_bin().unwrap_or_else(|e| {
        eprintln!("camelot-launch: {e}");
        exit(1);
    });

    // Supervision needs a stable WAL root so respawned sites recover
    // the incarnation they lost.
    let log_dir = p.get("--log-dir").map_or_else(
        || std::env::temp_dir().join(format!("camelot-launch-{}", std::process::id())),
        PathBuf::from,
    );
    std::fs::create_dir_all(&log_dir).expect("create log dir");

    let mut cfg = SupervisorConfig::new(bin, sites, &transport, log_dir);
    cfg.restart_budget = restart_budget;
    let mut sup = Supervisor::start(cfg).unwrap_or_else(|e| {
        eprintln!("camelot-launch: start cluster: {e}");
        exit(1);
    });
    println!(
        "camelot-launch: {} sites up ({}), {} accounts each, supervised",
        sites, transport, accounts
    );

    // Fund every site's ledger with one local transaction.
    for id in 1..=sites {
        let ctrl = sup.ctrl(SiteId(id)).expect("funding: site up");
        let tid = ctrl.begin().expect("begin funding txn");
        for a in 0..accounts {
            ctrl.write(&tid, SRV, ObjectId(a), INITIAL.to_le_bytes().to_vec())
                .expect("fund account");
        }
        assert!(
            ctrl.commit(&tid, nonblocking, vec![])
                .expect("funding commit"),
            "funding at site {id} must commit",
        );
    }

    // Transfers dial their own control connections through the address
    // board, so a transfer that touches a dead site fails with a typed
    // error (and is aborted best-effort) instead of wedging, and a
    // respawned site is re-resolved on its new ports.
    let mut session = CtrlSession::new(sup.board());
    let mode = if nonblocking {
        CommitMode::NonBlocking
    } else {
        CommitMode::TwoPhase
    };
    let mut rng = seed;
    let mut committed = 0u32;
    let mut aborted = 0u32;
    let mut failed = 0u32;
    for t in 0..txns {
        sup.poll();
        sup.bail_on_budget_exhaustion("camelot-launch");
        if kill_every > 0 && t > 0 && t % kill_every == 0 {
            let victim = SiteId((mix(&mut rng) % sites as u64) as u32 + 1);
            if sup.kill_site(victim) {
                println!("camelot-launch: killed site {} at txn {t}", victim.0);
            }
        }
        let coord = SiteId((t % sites) + 1);
        let src = SiteId((mix(&mut rng) % sites as u64) as u32 + 1);
        let mut dst = SiteId((mix(&mut rng) % sites as u64) as u32 + 1);
        if dst == src {
            dst = SiteId(dst.0 % sites + 1);
        }
        let src_acct = ObjectId(mix(&mut rng) % accounts);
        let dst_acct = ObjectId(mix(&mut rng) % accounts);
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
    sup.bail_on_budget_exhaustion("camelot-launch");

    // A non-blocking commit returns at quorum; subordinates apply the
    // outcome in phase three. Audit only after the protocol quiesces.
    let quiesce_deadline = Instant::now() + StdDuration::from_secs(20);
    loop {
        sup.poll();
        let mut busy = false;
        for id in 1..=sites {
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
    for id in 1..=sites {
        let ctrl = sup.ctrl(SiteId(id)).expect("audit: site up");
        let mut site_total = 0i64;
        for a in 0..accounts {
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
    let expected = sites as i64 * accounts as i64 * INITIAL;
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
    Ok(())
}
