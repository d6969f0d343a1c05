//! End-to-end tests over *real OS processes and kernel sockets*.
//!
//! Each test spawns `camelot-site` binaries (cargo builds them and
//! hands us the path via `CARGO_BIN_EXE_camelot-site`), wires them
//! into a localhost cluster through the control protocol, and drives
//! distributed transactions across process boundaries:
//!
//! - a 3-site cluster commits two-phase and non-blocking transfers
//!   and every process agrees on the committed state;
//! - a subordinate killed mid-prepare (armed crash point → real
//!   `exit(3)`) is respawned on the same WAL directory, recovers, and
//!   the cluster again agrees — including a fresh commit through the
//!   restarted process;
//! - an `#[ignore]`d chaos campaign runs 25 seeded schedules with
//!   drop/delay/duplicate injection at the socket layer and audits
//!   conservation after healing, dumping per-site trace JSONL
//!   artifacts on failure.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use camelot_node::ctrl::{CtrlClient, Handshake, PeerEntry};
use camelot_node::session::balance;
use camelot_types::{CrashPoint, ObjectId, ServerId, SiteId, Tid};

const SRV: ServerId = ServerId(1);

struct SiteProc {
    id: SiteId,
    child: Child,
    handshake: Handshake,
    ctrl: CtrlClient,
}

impl SiteProc {
    /// Spawns one site process and completes its stdout handshake.
    fn spawn(id: SiteId, log_dir: Option<&Path>, extra: &[&str]) -> SiteProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_camelot-site"));
        cmd.arg("--site")
            .arg(id.0.to_string())
            .arg("--fast")
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(dir) = log_dir {
            cmd.arg("--log-dir").arg(dir.join(format!("site-{}", id.0)));
        }
        let mut child = cmd.spawn().expect("spawn camelot-site");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let handshake = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(h) = Handshake::parse(&line) {
                        break h;
                    }
                }
                _ => panic!("site {} exited before handshake", id.0),
            }
        };
        assert_eq!(handshake.site, id);
        let ctrl = CtrlClient::connect(handshake.ctrl).expect("ctrl connect");
        SiteProc {
            id,
            child,
            handshake,
            ctrl,
        }
    }

    fn shutdown(mut self) {
        self.ctrl.shutdown();
        let _ = self.child.wait();
    }
}

/// Sends the full data-plane address map to every site.
fn distribute_peers(sites: &mut [SiteProc]) {
    let peers: Vec<PeerEntry> = sites
        .iter()
        .map(|s| PeerEntry {
            site: s.id,
            addr: s.handshake.data.to_string(),
        })
        .collect();
    for s in sites.iter_mut() {
        s.ctrl.set_peers(peers.clone()).expect("set peers");
    }
}

/// Funds `accounts` objects with `amount` each via one local commit.
fn fund(site: &mut SiteProc, accounts: u64, amount: i64) {
    let tid = site.ctrl.begin().expect("begin funding");
    for a in 0..accounts {
        site.ctrl
            .write(&tid, SRV, ObjectId(a), amount.to_le_bytes().to_vec())
            .expect("fund write");
    }
    assert!(
        site.ctrl
            .commit(&tid, false, vec![])
            .expect("funding commit"),
        "funding at site {} must commit",
        site.id.0
    );
}

/// Moves `amount` between two (site, account) slots; `Ok(true)` if the
/// transfer committed.
fn transfer(
    sites: &mut [SiteProc],
    coord: usize,
    (src, src_acct): (usize, ObjectId),
    (dst, dst_acct): (usize, ObjectId),
    amount: i64,
    nonblocking: bool,
) -> camelot_types::Result<bool> {
    let tid: Tid = sites[coord].ctrl.begin()?;
    let participants = vec![sites[src].id, sites[dst].id];
    let ops = |sites: &mut [SiteProc]| -> camelot_types::Result<()> {
        let from = balance(&sites[src].ctrl.read(&tid, SRV, src_acct)?);
        sites[src]
            .ctrl
            .write(&tid, SRV, src_acct, (from - amount).to_le_bytes().to_vec())?;
        let to = balance(&sites[dst].ctrl.read(&tid, SRV, dst_acct)?);
        sites[dst]
            .ctrl
            .write(&tid, SRV, dst_acct, (to + amount).to_le_bytes().to_vec())?;
        Ok(())
    };
    if let Err(e) = ops(sites) {
        let _ = sites[coord].ctrl.abort(&tid, participants);
        return Err(e);
    }
    sites[coord].ctrl.commit(&tid, nonblocking, participants)
}

/// Polls every reachable site's protocol state until all report empty
/// (everything resolved, applied and forgotten) or the deadline hits.
fn wait_quiesce(sites: &mut [SiteProc], deadline: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        let busy = sites
            .iter_mut()
            .any(|s| s.ctrl.debug_state().map(|d| !d.is_empty()).unwrap_or(false));
        if !busy {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

fn committed(site: &mut SiteProc, acct: ObjectId) -> i64 {
    balance(
        &site
            .ctrl
            .committed_value(SRV, acct)
            .expect("committed value"),
    )
}

const A0: ObjectId = ObjectId(0);

/// Three real processes, real UDP datagrams between them: a 2PC
/// transfer and a non-blocking transfer both commit, and afterwards
/// every process reports the same committed ledger.
#[test]
fn three_processes_commit_and_agree() {
    let mut sites: Vec<SiteProc> = (1..=3)
        .map(|i| SiteProc::spawn(SiteId(i), None, &["--transport", "udp"]))
        .collect();
    distribute_peers(&mut sites);
    fund(&mut sites[0], 1, 100);

    // Two-phase: site 1 coordinates, debits itself, credits site 2.
    assert!(
        transfer(&mut sites, 0, (0, A0), (1, A0), 30, false).expect("2pc transfer"),
        "two-phase transfer must commit"
    );
    // Non-blocking: site 2 coordinates, debits itself, credits site 3.
    assert!(
        transfer(&mut sites, 1, (1, A0), (2, A0), 10, true).expect("nb transfer"),
        "non-blocking transfer must commit"
    );

    assert!(
        wait_quiesce(&mut sites, Duration::from_secs(20)),
        "cluster must quiesce"
    );
    // Agreement: each process, asked independently, reports the state
    // the commits imply — and the money adds back up to the funding.
    assert_eq!(committed(&mut sites[0], A0), 70);
    assert_eq!(committed(&mut sites[1], A0), 20);
    assert_eq!(committed(&mut sites[2], A0), 10);

    for s in sites {
        s.shutdown();
    }
}

/// Same cluster over TCP streams instead of UDP datagrams.
#[test]
fn three_processes_commit_over_tcp() {
    let mut sites: Vec<SiteProc> = (1..=3)
        .map(|i| SiteProc::spawn(SiteId(i), None, &["--transport", "tcp"]))
        .collect();
    distribute_peers(&mut sites);
    fund(&mut sites[0], 1, 100);
    assert!(
        transfer(&mut sites, 0, (0, A0), (2, A0), 25, false).expect("tcp transfer"),
        "transfer over TCP must commit"
    );
    assert!(wait_quiesce(&mut sites, Duration::from_secs(20)));
    assert_eq!(committed(&mut sites[0], A0), 75);
    assert_eq!(committed(&mut sites[2], A0), 25);
    // The coordinator really used its kernel sockets, and a clean run
    // shows clean transport counters.
    let stats = sites[0].ctrl.transport_stats().expect("transport stats");
    assert!(stats.sends > 0, "coordinator sent frames: {stats:?}");
    assert_eq!(stats.queue_drops, 0, "{stats:?}");
    for s in sites {
        s.shutdown();
    }
}

/// The TCP twin of the kill/recover test: a subordinate dies
/// mid-prepare and restarts on a *new data port*. The coordinator's
/// sender thread must tear down its cached stream, reconnect to the
/// new address (fresh FrameDecoder on the new connection), and carry
/// a post-restart commit — reconnect-mid-stream, across real
/// processes.
#[test]
fn killed_subordinate_recovers_over_tcp() {
    let dir = std::env::temp_dir().join(format!("camelot-e2e-kill-tcp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("log dir");

    let spawn = |i: u32| SiteProc::spawn(SiteId(i), Some(&dir), &["--transport", "tcp"]);
    let mut sites: Vec<SiteProc> = (1..=3).map(spawn).collect();
    distribute_peers(&mut sites);
    fund(&mut sites[2], 1, 100);

    sites[1]
        .ctrl
        .arm_crash(CrashPoint::PreForce)
        .expect("arm crash");
    let outcome = transfer(&mut sites, 0, (2, A0), (1, A0), 40, false);
    assert!(
        !outcome.unwrap_or(false),
        "transfer through the dying subordinate must not commit"
    );
    let status = sites[1].child.wait().expect("wait for killed site");
    assert_eq!(status.code(), Some(3), "watchdog exit code");

    sites[1] = spawn(2);
    distribute_peers(&mut sites);

    assert!(
        wait_quiesce(&mut sites, Duration::from_secs(20)),
        "cluster must resolve the interrupted transfer"
    );
    assert_eq!(committed(&mut sites[2], A0), 100, "debit undone");
    assert_eq!(committed(&mut sites[1], A0), 0, "credit never applied");

    assert!(
        transfer(&mut sites, 0, (2, A0), (1, A0), 40, false).expect("retry transfer"),
        "post-restart transfer must commit over the reconnected stream"
    );
    assert!(wait_quiesce(&mut sites, Duration::from_secs(20)));
    assert_eq!(committed(&mut sites[2], A0), 60);
    assert_eq!(committed(&mut sites[1], A0), 40);

    for s in sites {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kills a subordinate *mid-prepare* (the armed crash point fires when
/// it forces its prepare record, turning into a real `exit(3)`), then
/// respawns it on the same WAL directory and checks that the cluster
/// agrees: the interrupted transfer aborted everywhere — presumed
/// abort answers the recovered site's ignorance — and a retry through
/// the restarted process commits.
#[test]
fn killed_subordinate_recovers_and_rejoins() {
    let dir = std::env::temp_dir().join(format!("camelot-e2e-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("log dir");

    let spawn = |i: u32| SiteProc::spawn(SiteId(i), Some(&dir), &["--transport", "udp"]);
    let mut sites: Vec<SiteProc> = (1..=3).map(spawn).collect();
    distribute_peers(&mut sites);
    fund(&mut sites[2], 1, 100);

    // Arm: site 2 dies at its next log force — which is the prepare
    // force of the transfer below, since its writes are lazy.
    sites[1]
        .ctrl
        .arm_crash(CrashPoint::PreForce)
        .expect("arm crash");

    // Site 1 coordinates; site 2 is a subordinate with an update.
    // The prepare kills site 2, its vote never arrives, and the vote
    // timeout aborts the transfer.
    let outcome = transfer(&mut sites, 0, (2, A0), (1, A0), 40, false);
    assert!(
        !outcome.unwrap_or(false),
        "transfer through the dying subordinate must not commit"
    );

    // The armed crash must surface as a real process death, exit 3.
    let status = sites[1].child.wait().expect("wait for killed site");
    assert_eq!(status.code(), Some(3), "watchdog exit code");

    // Respawn on the same WAL directory: recovery replays the log.
    // Everyone gets the new incarnation's data address.
    sites[1] = spawn(2);
    distribute_peers(&mut sites);

    assert!(
        wait_quiesce(&mut sites, Duration::from_secs(20)),
        "cluster must resolve the interrupted transfer"
    );
    // Agreement: the abort reached every copy of the data.
    assert_eq!(committed(&mut sites[2], A0), 100, "debit undone");
    assert_eq!(committed(&mut sites[1], A0), 0, "credit never applied");

    // The restarted process is a full citizen again: the same
    // transfer now commits through it.
    assert!(
        transfer(&mut sites, 0, (2, A0), (1, A0), 40, false).expect("retry transfer"),
        "post-restart transfer must commit"
    );
    assert!(wait_quiesce(&mut sites, Duration::from_secs(20)));
    assert_eq!(committed(&mut sites[2], A0), 60);
    assert_eq!(committed(&mut sites[1], A0), 40);

    for s in sites {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// 25 seeded chaos schedules against real sockets: every site injects
/// drop/delay/duplicate faults on its own links, the workload runs
/// through the noise, the plans are healed, and the ledger must still
/// conserve money. Failures dump each site's trace ring as JSONL
/// under `CARGO_TARGET_TMPDIR` for offline forensics.
///
/// Ignored by default (takes minutes); CI runs it with
/// `--include-ignored`.
#[test]
#[ignore = "long-running chaos campaign; run with --include-ignored"]
fn socket_chaos_campaign_conserves_money() {
    let artifacts = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("socket-chaos");
    std::fs::create_dir_all(&artifacts).expect("artifact dir");

    for seed in 1..=25u64 {
        let fault_args = [
            "--transport",
            "udp",
            "--drop",
            "60",
            "--delay",
            "100",
            "--dup",
            "60",
            "--fault-delay-ms",
            "20",
            "--fault-budget",
            "48",
        ];
        let mut sites: Vec<SiteProc> = (1..=3)
            .map(|i| {
                let seed_s = (seed * 31 + i as u64).to_string();
                let mut extra: Vec<&str> = fault_args.to_vec();
                extra.push("--fault-seed");
                extra.push(&seed_s);
                SiteProc::spawn(SiteId(i), None, &extra)
            })
            .collect();
        distribute_peers(&mut sites);
        for s in sites.iter_mut() {
            fund(s, 2, 100);
        }

        // The workload may abort or time out under fire — that is the
        // point. Only safety (conservation) is asserted.
        let mut rng = seed;
        let mut mix = move || {
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for t in 0..6u64 {
            let src = (mix() % 3) as usize;
            let dst = (src + 1 + (mix() % 2) as usize) % 3;
            let nonblocking = mix() % 2 == 0;
            let _ = transfer(
                &mut sites,
                (t % 3) as usize,
                (src, ObjectId(mix() % 2)),
                (dst, ObjectId(mix() % 2)),
                (mix() % 15) as i64 + 1,
                nonblocking,
            );
        }

        // Stop injecting and let the recovery machinery finish.
        for s in sites.iter_mut() {
            s.ctrl.heal().expect("heal");
        }
        let quiesced = wait_quiesce(&mut sites, Duration::from_secs(30));

        let mut total = 0i64;
        for s in sites.iter_mut() {
            for a in 0..2 {
                total += committed(s, ObjectId(a));
            }
        }
        let conserved = total == 600;

        if !quiesced || !conserved {
            for s in sites.iter_mut() {
                let jsonl = s.ctrl.drain_trace().unwrap_or_default();
                let path = artifacts.join(format!("seed-{seed}-site-{}.jsonl", s.id.0));
                std::fs::write(&path, jsonl).expect("write trace artifact");
            }
            panic!(
                "seed {seed}: quiesced={quiesced} total={total} (expected 600); \
                 traces in {}",
                artifacts.display()
            );
        }
        for s in sites {
            s.shutdown();
        }
    }
}

/// Regression: a trace ring holding far more JSONL than the 1 MiB ctrl
/// frame cap must still drain completely. The unchunked drain used to
/// render the whole ring into a single reply frame, which the encoder
/// rejects past 1 MiB; the chunked protocol fetches bounded slices
/// until the ring is dry and must leave the connection usable.
#[test]
fn chunked_trace_drain_survives_oversized_ring() {
    let mut site = SiteProc::spawn(SiteId(1), None, &["--trace-capacity", "30000"]);

    site.ctrl.fill_trace(20_000).expect("fill trace ring");
    let jsonl = site.ctrl.drain_trace().expect("chunked drain");
    assert!(
        jsonl.len() > 1 << 20,
        "ring must exceed the 1 MiB frame cap to exercise chunking (got {} bytes)",
        jsonl.len()
    );
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), 20_000, "every event drains exactly once");
    assert!(
        lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')),
        "each drained line is a complete JSON object"
    );

    // Capacity (30000) exceeded the fill (20000): nothing may drop.
    let stats = site.ctrl.engine_stats().expect("engine stats");
    assert_eq!(stats.trace_dropped, 0, "ring was large enough");
    assert_eq!(stats.trace_emitted, 20_000);

    // The ctrl connection survives the multi-chunk exchange: the
    // decoder is not poisoned and the ring is dry.
    assert_eq!(site.ctrl.ping().expect("ping after drain"), SiteId(1));
    assert!(
        site.ctrl.drain_trace().expect("second drain").is_empty(),
        "ring drains to empty"
    );

    site.shutdown();
}
