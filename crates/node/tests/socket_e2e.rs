//! End-to-end tests over *real OS processes and kernel sockets*.
//!
//! Each test runs `camelot-site` binaries (cargo builds them and hands
//! us the path via `CARGO_BIN_EXE_camelot-site`) under a `Supervisor`,
//! which wires them into a localhost cluster through the control
//! protocol, and drives distributed transactions across process
//! boundaries:
//!
//! - a 3-site cluster commits two-phase and non-blocking transfers
//!   and every process agrees on the committed state;
//! - a subordinate killed mid-prepare (armed crash point → real
//!   `exit(3)`) is respawned on the same WAL directory, recovers, and
//!   the cluster again agrees — including a fresh commit through the
//!   restarted process;
//! - an `#[ignore]`d chaos campaign runs 25 seeded schedules with
//!   drop/delay/duplicate injection at the socket layer and audits
//!   conservation after healing, dumping the cluster's trace JSONL
//!   artifact on failure.

use std::path::PathBuf;
use std::process::ExitStatus;
use std::time::{Duration, Instant};

use camelot_node::procs::{Supervisor, SupervisorConfig};
use camelot_node::session::{fund, transfer, CommitMode, CtrlSession};
use camelot_types::{splitmix64, CrashPoint, ObjectId, SiteId};

const A0: ObjectId = ObjectId(0);

/// How long a settled cluster may take to go quiet.
const QUIET: Duration = Duration::from_secs(20);

/// `sites` supervised site processes over `transport`, and a session
/// on their address board.
fn cluster(
    sites: u32,
    transport: &str,
    log_dir: Option<PathBuf>,
    extra: &[&str],
) -> (Supervisor, CtrlSession) {
    let bin = PathBuf::from(env!("CARGO_BIN_EXE_camelot-site"));
    let mut cfg = SupervisorConfig::new(bin, sites, transport, log_dir);
    cfg.extra = extra.iter().map(|a| a.to_string()).collect();
    let sup = Supervisor::start(cfg).expect("start cluster");
    let session = CtrlSession::new(sup.board());
    (sup, session)
}

/// Polls until the supervisor has seen `site` die; how it ended.
fn exit_of(sup: &mut Supervisor, site: SiteId) -> ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        sup.poll();
        if let Some(status) = sup.last_exit(site) {
            return status;
        }
        assert!(Instant::now() < deadline, "site {} never died", site.0);
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Three real processes, real UDP datagrams between them: a 2PC
/// transfer and a non-blocking transfer both commit, and afterwards
/// every process reports the same committed ledger.
#[test]
fn three_processes_commit_and_agree() {
    let (mut sup, mut s) = cluster(3, "udp", None, &[]);
    fund(&mut s, SiteId(1), 1, 100).expect("fund");

    // Two-phase: site 1 coordinates, debits itself, credits site 2.
    let (one, two, three) = ((SiteId(1), A0), (SiteId(2), A0), (SiteId(3), A0));
    assert!(
        transfer(&mut s, SiteId(1), one, two, 30, CommitMode::TwoPhase).expect("2pc transfer"),
        "two-phase transfer must commit"
    );
    // Non-blocking: site 2 coordinates, debits itself, credits site 3.
    assert!(
        transfer(&mut s, SiteId(2), two, three, 10, CommitMode::NonBlocking).expect("nb transfer"),
        "non-blocking transfer must commit"
    );

    sup.quiesce(QUIET).expect("cluster must quiesce");
    // Agreement: each process, asked independently, reports the state
    // the commits imply — and the money adds back up to the funding.
    assert_eq!(s.ledger(3, 1).expect("ledger"), [70, 20, 10]);
    sup.shutdown();
}

/// Same cluster over TCP streams instead of UDP datagrams.
#[test]
fn three_processes_commit_over_tcp() {
    let (mut sup, mut s) = cluster(3, "tcp", None, &[]);
    fund(&mut s, SiteId(1), 1, 100).expect("fund");
    let (one, three) = ((SiteId(1), A0), (SiteId(3), A0));
    assert!(
        transfer(&mut s, SiteId(1), one, three, 25, CommitMode::TwoPhase).expect("tcp transfer"),
        "transfer over TCP must commit"
    );
    sup.quiesce(QUIET).expect("cluster must quiesce");
    assert_eq!(s.ledger(3, 1).expect("ledger"), [75, 0, 25]);
    // The coordinator really used its kernel sockets, and a clean run
    // shows clean transport counters.
    let coordinator = sup.ctrl(SiteId(1)).expect("site 1 up");
    let stats = coordinator.transport_stats().expect("transport stats");
    assert!(stats.sends > 0, "coordinator sent frames: {stats:?}");
    assert_eq!(stats.queue_drops, 0, "{stats:?}");
    sup.shutdown();
}

/// Kills a subordinate *mid-prepare* (the armed crash point fires when
/// it forces its prepare record, turning into a real `exit(3)`); the
/// supervisor respawns it on the same WAL directory, and the cluster
/// must agree: the interrupted transfer aborted everywhere — presumed
/// abort answers the recovered site's ignorance — and a retry through
/// the restarted process commits.
fn killed_subordinate_recovers(transport: &str) {
    let dir = std::env::temp_dir().join(format!(
        "camelot-e2e-kill-{transport}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("log dir");
    let (mut sup, mut s) = cluster(3, transport, Some(dir.clone()), &[]);
    fund(&mut s, SiteId(3), 1, 100).expect("fund");

    // Arm: site 2 dies at its next log force — which is the prepare
    // force of the transfer below, since its writes are lazy.
    let subordinate = sup.ctrl(SiteId(2)).expect("site 2 up");
    subordinate
        .arm_crash(CrashPoint::PreForce)
        .expect("arm crash");

    // Site 1 coordinates; site 2 is a subordinate with an update.
    // The prepare kills site 2, its vote never arrives, and the vote
    // timeout aborts the transfer.
    let (from, to) = ((SiteId(3), A0), (SiteId(2), A0));
    let outcome = transfer(&mut s, SiteId(1), from, to, 40, CommitMode::TwoPhase);
    assert!(
        !outcome.unwrap_or(false),
        "transfer through the dying subordinate must not commit"
    );

    // The armed crash must surface as a real process death, exit 3.
    assert_eq!(
        exit_of(&mut sup, SiteId(2)).code(),
        Some(3),
        "watchdog exit code"
    );

    // The supervisor respawns it on the same WAL directory (recovery
    // replays the log) and gives everyone the new incarnation's data
    // address.
    sup.quiesce(QUIET)
        .expect("cluster must resolve the interrupted transfer");
    // Agreement: the abort reached every copy of the data — the debit
    // undone, the credit never applied.
    assert_eq!(s.ledger(3, 1).expect("ledger"), [0, 0, 100]);

    // The restarted process is a full citizen again: the same transfer
    // now commits through it. Over TCP the coordinator's sender thread
    // must first tear down its cached stream and reconnect to the new
    // data port (a fresh `FrameDecoder` on the new connection).
    assert!(
        transfer(&mut s, SiteId(1), from, to, 40, CommitMode::TwoPhase).expect("retry transfer"),
        "post-restart transfer must commit"
    );
    sup.quiesce(QUIET).expect("cluster must quiesce");
    assert_eq!(s.ledger(3, 1).expect("ledger"), [0, 40, 60]);

    sup.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_subordinate_recovers_and_rejoins() {
    killed_subordinate_recovers("udp");
}

/// The TCP twin: the subordinate restarts on a *new data port*, so the
/// post-restart commit rides a reconnect mid-stream, across real
/// processes.
#[test]
fn killed_subordinate_recovers_over_tcp() {
    killed_subordinate_recovers("tcp");
}

/// 25 seeded chaos schedules against real sockets: every site injects
/// drop/delay/duplicate faults on its own links (one `--fault-seed`;
/// each roll is keyed on the link, so the sites' streams differ), the workload runs through the
/// noise, the plans are healed, and the ledger must still conserve
/// money. Failures dump the cluster's drained trace rings as JSONL
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
        let seed_arg = seed.to_string();
        let (mut sup, mut s) = cluster(
            3,
            "udp",
            None,
            &[
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
                "--fault-seed",
                &seed_arg,
            ],
        );
        for id in 1..=3 {
            fund(&mut s, SiteId(id), 2, 100).expect("fund");
        }

        // The workload may abort or time out under fire — that is the
        // point. Only safety (conservation) is asserted.
        let mut rng = seed;
        let mut mix = move || {
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64(rng)
        };
        for t in 0..6u32 {
            let src = (mix() % 3) as u32;
            let dst = (src + 1 + (mix() % 2) as u32) % 3;
            let mode = match mix() % 2 {
                0 => CommitMode::NonBlocking,
                _ => CommitMode::TwoPhase,
            };
            let _ = transfer(
                &mut s,
                SiteId(t % 3 + 1),
                (SiteId(src + 1), ObjectId(mix() % 2)),
                (SiteId(dst + 1), ObjectId(mix() % 2)),
                (mix() % 15) as i64 + 1,
                mode,
            );
        }

        // Stop injecting and let the recovery machinery finish.
        sup.heal_all().expect("heal every site");
        let quiesced = sup.quiesce(Duration::from_secs(30));
        let total: i64 = s.ledger(3, 2).expect("ledger").iter().sum();

        if quiesced.is_err() || total != 600 {
            let path = artifacts.join(format!("seed-{seed}.jsonl"));
            let traces = sup.drain_traces().into_iter();
            let jsonl: String = traces.map(|(_, t)| t.unwrap_or_default()).collect();
            std::fs::write(&path, jsonl).expect("write trace artifact");
            panic!(
                "seed {seed}: quiesce {quiesced:?}, total={total} (expected 600); \
                 traces in {}",
                path.display()
            );
        }
        sup.shutdown();
    }
}

/// Regression: a trace ring holding far more JSONL than the 1 MiB ctrl
/// frame cap must still drain completely. The unchunked drain used to
/// render the whole ring into a single reply frame, which the encoder
/// rejects past 1 MiB; the chunked protocol fetches bounded slices
/// until the ring is dry and must leave the connection usable.
#[test]
fn chunked_trace_drain_survives_oversized_ring() {
    let (mut sup, _) = cluster(1, "udp", None, &["--trace-capacity", "30000"]);
    let site = sup.ctrl(SiteId(1)).expect("site 1 up");

    site.fill_trace(20_000).expect("fill trace ring");
    let jsonl = site.drain_trace().expect("chunked drain");
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
    let stats = site.engine_stats().expect("engine stats");
    assert_eq!(stats.trace_dropped, 0, "ring was large enough");
    assert_eq!(stats.trace_emitted, 20_000);

    // The ctrl connection survives the multi-chunk exchange: the
    // decoder is not poisoned and the ring is dry.
    assert_eq!(site.ping().expect("ping after drain"), SiteId(1));
    assert!(
        site.drain_trace().expect("second drain").is_empty(),
        "ring drains to empty"
    );

    sup.shutdown();
}
