//! End-to-end supervision tests over real OS processes and sockets.
//!
//! The acceptance scenario for the self-healing cluster: a 3-site
//! supervised TCP cluster survives a scripted campaign of {kill,
//! partition {1,2}|{3}, clock-skew site 2, heal} *under load*, the
//! killed site recovers its WAL and rejoins, the conservation
//! invariant holds over the committed balances, and the supervisor's
//! own control endpoint reports the restart counts. A second test
//! pins the budget-exhaustion path: with a zero restart budget the
//! supervisor gives up and surfaces the site's post-mortem instead of
//! respawning forever.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use camelot_node::ctrl::CtrlClient;
use camelot_node::procs::{Supervisor, SupervisorConfig};
use camelot_node::session::{balance, transfer, CommitMode, CtrlSession, SRV};
use camelot_types::{ObjectId, SiteId};

const SITES: u32 = 3;
const ACCOUNTS: u64 = 4;
const INITIAL: i64 = 100;

fn test_log_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("camelot-supe2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create log dir");
    dir
}

fn supervisor(name: &str, budget: u32) -> Supervisor {
    let mut cfg = SupervisorConfig::new(
        PathBuf::from(env!("CARGO_BIN_EXE_camelot-site")),
        SITES,
        "tcp",
        test_log_dir(name),
    );
    cfg.restart_budget = budget;
    // A blocking commit racing a partition install can stall for the
    // site's full call timeout; keep that bounded at test scale.
    cfg.extra.push("--call-timeout-ms".into());
    cfg.extra.push("4000".into());
    Supervisor::start(cfg).expect("start supervised cluster")
}

fn fund(sup: &mut Supervisor) {
    for id in 1..=SITES {
        let ctrl = sup.ctrl(SiteId(id)).expect("funding: site up");
        let tid = ctrl.begin().expect("begin");
        for a in 0..ACCOUNTS {
            ctrl.write(&tid, SRV, ObjectId(a), INITIAL.to_le_bytes().to_vec())
                .expect("fund");
        }
        assert!(ctrl.commit(&tid, false, vec![]).expect("funding commit"));
    }
}

/// A short burst of load: every site coordinates transfers between
/// rotating account pairs; failures are tolerated (faults are live).
/// Transfers run over a [`CtrlSession`] on the supervisor's address
/// board, so a respawned site is re-resolved on its new ports.
fn burst(sup: &mut Supervisor, rounds: u32, salt: u64) -> u32 {
    let mut session = CtrlSession::new(sup.board());
    let mut committed = 0;
    for t in 0..rounds {
        sup.poll();
        let x = salt
            .wrapping_add(t as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let coord = SiteId((t % SITES) + 1);
        let src = SiteId((x % SITES as u64) as u32 + 1);
        let dst = SiteId((src.0 % SITES) + 1);
        let src_acct = ObjectId((x >> 8) % ACCOUNTS);
        let dst_acct = ObjectId((x >> 16) % ACCOUNTS);
        let amount = ((x >> 24) % 15) as i64 + 1;
        let (from, to) = ((src, src_acct), (dst, dst_acct));
        match transfer(&mut session, coord, from, to, amount, CommitMode::TwoPhase) {
            Ok(true) => committed += 1,
            Ok(false) => {}
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    committed
}

fn heal_all(sup: &mut Supervisor) {
    for id in 1..=SITES {
        if let Some(ctrl) = sup.ctrl(SiteId(id)) {
            let _ = ctrl.heal();
        }
    }
}

fn quiesce(sup: &mut Supervisor) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        sup.poll();
        let busy = (1..=SITES).any(|id| match sup.ctrl(SiteId(id)) {
            Some(ctrl) => ctrl.debug_state().map(|d| !d.is_empty()).unwrap_or(true),
            None => true,
        });
        if !busy {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "cluster did not quiesce within 20s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Kill, partition, skew, heal — under load, with a conservation
/// audit and supervisor-reported restart counts at the end.
#[test]
fn supervised_cluster_survives_kill_partition_skew_heal_under_load() {
    let mut sup = supervisor("campaign", 5);
    fund(&mut sup);
    let mut committed = burst(&mut sup, 6, 1);

    // Kill a site mid-load; the supervisor respawns it on its WAL.
    assert!(sup.kill_site(SiteId(2)), "site 2 was up");
    committed += burst(&mut sup, 6, 2);
    assert!(
        sup.wait_all_up(Duration::from_secs(20)),
        "site 2 did not come back: {:?}",
        sup.failed_sites()
    );

    // Symmetric partition {1,2} | {3}: transfers crossing the cut
    // time out and abort; the rest keep committing.
    let (a, b) = ([SiteId(1), SiteId(2)], [SiteId(3)]);
    for id in 1..=SITES {
        if let Some(ctrl) = sup.ctrl(SiteId(id)) {
            ctrl.partition(&a, &b).expect("install partition");
        }
    }
    committed += burst(&mut sup, 6, 3);

    // Clock-skew site 2 to half-speed timers on top of the partition.
    for id in 1..=SITES {
        if let Some(ctrl) = sup.ctrl(SiteId(id)) {
            ctrl.set_skew(SiteId(2), 1500).expect("install skew");
        }
    }
    committed += burst(&mut sup, 6, 4);

    // Heal everything and let the protocols settle.
    heal_all(&mut sup);
    assert!(sup.wait_all_up(Duration::from_secs(20)));
    committed += burst(&mut sup, 6, 5);
    assert!(committed > 0, "no transfer committed across the campaign");
    quiesce(&mut sup);

    // Conservation: atomicity makes every commit/abort subset
    // conserve the funded total, kills and cuts included.
    let mut total = 0i64;
    for id in 1..=SITES {
        let ctrl = sup.ctrl(SiteId(id)).expect("audit: site up");
        for a in 0..ACCOUNTS {
            total += balance(&ctrl.committed_value(SRV, ObjectId(a)).expect("read"));
        }
    }
    assert_eq!(total, SITES as i64 * ACCOUNTS as i64 * INITIAL);

    // The supervisor's own control endpoint reports the campaign.
    let mut sup_ctrl = CtrlClient::connect(sup.ctrl_addr()).expect("supervisor ctrl");
    assert_eq!(sup_ctrl.ping().expect("ping"), SiteId(0));
    let counts = sup_ctrl.restart_stats().expect("restart stats");
    assert_eq!(counts.len(), SITES as usize);
    let site2 = counts.iter().find(|e| e.site == SiteId(2)).unwrap();
    assert!(
        site2.restarts >= 1,
        "killed site must have been restarted: {counts:?}"
    );
    sup.shutdown();
}

/// With a zero restart budget, a killed site is not respawned: the
/// supervisor marks it failed and serves the post-mortem.
#[test]
fn restart_budget_exhaustion_gives_up_with_post_mortem() {
    let mut sup = supervisor("budget", 0);
    assert!(sup.kill_site(SiteId(1)));
    let deadline = Instant::now() + Duration::from_secs(10);
    let failed = loop {
        sup.poll();
        let failed = sup.failed_sites();
        if !failed.is_empty() {
            break failed;
        }
        assert!(Instant::now() < deadline, "supervisor never gave up");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(failed[0].site, SiteId(1));
    assert!(
        failed[0].status.contains("signal") || failed[0].status.contains("9"),
        "post-mortem carries the exit status: {:?}",
        failed[0].status
    );
    // The other sites are untouched and the budget site stays down.
    assert!(sup.ctrl(SiteId(1)).is_none());
    assert!(sup.ctrl(SiteId(2)).is_some());
    let counts = sup.restart_counts();
    assert_eq!(
        counts
            .iter()
            .find(|e| e.site == SiteId(1))
            .unwrap()
            .restarts,
        0
    );
    sup.shutdown();
}
