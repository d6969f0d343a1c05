//! End-to-end supervision tests over real OS processes and sockets.
//!
//! The acceptance scenario for the self-healing cluster: a 3-site
//! supervised TCP cluster survives a scripted campaign of {kill,
//! partition {1,2}|{3}, clock-skew site 2, heal} *under load*, the
//! killed site recovers its WAL and rejoins, the conservation
//! invariant holds over the committed balances, and the supervisor
//! reports the restart counts. Two more tests pin when the supervisor
//! gives up on a site — its restart budget is spent, or it has no log
//! to recover from — and that a cluster with a dead site never counts
//! as quiet.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use camelot_node::procs::{Supervisor, SupervisorConfig};
use camelot_node::session::{fund, transfer, CommitMode, CtrlSession};
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

fn site_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_camelot-site"))
}

fn supervisor(name: &str, budget: u32) -> Supervisor {
    let mut cfg = SupervisorConfig::new(site_bin(), SITES, "tcp", test_log_dir(name));
    cfg.restart_budget = budget;
    // A blocking commit racing a partition install can stall for the
    // site's full call timeout; keep that bounded at test scale.
    cfg.extra.push("--call-timeout-ms".into());
    cfg.extra.push("4000".into());
    Supervisor::start(cfg).expect("start supervised cluster")
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

/// Kill, partition, skew, heal — under load, with a conservation
/// audit and supervisor-reported restart counts at the end.
#[test]
fn supervised_cluster_survives_kill_partition_skew_heal_under_load() {
    let mut sup = supervisor("campaign", 5);
    let mut session = CtrlSession::new(sup.board());
    for id in 1..=SITES {
        fund(&mut session, SiteId(id), ACCOUNTS, INITIAL).expect("fund");
    }
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
    sup.heal_all().expect("heal every site");
    assert!(sup.wait_all_up(Duration::from_secs(20)));
    committed += burst(&mut sup, 6, 5);
    assert!(committed > 0, "no transfer committed across the campaign");
    sup.quiesce(Duration::from_secs(20))
        .expect("cluster quiesces within 20s");

    // Conservation: atomicity makes every commit/abort subset
    // conserve the funded total, kills and cuts included.
    let ledger = session.ledger(SITES, ACCOUNTS).expect("audit read");
    assert_eq!(
        ledger.iter().sum::<i64>(),
        SITES as i64 * ACCOUNTS as i64 * INITIAL
    );

    // The supervisor reports the campaign.
    let counts = sup.restart_counts();
    assert_eq!(counts.len(), SITES as usize);
    assert_eq!(counts[1].0, SiteId(2));
    assert!(
        counts[1].1 >= 1,
        "killed site must have been restarted: {counts:?}"
    );
    sup.shutdown();
}

/// With a zero restart budget, a killed site is not respawned: the
/// supervisor marks it failed and serves the post-mortem, and the
/// cluster is not quiet while it is down.
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
    assert_eq!(sup.restart_counts()[0], (SiteId(1), 0));
    let busy = sup.quiesce(Duration::from_millis(200)).unwrap_err();
    assert_eq!(busy, "site 1 down");
    sup.shutdown();
}

/// A site with no WAL directory is never respawned, whatever its
/// budget: it would come back with an empty log. Its death marks it
/// failed, and `quiesce` names it instead of calling the cluster
/// settled.
#[test]
fn log_less_site_is_not_respawned_and_keeps_the_cluster_busy() {
    let cfg = SupervisorConfig::new(site_bin(), 2, "udp", None);
    assert_eq!(cfg.restart_budget, 5);
    let mut sup = Supervisor::start(cfg).expect("start log-less cluster");
    sup.quiesce(Duration::from_secs(10))
        .expect("an idle cluster is quiet");
    assert!(sup.kill_site(SiteId(2)));
    let busy = sup.quiesce(Duration::from_secs(2)).unwrap_err();
    assert_eq!(busy, "site 2 down");
    let failed = sup.failed_sites();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].site, SiteId(2));
    assert_eq!(sup.restart_counts(), [(SiteId(1), 0), (SiteId(2), 0)]);
    sup.shutdown();
}
