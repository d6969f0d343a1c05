//! Non-blocking termination (paper §3.3, DESIGN §4.2), scripted on
//! `testkit::Net` one delivery at a time: shapes in which a site
//! joined both quorums, or a family stayed live after every site had
//! decided it.

use camelot::core::testkit::Net;
use camelot::core::{CommitMode, EngineConfig, Input, Outcome};
use camelot::net::TmMessage;
use camelot::types::{FamilyId, ObjectId, ServerId, SiteId, Tid};
use camelot::wal::record::QuorumKind;
use camelot::wal::LogRecord;

const S1: SiteId = SiteId(1);
const S2: SiteId = SiteId(2);
const S3: SiteId = SiteId(3);
const A: ServerId = ServerId(1);

/// The position of the first queued input that `pick` accepts.
fn find(net: &Net, pick: impl Fn(SiteId, &Input) -> bool) -> Option<usize> {
    (0..net.queue_len()).find(|&i| net.queued(i).is_some_and(|(s, inp)| pick(s, inp)))
}

/// Delivers the first queued input that `pick` accepts; false if none.
fn deliver(net: &mut Net, pick: impl Fn(SiteId, &Input) -> bool) -> bool {
    find(net, pick).is_some_and(|i| net.step_at(i))
}

/// Delivers queued inputs in order, except those `hold` keeps back,
/// until only held ones are left.
fn deliver_all_but(net: &mut Net, hold: impl Fn(SiteId, &Input) -> bool) {
    while deliver(net, |s, inp| !hold(s, inp)) {}
}

/// Fires the earliest pending timer and handles it.
fn fire_next(net: &mut Net) {
    assert!(net.fire_timer_at(0), "no timer pending");
    let last = net.queue_len() - 1;
    net.step_at(last);
}

fn datagram_to(site: SiteId, want: fn(&TmMessage) -> bool) -> impl Fn(SiteId, &Input) -> bool {
    move |s, inp| s == site && matches!(inp, Input::Datagram { msg, .. } if want(msg))
}

fn is_outcome(m: &TmMessage) -> bool {
    matches!(m, TmMessage::NbOutcome { .. })
}

fn is_replicate(m: &TmMessage) -> bool {
    matches!(m, TmMessage::NbReplicate { .. })
}

fn log_forced_at(site: SiteId) -> impl Fn(SiteId, &Input) -> bool {
    move |s, inp| s == site && matches!(inp, Input::LogForced { .. })
}

/// Lets every message flow and every timer run, with lazy records
/// flushed between rounds, until the cluster has nothing left to do.
fn settle(net: &mut Net) {
    net.auto_drain = true;
    net.drain();
    let sites: Vec<SiteId> = net.sites.keys().copied().collect();
    for _ in 0..3 {
        for &s in &sites {
            net.flush_lazy(s);
        }
        net.run_timers(500);
    }
}

/// The quorum kinds `site`'s durable log says it joined for `family`.
fn quorums_joined(net: &mut Net, site: SiteId, family: FamilyId) -> Vec<QuorumKind> {
    let wal = &mut net.sites.get_mut(&site).expect("site").wal;
    let mut kinds: Vec<QuorumKind> = (wal.recover().expect("recover").into_iter())
        .filter_map(|(_, r)| match r {
            LogRecord::NbQuorum { tid, kind } if tid.family == family => Some(kind),
            _ => None,
        })
        .collect();
    kinds.dedup();
    kinds
}

/// Crashes every site, restarts each from its log, and settles.
fn crash_all_and_recover(net: &mut Net) {
    let sites: Vec<SiteId> = net.sites.keys().copied().collect();
    for &s in &sites {
        net.crash(s);
    }
    for &s in &sites {
        net.restart(s, EngineConfig::default());
    }
    settle(net);
}

/// No up site's engine holds a family or an armed timer.
fn assert_quiet(net: &Net) {
    for (site, sb) in &net.sites {
        assert_eq!(
            (sb.engine.family_ids(), sb.engine.armed_timers()),
            (vec![], 0),
            "{site} still holds families / timers"
        );
    }
}

/// The coordinator S1 of a three-site non-blocking commit died after
/// sending its prepares: they reach S2 and S3, which prepare and vote
/// into the void.
fn prepare_survivors(net: &mut Net, tid: &Tid) {
    let info = camelot::net::msg::NbInfo {
        sites: vec![S1, S2, S3],
        yes_votes: vec![],
        commit_quorum: 2,
        abort_quorum: 2,
    };
    for s in [S2, S3] {
        let (tid, info) = (tid.clone(), info.clone());
        let msg = TmMessage::NbPrepare {
            tid,
            coordinator: S1,
            info,
        };
        net.inject(s, Input::Datagram { from: S1, msg });
    }
}

/// An update transaction from S1 over `sites`, each updating server A
/// and logging the update record the server reports (lazily, as the
/// runtime does), which tells a restart the family's servers.
fn update_txn(net: &mut Net, sites: &[SiteId]) -> Tid {
    let tid = net.begin(S1);
    for &s in sites {
        net.update_op(s, A, &tid);
        let rec = LogRecord::ServerUpdate {
            tid: tid.clone(),
            server: A,
            object: ObjectId(1),
            old: vec![],
            new: vec![1],
        };
        let wal = &mut net.sites.get_mut(&s).expect("site").wal;
        wal.append(&rec).expect("append");
    }
    tid
}

/// Two sites, commit quorum 2 and abort quorum 1. S2's outcome timer
/// fires before the coordinator's `NbReplicate` reaches it, so S2 is
/// already gathering as a takeover when it appends its commit-quorum
/// join; its takeover window then fires before that record's force
/// completes. A site that joined the commit quorum must not also join
/// the abort quorum, and every site must end on one outcome, across a
/// cluster-wide crash too.
#[test]
fn a_takeover_that_joined_the_commit_quorum_never_joins_the_abort_quorum() {
    let mut net = Net::new(2, EngineConfig::default());
    let tid = update_txn(&mut net, &[S1, S2]);
    net.auto_drain = false;
    net.commit(S1, &tid, CommitMode::NonBlocking, vec![S2]);
    // Phase one; the replication request to S2 is held back.
    deliver_all_but(&mut net, datagram_to(S2, is_replicate));
    // S2's outcome timer fires first: it starts a takeover.
    fire_next(&mut net);
    // The replication request arrives, and is duplicated on the way.
    let idx = find(&net, datagram_to(S2, is_replicate)).expect("replication request queued");
    net.dup_at(idx);
    net.step_at(idx);
    // The takeover window closes before the replication record's
    // force completes.
    fire_next(&mut net);
    // The force completes; the duplicate request is answered; S1 forces
    // its commit record before anything S2 announced reaches it.
    deliver(&mut net, log_forced_at(S2));
    deliver(&mut net, datagram_to(S2, is_replicate));
    deliver(&mut net, log_forced_at(S2));
    deliver(
        &mut net,
        datagram_to(S1, |m| matches!(m, TmMessage::NbReplicateAck { .. })),
    );
    deliver(
        &mut net,
        datagram_to(S1, |m| matches!(m, TmMessage::NbOutcome { .. })),
    );
    settle(&mut net);
    for site in [S1, S2] {
        let kinds = quorums_joined(&mut net, site, tid.family);
        assert!(kinds.len() <= 1, "{site} joined {kinds:?}");
    }
    crash_all_and_recover(&mut net);
    net.assert_agreement(&tid.family, Outcome::Committed, 2);
    assert_quiet(&net);
}

/// A local non-blocking commit crashes right after its begin record's
/// force. Recovery rebuilds a takeover over the one site, which decides
/// abort and has nobody to tell: the family must end there and then.
#[test]
fn a_takeover_with_nobody_to_tell_ends_the_family() {
    let mut net = Net::new(1, EngineConfig::default());
    let tid = update_txn(&mut net, &[S1]);
    net.auto_drain = false;
    net.commit(S1, &tid, CommitMode::NonBlocking, vec![]);
    deliver(&mut net, |_, inp| matches!(inp, Input::CommitTop { .. }));
    // The begin record is durable; its completion never runs.
    net.crash(S1);
    net.restart(S1, EngineConfig::default());
    settle(&mut net);
    assert_eq!(net.decision(S1, &tid.family), Some(Outcome::Aborted));
    assert_quiet(&net);
}

/// The shape of a coordinator that crashed after its begin record and
/// recovers to learn the survivors' abort, stepped so that the
/// survivors' announcer re-sends its outcome to the restarted
/// coordinator while the coordinator is announcing the same outcome to
/// it. Each announcer hears the other's outcome before its ack: both
/// must still finish and go quiet.
#[test]
fn crossing_announcements_both_finish() {
    let mut net = Net::new(3, EngineConfig::default());
    let tid = update_txn(&mut net, &[S1, S2, S3]);
    net.partition = vec![[S1].into(), [S2, S3].into()];
    net.commit(S1, &tid, CommitMode::NonBlocking, vec![S2, S3]);
    net.crash(S1);
    // The survivors take over and abort; the announcer keeps
    // re-sending to the dead S1.
    prepare_survivors(&mut net, &tid);
    net.run_timers(30);
    net.assert_agreement(&tid.family, Outcome::Aborted, 2);
    // S1 restarts as a takeover, learns the abort from the status
    // replies and announces it; its outcome notices are held back.
    net.partition.clear();
    net.auto_drain = false;
    net.restart(S1, EngineConfig::default());
    let any_outcome =
        |_: SiteId, inp: &Input| matches!(inp, Input::Datagram { msg, .. } if is_outcome(msg));
    deliver_all_but(&mut net, any_outcome);
    // The survivors' announcer re-sends its outcome to S1.
    let resend_to_s1 = |net: &Net| {
        (0..net.queue_len()).find_map(|i| match net.queued(i) {
            Some((S1, Input::Datagram { from, msg })) if is_outcome(msg) => Some(*from),
            _ => None,
        })
    };
    while resend_to_s1(&net).is_none() {
        fire_next(&mut net);
        deliver_all_but(&mut net, any_outcome);
    }
    let announcer = resend_to_s1(&net).expect("resend queued");
    // The two notices cross.
    assert!(deliver(&mut net, |s, inp| s == announcer && any_outcome(s, inp)));
    assert!(deliver(&mut net, |s, inp| s == S1 && any_outcome(s, inp)));
    settle(&mut net);
    net.assert_agreement(&tid.family, Outcome::Aborted, 3);
    assert_quiet(&net);
}

/// The coordinator forces its begin record and crashes before any
/// prepare arrives. Restarted from that record alone it takes over,
/// and every peer answers `Unknown`: they never prepared, so they are
/// free to join the abort quorum, and the family must not block
/// holding the coordinator's locks.
#[test]
fn a_restarted_coordinator_whose_peers_never_prepared_aborts() {
    let mut net = Net::new(3, EngineConfig::default());
    let tid = update_txn(&mut net, &[S1, S2, S3]);
    net.partition = vec![[S1].into(), [S2, S3].into()];
    net.commit(S1, &tid, CommitMode::NonBlocking, vec![S2, S3]);
    net.crash(S1);
    net.partition.clear();
    net.restart(S1, EngineConfig::default());
    settle(&mut net);
    net.assert_agreement(&tid.family, Outcome::Aborted, 3);
    assert!(
        net.server_aborted(S1, &tid),
        "the coordinator's locks let go"
    );
    assert_quiet(&net);
}

/// Both survivors of a crashed coordinator take over at once, and each
/// asks the other to join its abort quorum. A site may answer that it
/// joined only once its join record is durable: the asker counts the
/// answer toward a quorum, and a join lost in a crash would leave the
/// site free to join the commit quorum later.
#[test]
fn an_abort_join_is_answered_only_once_durable() {
    let mut net = Net::new(3, EngineConfig::default());
    let tid = update_txn(&mut net, &[S1, S2, S3]);
    net.partition = vec![[S1].into(), [S2, S3].into()];
    net.commit(S1, &tid, CommitMode::NonBlocking, vec![S2, S3]);
    net.crash(S1);
    net.partition.clear();
    net.auto_drain = false;
    prepare_survivors(&mut net, &tid);
    // One input at a time, timers in deadline order, until both
    // survivors have decided.
    let decided = |net: &Net| {
        [S2, S3]
            .iter()
            .all(|s| net.decision(*s, &tid.family).is_some())
    };
    for _ in 0..2_000 {
        if decided(&net) {
            break;
        }
        if net.queue_len() == 0 {
            assert!(net.fire_timer_at(0), "no timer pending");
            continue;
        }
        if let Some((
            _,
            Input::Datagram {
                from,
                msg: TmMessage::NbAbortJoinResp { joined: true, .. },
            },
        )) = net.queued(0)
        {
            let from = *from;
            let kinds = quorums_joined(&mut net, from, tid.family);
            assert_eq!(
                kinds,
                [QuorumKind::Abort],
                "{from} answered before its join was durable"
            );
        }
        net.step_at(0);
    }
    net.assert_agreement(&tid.family, Outcome::Aborted, 2);
    net.restart(S1, EngineConfig::default());
    settle(&mut net);
    net.assert_agreement(&tid.family, Outcome::Aborted, 3);
    assert_quiet(&net);
}

/// An announced outcome reaches a site where the family only executed:
/// the site never prepared, so its work was never in the vote. An abort
/// ends the family there at once — its servers let go and it
/// acknowledges — instead of after the orphan watchdog's interval. A
/// commit, decided without that work, is ignored.
#[test]
fn an_announced_outcome_at_a_site_still_executing() {
    for outcome in [Outcome::Aborted, Outcome::Committed] {
        let mut net = Net::new(2, EngineConfig::default());
        let tid = net.begin(S1);
        net.update_op(S2, A, &tid);
        net.auto_drain = false;
        let msg = TmMessage::NbOutcome {
            tid: tid.clone(),
            outcome,
        };
        net.inject(S2, Input::Datagram { from: S1, msg });
        assert!(deliver(&mut net, datagram_to(S2, is_outcome)));
        let is_ack = |m: &TmMessage| matches!(m, TmMessage::NbOutcomeAck { .. });
        let acked = find(&net, datagram_to(S1, is_ack)).is_some();
        let live = net.engine(S2).family_view(&tid.family).is_some();
        match outcome {
            Outcome::Aborted => {
                assert!(
                    net.server_aborted(S2, &tid),
                    "servers still hold the family"
                );
                assert!(acked && !live, "acked {acked}, still live {live}");
                assert_eq!(net.engine(S2).armed_timers(), 0);
            }
            Outcome::Committed => {
                assert!(!net.server_committed(S2, &tid));
                assert!(!acked && live, "acked {acked}, still live {live}");
            }
        }
    }
}

/// A duplicate of the coordinator's replication request arrives after
/// the family ended everywhere. It recreates the family at S2, which
/// joins the commit quorum, acknowledges to a coordinator that no
/// longer holds the family, and later takes over. Every other site
/// answers that it does not hold the family — the coordinator would
/// hold it until every site had resolved it — so S2, holding no
/// updates, forgets it instead of blocking for good.
#[test]
fn a_stale_replication_request_after_the_end_goes_quiet() {
    let mut net = Net::new(3, EngineConfig::default());
    let tid = update_txn(&mut net, &[S1, S2, S3]);
    let req = net.commit(S1, &tid, CommitMode::NonBlocking, vec![S2, S3]);
    settle(&mut net);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Committed));
    assert_quiet(&net);
    let info = camelot::net::msg::NbInfo {
        sites: vec![S1, S2, S3],
        yes_votes: vec![S1, S2, S3],
        commit_quorum: 2,
        abort_quorum: 2,
    };
    let msg = TmMessage::NbReplicate {
        tid: tid.clone(),
        info,
    };
    net.inject(S2, Input::Datagram { from: S1, msg });
    settle(&mut net);
    assert_quiet(&net);
    net.assert_agreement(&tid.family, Outcome::Committed, 3);
}
