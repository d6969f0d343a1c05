//! Protocol tests: non-blocking commitment and its termination
//! protocol (paper §3.3).

use camelot_net::Outcome;
use camelot_types::{ServerId, SiteId};

use crate::config::{CommitMode, EngineConfig};
use crate::family::FamilyPhase;
use crate::testkit::Net;

const S1: SiteId = SiteId(1);
const S2: SiteId = SiteId(2);
const S3: SiteId = SiteId(3);
const S4: SiteId = SiteId(4);
const SRV: ServerId = ServerId(1);

fn net(n: u32) -> Net {
    Net::new(n, EngineConfig::default())
}

#[test]
fn local_nb_update_commit_forces_twice() {
    let mut net = net(1);
    let tid = net.begin(S1);
    net.update_op(S1, SRV, &tid);
    let req = net.commit(S1, &tid, CommitMode::NonBlocking, vec![]);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Committed));
    // Begin record + commit record.
    assert_eq!(net.forces(S1), 2);
    assert_eq!(net.engine(S1).live_families(), 0);
}

#[test]
fn local_nb_read_commit_is_cheap() {
    let mut net = net(1);
    let tid = net.begin(S1);
    net.read_op(S1, SRV, &tid);
    let req = net.commit(S1, &tid, CommitMode::NonBlocking, vec![]);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Committed));
    assert_eq!(net.engine(S1).stats().read_only_commits, 1);
}

#[test]
fn distributed_nb_update_commit() {
    let mut net = net(3);
    let tid = net.begin(S1);
    net.update_op(S1, SRV, &tid);
    net.update_op(S2, SRV, &tid);
    net.update_op(S3, SRV, &tid);
    let req = net.commit(S1, &tid, CommitMode::NonBlocking, vec![S2, S3]);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Committed));
    assert!(net.server_committed(S2, &tid));
    assert!(net.server_committed(S3, &tid));
    // Each subordinate forces exactly two records: prepared and
    // replication (the outcome record is lazy) — the paper's "each
    // site forces two log records".
    assert_eq!(net.forces(S2), 2);
    assert_eq!(net.forces(S3), 2);
    // Coordinator: begin + commit.
    assert_eq!(net.forces(S1), 2);
    // Everyone resolved identically.
    net.assert_agreement(&tid.family, Outcome::Committed, 3);
    // Cleanup completes after lazy records and piggybacked acks flush.
    net.flush_lazy(S2);
    net.flush_lazy(S3);
    net.run_timers(6);
    for s in [S1, S2, S3] {
        assert_eq!(net.engine(s).live_families(), 0, "{s} cleaned up");
    }
}

#[test]
fn nb_read_only_subordinate_skips_replication() {
    let mut net = net(3);
    let tid = net.begin(S1);
    net.update_op(S1, SRV, &tid);
    net.update_op(S2, SRV, &tid);
    net.read_op(S3, SRV, &tid);
    let req = net.commit(S1, &tid, CommitMode::NonBlocking, vec![S2, S3]);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Committed));
    // Population is 3, commit quorum 2: the coordinator plus the one
    // update subordinate suffice; the read-only site writes nothing.
    assert_eq!(net.forces(S3), 0, "read-only site recruited unnecessarily");
    assert!(net.server_committed(S3, &tid));
}

#[test]
fn nb_recruits_read_only_site_when_quorum_demands() {
    // 4 sites, 1 update subordinate: quorum is 3, so one read-only
    // subordinate must hold the replication record ("often need not
    // participate" — but not here).
    let mut net = net(4);
    let tid = net.begin(S1);
    net.update_op(S1, SRV, &tid);
    net.update_op(S2, SRV, &tid);
    net.read_op(S3, SRV, &tid);
    net.read_op(S4, SRV, &tid);
    let req = net.commit(S1, &tid, CommitMode::NonBlocking, vec![S2, S3, S4]);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Committed));
    let ro_forces = net.forces(S3) + net.forces(S4);
    assert_eq!(ro_forces, 1, "exactly one read-only site recruited");
}

#[test]
fn fully_read_only_nb_commit_matches_two_phase_path() {
    let mut net = net(3);
    let tid = net.begin(S1);
    net.read_op(S1, SRV, &tid);
    net.read_op(S2, SRV, &tid);
    net.read_op(S3, SRV, &tid);
    let req = net.commit(S1, &tid, CommitMode::NonBlocking, vec![S2, S3]);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Committed));
    // Subordinates write nothing; the only force is the coordinator's
    // begin record, which is off the critical path.
    assert_eq!(net.forces(S2), 0);
    assert_eq!(net.forces(S3), 0);
}

#[test]
fn nb_veto_aborts_everywhere() {
    let mut net = net(3);
    let tid = net.begin(S1);
    net.update_op(S1, SRV, &tid);
    net.update_op(S2, SRV, &tid);
    net.veto_op(S3, SRV, &tid);
    let req = net.commit(S1, &tid, CommitMode::NonBlocking, vec![S2, S3]);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Aborted));
    net.assert_no_conflict(&tid.family);
    assert!(net.server_aborted(S1, &tid));
    // A subordinate acknowledges the abort once its record is durable.
    net.flush_lazy(S2);
    net.run_timers(10);
    for s in [S1, S2, S3] {
        assert_eq!(
            net.engine(s).live_families(),
            0,
            "{s} cleaned up after abort"
        );
    }
}

// =====================================================================
// Failure cases: the whole point of the protocol
// =====================================================================

/// Drives a 3-site update transaction up to the point where every
/// subordinate is prepared, with the coordinator partitioned away
/// before it can send the replication message.
fn nb_prepared_then_lose_coordinator() -> (camelot_types::Tid, Net) {
    let mut net = net(3);
    let tid = net.begin(S1);
    net.update_op(S1, SRV, &tid);
    net.update_op(S2, SRV, &tid);
    net.update_op(S3, SRV, &tid);
    // Deliver prepares manually so the votes reach a coordinator that
    // is about to die: inject NbPrepare directly at subs with the real
    // info, then crash S1 before it processes the votes.
    let info = camelot_net::msg::NbInfo {
        sites: vec![S1, S2, S3],
        yes_votes: vec![],
        commit_quorum: 2,
        abort_quorum: 2,
    };
    net.crash(S1); // Coordinator dies before ever sending prepares...
    for s in [S2, S3] {
        net.inject(
            s,
            crate::io::Input::Datagram {
                from: S1,
                msg: camelot_net::TmMessage::NbPrepare {
                    tid: tid.clone(),
                    coordinator: S1,
                    info: info.clone(),
                },
            },
        );
    }
    // Subs prepared and voted (votes vanished into the crash).
    for s in [S2, S3] {
        let v = net.engine(s).family_view(&tid.family).expect("family live");
        assert_eq!(v.phase, FamilyPhase::Prepared, "{s}");
    }
    (tid, net)
}

#[test]
fn coordinator_crash_before_replication_aborts_via_takeover() {
    // No site holds the replication record, so the takeover must
    // assemble an *abort* quorum — commit would be unsafe (the vote
    // may never have completed).
    let (tid, mut net) = nb_prepared_then_lose_coordinator();
    // Outcome timers fire; a subordinate becomes coordinator, gathers
    // statuses, recruits the abort quorum, announces.
    net.run_timers(30);
    assert_eq!(net.decision(S2, &tid.family), Some(Outcome::Aborted));
    assert_eq!(net.decision(S3, &tid.family), Some(Outcome::Aborted));
    net.assert_no_conflict(&tid.family);
    assert!(net.server_aborted(S2, &tid), "locks released — not blocked");
    assert!(net.server_aborted(S3, &tid));
    assert!(net.engine(S2).stats().takeovers + net.engine(S3).stats().takeovers >= 1);
}

#[test]
fn crashed_coordinator_recovers_and_learns_abort() {
    // The coordinator durably logs its begin record (change 5), sends
    // prepares that never arrive (partition), and crashes. The
    // survivors abort via takeover. On restart, the begin record puts
    // the coordinator back into the protocol as a takeover
    // coordinator, and it adopts the abort.
    let mut net = net(3);
    let tid = net.begin(S1);
    net.update_op(S1, SRV, &tid);
    net.update_op(S2, SRV, &tid);
    net.update_op(S3, SRV, &tid);
    net.partition = vec![[S1].into(), [S2, S3].into()];
    net.commit(S1, &tid, CommitMode::NonBlocking, vec![S2, S3]);
    net.crash(S1); // Begin record is durable; votes never collected.
                   // Deliver the prepares the coordinator sent before the partition
                   // swallowed them (as if they were in flight).
    let info = camelot_net::msg::NbInfo {
        sites: vec![S1, S2, S3],
        yes_votes: vec![],
        commit_quorum: 2,
        abort_quorum: 2,
    };
    for s in [S2, S3] {
        net.inject(
            s,
            crate::io::Input::Datagram {
                from: S1,
                msg: camelot_net::TmMessage::NbPrepare {
                    tid: tid.clone(),
                    coordinator: S1,
                    info: info.clone(),
                },
            },
        );
    }
    net.run_timers(30);
    net.assert_agreement(&tid.family, Outcome::Aborted, 2);
    // Restart: recovery finds NbBegin without an outcome.
    net.partition.clear();
    net.restart(S1, EngineConfig::default());
    net.run_timers(20);
    assert_eq!(net.decision(S1, &tid.family), Some(Outcome::Aborted));
    net.assert_no_conflict(&tid.family);
}

#[test]
fn coordinator_crash_after_replication_commits_via_takeover() {
    // Drive a real commit up to the replication phase, then crash the
    // coordinator before it can announce. The replicated subordinates
    // must finish the commit.
    let mut net = net(3);
    let tid = net.begin(S1);
    net.update_op(S1, SRV, &tid);
    net.update_op(S2, SRV, &tid);
    net.update_op(S3, SRV, &tid);
    // Run the full protocol (harness is instantaneous), but emulate
    // the crash window by re-injecting replication state: instead,
    // inject NbReplicate directly — subordinates force the record and
    // believe the vote completed.
    let info = camelot_net::msg::NbInfo {
        sites: vec![S1, S2, S3],
        yes_votes: vec![S1, S2, S3],
        commit_quorum: 2,
        abort_quorum: 2,
    };
    net.crash(S1);
    for s in [S2, S3] {
        net.inject(
            s,
            crate::io::Input::Datagram {
                from: S1,
                msg: camelot_net::TmMessage::NbPrepare {
                    tid: tid.clone(),
                    coordinator: S1,
                    info: info.clone(),
                },
            },
        );
        net.inject(
            s,
            crate::io::Input::Datagram {
                from: S1,
                msg: camelot_net::TmMessage::NbReplicate {
                    tid: tid.clone(),
                    info: info.clone(),
                },
            },
        );
    }
    for s in [S2, S3] {
        let v = net.engine(s).family_view(&tid.family).expect("family live");
        assert_eq!(v.phase, FamilyPhase::Replicated, "{s}");
    }
    // Takeover: two replicated sites form the commit quorum (Vc = 2).
    net.run_timers(40);
    assert_eq!(net.decision(S2, &tid.family), Some(Outcome::Committed));
    assert_eq!(net.decision(S3, &tid.family), Some(Outcome::Committed));
    net.assert_no_conflict(&tid.family);
    assert!(net.server_committed(S2, &tid));
    assert!(net.server_committed(S3, &tid));
}

#[test]
fn single_replicated_site_recruits_prepared_peer_and_commits() {
    // Only one subordinate got the replication record before the
    // coordinator died; the other is merely prepared. The takeover
    // must recruit the prepared site into the commit quorum (safe:
    // a replication record proves the vote completed).
    let mut net = net(3);
    let tid = net.begin(S1);
    net.update_op(S2, SRV, &tid);
    net.update_op(S3, SRV, &tid);
    let info = camelot_net::msg::NbInfo {
        sites: vec![S1, S2, S3],
        yes_votes: vec![S1, S2, S3],
        commit_quorum: 2,
        abort_quorum: 2,
    };
    net.crash(S1);
    for s in [S2, S3] {
        net.inject(
            s,
            crate::io::Input::Datagram {
                from: S1,
                msg: camelot_net::TmMessage::NbPrepare {
                    tid: tid.clone(),
                    coordinator: S1,
                    info: info.clone(),
                },
            },
        );
    }
    // Only S2 reaches the replication phase.
    net.inject(
        S2,
        crate::io::Input::Datagram {
            from: S1,
            msg: camelot_net::TmMessage::NbReplicate {
                tid: tid.clone(),
                info: info.clone(),
            },
        },
    );
    net.run_timers(40);
    assert_eq!(net.decision(S2, &tid.family), Some(Outcome::Committed));
    assert_eq!(net.decision(S3, &tid.family), Some(Outcome::Committed));
    net.assert_no_conflict(&tid.family);
}

#[test]
fn partitioned_minority_blocks_instead_of_deciding() {
    // Two failures' worth of damage: coordinator dead AND the two
    // survivors partitioned from each other. Neither can assemble a
    // quorum (Vc = Va = 2): both must block — never decide.
    let (tid, mut net) = nb_prepared_then_lose_coordinator();
    net.partition = vec![[S2].into(), [S3].into()];
    net.run_timers(25);
    assert!(
        net.decision(S2, &tid.family).is_none(),
        "S2 must not decide"
    );
    assert!(
        net.decision(S3, &tid.family).is_none(),
        "S3 must not decide"
    );
    let blocked = net.engine(S2).stats().blocked + net.engine(S3).stats().blocked;
    assert!(blocked >= 1, "takeover must report blocking");
    // Heal the partition: the retry round now succeeds and both agree.
    net.partition.clear();
    net.run_timers(40);
    net.assert_agreement(&tid.family, Outcome::Aborted, 2);
}

#[test]
fn concurrent_takeovers_agree() {
    // Both survivors time out simultaneously and run takeovers
    // against each other ("having several simultaneous coordinators
    // is possible, but is not a problem").
    let (tid, mut net) = nb_prepared_then_lose_coordinator();
    // Fire both outcome timers back-to-back before any drain of the
    // status traffic: the harness processes each injection to
    // quiescence, which interleaves the two takeovers' messages.
    net.run_timers(60);
    net.assert_agreement(&tid.family, Outcome::Aborted, 2);
}

#[test]
fn replicated_subordinate_crash_and_recovery_resumes_takeover() {
    // A replicated subordinate crashes; on restart its replication
    // record puts it back into the quorum and it finishes the
    // transaction with its peer.
    let mut net = net(3);
    let tid = net.begin(S1);
    net.update_op(S2, SRV, &tid);
    net.update_op(S3, SRV, &tid);
    let info = camelot_net::msg::NbInfo {
        sites: vec![S1, S2, S3],
        yes_votes: vec![S1, S2, S3],
        commit_quorum: 2,
        abort_quorum: 2,
    };
    net.crash(S1);
    for s in [S2, S3] {
        net.inject(
            s,
            crate::io::Input::Datagram {
                from: S1,
                msg: camelot_net::TmMessage::NbPrepare {
                    tid: tid.clone(),
                    coordinator: S1,
                    info: info.clone(),
                },
            },
        );
        net.inject(
            s,
            crate::io::Input::Datagram {
                from: S1,
                msg: camelot_net::TmMessage::NbReplicate {
                    tid: tid.clone(),
                    info: info.clone(),
                },
            },
        );
    }
    // S3 crashes too; S2 alone cannot... wait, S2 + S3's durable
    // replication records both exist, but S3 is down: S2 has its own
    // record and knows S3 replicated only after asking. With S3 down,
    // S2 alone (1 < Vc=2) blocks. Restart S3: both recover and commit.
    net.crash(S3);
    net.run_timers(15);
    assert!(net.decision(S2, &tid.family).is_none(), "S2 blocked alone");
    net.restart(S3, EngineConfig::default());
    net.run_timers(40);
    net.assert_agreement(&tid.family, Outcome::Committed, 2);
}

#[test]
fn no_split_brain_under_any_single_crash_point() {
    // Sweep the crash of the coordinator across "after k protocol
    // steps" by crashing it after k timer firings of a normal run,
    // then always: no two sites may resolve differently.
    for k in 0..6 {
        let mut net = net(3);
        let tid = net.begin(S1);
        net.update_op(S1, SRV, &tid);
        net.update_op(S2, SRV, &tid);
        net.update_op(S3, SRV, &tid);
        net.commit(S1, &tid, CommitMode::NonBlocking, vec![S2, S3]);
        // The harness completes the happy path synchronously; crash
        // the coordinator at various cleanup stages and let the rest
        // settle.
        for _ in 0..k {
            net.fire_next_timer();
        }
        net.crash(S1);
        net.run_timers(50);
        net.assert_no_conflict(&tid.family);
        // Survivors must have decided (commit happened before the
        // crash since the harness is instantaneous).
        net.assert_agreement(&tid.family, Outcome::Committed, 2);
    }
}

/// A coordinator that was slow, not crashed, hears the outcome a
/// takeover decided while it still collected votes. It adopts the
/// outcome the way a takeover does: it answers the application, falls
/// back to a subordinate, acknowledges once its abort record is
/// durable, and keeps the outcome as a tombstone until the forget
/// note, which it logs.
#[test]
fn a_slow_coordinator_adopts_a_takeover_outcome_as_a_tombstone() {
    use crate::engine::Engine;
    use crate::io::{Action, Input};
    use camelot_net::TmMessage;
    use camelot_types::Time;
    use camelot_wal::LogRecord;

    let mut e = Engine::new(S1, EngineConfig::default());
    let tid = match &e.handle(Input::Begin { req: 1 }, Time::ZERO)[0] {
        Action::Began { tid, .. } => tid.clone(),
        other => panic!("{other:?}"),
    };
    let server = SRV;
    e.handle(
        Input::Join {
            tid: tid.clone(),
            server,
        },
        Time::ZERO,
    );
    let commit = Input::CommitTop {
        req: 2,
        tid: tid.clone(),
        mode: CommitMode::NonBlocking,
        participants: vec![S2, S3],
    };
    e.handle(commit, Time::ZERO);
    let outcome = Outcome::Aborted;
    let msg = TmMessage::NbOutcome {
        tid: tid.clone(),
        outcome,
    };
    let a = e.handle(Input::Datagram { from: S2, msg }, Time::ZERO);
    assert!(a.iter().any(|x| matches!(
        x,
        Action::Resolved {
            req: 2,
            outcome: Outcome::Aborted,
            ..
        }
    )));
    // The abort record is lazy; the ack goes once it is durable.
    let token = a.iter().find_map(|x| match x {
        Action::AppendNotify {
            rec: LogRecord::Abort { .. },
            token,
        } => Some(*token),
        _ => None,
    });
    let a = e.handle(
        Input::LogDurable {
            token: token.unwrap(),
        },
        Time::ZERO,
    );
    assert!(a.iter().any(|x| matches!(
        x,
        Action::Send {
            to: S2,
            msg: TmMessage::NbOutcomeAck { .. },
            ..
        }
    )));
    let view = e.family_view(&tid.family).expect("tombstone");
    assert_eq!(
        (view.role, view.phase),
        ("nb-subordinate", FamilyPhase::Resolving)
    );
    let msg = TmMessage::NbForget { tid: tid.clone() };
    let a = e.handle(Input::Datagram { from: S2, msg }, Time::ZERO);
    assert!(a.iter().any(|x| matches!(
        x,
        Action::Append {
            rec: LogRecord::End { .. }
        }
    )));
    assert_eq!(e.live_families(), 0);
}
