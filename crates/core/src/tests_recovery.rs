//! Protocol tests: restart recovery of transaction-manager state
//! (`Engine::recover`) for every log shape the protocols can leave
//! behind.

use camelot_net::{Outcome, TmMessage};
use camelot_types::{FamilyId, ServerId, SiteId, Tid};
use camelot_wal::record::ReplicationInfo;
use camelot_wal::LogRecord;

use crate::config::{CommitMode, EngineConfig};
use crate::engine::Engine;
use crate::family::FamilyPhase;
use crate::io::{Action, Input};
use crate::testkit::{decided_by, logged_outcomes, Net};

const S1: SiteId = SiteId(1);
const S2: SiteId = SiteId(2);
const SRV: ServerId = ServerId(1);

fn recover(site: SiteId, recs: Vec<LogRecord>) -> (Engine, Vec<Action>) {
    let records: Vec<(camelot_types::Lsn, LogRecord)> = recs
        .into_iter()
        .enumerate()
        .map(|(i, r)| (camelot_types::Lsn(i as u64 * 100), r))
        .collect();
    Engine::recover(site, EngineConfig::default(), &records)
}

fn tid(origin: u32, seq: u64) -> Tid {
    Tid::top_level(FamilyId {
        origin: SiteId(origin),
        seq,
    })
}

#[test]
fn empty_log_recovers_empty_engine() {
    let (engine, actions) = recover(S1, vec![]);
    assert_eq!(engine.live_families(), 0);
    assert!(actions.is_empty());
}

#[test]
fn committed_with_end_record_needs_nothing() {
    let t = tid(1, 1);
    let log = vec![
        LogRecord::Commit {
            tid: t.clone(),
            subs: vec![S2],
        },
        LogRecord::End { tid: t.clone() },
    ];
    let (engine, actions) = recover(S1, log.clone());
    assert_eq!(engine.live_families(), 0);
    assert!(actions.is_empty());
    assert_eq!(
        logged_outcomes(&log).get(&t.family),
        Some(&Outcome::Committed)
    );
}

#[test]
fn coordinator_mid_notify_resends_commit() {
    let t = tid(1, 2);
    let (engine, actions) = recover(
        S1,
        vec![LogRecord::Commit {
            tid: t.clone(),
            subs: vec![S2],
        }],
    );
    assert_eq!(engine.live_families(), 1);
    // It must re-announce the commit to the unacked subordinate and
    // arm the resend timer.
    assert!(actions.iter().any(|a| matches!(
        a,
        Action::Send { to, msg: TmMessage::Commit { .. }, .. } if *to == S2
    )));
    assert!(actions.iter().any(|a| matches!(a, Action::SetTimer { .. })));
}

#[test]
fn prepared_subordinate_inquires() {
    let t = tid(2, 3); // Family origin is site 2: that's the coordinator.
    let (engine, actions) = recover(
        S1,
        vec![
            LogRecord::ServerUpdate {
                tid: t.clone(),
                server: SRV,
                object: camelot_types::ObjectId(1),
                old: vec![],
                new: vec![1],
            },
            LogRecord::Prepared {
                tid: t.clone(),
                coordinator: S2,
            },
        ],
    );
    assert_eq!(engine.live_families(), 1);
    assert!(actions.iter().any(|a| matches!(
        a,
        Action::Send { to, msg: TmMessage::Inquire { .. }, .. } if *to == S2
    )));
}

#[test]
fn active_unprepared_transaction_presumed_aborted() {
    let t = tid(2, 4);
    let log = vec![LogRecord::ServerUpdate {
        tid: t.clone(),
        server: SRV,
        object: camelot_types::ObjectId(1),
        old: vec![],
        new: vec![1],
    }];
    let (engine, actions) = recover(S1, log.clone());
    // Its part died in the crash: no role, no outcome, no record.
    assert_eq!(engine.live_families(), 0);
    assert_eq!(logged_outcomes(&log).get(&t.family), None);
    assert!(actions.is_empty(), "{actions:?}");
}

#[test]
fn nb_replicated_subordinate_arms_takeover_timer() {
    let t = tid(2, 5);
    let info = ReplicationInfo {
        sites: vec![S2, S1],
        yes_votes: vec![S2, S1],
        commit_quorum: 2,
        abort_quorum: 1,
    };
    let (engine, actions) = recover(
        S1,
        vec![
            LogRecord::NbPrepared {
                tid: t.clone(),
                coordinator: S2,
                sites: vec![S2, S1],
            },
            LogRecord::NbReplicate {
                tid: t.clone(),
                info,
            },
        ],
    );
    assert_eq!(engine.live_families(), 1);
    let v = engine.family_view(&t.family).unwrap();
    assert_eq!(v.phase, crate::family::FamilyPhase::Replicated);
    assert!(actions.iter().any(|a| matches!(a, Action::SetTimer { .. })));
}

#[test]
fn nb_coordinator_mid_protocol_starts_takeover() {
    let t = tid(1, 6);
    let info = ReplicationInfo {
        sites: vec![S1, S2],
        yes_votes: vec![],
        commit_quorum: 2,
        abort_quorum: 1,
    };
    let (engine, actions) = recover(
        S1,
        vec![LogRecord::NbBegin {
            tid: t.clone(),
            info,
        }],
    );
    assert_eq!(engine.live_families(), 1);
    let v = engine.family_view(&t.family).unwrap();
    assert_eq!(v.role, "nb-takeover");
    // It asks the other participant for status.
    assert!(actions.iter().any(|a| matches!(
        a,
        Action::Send { to, msg: TmMessage::NbStatusReq { .. }, .. } if *to == S2
    )));
}

/// A non-blocking subordinate that resolved the family keeps its
/// tombstone across a restart until the forget note is in its log:
/// rebuilt, it acknowledges the outcome again at once and keeps its
/// outcome timer. With the note logged, nothing is owed.
#[test]
fn a_resolved_nb_subordinate_is_rebuilt_until_its_forget_note() {
    let t = tid(2, 5);
    let info = ReplicationInfo {
        sites: vec![S2, S1],
        yes_votes: vec![S2, S1],
        commit_quorum: 2,
        abort_quorum: 1,
    };
    let mut log = vec![
        LogRecord::NbPrepared {
            tid: t.clone(),
            coordinator: S2,
            sites: vec![S2, S1],
        },
        LogRecord::NbReplicate {
            tid: t.clone(),
            info,
        },
        LogRecord::Commit {
            tid: t.clone(),
            subs: vec![],
        },
    ];
    let (engine, actions) = recover(S1, log.clone());
    let v = engine.family_view(&t.family).expect("tombstone");
    assert_eq!(
        (v.role, v.phase),
        ("nb-subordinate", FamilyPhase::Resolving)
    );
    assert!(actions.iter().any(|a| matches!(
        a,
        Action::Send { to, msg: TmMessage::NbOutcomeAck { from, .. }, .. }
            if *to == S2 && *from == S1
    )));
    assert!(actions.iter().any(|a| matches!(a, Action::SetTimer { .. })));
    log.push(LogRecord::End { tid: t.clone() });
    let (engine, actions) = recover(S1, log);
    assert_eq!(engine.live_families(), 0);
    assert!(actions.is_empty(), "{actions:?}");
}

/// A non-blocking coordinator that aborted and had not ended the
/// family re-announces the abort to every other site.
#[test]
fn an_nb_coordinator_re_announces_its_abort() {
    let t = tid(1, 6);
    let info = ReplicationInfo {
        sites: vec![S1, S2],
        yes_votes: vec![],
        commit_quorum: 2,
        abort_quorum: 1,
    };
    let log = vec![
        LogRecord::NbBegin {
            tid: t.clone(),
            info,
        },
        LogRecord::Abort { tid: t.clone() },
    ];
    let (engine, actions) = recover(S1, log);
    assert_eq!(engine.family_view(&t.family).unwrap().role, "announcing");
    assert!(actions.iter().any(|a| matches!(
        a,
        Action::Send {
            to: S2,
            msg: TmMessage::NbOutcome {
                outcome: Outcome::Aborted,
                ..
            },
            ..
        }
    )));
}

#[test]
fn family_sequence_not_reused_after_restart() {
    let t = tid(1, 41);
    let (mut engine, _) = recover(
        S1,
        vec![
            LogRecord::Commit {
                tid: t,
                subs: vec![],
            },
            LogRecord::End { tid: tid(1, 41) },
        ],
    );
    let actions = engine.handle(Input::Begin { req: 1 }, camelot_types::Time::ZERO);
    match &actions[0] {
        Action::Began { tid, .. } => {
            assert!(
                tid.family.seq > 41,
                "sequence must move past the log: {tid}"
            );
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn full_cycle_crash_all_sites_and_recover() {
    // End-to-end through the testkit: commit distributed, crash BOTH
    // sites, restart both, and check recovered engines are consistent
    // and quiescent.
    let mut net = Net::new(2, EngineConfig::default());
    let tid = net.begin(S1);
    net.update_op(S1, SRV, &tid);
    net.update_op(S2, SRV, &tid);
    let req = net.commit(S1, &tid, CommitMode::TwoPhase, vec![S2]);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Committed));
    net.crash(S1);
    net.crash(S2);
    net.restart(S1, EngineConfig::default());
    net.restart(S2, EngineConfig::default());
    net.run_timers(30);
    // The coordinator's commit record was forced, so it re-announces;
    // the subordinate either still knows (prepared record) or treats
    // the commit notice idempotently. Nobody may think "aborted".
    net.assert_no_conflict(&tid.family);
    assert_eq!(net.decision(S1, &tid.family), Some(Outcome::Committed));
}

#[test]
fn delayed_commit_every_subordinate_crash_point_recovers() {
    // The delayed-commit path (Optimized): the subordinate forces its
    // prepared record, votes, drops its locks on the commit notice
    // *before* the commit record is durable, appends that record
    // lazily, and acks once it is. Crash the subordinate just before
    // each input it would process — prepare, log completions, commit
    // notice — and check every crash point converges after recovery
    // with no split brain.
    for crash_before in 0..8 {
        let mut net = Net::new(2, EngineConfig::default());
        let tid = net.begin(S1);
        net.update_op(S1, SRV, &tid);
        net.update_op(S2, SRV, &tid);
        net.auto_drain = false;
        let req = net.commit(S1, &tid, CommitMode::TwoPhase, vec![S2]);
        let mut inputs_to_s2 = 0;
        let mut crashed = false;
        while let Some((site, _)) = net.queued(0) {
            if site == S2 && !crashed {
                if inputs_to_s2 == crash_before {
                    net.crash(S2);
                    crashed = true;
                }
                inputs_to_s2 += 1;
            }
            net.step_at(0);
        }
        // What the application was told before any recovery ran binds
        // the final state.
        let committed_pre = net.outcome_of(S1, req) == Some(Outcome::Committed);
        if crashed {
            net.restart(S2, EngineConfig::default());
        }
        net.auto_drain = true;
        net.drain();
        for _ in 0..3 {
            net.flush_lazy(S1);
            net.flush_lazy(S2);
            net.run_timers(100);
        }
        net.assert_no_conflict(&tid.family);
        if committed_pre {
            assert_eq!(
                net.decision(S2, &tid.family),
                Some(Outcome::Committed),
                "crash point {crash_before}: subordinate lost a commit \
                 the coordinator answered"
            );
        }
        assert!(
            net.decision(S1, &tid.family).is_some(),
            "crash point {crash_before}: coordinator never resolved"
        );
    }
}

#[test]
fn delayed_commit_lazy_record_lost_reinquires_and_recommits() {
    // Crash point unique to delayed commit: the subordinate dropped
    // its locks on the commit notice (its commit ServerResolve issued)
    // but died before the lazily-appended commit record reached the
    // platter. The surviving log says only "prepared": recovery must
    // inquire, and on learning the commit resolve the servers again so
    // the recovered data server redoes the family.
    let t = tid(2, 7);
    let (mut engine, actions) = recover(
        S1,
        vec![
            LogRecord::ServerUpdate {
                tid: t.clone(),
                server: SRV,
                object: camelot_types::ObjectId(9),
                old: vec![],
                new: vec![7],
            },
            LogRecord::Prepared {
                tid: t.clone(),
                coordinator: S2,
            },
        ],
    );
    assert!(actions.iter().any(|a| matches!(
        a,
        Action::Send { to, msg: TmMessage::Inquire { .. }, .. } if *to == S2
    )));
    let out = engine.handle(
        Input::Datagram {
            from: S2,
            msg: TmMessage::InquireResp {
                tid: t.clone(),
                outcome: Outcome::Committed,
            },
        },
        camelot_types::Time::ZERO,
    );
    assert!(
        out.iter().any(|a| matches!(
            a,
            Action::ServerResolve {
                outcome: Outcome::Committed,
                ..
            }
        )),
        "recovered subordinate must re-notify its servers: {out:?}"
    );
    assert!(out
        .iter()
        .any(|a| decided_by(a) == Some((t.family, Outcome::Committed))));
}

#[test]
fn delayed_commit_durable_record_ack_lost_reacks_resend() {
    // Crash point just past the last: the lazy commit record DID
    // become durable, but the piggybacked ack never left. Recovery
    // needs no role for the family (nothing is owed locally), and the
    // coordinator's commit-notice resend is re-acked from the
    // recorded resolution.
    let t = tid(2, 8);
    let log = vec![
        LogRecord::ServerUpdate {
            tid: t.clone(),
            server: SRV,
            object: camelot_types::ObjectId(9),
            old: vec![],
            new: vec![8],
        },
        LogRecord::Prepared {
            tid: t.clone(),
            coordinator: S2,
        },
        LogRecord::Commit {
            tid: t.clone(),
            subs: vec![],
        },
    ];
    let (mut engine, actions) = recover(S1, log.clone());
    assert_eq!(engine.live_families(), 0);
    assert_eq!(
        logged_outcomes(&log).get(&t.family),
        Some(&Outcome::Committed)
    );
    assert!(actions.is_empty(), "nothing owed at recovery: {actions:?}");
    // The coordinator resends its commit notice; the ack must come
    // back (directly, or after the piggyback delay timer fires).
    let out = engine.handle(
        Input::Datagram {
            from: S2,
            msg: TmMessage::Commit { tid: t.clone() },
        },
        camelot_types::Time::ZERO,
    );
    let acked_now = out.iter().any(|a| {
        matches!(
            a,
            Action::Send { to, msg: TmMessage::CommitAck { .. }, .. } if *to == S2
        )
    });
    if !acked_now {
        // Optimized piggybacks acks behind a short timer.
        let token = out
            .iter()
            .find_map(|a| match a {
                Action::SetTimer { token, .. } => Some(*token),
                _ => None,
            })
            .expect("no ack and no piggyback timer");
        let out2 = engine.handle(Input::TimerFired { token }, camelot_types::Time::ZERO);
        assert!(
            out2.iter().any(|a| matches!(
                a,
                Action::Send { to, msg: TmMessage::CommitAck { .. }, .. } if *to == S2
            )),
            "piggyback timer fired but no ack: {out2:?}"
        );
    }
}

#[test]
fn subordinate_crash_after_prepare_recovers_to_commit() {
    // The subordinate prepares (forced), crashes before the commit
    // notice, restarts, inquires, and learns the commit.
    let mut net = Net::new(2, EngineConfig::default());
    let tid = net.begin(S1);
    net.update_op(S2, SRV, &tid);
    // Prepare S2 directly so the commit decision stays at S1.
    net.inject(
        S2,
        Input::Datagram {
            from: S1,
            msg: TmMessage::Prepare {
                tid: tid.clone(),
                coordinator: S1,
            },
        },
    );
    // S1 processes the vote but its family has no commit call pending,
    // so nothing resolves. Record a resolution at S1 by hand: instead,
    // drive the real path — commit with S2 as participant.
    // (S2 is already prepared; the duplicate prepare will be answered
    // with the same yes vote.)
    net.update_op(S1, SRV, &tid);
    let req = net.commit(S1, &tid, CommitMode::TwoPhase, vec![S2]);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Committed));
    // Crash S2 (its lazy commit record is lost; prepared record is
    // durable), then restart: inquiry resolves to commit.
    net.crash(S2);
    net.restart(S2, EngineConfig::default());
    net.run_timers(20);
    assert_eq!(net.decision(S2, &tid.family), Some(Outcome::Committed));
    net.assert_no_conflict(&tid.family);
}
