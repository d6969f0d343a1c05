//! Protocol tests: presumed-abort two-phase commit (paper §3.2).

use camelot_net::msg::NbInfo;
use camelot_net::{Outcome, TmMessage, Vote};
use camelot_types::{FamilyId, ServerId, SiteId, Tid, Time};
use camelot_wal::LogRecord;

use crate::config::{CommitMode, EngineConfig, TwoPhaseVariant};
use crate::engine::Engine;
use crate::family::FamilyPhase;
use crate::io::{Action, Input};
use crate::testkit::Net;

const S1: SiteId = SiteId(1);
const S2: SiteId = SiteId(2);
const S3: SiteId = SiteId(3);
const SRV: ServerId = ServerId(1);

fn net(n: u32) -> Net {
    Net::new(n, EngineConfig::default())
}

#[test]
fn local_update_commit() {
    let mut net = net(1);
    let tid = net.begin(S1);
    net.update_op(S1, SRV, &tid);
    let req = net.commit(S1, &tid, CommitMode::TwoPhase, vec![]);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Committed));
    assert!(net.server_committed(S1, &tid));
    // One force: the commit record.
    assert_eq!(net.forces(S1), 1);
    assert_eq!(net.engine(S1).live_families(), 0, "family forgotten");
}

/// What one failure-free commit at three update sites costs in
/// timers and datagrams, summed over the sites: `SetTimer`,
/// `CancelTimer`, `Send`, `Broadcast`. The subordinates' orphan
/// watchdogs and 2PC's ack-flush timers are in it. A non-blocking
/// tombstone keeps its outcome timer until the forget note, so its
/// cancel comes with the note and costs the failure-free path nothing.
#[test]
fn failure_free_commit_timer_and_datagram_counts() {
    let pins = [
        (CommitMode::TwoPhase, [8, 6, 4, 2]),
        (CommitMode::NonBlocking, [9, 9, 6, 4]),
    ];
    for (mode, want) in pins {
        let mut net = net(3);
        net.actions = Some(Vec::new());
        let tid = net.begin(S1);
        for s in [S1, S2, S3] {
            net.update_op(s, SRV, &tid);
        }
        let req = net.commit(S1, &tid, mode, vec![S2, S3]);
        net.flush_lazy(S2);
        net.flush_lazy(S3);
        net.run_timers(10);
        assert_eq!(net.outcome_of(S1, req), Some(Outcome::Committed));
        let actions = net.actions.take().expect("recording");
        let count = |kind: fn(&Action) -> bool| actions.iter().filter(|(_, a)| kind(a)).count();
        let got = [
            count(|a| matches!(a, Action::SetTimer { .. })),
            count(|a| matches!(a, Action::CancelTimer { .. })),
            count(|a| matches!(a, Action::Send { .. })),
            count(|a| matches!(a, Action::Broadcast { .. })),
        ];
        assert_eq!(got, want, "{mode:?}");
        for s in [S1, S2, S3] {
            let e = net.engine(s);
            assert_eq!(
                (e.live_families(), e.armed_timers()),
                (0, 0),
                "{mode:?} {s}"
            );
        }
    }
}

#[test]
fn local_read_commit_writes_nothing() {
    let mut net = net(1);
    let tid = net.begin(S1);
    net.read_op(S1, SRV, &tid);
    let req = net.commit(S1, &tid, CommitMode::TwoPhase, vec![]);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Committed));
    assert_eq!(net.forces(S1), 0, "read-only commit needs no log write");
    assert_eq!(net.engine(S1).stats().read_only_commits, 1);
}

#[test]
fn distributed_update_commit_optimized() {
    let mut net = net(2);
    let tid = net.begin(S1);
    net.update_op(S1, SRV, &tid);
    net.update_op(S2, SRV, &tid);
    let req = net.commit(S1, &tid, CommitMode::TwoPhase, vec![S2]);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Committed));
    assert!(net.server_committed(S1, &tid));
    assert!(net.server_committed(S2, &tid), "subordinate dropped locks");
    // Optimized: coordinator forces commit; subordinate forces only
    // its prepared record (commit record is lazy).
    assert_eq!(net.forces(S1), 1);
    assert_eq!(net.forces(S2), 1);
    // Subordinate holds the family until its lazy commit record is
    // durable; the coordinator until the ack arrives.
    assert_eq!(net.engine(S2).live_families(), 1, "awaiting durability");
    assert_eq!(net.engine(S1).live_families(), 1, "awaiting commit-ack");
    // Background platter write at S2 makes the record durable; the
    // ack (piggybacked, flushed by timer) releases the coordinator.
    net.flush_lazy(S2);
    net.run_timers(4);
    assert_eq!(
        net.engine(S1).live_families(),
        0,
        "ack received, end written"
    );
}

#[test]
fn distributed_commit_unoptimized_forces_twice_at_sub() {
    let mut net = Net::new(2, EngineConfig::for_variant(TwoPhaseVariant::Unoptimized));
    let tid = net.begin(S1);
    net.update_op(S1, SRV, &tid);
    net.update_op(S2, SRV, &tid);
    let req = net.commit(S1, &tid, CommitMode::TwoPhase, vec![S2]);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Committed));
    // Unoptimized: subordinate forces prepared AND commit records —
    // the extra force the §3.2 optimization removes.
    assert_eq!(net.forces(S2), 2);
    // Ack was immediate: coordinator already finished.
    assert_eq!(net.engine(S1).live_families(), 0);
}

#[test]
fn semioptimized_forces_but_delays_ack() {
    let mut net = Net::new(2, EngineConfig::for_variant(TwoPhaseVariant::SemiOptimized));
    let tid = net.begin(S1);
    net.update_op(S1, SRV, &tid);
    net.update_op(S2, SRV, &tid);
    net.commit(S1, &tid, CommitMode::TwoPhase, vec![S2]);
    assert_eq!(net.forces(S2), 2, "commit record forced");
    // Ack delayed for piggybacking: coordinator still waiting.
    assert_eq!(net.engine(S1).live_families(), 1);
    net.run_timers(2); // Ack flush timer fires.
    assert_eq!(net.engine(S1).live_families(), 0);
}

#[test]
fn read_only_subordinate_is_excluded_from_phase_two() {
    let mut net = net(3);
    let tid = net.begin(S1);
    net.update_op(S1, SRV, &tid);
    net.update_op(S2, SRV, &tid);
    net.read_op(S3, SRV, &tid);
    let req = net.commit(S1, &tid, CommitMode::TwoPhase, vec![S2, S3]);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Committed));
    // The read-only site dropped locks at vote time and wrote nothing.
    assert_eq!(net.forces(S3), 0);
    assert!(net.server_committed(S3, &tid));
    assert_eq!(net.engine(S3).live_families(), 0);
}

#[test]
fn fully_read_only_distributed_commit() {
    let mut net = net(3);
    let tid = net.begin(S1);
    net.read_op(S1, SRV, &tid);
    net.read_op(S2, SRV, &tid);
    net.read_op(S3, SRV, &tid);
    let req = net.commit(S1, &tid, CommitMode::TwoPhase, vec![S2, S3]);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Committed));
    for s in [S1, S2, S3] {
        assert_eq!(net.forces(s), 0, "{s}: read-only commit is log-free");
    }
}

#[test]
fn subordinate_veto_aborts_everywhere() {
    let mut net = net(3);
    let tid = net.begin(S1);
    net.update_op(S1, SRV, &tid);
    net.update_op(S2, SRV, &tid);
    net.veto_op(S3, SRV, &tid);
    let req = net.commit(S1, &tid, CommitMode::TwoPhase, vec![S2, S3]);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Aborted));
    assert!(net.server_aborted(S1, &tid));
    assert!(net.server_aborted(S3, &tid));
    // S2 may have prepared before the abort arrived; either way it
    // must end aborted.
    net.assert_no_conflict(&tid.family);
    // Presumed abort: no commit-protocol forces at the coordinator.
    assert_eq!(net.forces(S1), 0);
}

#[test]
fn local_server_veto_aborts_before_prepare_goes_out() {
    let mut net = net(2);
    let tid = net.begin(S1);
    net.veto_op(S1, SRV, &tid);
    net.update_op(S2, SRV, &tid);
    let req = net.commit(S1, &tid, CommitMode::TwoPhase, vec![S2]);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Aborted));
    // S2 was never prepared (abort datagram raced ahead of any
    // prepare, or no prepare was sent at all since local collection
    // runs first).
    assert_eq!(net.forces(S2), 0);
}

/// The admission of a commit call is one check for both protocols.
#[test]
fn commit_admission_rejects_under_both_protocols() {
    let detail_of = |net: &Net, req: u64| match net.find_event(S1, req) {
        Some(Action::Rejected { detail, .. }) => *detail,
        other => panic!("not rejected: {other:?}"),
    };
    for mode in [CommitMode::TwoPhase, CommitMode::NonBlocking] {
        let mut net = net(1);
        // A family already aborted and forgotten.
        let gone = net.begin(S1);
        net.abort(S1, &gone, vec![]);
        let req = net.commit(S1, &gone, mode, vec![]);
        assert_eq!(detail_of(&net, req), "unknown family", "{mode:?}");
        // A nested tid.
        let tid = net.begin(S1);
        let req = net.commit(S1, &tid.child(1), mode, vec![]);
        assert_eq!(detail_of(&net, req), "commit of nested tid", "{mode:?}");
        // A second commit while the first is in flight (S2 never
        // answers the prepare), under either protocol.
        net.update_op(S1, SRV, &tid);
        net.down.insert(S2);
        net.commit(S1, &tid, mode, vec![S2]);
        for again in [CommitMode::TwoPhase, CommitMode::NonBlocking] {
            let req = net.commit(S1, &tid, again, vec![]);
            assert!(
                detail_of(&net, req).ends_with("already in progress"),
                "{mode:?} then {again:?}"
            );
        }
        // A second commit after the first resolved and was forgotten.
        let done = net.begin(S1);
        net.update_op(S1, SRV, &done);
        let r1 = net.commit(S1, &done, mode, vec![]);
        assert_eq!(net.outcome_of(S1, r1), Some(Outcome::Committed));
        let r2 = net.commit(S1, &done, mode, vec![]);
        assert_eq!(detail_of(&net, r2), "unknown family", "{mode:?}");
    }
}

/// Drives one subordinate engine through phase one by hand.
struct SubUnderTest {
    eng: Engine,
    mode: CommitMode,
}

impl SubUnderTest {
    fn new(mode: CommitMode) -> Self {
        SubUnderTest {
            eng: Engine::new(S2, EngineConfig::default()),
            mode,
        }
    }

    fn feed(&mut self, input: Input) -> Vec<Action> {
        self.eng.handle(input, Time::ZERO)
    }

    fn join(&mut self, tid: &Tid) {
        let tid = tid.clone();
        self.feed(Input::Join { tid, server: SRV });
    }

    /// Delivers the protocol's prepare from coordinator S1.
    fn prepare(&mut self, tid: &Tid) -> Vec<Action> {
        let tid = tid.clone();
        let msg = match self.mode {
            CommitMode::TwoPhase => TmMessage::Prepare {
                tid,
                coordinator: S1,
            },
            CommitMode::NonBlocking => TmMessage::NbPrepare {
                tid,
                coordinator: S1,
                info: NbInfo {
                    sites: vec![S1, S2, S3],
                    yes_votes: vec![],
                    commit_quorum: 2,
                    abort_quorum: 2,
                },
            },
        };
        self.feed(Input::Datagram { from: S1, msg })
    }

    fn server_votes(&mut self, tid: &Tid, vote: Vote) -> Vec<Action> {
        let tid = tid.clone();
        self.feed(Input::ServerVote {
            tid,
            server: SRV,
            vote,
        })
    }

    /// The vote this site sent to S1 among `actions`, in its
    /// protocol's own message.
    fn vote_sent(&self, actions: &[Action]) -> Option<Vote> {
        actions.iter().find_map(|a| match (self.mode, a) {
            (
                CommitMode::TwoPhase,
                Action::Send {
                    to: S1,
                    msg: TmMessage::VoteMsg { from: S2, vote, .. },
                    ..
                },
            )
            | (
                CommitMode::NonBlocking,
                Action::Send {
                    to: S1,
                    msg: TmMessage::NbVote { from: S2, vote, .. },
                    ..
                },
            ) => Some(*vote),
            _ => None,
        })
    }
}

/// The subordinate's phase one is one algorithm; the protocols differ
/// in the vote message, the prepared record, the in-doubt timer, and
/// whether a no-voter keeps a tombstone.
#[test]
fn subordinate_phase_one_under_both_protocols() {
    let remote = Tid::top_level(FamilyId { origin: S1, seq: 5 });
    for mode in [CommitMode::TwoPhase, CommitMode::NonBlocking] {
        // Unknown family: presumed abort votes no.
        let mut sub = SubUnderTest::new(mode);
        let a = sub.prepare(&remote);
        assert_eq!(sub.vote_sent(&a), Some(Vote::No), "{mode:?}");
        assert_eq!(sub.eng.live_families(), 0);

        // A known family no server joined: read-only, and forgotten.
        let mut sub = SubUnderTest::new(mode);
        let own = match &sub.feed(Input::Begin { req: 1 })[0] {
            Action::Began { tid, .. } => tid.clone(),
            other => panic!("{other:?}"),
        };
        let a = sub.prepare(&own);
        assert_eq!(sub.vote_sent(&a), Some(Vote::ReadOnly), "{mode:?}");
        assert_eq!(sub.eng.live_families(), 0, "{mode:?}");

        // An update site: ask the server, force the protocol's own
        // prepared record, then vote yes and arm the in-doubt timer.
        let mut sub = SubUnderTest::new(mode);
        sub.join(&remote);
        let a = sub.prepare(&remote);
        assert!(matches!(a[..], [Action::AskVote { .. }, ..]), "{mode:?}");
        assert_eq!(sub.vote_sent(&a), None, "no vote before the force");
        let a = sub.server_votes(&remote, Vote::Yes);
        let (token, rec) = match &a[..] {
            [Action::Force { token, rec }] => (*token, rec.clone()),
            other => panic!("{mode:?}: {other:?}"),
        };
        match mode {
            CommitMode::TwoPhase => assert!(matches!(rec, LogRecord::Prepared { .. })),
            CommitMode::NonBlocking => assert!(matches!(rec, LogRecord::NbPrepared { .. })),
        }
        // A prepare retransmitted mid-force is not answered yet.
        let a = sub.prepare(&remote);
        assert_eq!(sub.vote_sent(&a), None, "{mode:?}");
        let a = sub.feed(Input::LogForced { token });
        assert_eq!(sub.vote_sent(&a), Some(Vote::Yes), "{mode:?}");
        let in_doubt = match mode {
            CommitMode::TwoPhase => sub.eng.config().inquiry_interval,
            CommitMode::NonBlocking => sub.eng.config().nb_outcome_timeout,
        };
        assert!(a
            .iter()
            .any(|x| matches!(x, Action::SetTimer { after, .. } if *after == in_doubt)));
        let view = sub.eng.family_view(&remote.family).expect("in doubt");
        assert_eq!(view.phase, FamilyPhase::Prepared, "{mode:?}");
        // A retransmitted prepare after the yes repeats the yes; the
        // other protocol's prepare is not ours to answer.
        let a = sub.prepare(&remote);
        assert_eq!(sub.vote_sent(&a), Some(Vote::Yes), "{mode:?}");
        let mut other = SubUnderTest::new(match mode {
            CommitMode::TwoPhase => CommitMode::NonBlocking,
            CommitMode::NonBlocking => CommitMode::TwoPhase,
        });
        std::mem::swap(&mut other.eng, &mut sub.eng);
        assert!(other.prepare(&remote).is_empty(), "{mode:?}");

        // A read-only site: vote, release the servers, forget.
        let mut sub = SubUnderTest::new(mode);
        sub.join(&remote);
        sub.prepare(&remote);
        let a = sub.server_votes(&remote, Vote::ReadOnly);
        assert_eq!(sub.vote_sent(&a), Some(Vote::ReadOnly), "{mode:?}");
        assert!(a.iter().any(|x| matches!(
            x,
            Action::ServerResolve {
                outcome: Outcome::Committed,
                ..
            }
        )));
        assert!(!a.iter().any(|x| matches!(x, Action::Force { .. })));
        assert_eq!(sub.eng.live_families(), 0, "{mode:?}");

        // A vetoing site aborts on its own and votes no. Presumed
        // abort forgets at once; non-blocking commit keeps a tombstone
        // until the coordinator's forget note.
        let mut sub = SubUnderTest::new(mode);
        sub.join(&remote);
        sub.prepare(&remote);
        let a = sub.server_votes(&remote, Vote::No);
        assert_eq!(sub.vote_sent(&a), Some(Vote::No), "{mode:?}");
        assert!(a.iter().any(|x| matches!(
            x,
            Action::ServerResolve {
                outcome: Outcome::Aborted,
                ..
            }
        )));
        assert_eq!(
            sub.eng.resolution(&remote.family),
            Some(Outcome::Aborted),
            "{mode:?}"
        );
        match mode {
            CommitMode::TwoPhase => assert_eq!(sub.eng.family_view(&remote.family), None),
            CommitMode::NonBlocking => {
                let view = sub.eng.family_view(&remote.family).expect("tombstone");
                assert_eq!(
                    (view.role, view.phase),
                    ("nb-subordinate", FamilyPhase::Resolving)
                );
                let forget = TmMessage::NbForget {
                    tid: remote.clone(),
                };
                sub.feed(Input::Datagram {
                    from: S1,
                    msg: forget,
                });
                assert_eq!(sub.eng.family_view(&remote.family), None);
            }
        }
    }
}

#[test]
fn coordinator_crash_blocks_prepared_subordinate() {
    // The §3.3 motivation: a prepared 2PC subordinate that loses its
    // coordinator stays blocked, holding locks. Build the window of
    // vulnerability deterministically: S2 prepares (a direct prepare
    // request) but the coordinator never announces an outcome.
    let mut net = net(2);
    let tid = net.begin(S1);
    net.update_op(S2, SRV, &tid);
    net.inject(
        S2,
        Input::Datagram {
            from: S1,
            msg: camelot_net::TmMessage::Prepare {
                tid: tid.clone(),
                coordinator: S1,
            },
        },
    );
    let view = net
        .engine(S2)
        .family_view(&tid.family)
        .expect("family live");
    assert_eq!(view.phase, FamilyPhase::Prepared);
    // Coordinator crashes; inquiries go unanswered: still blocked.
    net.crash(S1);
    net.run_timers(5);
    let view = net
        .engine(S2)
        .family_view(&tid.family)
        .expect("family live");
    assert_eq!(view.phase, FamilyPhase::Prepared, "subordinate is blocked");
    assert!(net.engine(S2).resolution(&tid.family).is_none());
    // Coordinator recovers with no commit record for the family:
    // presumed abort answers the next inquiry.
    net.restart(S1, EngineConfig::default());
    net.run_timers(5);
    assert_eq!(
        net.engine(S2).resolution(&tid.family),
        Some(Outcome::Aborted),
        "presumed abort after coordinator recovery"
    );
    assert!(net.server_aborted(S2, &tid));
}

#[test]
fn duplicate_commit_notice_reacknowledged() {
    let mut net = net(2);
    let tid = net.begin(S1);
    net.update_op(S1, SRV, &tid);
    net.update_op(S2, SRV, &tid);
    net.commit(S1, &tid, CommitMode::TwoPhase, vec![S2]);
    net.flush_lazy(S2);
    net.run_timers(4);
    assert_eq!(net.engine(S1).live_families(), 0);
    // A duplicate Commit arrives after S2 forgot: it must re-ack
    // rather than panic or create state.
    net.inject(
        S2,
        Input::Datagram {
            from: S1,
            msg: camelot_net::TmMessage::Commit { tid: tid.clone() },
        },
    );
    net.run_timers(2);
    assert_eq!(net.engine(S2).live_families(), 0);
}

#[test]
fn inquiry_after_coordinator_forgot_is_presumed_abort() {
    let mut net = net(2);
    let tid = net.begin(S1);
    // S1 never hears of this family (no begin recorded at S2's view).
    // S2 becomes prepared via a direct prepare from a "ghost"
    // transaction the coordinator has since aborted and forgotten.
    net.update_op(S2, SRV, &tid);
    net.abort(S1, &tid, vec![]);
    net.inject(
        S2,
        Input::Datagram {
            from: S1,
            msg: camelot_net::TmMessage::Prepare {
                tid: tid.clone(),
                coordinator: S1,
            },
        },
    );
    // S2 prepared and votes; coordinator knows nothing -> on inquiry
    // it answers aborted.
    net.run_timers(3);
    assert_eq!(
        net.engine(S2).resolution(&tid.family),
        Some(Outcome::Aborted)
    );
}

#[test]
fn delayed_commit_saves_one_force_per_distributed_txn() {
    // The paper's headline §3.2 claim, measured over a batch.
    let runs = 10;
    let mut opt_forces = 0;
    let mut unopt_forces = 0;
    for variant in [TwoPhaseVariant::Optimized, TwoPhaseVariant::Unoptimized] {
        let mut net = Net::new(2, EngineConfig::for_variant(variant));
        for _ in 0..runs {
            let tid = net.begin(S1);
            net.update_op(S1, SRV, &tid);
            net.update_op(S2, SRV, &tid);
            let req = net.commit(S1, &tid, CommitMode::TwoPhase, vec![S2]);
            assert_eq!(net.outcome_of(S1, req), Some(Outcome::Committed));
            // No artificial flushing: under the optimization the next
            // transaction's prepare force carries the previous lazy
            // commit record to disk — exactly how the saving shows up
            // in a running system.
        }
        net.flush_lazy(S2);
        net.run_timers(40);
        match variant {
            TwoPhaseVariant::Optimized => opt_forces = net.forces(S2),
            _ => unopt_forces = net.forces(S2),
        }
    }
    // Unoptimized: 2 forces per txn (prepare + commit). Optimized:
    // 1 force per txn plus background flushes that batch many lazy
    // commit records; the per-txn *protocol* forces drop by one.
    assert_eq!(unopt_forces, 2 * runs);
    assert_eq!(
        opt_forces,
        runs + 1,
        "one prepare force per txn plus one final flush"
    );
    assert!(
        opt_forces < unopt_forces,
        "optimized ({opt_forces}) must beat unoptimized ({unopt_forces})"
    );
}
