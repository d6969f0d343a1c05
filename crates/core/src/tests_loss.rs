//! Protocol tests under message loss: "a transaction manager is
//! responsible for implementing mechanisms such as timeout/retry and
//! duplicate detection" (§4.2 fn. 1) — the resend timers, inquiries
//! and presumed-abort answers must carry the protocols through a
//! lossy network.

use camelot_net::{Outcome, TmMessage};
use camelot_types::{ServerId, SiteId};

use crate::config::{CommitMode, EngineConfig};
use crate::io::Input;
use crate::testkit::Net;

const S1: SiteId = SiteId(1);
const S2: SiteId = SiteId(2);
const S3: SiteId = SiteId(3);
const SRV: ServerId = ServerId(1);

/// Runs one distributed update commit under the given loss pattern
/// and returns the net for inspection after generous retries.
fn run_with_loss(drop_every: usize, mode: CommitMode) -> (camelot_types::Tid, u64, Net) {
    let mut net = Net::new(3, EngineConfig::default());
    net.drop_every = drop_every;
    let tid = net.begin(S1);
    net.update_op(S1, SRV, &tid);
    net.update_op(S2, SRV, &tid);
    net.update_op(S3, SRV, &tid);
    let req = net.commit(S1, &tid, mode, vec![S2, S3]);
    // Let timeout/retry machinery grind: inquiry timers, notify
    // resends, takeover rounds, ack flushes.
    net.flush_lazy(S2);
    net.flush_lazy(S3);
    net.run_timers(400);
    net.flush_lazy(S2);
    net.flush_lazy(S3);
    net.run_timers(200);
    (tid, req, net)
}

/// Every site of the three has forgotten every family and holds no
/// armed timer: nothing is left that could ever send again.
fn assert_quiet(net: &Net, case: &str) {
    for s in [S1, S2, S3] {
        let e = net.engine(s);
        assert_eq!(
            (e.live_families(), e.armed_timers()),
            (0, 0),
            "{s} is not quiet ({case}): {:?}",
            e.family_ids()
        );
    }
}

#[test]
fn two_phase_completes_despite_periodic_loss() {
    // Drop every 5th datagram: phase-one or phase-two messages get
    // lost; inquiries and resends must converge with full agreement.
    for drop_every in [3usize, 5, 7] {
        let (tid, _req, net) = run_with_loss(drop_every, CommitMode::TwoPhase);
        assert!(net.dropped > 0, "pattern {drop_every} must actually drop");
        net.assert_no_conflict(&tid.family);
        // The decision is whatever the coordinator reached (loss can
        // turn a would-be commit into a timeout abort — both legal);
        // every surviving participant must eventually learn it.
        let coord = net.engine(S1).resolution(&tid.family);
        assert!(
            coord.is_some(),
            "coordinator must decide (drop {drop_every})"
        );
        // Whatever a site resolved matches (checked above); no site is
        // left holding state, in doubt or otherwise.
        assert_quiet(&net, &format!("drop every {drop_every}"));
    }
}

#[test]
fn nonblocking_completes_despite_periodic_loss() {
    for drop_every in [4usize, 6] {
        let (tid, _req, net) = run_with_loss(drop_every, CommitMode::NonBlocking);
        assert!(net.dropped > 0);
        net.assert_no_conflict(&tid.family);
        let coord = net.engine(S1).resolution(&tid.family);
        assert!(
            coord.is_some(),
            "coordinator must decide (drop {drop_every})"
        );
        // Nobody is left in doubt, and no tombstone outlives a lost
        // forget note.
        assert_quiet(&net, &format!("drop every {drop_every}"));
    }
}

#[test]
fn lost_forget_notes_are_asked_for_again_after_the_coordinator_restarts() {
    // A failure-free non-blocking commit whose every forget note is
    // lost: both subordinates keep their tombstones. The coordinator
    // has ended the family durably, then crashes and restarts with
    // nothing to say about it. Each tombstone's outcome timer asks it
    // again, and the answer is the note.
    let mut net = Net::new(3, EngineConfig::default());
    let tid = net.begin(S1);
    for s in [S1, S2, S3] {
        net.update_op(s, SRV, &tid);
    }
    net.auto_drain = false;
    let req = net.commit(S1, &tid, CommitMode::NonBlocking, vec![S2, S3]);
    let mut forgets = 0;
    while net.queue_len() > 0 {
        while let Some((_, input)) = net.queued(0) {
            if let Input::Datagram {
                msg: TmMessage::NbForget { .. },
                ..
            } = input
            {
                net.drop_at(0);
                forgets += 1;
            } else {
                net.step_at(0);
            }
        }
        for s in [S1, S2, S3] {
            net.flush_lazy(s);
        }
    }
    assert_eq!(forgets, 2, "one forget note per subordinate");
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Committed));
    assert_eq!(net.engine(S1).live_families(), 0, "the coordinator ended");
    for s in [S2, S3] {
        assert_eq!(net.engine(s).family_ids(), vec![tid.family], "{s}");
    }
    net.auto_drain = true;
    net.crash(S1);
    net.restart(S1, EngineConfig::default());
    net.run_timers(50);
    net.assert_agreement(&tid.family, Outcome::Committed, 3);
    assert_quiet(&net, "forget notes lost, coordinator restarted");
}

#[test]
fn lost_commit_notice_resolved_by_inquiry() {
    // Drop exactly the first commit notice: the subordinate's inquiry
    // timer asks the coordinator and learns the outcome.
    let mut net = Net::new(2, EngineConfig::default());
    let tid = net.begin(S1);
    net.update_op(S1, SRV, &tid);
    net.update_op(S2, SRV, &tid);
    // Datagram sequence for this commit: prepare (1), vote (2),
    // commit (3). Drop every 3rd => the commit notice vanishes.
    net.drop_every = 3;
    let req = net.commit(S1, &tid, CommitMode::TwoPhase, vec![S2]);
    assert_eq!(net.outcome_of(S1, req), Some(Outcome::Committed));
    assert!(net.dropped >= 1);
    // Subordinate is prepared and in doubt...
    assert!(net.engine(S2).resolution(&tid.family).is_none());
    // ...until its inquiry (or the coordinator's resend) gets through.
    net.drop_every = 0;
    net.run_timers(20);
    assert_eq!(
        net.engine(S2).resolution(&tid.family),
        Some(Outcome::Committed)
    );
    net.assert_no_conflict(&tid.family);
}

#[test]
fn lost_votes_cause_timeout_abort_not_hang() {
    // Drop everything from the start: no votes ever arrive; the
    // coordinator's vote timeout (one timer, one handler for both
    // protocols) must abort, and no site may commit.
    for mode in [CommitMode::TwoPhase, CommitMode::NonBlocking] {
        let mut net = Net::new(3, EngineConfig::default());
        net.drop_every = 1; // Total loss.
        let tid = net.begin(S1);
        net.update_op(S1, SRV, &tid);
        let req = net.commit(S1, &tid, mode, vec![S2, S3]);
        net.run_timers(50);
        assert_eq!(net.outcome_of(S1, req), Some(Outcome::Aborted), "{mode:?}");
        net.assert_no_conflict(&tid.family);
    }
}
