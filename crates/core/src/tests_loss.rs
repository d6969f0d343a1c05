//! Protocol tests under message loss: "a transaction manager is
//! responsible for implementing mechanisms such as timeout/retry and
//! duplicate detection" (§4.2 fn. 1) — the resend timers, inquiries
//! and presumed-abort answers must carry the protocols through a
//! lossy network.

use camelot_net::Outcome;
use camelot_types::{ServerId, SiteId};

use crate::config::{CommitMode, EngineConfig};
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
        for s in [S2, S3] {
            let r = net.engine(s).resolution(&tid.family);
            // A read-only or never-prepared site may have nothing to
            // resolve; but if it resolved, it matches (checked by
            // assert_no_conflict). A prepared site must NOT be left
            // in doubt forever.
            if net.engine(s).live_families() > 0 {
                assert!(
                    r.is_some(),
                    "{s} still holds state without a resolution (drop {drop_every})"
                );
            }
        }
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
        // Non-blocking: nobody may be left in doubt.
        for s in [S2, S3] {
            if net.engine(s).live_families() > 0 {
                assert!(
                    net.engine(s).resolution(&tid.family).is_some(),
                    "{s} left in doubt under non-blocking commit (drop {drop_every})"
                );
            }
        }
    }
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
