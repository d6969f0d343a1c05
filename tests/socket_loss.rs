//! A lost socket datagram is recovered by the commit protocol, not by
//! the transport.
//!
//! Two sites run in one process, each the runtime of a site process
//! built with `Cluster::new_site` — the shape of a `camelot-site` —
//! joined by the sockets those runtimes bind, UDP or TCP. The
//! transport neither acknowledges nor retransmits: a frame the fault
//! plan drops is gone, in either mode, and the engine's own timers (the
//! `fast_engine` profile) are what recover it. A dropped Prepare
//! leaves the coordinator without a vote until its vote timeout aborts
//! the transaction; a dropped Commit leaves the subordinate prepared
//! until the coordinator re-sends the notice; a dropped non-blocking
//! forget note leaves the subordinate's tombstone live until its
//! outcome timer asks again.
//!
//! Each case pins, per site, how many envelopes the engine sent
//! (`EngineStats::datagrams`; no destination is local, so each one
//! went to the socket) and how many frames the transport put on the
//! wire. One envelope is one frame, so the two differ by the scripted
//! drop and by nothing else: an acknowledgement or a retransmission
//! below the protocol would show up here as a number. The cases run
//! over UDP, and again over TCP (`_over_tcp`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use camelot::core::CommitMode;
use camelot::net::{FaultPlan, LinkDecision, Outcome, SocketConfig, SocketMode};
use camelot::node::config::fast_engine;
use camelot::rt::{Cluster, RtConfig};
use camelot::types::{ObjectId, ServerId, SiteId};

const SRV: ServerId = ServerId(1);
const OBJ: ObjectId = ObjectId(7);
const COORD: SiteId = SiteId(1);
const SUB: SiteId = SiteId(2);

/// How long the counters must stand still after both engines are
/// quiet before the case's traffic counts as over.
const SETTLE: Duration = Duration::from_millis(300);

/// One site's runtime and socket, its datagrams rolled against `fault`.
fn start(id: SiteId, link: SocketMode, fault: FaultPlan) -> Cluster {
    let cfg = RtConfig {
        engine: fast_engine(),
        ..RtConfig::default()
    };
    Cluster::new_site(SocketConfig::new(id, link), cfg, Arc::new(fault))
}

/// Envelopes the engine sent, and frames the transport sent.
fn counts(site: &Cluster) -> (u64, u64) {
    let stats = site.stats();
    let envelopes = stats.sites.iter().map(|s| s.engine.datagrams).sum();
    (envelopes, site.transport().stats().sends)
}

fn live_families(site: &Cluster) -> usize {
    site.stats().sites.iter().map(|s| s.live_families).sum()
}

/// Runs one two-site transfer-shaped transaction over `link` — a
/// write at each site, committed under `mode` by site 1 — with the
/// `nth` frame from site 1 to site 2 dropped. Returns the outcome,
/// each site's committed value, and each site's (envelopes, frames)
/// once both engines are quiet and the counts have settled.
fn run_with_drop(
    link: SocketMode,
    nth: u64,
    mode: CommitMode,
) -> (Outcome, [Vec<u8>; 2], [(u64, u64); 2]) {
    let plan = FaultPlan::disabled();
    plan.script_fault(COORD, SUB, nth, LinkDecision::Drop);
    let sites = [
        start(COORD, link, plan),
        start(SUB, link, FaultPlan::disabled()),
    ];
    let (coord_net, sub_net) = (sites[0].transport(), sites[1].transport());
    coord_net.set_peer(SUB, sub_net.local_addr());
    sub_net.set_peer(COORD, coord_net.local_addr());

    let (home, sub) = (sites[0].client(COORD), sites[1].client(SUB));
    let tid = home.begin().expect("begin");
    home.write(&tid, COORD, SRV, OBJ, b"v".to_vec())
        .expect("write at the coordinator");
    sub.write(&tid, SUB, SRV, OBJ, b"v".to_vec())
        .expect("write at the subordinate");
    let outcome = home
        .commit_with(&tid, mode, vec![SUB])
        .expect("commit returns");

    let quiet_by = Instant::now() + Duration::from_secs(5);
    while sites.iter().any(|s| live_families(s) > 0) {
        assert!(
            Instant::now() < quiet_by,
            "a family is still live after 5 s: {:?}",
            sites
                .iter()
                .map(|s| s.debug_state(s.transport().site()))
                .collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut last = (sites.each_ref().map(counts), Instant::now());
    while last.1.elapsed() < SETTLE {
        std::thread::sleep(Duration::from_millis(5));
        let now = sites.each_ref().map(counts);
        if now != last.0 {
            last = (now, Instant::now());
        }
    }
    let values = [
        sites[0].committed_value(COORD, SRV, OBJ),
        sites[1].committed_value(SUB, SRV, OBJ),
    ];
    for site in sites {
        site.shutdown();
    }
    (outcome, values, last.0)
}

/// The Prepare is the first frame from site 1 to site 2. Without it
/// the subordinate never votes; the coordinator's vote timeout aborts
/// the transaction and tells the subordinate, which undoes its write.
/// Site 1 sent the Prepare and the Abort and put only the Abort on the
/// wire; site 2 sent nothing.
fn lost_prepare(link: SocketMode) {
    let (outcome, values, counts) = run_with_drop(link, 0, CommitMode::TwoPhase);
    assert_eq!(outcome, Outcome::Aborted);
    assert_eq!(
        values,
        [Vec::<u8>::new(), Vec::new()],
        "both undid the write"
    );
    assert_eq!(counts, [(2, 1), (0, 0)], "(envelopes, frames) per site");
}

#[test]
fn a_lost_prepare_is_a_vote_timeout_abort() {
    lost_prepare(SocketMode::Udp);
}

#[test]
fn a_lost_prepare_is_a_vote_timeout_abort_over_tcp() {
    lost_prepare(SocketMode::Tcp);
}

/// The Commit notice is the second frame from site 1 to site 2. The
/// coordinator has decided, so the transaction commits; its notify
/// resend delivers the decision again and the subordinate's
/// acknowledgement ends the family. Site 1 sent the Prepare, the Commit
/// and its resend, and lost the Commit; site 2 sent its vote and the
/// acknowledgement.
fn lost_commit_notice(link: SocketMode) {
    let (outcome, values, counts) = run_with_drop(link, 1, CommitMode::TwoPhase);
    assert_eq!(outcome, Outcome::Committed);
    assert_eq!(
        values,
        [b"v".to_vec(), b"v".to_vec()],
        "both applied the write"
    );
    assert_eq!(counts, [(3, 2), (2, 2)], "(envelopes, frames) per site");
}

#[test]
fn a_lost_commit_notice_is_resent_by_the_coordinator() {
    lost_commit_notice(SocketMode::Udp);
}

#[test]
fn a_lost_commit_notice_is_resent_by_the_coordinator_over_tcp() {
    lost_commit_notice(SocketMode::Tcp);
}

/// Under non-blocking commit the frames from site 1 to site 2 are the
/// prepare, the replicate request, the outcome and the forget note;
/// the fourth is dropped. The subordinate's tombstone keeps its outcome
/// timer and, when it fires, acknowledges the outcome again; the
/// coordinator, which has ended the family, answers with the note.
/// Site 1 sent its four frames and the answer, and lost the note;
/// site 2 sent its vote, its replicate ack, its outcome ack and the
/// re-sent ack.
fn lost_forget_note(link: SocketMode) {
    let (outcome, values, counts) = run_with_drop(link, 3, CommitMode::NonBlocking);
    assert_eq!(outcome, Outcome::Committed);
    assert_eq!(
        values,
        [b"v".to_vec(), b"v".to_vec()],
        "both applied the write"
    );
    assert_eq!(counts, [(5, 4), (4, 4)], "(envelopes, frames) per site");
}

#[test]
fn a_lost_forget_note_is_asked_for_again() {
    lost_forget_note(SocketMode::Udp);
}

#[test]
fn a_lost_forget_note_is_asked_for_again_over_tcp() {
    lost_forget_note(SocketMode::Tcp);
}
