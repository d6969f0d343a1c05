//! A lost socket datagram is recovered by the commit protocol, not by
//! the transport.
//!
//! Two sites run in one process, each a partial cluster built with
//! `Cluster::new_site` — the shape of a `camelot-site` process — and
//! joined by UDP `SocketTransport`s. The transport neither
//! acknowledges nor retransmits: a frame the fault plan drops is gone,
//! and the engine's own timers (the `fast_engine` profile) are what
//! recover it. A dropped Prepare leaves the coordinator without a vote
//! until its vote timeout aborts the transaction; a dropped Commit
//! leaves the subordinate prepared until the coordinator re-sends the
//! notice; a dropped non-blocking forget note leaves the subordinate's
//! tombstone live until its outcome timer asks again.
//!
//! Each case pins, per site, how many envelopes the engine handed to
//! the transport and how many frames the transport put on the wire.
//! One envelope is one frame, so the two differ by the scripted drop
//! and by nothing else: an acknowledgement or a retransmission below
//! the protocol would show up here as a number.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use camelot::core::CommitMode;
use camelot::net::{FaultPlan, LinkDecision, Outcome, SocketConfig, SocketTransport, TmMessage};
use camelot::node::config::fast_engine;
use camelot::rt::{Cluster, RemoteNet, RtConfig};
use camelot::types::{ObjectId, ServerId, SiteId};

const SRV: ServerId = ServerId(1);
const OBJ: ObjectId = ObjectId(7);
const COORD: SiteId = SiteId(1);
const SUB: SiteId = SiteId(2);

/// How long the counters must stand still after both engines are
/// quiet before the case's traffic counts as over.
const SETTLE: Duration = Duration::from_millis(300);

/// Forwards the partial cluster's outbound datagrams, piggyback and
/// all, onto its socket transport, counting the envelopes.
#[derive(Default)]
struct Bridge {
    transport: Mutex<Option<Arc<SocketTransport>>>,
    envelopes: AtomicU64,
}

impl RemoteNet for Bridge {
    fn send_remote(&self, _from: SiteId, to: SiteId, msg: TmMessage, piggyback: Vec<TmMessage>) {
        self.envelopes.fetch_add(1, Ordering::SeqCst);
        if let Some(t) = self.transport.lock().unwrap().as_ref() {
            t.send(to, msg, piggyback).expect("peer address is known");
        }
    }
}

/// One site: its partial cluster, its transport, and the loop feeding
/// the transport's deliveries back into the cluster.
struct Site {
    cluster: Arc<Cluster>,
    transport: Arc<SocketTransport>,
    bridge: Arc<Bridge>,
    stop: Arc<AtomicBool>,
    recv: JoinHandle<()>,
}

impl Site {
    fn start(id: SiteId, fault: FaultPlan) -> Site {
        let fault = Arc::new(fault);
        let bridge = Arc::new(Bridge::default());
        let cfg = RtConfig {
            engine: fast_engine(),
            ..RtConfig::default()
        };
        let remote = Arc::clone(&bridge) as Arc<dyn RemoteNet>;
        let cluster = Arc::new(Cluster::new_site(id, cfg, Arc::clone(&fault), remote));
        let transport = Arc::new(
            SocketTransport::bind(SocketConfig::udp(id), fault, cluster.site_tracer(id))
                .expect("bind"),
        );
        *bridge.transport.lock().unwrap() = Some(Arc::clone(&transport));
        let stop = Arc::new(AtomicBool::new(false));
        let recv = {
            let (cluster, transport, stop) = (cluster.clone(), transport.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    if let Some(d) = transport.recv().expect("recv") {
                        for msg in d.messages {
                            cluster.inject_datagram(d.from, id, msg);
                        }
                    }
                }
            })
        };
        Site {
            cluster,
            transport,
            bridge,
            stop,
            recv,
        }
    }

    /// Envelopes the engine sent, and frames the transport sent.
    fn counts(&self) -> (u64, u64) {
        let envelopes = self.bridge.envelopes.load(Ordering::SeqCst);
        (envelopes, self.transport.stats().sends)
    }

    fn live_families(&self) -> usize {
        self.cluster
            .stats()
            .sites
            .iter()
            .map(|s| s.live_families)
            .sum()
    }

    fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.recv.join().unwrap();
        drop(self.transport);
        drop(self.bridge.transport.lock().unwrap().take());
        Arc::try_unwrap(self.cluster)
            .unwrap_or_else(|_| panic!("cluster still shared"))
            .shutdown();
    }
}

/// Runs one two-site transfer-shaped transaction — a write at each
/// site, committed under `mode` by site 1 — with the `nth` frame from
/// site 1 to site 2 dropped. Returns the outcome, each site's
/// committed value, and each site's (envelopes, frames) once both
/// engines are quiet and the counts have settled.
fn run_with_drop(nth: u64, mode: CommitMode) -> (Outcome, [Vec<u8>; 2], [(u64, u64); 2]) {
    let plan = FaultPlan::disabled();
    plan.script_fault(COORD, SUB, nth, LinkDecision::Drop);
    let sites = [
        Site::start(COORD, plan),
        Site::start(SUB, FaultPlan::disabled()),
    ];
    sites[0]
        .transport
        .set_peer(SUB, sites[1].transport.local_addr());
    sites[1]
        .transport
        .set_peer(COORD, sites[0].transport.local_addr());

    let (home, sub) = (sites[0].cluster.client(COORD), sites[1].cluster.client(SUB));
    let tid = home.begin().expect("begin");
    home.write(&tid, COORD, SRV, OBJ, b"v".to_vec())
        .expect("write at the coordinator");
    sub.write(&tid, SUB, SRV, OBJ, b"v".to_vec())
        .expect("write at the subordinate");
    let outcome = home
        .commit_with(&tid, mode, vec![SUB])
        .expect("commit returns");

    let quiet_by = Instant::now() + Duration::from_secs(5);
    while sites.iter().any(|s| s.live_families() > 0) {
        assert!(
            Instant::now() < quiet_by,
            "a family is still live after 5 s: {:?}",
            sites
                .iter()
                .map(|s| s.cluster.debug_state(s.transport.site()))
                .collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut last = (sites.each_ref().map(Site::counts), Instant::now());
    while last.1.elapsed() < SETTLE {
        std::thread::sleep(Duration::from_millis(5));
        let now = sites.each_ref().map(Site::counts);
        if now != last.0 {
            last = (now, Instant::now());
        }
    }
    let values = [
        sites[0].cluster.committed_value(COORD, SRV, OBJ),
        sites[1].cluster.committed_value(SUB, SRV, OBJ),
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
#[test]
fn a_lost_prepare_is_a_vote_timeout_abort() {
    let (outcome, values, counts) = run_with_drop(0, CommitMode::TwoPhase);
    assert_eq!(outcome, Outcome::Aborted);
    assert_eq!(
        values,
        [Vec::<u8>::new(), Vec::new()],
        "both undid the write"
    );
    assert_eq!(counts, [(2, 1), (0, 0)], "(envelopes, frames) per site");
}

/// The Commit notice is the second frame from site 1 to site 2. The
/// coordinator has decided, so the transaction commits; its notify
/// resend delivers the decision again and the subordinate's
/// acknowledgement ends the family. Site 1 sent the Prepare, the Commit
/// and its resend, and lost the Commit; site 2 sent its vote and the
/// acknowledgement.
#[test]
fn a_lost_commit_notice_is_resent_by_the_coordinator() {
    let (outcome, values, counts) = run_with_drop(1, CommitMode::TwoPhase);
    assert_eq!(outcome, Outcome::Committed);
    assert_eq!(
        values,
        [b"v".to_vec(), b"v".to_vec()],
        "both applied the write"
    );
    assert_eq!(counts, [(3, 2), (2, 2)], "(envelopes, frames) per site");
}

/// Under non-blocking commit the frames from site 1 to site 2 are the
/// prepare, the replicate request, the outcome and the forget note;
/// the fourth is dropped. The subordinate's tombstone keeps its outcome
/// timer and, when it fires, acknowledges the outcome again; the
/// coordinator, which has ended the family, answers with the note.
/// Site 1 sent its four frames and the answer, and lost the note;
/// site 2 sent its vote, its replicate ack, its outcome ack and the
/// re-sent ack.
#[test]
fn a_lost_forget_note_is_asked_for_again() {
    let (outcome, values, counts) = run_with_drop(3, CommitMode::NonBlocking);
    assert_eq!(outcome, Outcome::Committed);
    assert_eq!(
        values,
        [b"v".to_vec(), b"v".to_vec()],
        "both applied the write"
    );
    assert_eq!(counts, [(5, 4), (4, 4)], "(envelopes, frames) per site");
}
