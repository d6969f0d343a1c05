//! Backpressure and failure-isolation tests for the socket
//! transport's outbound path.
//!
//! The scenario that motivated the per-peer send queues: one TCP peer
//! that accepts connections but stops reading. Once the kernel
//! buffers on that connection fill, a `write_all` from the sending
//! site blocks — and under the old transport it blocked while holding
//! the global connection-map mutex, so *every* outbound send from the
//! site wedged behind the one sick peer. These tests pin the fixed
//! behavior: a stalled or dead peer costs only its own sender thread.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use camelot_net::{FaultPlan, SocketConfig, SocketTransport, TmMessage, TransportStats};
use camelot_obs::{TraceEventKind, TraceRing, Tracer};
use camelot_types::{FamilyId, SiteId, Tid};

fn msg(seq: u64) -> TmMessage {
    TmMessage::Commit {
        tid: Tid::top_level(FamilyId {
            origin: SiteId(1),
            seq,
        }),
    }
}

fn bind(cfg: SocketConfig) -> SocketTransport {
    SocketTransport::bind(cfg, Arc::new(FaultPlan::disabled()), Tracer::disabled()).unwrap()
}

fn recv_until(t: &SocketTransport, deadline: Duration) -> Option<camelot_net::socket::Delivery> {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if let Some(d) = t.recv().unwrap() {
            return Some(d);
        }
    }
    None
}

/// A TCP endpoint that accepts connections and then never reads from
/// them: the kernel buffers fill and the sender's writes stall. The
/// accepted streams are held (not dropped) so the connection stays
/// open, exactly like a wedged-but-alive process.
struct StalledPeer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    held: Arc<Mutex<Vec<TcpStream>>>,
}

impl StalledPeer {
    fn start() -> StalledPeer {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let held: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let tstop = Arc::clone(&stop);
        let theld = Arc::clone(&held);
        thread::spawn(move || {
            while !tstop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => theld.lock().unwrap().push(stream),
                    Err(_) => thread::sleep(Duration::from_millis(5)),
                }
            }
        });
        StalledPeer { addr, stop, held }
    }
}

impl Drop for StalledPeer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.held.lock().unwrap().clear();
    }
}

/// ~200 KB of piggyback per frame, so a handful of frames overruns
/// the kernel's loopback socket buffers and the stalled connection's
/// writes start blocking for real.
fn big_piggyback() -> Vec<TmMessage> {
    (0..10_000).map(msg).collect()
}

/// THE regression test for the head-of-line-blocking bug: while one
/// peer has accepted a connection and stopped reading, sends to a
/// healthy peer must still go through. Under the old transport the
/// stalled peer's `write_all` blocked holding the `conns` mutex and
/// this test hung until its deadline.
#[test]
fn stalled_peer_does_not_block_healthy_sends() {
    let mut cfg = SocketConfig::tcp(SiteId(1));
    // Keep the stalled sender thread cycling quickly; the value only
    // bounds how long that one thread sits in a blocked write.
    cfg.write_timeout = Duration::from_millis(500);
    let a = bind(cfg);
    let healthy = bind(SocketConfig::tcp(SiteId(2)));
    let stalled = StalledPeer::start();
    a.set_peer(SiteId(2), healthy.local_addr());
    a.set_peer(SiteId(3), stalled.addr);

    // Prime the stalled link and give its sender thread time to wedge
    // mid-write: enough large frames to fill both kernel buffers.
    for i in 0..40 {
        a.send(SiteId(3), msg(i), big_piggyback()).unwrap();
    }
    thread::sleep(Duration::from_millis(200));

    // The wedge must not leak: a send to the healthy peer completes
    // promptly end to end.
    let start = Instant::now();
    a.send(SiteId(2), msg(999), vec![]).unwrap();
    let d = recv_until(&healthy, Duration::from_secs(5)).expect(
        "send to healthy peer must deliver while another peer is stalled \
         (head-of-line blocking regression)",
    );
    assert_eq!(d.from, SiteId(1));
    assert_eq!(d.messages, vec![msg(999)]);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "healthy-path delivery took {:?}",
        start.elapsed()
    );

    // The stalled link shows up in the counters, not as a hang.
    let stats = a.stats();
    assert!(stats.enqueued >= 41, "all sends were queued: {stats:?}");
}

/// A peer that restarts on a new port mid-stream: `set_peer` must
/// redirect the sender thread to the new address, and the fresh
/// connection must decode cleanly at the new incarnation (each
/// connection gets a fresh FrameDecoder, so no resync is needed).
#[test]
fn reconnects_to_restarted_peer_on_new_address() {
    let a = bind(SocketConfig::tcp(SiteId(1)));
    let b1 = bind(SocketConfig::tcp(SiteId(2)));
    a.set_peer(SiteId(2), b1.local_addr());
    a.send(SiteId(2), msg(1), vec![]).unwrap();
    assert!(
        recv_until(&b1, Duration::from_secs(2)).is_some(),
        "first incarnation receives"
    );
    drop(b1);

    // Restart site 2 on a different port.
    let b2 = bind(SocketConfig::tcp(SiteId(2)));
    a.set_peer(SiteId(2), b2.local_addr());
    a.send(SiteId(2), msg(2), vec![]).unwrap();
    let d = recv_until(&b2, Duration::from_secs(5))
        .expect("sender must reconnect to the restarted peer's new address");
    assert_eq!(d.messages, vec![msg(2)]);
}

/// An unreachable peer burns one connect per backoff interval — not
/// one per frame — and every frame given up on is counted.
#[test]
fn dead_peer_fails_with_backoff_and_counters() {
    let mut cfg = SocketConfig::tcp(SiteId(1));
    cfg.reconnect_base = Duration::from_millis(100);
    cfg.reconnect_cap = Duration::from_millis(400);
    let ring = TraceRing::new(SiteId(1), 4096, Instant::now());
    let a = SocketTransport::bind(
        cfg,
        Arc::new(FaultPlan::disabled()),
        Tracer::attached(Arc::clone(&ring)),
    )
    .unwrap();
    // A port with nothing listening: connects fail immediately.
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    a.set_peer(SiteId(3), dead);

    for i in 0..10 {
        a.send(SiteId(3), msg(i), vec![]).unwrap();
    }
    // One immediate attempt, then 100ms + 200ms of backoff fit in the
    // wait; a per-frame connect storm would show ~10 failures.
    thread::sleep(Duration::from_millis(350));
    let stats: TransportStats = a.stats();
    assert!(stats.connect_failures >= 1, "{stats:?}");
    assert!(
        stats.connect_failures <= 5,
        "backoff must prevent a connect per frame: {stats:?}"
    );
    assert!(stats.send_failures >= 1, "{stats:?}");
    assert_eq!(stats.sends, 0, "{stats:?}");
    assert_eq!(stats.enqueued, 10, "{stats:?}");

    // Failures are traced, not silent.
    let failed = ring
        .drain()
        .into_iter()
        .filter(|e| matches!(e.kind, TraceEventKind::SocketSendFailed { to } if to == SiteId(3)))
        .count();
    assert!(failed >= 1, "expected SocketSendFailed trace events");
}

/// A full queue evicts its oldest frame and says so: the eviction is
/// counted and traced, and the newest frames survive.
#[test]
fn full_queue_drops_oldest_and_counts_it() {
    let mut cfg = SocketConfig::tcp(SiteId(1));
    cfg.send_queue = 4;
    cfg.reconnect_base = Duration::from_millis(500);
    cfg.reconnect_cap = Duration::from_millis(500);
    let ring = TraceRing::new(SiteId(1), 4096, Instant::now());
    let a = SocketTransport::bind(
        cfg,
        Arc::new(FaultPlan::disabled()),
        Tracer::attached(Arc::clone(&ring)),
    )
    .unwrap();
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    a.set_peer(SiteId(3), dead);

    // First frame arms the backoff; the rest pile into a 4-slot queue.
    a.send(SiteId(3), msg(0), vec![]).unwrap();
    thread::sleep(Duration::from_millis(50));
    for i in 1..20 {
        a.send(SiteId(3), msg(i), vec![]).unwrap();
    }
    let stats = a.stats();
    assert!(
        stats.queue_drops >= 1,
        "overflow must be counted: {stats:?}"
    );
    assert_eq!(stats.enqueued, 20, "{stats:?}");
    assert!(stats.max_queue_depth >= 4, "{stats:?}");
    let dropped = ring
        .drain()
        .into_iter()
        .filter(|e| matches!(e.kind, TraceEventKind::SendQueueDrop { to } if to == SiteId(3)))
        .count();
    assert!(dropped >= 1, "expected SendQueueDrop trace events");
}

/// One envelope is one UDP frame: the sender counts exactly one send
/// and no failure, and the receiver sends nothing back (there is no
/// acknowledgement under the protocol). A `send_to` error is hard to
/// provoke portably; the zero failure count on a healthy link shows
/// the two counters are told apart.
#[test]
fn udp_sends_are_counted() {
    let a = bind(SocketConfig::udp(SiteId(1)));
    let b = bind(SocketConfig::udp(SiteId(2)));
    a.set_peer(SiteId(2), b.local_addr());
    a.send(SiteId(2), msg(5), vec![]).unwrap();
    assert!(recv_until(&b, Duration::from_secs(2)).is_some());
    let start = Instant::now();
    while a.stats().sends == 0 && start.elapsed() < Duration::from_secs(2) {
        thread::sleep(Duration::from_millis(5));
    }
    // Anything the receiver were to answer would be queued by now.
    thread::sleep(Duration::from_millis(50));
    let (sent, received) = (a.stats(), b.stats());
    assert_eq!((sent.sends, sent.send_failures), (1, 0), "{sent:?}");
    assert_eq!((received.enqueued, received.sends), (0, 0), "{received:?}");
}
