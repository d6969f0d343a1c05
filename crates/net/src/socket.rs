//! Real kernel-socket transport for site processes.
//!
//! In-process deployments of the runtime move [`TmMessage`]s over
//! channels; every cost the paper attributes to OS primitives —
//! serialization, syscalls, kernel buffering, genuine loss — is
//! skipped. [`SocketTransport`] pays them: an envelope is encoded with
//! the repo's wire format, wrapped in a [`frame`](crate::frame), and
//! handed to a real socket.
//!
//! Both modes carry one envelope per frame down one path: `send`
//! numbers the envelope from one [`SeqAlloc`], and every received
//! payload is decoded, checked for a misrouted destination and passed
//! through one [`DupFilter`]. Outgoing sequence numbers start at an
//! incarnation-derived base, sampled from the clock at bind (see
//! [`SeqAlloc::starting_at`]), so a restarted site is not mistaken for
//! its past self. The modes differ only in the link:
//!
//! - **UDP** — one datagram per frame over one bound `UdpSocket`.
//!   Datagrams really get lost and reordered.
//! - **TCP** — one framed stream per peer; the kernel orders and
//!   retransmits within a connection, but a frame queued to a peer
//!   that restarts, or evicted from a full queue, is still lost.
//!
//! Nothing here acknowledges or retransmits. A lost frame is recovered
//! the way the paper's transaction managers recover a lost datagram
//! (§4.2 fn. 1), by the commit protocols' own timers: vote timeout,
//! inquiry, notify resend, takeover.
//!
//! Fault injection happens *here*, below the protocol: a
//! [`FaultPlan`]'s drop decision discards a frame bound for a kernel
//! socket, a delay decision hands it to a timer thread that sends it
//! late (real reordering), a duplicate decision sends it twice. The
//! same plans that drive the in-process chaos campaigns therefore
//! drive socket-level campaigns unchanged.
//!
//! Peer addresses are learned two ways: statically via
//! [`SocketTransport::set_peer`] (the supervisor distributes the port
//! map) and dynamically from traffic (a datagram's source address
//! updates the sender's entry), so a site that restarts on a new
//! ephemeral port is re-learned without reconfiguration.
//!
//! **Outbound path.** `send` never touches a kernel socket. It encodes
//! the frame and pushes it onto a bounded per-peer [`SendQueue`]; a
//! dedicated sender thread per peer drains the queue and owns that
//! peer's connection state (cached TCP stream, reconnect
//! [`Backoff`]). Connect and write are timeout-bounded, so the worst
//! a dead or stalled peer can cost is its own sender thread — sends to
//! healthy peers proceed untouched. A full queue evicts its *oldest*
//! frame (counted in [`TransportStats::queue_drops`]); that is safe
//! because the commit protocols above already treat a lost frame as a
//! lost datagram and recover it through their own timers.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write as IoWrite};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration as StdDuration;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use camelot_obs::{TraceEventKind, Tracer};
use camelot_types::wire::Wire;
use camelot_types::{CamelotError, Result, SiteId};

use crate::fault::{FaultPlan, LinkDecision};
use crate::frame::{decode_frame, encode_frame, FRAME_HEADER};
use crate::msg::{Envelope, TmMessage};
use crate::sendq::{Backoff, Pop, Push, SendQueue, TransportCounters, TransportStats};
use crate::transport::{DupFilter, SeqAlloc};
use crate::FrameDecoder;

/// How long a sender thread parks in `pop` before re-checking for
/// shutdown.
const POP_WAIT: StdDuration = StdDuration::from_millis(50);

/// Upper bound on one TCP connect attempt.
const CONNECT_TIMEOUT: StdDuration = StdDuration::from_millis(250);

/// Which kernel transport carries the frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketMode {
    /// Datagrams; loss and reordering are real.
    Udp,
    /// Framed streams; the kernel orders frames within a connection.
    Tcp,
}

impl SocketMode {
    /// Parses the CLI spelling used by `camelot-site --transport`.
    pub fn parse(s: &str) -> Option<SocketMode> {
        match s {
            "udp" => Some(SocketMode::Udp),
            "tcp" => Some(SocketMode::Tcp),
            _ => None,
        }
    }
}

/// Construction parameters for a [`SocketTransport`].
#[derive(Debug, Clone)]
pub struct SocketConfig {
    pub site: SiteId,
    pub mode: SocketMode,
    /// How long one [`SocketTransport::recv`] call waits for traffic
    /// before returning `None`.
    pub recv_timeout: StdDuration,
    /// Per-peer send-queue bound; a full queue evicts its oldest frame.
    pub send_queue: usize,
    /// Upper bound on one TCP write (a peer that accepts but stops
    /// reading fails the write instead of wedging its sender thread
    /// forever).
    pub write_timeout: StdDuration,
    /// First reconnect delay after a failed connect.
    pub reconnect_base: StdDuration,
    /// Reconnect backoff cap.
    pub reconnect_cap: StdDuration,
}

impl SocketConfig {
    pub fn new(site: SiteId, mode: SocketMode) -> SocketConfig {
        SocketConfig {
            site,
            mode,
            recv_timeout: StdDuration::from_millis(20),
            send_queue: 256,
            write_timeout: StdDuration::from_secs(1),
            reconnect_base: StdDuration::from_millis(25),
            reconnect_cap: StdDuration::from_secs(2),
        }
    }

    pub fn udp(site: SiteId) -> SocketConfig {
        SocketConfig::new(site, SocketMode::Udp)
    }

    pub fn tcp(site: SiteId) -> SocketConfig {
        SocketConfig::new(site, SocketMode::Tcp)
    }
}

/// One deduplicated inbound delivery.
#[derive(Debug, PartialEq, Eq)]
pub struct Delivery {
    pub from: SiteId,
    pub messages: Vec<TmMessage>,
}

struct Inner {
    site: SiteId,
    mode: SocketMode,
    recv_timeout: StdDuration,
    /// UDP mode: the one socket used for both directions, and the
    /// buffer `recv` reads each datagram into (only the owning
    /// runtime's receive loop calls `recv`, so its lock is free).
    udp: Option<(UdpSocket, Mutex<Box<[u8]>>)>,
    local: SocketAddr,
    /// Outgoing sequence numbers and inbound duplicate suppression,
    /// one of each for both modes: injected duplicate faults reach a
    /// TCP peer as surely as a UDP one.
    seqs: Mutex<SeqAlloc>,
    dups: Mutex<DupFilter>,
    peers: Mutex<HashMap<SiteId, SocketAddr>>,
    /// Per-peer outbound queues, each drained by its own sender
    /// thread (spawned lazily on first send to that peer). Connection
    /// state lives in the sender thread, never under this lock.
    queues: Mutex<HashMap<SiteId, Arc<SendQueue>>>,
    counters: TransportCounters,
    send_queue: usize,
    write_timeout: StdDuration,
    reconnect_base: StdDuration,
    reconnect_cap: StdDuration,
    /// TCP mode: frame payloads pushed by per-connection reader
    /// threads.
    tcp_rx: Mutex<Option<Receiver<Vec<u8>>>>,
    fault: Arc<FaultPlan>,
    tracer: Tracer,
    shutdown: AtomicBool,
}

/// A site's endpoint. All methods take `&self`. A site process's
/// runtime (`camelot_rt::Cluster::new_site`) owns it and runs its one
/// receive loop; any of the runtime's threads send through it.
pub struct SocketTransport {
    inner: Arc<Inner>,
}

impl SocketTransport {
    /// Binds on `127.0.0.1` with an OS-assigned port. `fault` is
    /// consulted for every outgoing frame; pass
    /// `Arc::new(FaultPlan::disabled())` for a clean link.
    pub fn bind(
        cfg: SocketConfig,
        fault: Arc<FaultPlan>,
        tracer: Tracer,
    ) -> std::io::Result<SocketTransport> {
        // Outgoing sequence numbers start at microseconds since the
        // Unix epoch: strictly above anything a previous incarnation
        // can have allocated (bases are sampled at boot and each
        // incarnation adds far fewer than one sequence number per
        // elapsed microsecond), so a restarted site is not filtered as
        // a replay of its past self.
        let seq_base = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(1);
        let (udp, local, tcp_rx) = match cfg.mode {
            SocketMode::Udp => {
                let sock = UdpSocket::bind("127.0.0.1:0")?;
                sock.set_read_timeout(Some(cfg.recv_timeout))?;
                let local = sock.local_addr()?;
                let buf = Mutex::new(vec![0u8; 64 * 1024].into_boxed_slice());
                (Some((sock, buf)), local, None)
            }
            SocketMode::Tcp => {
                let listener = TcpListener::bind("127.0.0.1:0")?;
                listener.set_nonblocking(true)?;
                let local = listener.local_addr()?;
                (None, local, Some(listener))
            }
        };
        let inner = Arc::new(Inner {
            site: cfg.site,
            mode: cfg.mode,
            recv_timeout: cfg.recv_timeout,
            udp,
            local,
            seqs: Mutex::new(SeqAlloc::starting_at(seq_base)),
            dups: Mutex::new(DupFilter::new(64)),
            peers: Mutex::new(HashMap::new()),
            queues: Mutex::new(HashMap::new()),
            counters: TransportCounters::default(),
            send_queue: cfg.send_queue,
            write_timeout: cfg.write_timeout,
            reconnect_base: cfg.reconnect_base,
            reconnect_cap: cfg.reconnect_cap,
            tcp_rx: Mutex::new(None),
            fault,
            tracer,
            shutdown: AtomicBool::new(false),
        });
        if let Some(listener) = tcp_rx {
            let (tx, rx) = mpsc::channel();
            *inner.tcp_rx.lock().unwrap() = Some(rx);
            let accept_inner = Arc::clone(&inner);
            thread::spawn(move || accept_loop(accept_inner, listener, tx));
        }
        Ok(SocketTransport { inner })
    }

    /// The address peers should send to.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local
    }

    pub fn site(&self) -> SiteId {
        self.inner.site
    }

    pub fn mode(&self) -> SocketMode {
        self.inner.mode
    }

    /// The fault plan consulted on the send path.
    pub fn fault(&self) -> &Arc<FaultPlan> {
        &self.inner.fault
    }

    /// Registers (or moves) a peer's address. When the address
    /// changes, the peer's sender thread is told to drop its cached
    /// connection and reconnect to the new one.
    pub fn set_peer(&self, site: SiteId, addr: SocketAddr) {
        let old = self.inner.peers.lock().unwrap().insert(site, addr);
        if old != Some(addr) {
            if let Some(q) = self.inner.queues.lock().unwrap().get(&site) {
                q.bump_addr_gen();
            }
        }
    }

    /// The currently known peer addresses.
    pub fn peer(&self, site: SiteId) -> Option<SocketAddr> {
        self.inner.peers.lock().unwrap().get(&site).copied()
    }

    /// Sends `primary` (+`piggyback`) to `to` as one envelope in one
    /// frame. Returns `CamelotError::SiteDown` when the peer's address
    /// is unknown; anything that happens to the frame after that is,
    /// to the protocol, a lost datagram.
    pub fn send(&self, to: SiteId, primary: TmMessage, piggyback: Vec<TmMessage>) -> Result<()> {
        let inner = &self.inner;
        if inner.peers.lock().unwrap().get(&to).is_none() {
            return Err(CamelotError::SiteDown(to));
        }
        let env_bytes = Envelope {
            src: inner.site,
            dst: to,
            seq: inner.seqs.lock().unwrap().next(to),
            primary,
            piggyback,
        }
        .to_bytes();
        inner.tracer.site_event(TraceEventKind::WireEncode {
            bytes: env_bytes.len() as u32,
        });
        let frame = encode_frame(&env_bytes);
        inner.dispatch(to, frame);
        Ok(())
    }

    /// Waits up to the configured receive timeout for one fresh
    /// delivery. `Ok(None)` means "nothing new" (timeout or a
    /// suppressed duplicate); the caller just loops.
    pub fn recv(&self) -> Result<Option<Delivery>> {
        match self.inner.mode {
            SocketMode::Udp => self.recv_udp(),
            SocketMode::Tcp => self.recv_tcp(),
        }
    }

    fn recv_udp(&self) -> Result<Option<Delivery>> {
        let inner = &self.inner;
        let (sock, buf) = inner.udp.as_ref().expect("udp mode");
        let (payload, from_addr) = {
            let mut buf = buf.lock().unwrap();
            match sock.recv_from(&mut buf) {
                Ok((n, from_addr)) => (decode_frame(&buf[..n])?.0, from_addr),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(None)
                }
                Err(e) => return Err(CamelotError::Log(format!("udp recv: {e}"))),
            }
        };
        inner.accept(&payload, Some(from_addr))
    }

    fn recv_tcp(&self) -> Result<Option<Delivery>> {
        let inner = &self.inner;
        let payload = {
            let rx = inner.tcp_rx.lock().unwrap();
            let rx = rx.as_ref().expect("tcp mode");
            match rx.recv_timeout(inner.recv_timeout) {
                Ok(p) => p,
                Err(_) => return Ok(None),
            }
        };
        inner.accept(&payload, None)
    }

    /// Snapshot of the outbound path's counters, with the current
    /// total queue depth across all peers.
    pub fn stats(&self) -> TransportStats {
        let depth: usize = self
            .inner
            .queues
            .lock()
            .unwrap()
            .values()
            .map(|q| q.len())
            .sum();
        self.inner.counters.snapshot(depth as u64)
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Wake every sender thread so it notices the shutdown flag.
        for q in self.inner.queues.lock().unwrap().values() {
            q.close();
        }
    }
}

impl Inner {
    /// One received frame payload, in either mode: decodes the
    /// envelope, refuses one addressed to another site, and suppresses
    /// a duplicate (`Ok(None)`). `from_addr` is a UDP datagram's
    /// source, learned as the sender's address so a site that restarts
    /// on a new port is heard from without reconfiguration.
    fn accept(&self, payload: &[u8], from_addr: Option<SocketAddr>) -> Result<Option<Delivery>> {
        self.tracer.site_event(TraceEventKind::WireDecode {
            bytes: payload.len() as u32,
        });
        let env = Envelope::from_bytes(payload)?;
        if env.dst != self.site {
            return Err(CamelotError::Codec(format!(
                "misrouted envelope for {} at {}",
                env.dst, self.site
            )));
        }
        if let Some(addr) = from_addr {
            self.peers.lock().unwrap().insert(env.src, addr);
        }
        self.tracer.site_event(TraceEventKind::SocketRecv {
            from: env.src,
            bytes: (FRAME_HEADER + payload.len()) as u32,
        });
        if !self.dups.lock().unwrap().accept(env.src, env.seq) {
            return Ok(None);
        }
        let mut messages = vec![env.primary];
        messages.extend(env.piggyback);
        Ok(Some(Delivery {
            from: env.src,
            messages,
        }))
    }

    /// Applies the fault plan and hands `frame` to the peer's send
    /// queue (possibly late, twice, or never).
    fn dispatch(self: &Arc<Inner>, to: SiteId, frame: Vec<u8>) {
        match self.fault.link_decision(self.site, to) {
            LinkDecision::Deliver => self.enqueue(to, frame),
            LinkDecision::Drop => {}
            LinkDecision::Delay(d) => {
                let inner = Arc::clone(self);
                thread::spawn(move || {
                    thread::sleep(d);
                    if !inner.shutdown.load(Ordering::SeqCst) {
                        inner.enqueue(to, frame);
                    }
                });
            }
            LinkDecision::Duplicate(d) => {
                self.enqueue(to, frame.clone());
                let inner = Arc::clone(self);
                thread::spawn(move || {
                    thread::sleep(d);
                    if !inner.shutdown.load(Ordering::SeqCst) {
                        inner.enqueue(to, frame);
                    }
                });
            }
        }
    }

    /// Queues `frame` for the peer's sender thread, creating queue and
    /// thread on first use. Never blocks and never touches a socket:
    /// a wedged peer costs its own sender thread, nothing else.
    fn enqueue(self: &Arc<Inner>, to: SiteId, frame: Vec<u8>) {
        let q = {
            let mut queues = self.queues.lock().unwrap();
            match queues.get(&to) {
                Some(q) => Arc::clone(q),
                None => {
                    let q = Arc::new(SendQueue::new(self.send_queue));
                    queues.insert(to, Arc::clone(&q));
                    let inner = Arc::clone(self);
                    let dq = Arc::clone(&q);
                    thread::spawn(move || drain_peer(inner, to, dq));
                    q
                }
            }
        };
        match q.push(frame) {
            Push::Queued => {
                TransportCounters::bump(&self.counters.enqueued);
            }
            Push::Evicted => {
                TransportCounters::bump(&self.counters.enqueued);
                TransportCounters::bump(&self.counters.queue_drops);
                self.tracer.site_event(TraceEventKind::SendQueueDrop { to });
            }
            Push::Closed => {}
        }
        self.counters.observe_depth(q.len() as u64);
    }

    /// Counts one frame the kernel accepted.
    fn note_sent(&self, to: SiteId, bytes: usize) {
        TransportCounters::bump(&self.counters.sends);
        self.tracer.site_event(TraceEventKind::SocketSend {
            to,
            bytes: bytes as u32,
        });
    }

    /// Counts one frame the transport had to give up on. To the
    /// protocol it is a lost datagram; the trace event and counter
    /// exist so chaos campaigns can tell transport faults from
    /// injected drops.
    fn note_failed(&self, to: SiteId) {
        TransportCounters::bump(&self.counters.send_failures);
        self.tracer
            .site_event(TraceEventKind::SocketSendFailed { to });
    }
}

/// Per-peer connection state owned by one sender thread.
struct PeerLink {
    conn: Option<TcpStream>,
    /// `addr_gen` value the cached connection was made under; a bump
    /// (peer address changed) invalidates the connection.
    conn_gen: u64,
    backoff: Backoff,
    /// Earliest time for the next connect attempt, set by the backoff
    /// after a failure.
    retry_at: Option<Instant>,
}

/// Sender thread: drains one peer's queue onto the kernel socket.
/// Exits when the transport shuts down or the queue is closed and
/// drained.
fn drain_peer(inner: Arc<Inner>, to: SiteId, q: Arc<SendQueue>) {
    let mut link = PeerLink {
        conn: None,
        conn_gen: q.addr_gen(),
        backoff: Backoff::new(inner.reconnect_base, inner.reconnect_cap),
        retry_at: None,
    };
    while !inner.shutdown.load(Ordering::SeqCst) {
        let frame = match q.pop(POP_WAIT) {
            Pop::Frame(f) => f,
            Pop::TimedOut => continue,
            Pop::Closed => return,
        };
        // Honor the reconnect backoff before spending a syscall on
        // this frame, still waking often enough to notice shutdown.
        while let Some(at) = link.retry_at {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let now = Instant::now();
            if now >= at {
                link.retry_at = None;
                break;
            }
            thread::sleep((at - now).min(POP_WAIT));
        }
        match inner.mode {
            SocketMode::Udp => transmit_udp(&inner, to, &frame),
            SocketMode::Tcp => transmit_tcp(&inner, to, &q, &mut link, &frame),
        }
    }
}

fn transmit_udp(inner: &Inner, to: SiteId, frame: &[u8]) {
    let Some(addr) = inner.peers.lock().unwrap().get(&to).copied() else {
        inner.note_failed(to);
        return;
    };
    let (sock, _) = inner.udp.as_ref().expect("udp mode");
    if sock.send_to(frame, addr).is_ok() {
        inner.note_sent(to, frame.len());
    } else {
        inner.note_failed(to);
    }
}

fn transmit_tcp(inner: &Inner, to: SiteId, q: &SendQueue, link: &mut PeerLink, frame: &[u8]) {
    // A moved peer invalidates the cached connection and any backoff
    // accumulated against the old address.
    let gen = q.addr_gen();
    if gen != link.conn_gen {
        link.conn = None;
        link.conn_gen = gen;
        link.backoff.reset();
        link.retry_at = None;
    }
    // Two attempts: a write failure on a cached stream usually means
    // the peer restarted since the last frame, so reconnect once and
    // retry before declaring the frame lost. Any write error discards
    // the stream — a partial write poisons the peer's frame decoder,
    // and a fresh connection gets a fresh decoder.
    for attempt in 0..2 {
        if link.conn.is_none() && !tcp_connect(inner, to, link) {
            inner.note_failed(to);
            return;
        }
        let stream = link.conn.as_mut().expect("connected above");
        match stream.write_all(frame) {
            Ok(()) => {
                inner.note_sent(to, frame.len());
                return;
            }
            Err(_) => {
                link.conn = None;
                if attempt == 1 {
                    inner.note_failed(to);
                }
            }
        }
    }
}

/// One bounded connect attempt; on failure arms the backoff timer.
fn tcp_connect(inner: &Inner, to: SiteId, link: &mut PeerLink) -> bool {
    let Some(addr) = inner.peers.lock().unwrap().get(&to).copied() else {
        link.retry_at = Some(Instant::now() + link.backoff.failure());
        return false;
    };
    match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
        Ok(stream) => {
            let _ = stream.set_nodelay(true);
            let _ = stream.set_write_timeout(Some(inner.write_timeout));
            TransportCounters::bump(&inner.counters.connects);
            link.backoff.reset();
            link.conn = Some(stream);
            true
        }
        Err(_) => {
            TransportCounters::bump(&inner.counters.connect_failures);
            link.retry_at = Some(Instant::now() + link.backoff.failure());
            false
        }
    }
}

/// TCP acceptor: picks up inbound connections and spawns one reader
/// per stream. Frame payloads (not yet decoded as envelopes) flow into
/// `tx`; the receive loop decodes on its own thread.
fn accept_loop(inner: Arc<Inner>, listener: TcpListener, tx: Sender<Vec<u8>>) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_read_timeout(Some(StdDuration::from_millis(50)));
                let inner = Arc::clone(&inner);
                let tx = tx.clone();
                thread::spawn(move || read_loop(inner, stream, tx));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(StdDuration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// Reassembles frames from one inbound stream until EOF, error, or
/// transport shutdown. A poisoned decoder (bad magic/version/CRC) ends
/// the connection: streams are not resynchronizable.
fn read_loop(inner: Arc<Inner>, mut stream: TcpStream, tx: Sender<Vec<u8>>) {
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    while !inner.shutdown.load(Ordering::SeqCst) {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                dec.extend(&buf[..n]);
                loop {
                    match dec.next_frame() {
                        Ok(Some(payload)) => {
                            if tx.send(payload).is_err() {
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => return,
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_types::{FamilyId, Tid};

    /// The link kinds every mode-independent case runs over.
    const MODES: [SocketMode; 2] = [SocketMode::Udp, SocketMode::Tcp];

    fn msg(seq: u64) -> TmMessage {
        TmMessage::Commit {
            tid: Tid::top_level(FamilyId {
                origin: SiteId(1),
                seq,
            }),
        }
    }

    fn bind(site: u32, mode: SocketMode, fault: &Arc<FaultPlan>) -> SocketTransport {
        SocketTransport::bind(
            SocketConfig::new(SiteId(site), mode),
            Arc::clone(fault),
            Tracer::disabled(),
        )
        .unwrap()
    }

    fn clean(site: u32, mode: SocketMode) -> SocketTransport {
        bind(site, mode, &Arc::new(FaultPlan::disabled()))
    }

    /// Sites 1 and 2, each knowing the other; site 1 sends through
    /// `fault`.
    fn pair(mode: SocketMode, fault: &Arc<FaultPlan>) -> (SocketTransport, SocketTransport) {
        let a = bind(1, mode, fault);
        let b = clean(2, mode);
        a.set_peer(SiteId(2), b.local_addr());
        b.set_peer(SiteId(1), a.local_addr());
        (a, b)
    }

    fn recv_until(t: &SocketTransport, deadline: StdDuration) -> Option<Delivery> {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if let Some(d) = t.recv().unwrap() {
                return Some(d);
            }
        }
        None
    }

    /// Receives until `t` reports an error, which it returns.
    fn recv_error(t: &SocketTransport) -> CamelotError {
        let start = Instant::now();
        while start.elapsed() < StdDuration::from_secs(2) {
            match t.recv() {
                Ok(None) => {}
                Ok(Some(d)) => panic!("delivered {d:?}"),
                Err(e) => return e,
            }
        }
        panic!("no error within 2s");
    }

    /// Writes `frame` to `to` from a bare kernel socket of `mode`'s
    /// kind, with no transport above it.
    fn send_raw(mode: SocketMode, to: SocketAddr, frame: &[u8]) {
        match mode {
            SocketMode::Udp => {
                let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
                sock.send_to(frame, to).unwrap();
            }
            SocketMode::Tcp => TcpStream::connect(to).unwrap().write_all(frame).unwrap(),
        }
    }

    /// A bare kernel socket standing in for a peer.
    enum RawPeer {
        Udp(UdpSocket),
        Tcp(TcpListener),
    }

    impl RawPeer {
        fn bind(mode: SocketMode) -> RawPeer {
            match mode {
                SocketMode::Udp => RawPeer::Udp(UdpSocket::bind("127.0.0.1:0").unwrap()),
                SocketMode::Tcp => RawPeer::Tcp(TcpListener::bind("127.0.0.1:0").unwrap()),
            }
        }

        fn addr(&self) -> SocketAddr {
            match self {
                RawPeer::Udp(s) => s.local_addr().unwrap(),
                RawPeer::Tcp(l) => l.local_addr().unwrap(),
            }
        }

        /// The payload of the first frame sent here.
        fn first_payload(&self) -> Vec<u8> {
            let mut buf = vec![0u8; 64 * 1024];
            let timeout = Some(StdDuration::from_secs(2));
            match self {
                RawPeer::Udp(s) => {
                    s.set_read_timeout(timeout).unwrap();
                    let (n, _) = s.recv_from(&mut buf).expect("first datagram");
                    decode_frame(&buf[..n]).unwrap().0
                }
                RawPeer::Tcp(l) => {
                    let (mut stream, _) = l.accept().expect("first connection");
                    stream.set_read_timeout(timeout).unwrap();
                    let mut dec = FrameDecoder::new();
                    loop {
                        if let Some(p) = dec.next_frame().unwrap() {
                            return p;
                        }
                        let n = stream.read(&mut buf).expect("first frame");
                        assert!(n > 0, "stream closed before one frame");
                        dec.extend(&buf[..n]);
                    }
                }
            }
        }
    }

    #[test]
    fn roundtrip_both_directions() {
        for mode in MODES {
            let (a, b) = pair(mode, &Arc::new(FaultPlan::disabled()));
            a.send(SiteId(2), msg(1), vec![msg(2)]).unwrap();
            let d = recv_until(&b, StdDuration::from_secs(2)).expect("delivery");
            assert_eq!(d.from, SiteId(1), "{mode:?}");
            assert_eq!(d.messages, vec![msg(1), msg(2)], "{mode:?}");
            b.send(SiteId(1), msg(3), vec![]).unwrap();
            let d = recv_until(&a, StdDuration::from_secs(2)).expect("reply");
            assert_eq!(d.from, SiteId(2), "{mode:?}");
            assert_eq!(d.messages, vec![msg(3)], "{mode:?}");
        }
    }

    #[test]
    fn udp_learns_peer_address_from_traffic() {
        let a = clean(1, SocketMode::Udp);
        let b = clean(2, SocketMode::Udp);
        // Only `a` knows `b`; `b` discovers `a` from the datagram.
        a.set_peer(SiteId(2), b.local_addr());
        a.send(SiteId(2), msg(1), vec![]).unwrap();
        recv_until(&b, StdDuration::from_secs(2)).expect("delivery");
        assert_eq!(b.peer(SiteId(1)), Some(a.local_addr()));
        // And can now send back.
        b.send(SiteId(1), msg(2), vec![]).unwrap();
        let d = recv_until(&a, StdDuration::from_secs(2)).expect("reply");
        assert_eq!(d.from, SiteId(2));
    }

    #[test]
    fn duplicate_fault_is_suppressed() {
        for mode in MODES {
            let fault = Arc::new(FaultPlan::disabled());
            fault.script_fault(
                SiteId(1),
                SiteId(2),
                0,
                LinkDecision::Duplicate(StdDuration::from_millis(30)),
            );
            let (a, b) = pair(mode, &fault);
            a.send(SiteId(2), msg(9), vec![]).unwrap();
            let mut fresh = 0;
            let start = Instant::now();
            while start.elapsed() < StdDuration::from_millis(300) {
                if b.recv().unwrap().is_some() {
                    fresh += 1;
                }
            }
            assert_eq!(fault.stats().duplicates, 1, "{mode:?}");
            assert_eq!(fresh, 1, "{mode:?}: the duplicated frame must deliver once");
            assert_eq!(a.stats().sends, 2, "{mode:?}: both copies went out");
        }
    }

    /// An envelope for site 3 arriving at site 2 is an error, not a
    /// delivery.
    #[test]
    fn misrouted_envelope_is_refused() {
        for mode in MODES {
            let b = clean(2, mode);
            let env = Envelope {
                src: SiteId(1),
                dst: SiteId(3),
                seq: 0,
                primary: msg(1),
                piggyback: vec![],
            };
            send_raw(mode, b.local_addr(), &encode_frame(&env.to_bytes()));
            let e = recv_error(&b);
            assert!(
                e.to_string().contains("misrouted envelope"),
                "{mode:?}: {e}"
            );
        }
    }

    /// A well-framed payload that is not an envelope is an error.
    #[test]
    fn garbage_payload_is_an_error() {
        for mode in MODES {
            let b = clean(2, mode);
            for garbage in [&[1u8, 2, 3][..], &[]] {
                send_raw(mode, b.local_addr(), &encode_frame(garbage));
                assert!(matches!(recv_error(&b), CamelotError::Codec(_)), "{mode:?}");
            }
        }
    }

    /// A restarted site must number its first envelope above anything
    /// its previous incarnation sent, or peers filter it as a replay.
    /// The base is the wall clock in microseconds, taken inside `bind`.
    #[test]
    fn first_sequence_number_is_the_wall_clock_at_bind() {
        fn micros_now() -> u64 {
            SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .unwrap()
                .as_micros() as u64
        }
        for mode in MODES {
            let before = micros_now();
            let a = clean(1, mode);
            let peer = RawPeer::bind(mode);
            a.set_peer(SiteId(2), peer.addr());
            a.send(SiteId(2), msg(1), vec![]).unwrap();
            let seq = Envelope::from_bytes(&peer.first_payload()).unwrap().seq;
            assert!((before..=micros_now()).contains(&seq), "{mode:?} seq {seq}");
        }
    }

    #[test]
    fn send_to_unknown_peer_is_site_down() {
        for mode in MODES {
            let a = clean(1, mode);
            assert!(matches!(
                a.send(SiteId(9), msg(1), vec![]),
                Err(CamelotError::SiteDown(SiteId(9)))
            ));
        }
    }
}
