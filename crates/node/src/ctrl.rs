//! Control-plane protocol for `camelot-site` processes.
//!
//! A site process exposes two sockets: the *data* socket carrying
//! inter-TranMan traffic (see `camelot_net::SocketTransport`) and a
//! *control* TCP socket carrying this protocol. The control plane is
//! the multi-process stand-in for the in-process [`Client`] handle and
//! the test harness hooks — beginning transactions, issuing
//! operations, committing with an explicit participant list, arming
//! crash points, and draining the trace ring.
//!
//! Requests and replies use the repo's wire format, carried in the
//! same length-prefixed CRC-guarded frames as the data plane, so one
//! `FrameDecoder` per connection reassembles them from the stream.
//!
//! [`Client`]: ../../camelot_rt/client/struct.Client.html

use std::io::{Read as IoRead, Write as IoWrite};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration as StdDuration;

use camelot_net::{encode_frame, FaultStats, FrameDecoder, TransportStats};
use camelot_obs::{PhaseSnapshot, ProtocolPhaseSnapshot};
use camelot_rt::SiteStats;
use camelot_types::wire::{Reader, Wire, Writer};
use camelot_types::{
    wire_enum, wire_struct, CamelotError, CrashPoint, ObjectId, Result, ServerId, SiteId, Tid,
};

wire_struct! {
    /// One site's data-plane address, as distributed by the launcher.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PeerEntry {
        pub site: SiteId,
        /// Socket address in its canonical textual form.
        pub addr: String,
    }
}

wire_enum! {
    /// A request to a site process.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum CtrlRequest {
        /// Liveness probe; answered with [`CtrlReply::Pong`].
        1 => Ping,
        /// Install the data-plane address of every peer site.
        2 => Peers { peers: Vec<PeerEntry> },
        /// `begin-transaction` homed at this site.
        3 => Begin,
        /// Read an object at a local server under `tid`.
        4 => Read { tid: Tid, server: ServerId, object: ObjectId },
        /// Write an object at a local server under `tid`.
        5 => Write { tid: Tid, server: ServerId, object: ObjectId, value: Vec<u8> },
        /// Commit `tid` with this site as coordinator. `participants`
        /// declares the remote spread — in a multi-process deployment the
        /// driving application talks to each site directly, so the home
        /// communication manager never spies the remote operations.
        6 => Commit { tid: Tid, nonblocking: bool, participants: Vec<SiteId> },
        /// Abort `tid`, with the same explicit participant list.
        7 => Abort { tid: Tid, participants: Vec<SiteId> },
        /// The committed (post-recovery-visible) value of an object.
        8 => CommittedValue { server: ServerId, object: ObjectId },
        /// One-line-per-entity dump of live protocol state.
        9 => DebugState,
        /// Arm a one-shot crash of this site at the named point. When the
        /// crash fires, the watchdog turns it into a real process exit.
        10 => ArmCrash { point: CrashPoint },
        /// Stop all fault injection on this site's plan.
        11 => Heal,
        // 12 was `DrainTrace` (the whole ring in one frame); retired, not reused.
        /// Clean process exit.
        13 => Shutdown,
        /// Snapshot the data-plane transport's outbound counters.
        14 => TransportStats,
        /// Snapshot the site's fault-injection counters.
        15 => FaultStats,
        /// Install a symmetric partition between two site groups on this
        /// site's fault plan. Each site only rolls faults for its own
        /// outbound traffic, so the launcher installs the same partition
        /// on every site to make both directions go dark.
        16 => Partition { a: Vec<SiteId>, b: Vec<SiteId> },
        /// Scale a site's protocol-timer durations by `per_mille`/1000
        /// (1500 = timers fire 50% late; 1000 clears the skew).
        17 => SetSkew { site: SiteId, per_mille: u32 },
        /// Per-site restart counts. Only the supervisor's own control
        /// listener answers this; a plain site replies with an error.
        18 => RestartStats,
        /// Snapshot the site's per-phase latency histograms (plain and
        /// protocol-keyed). Read-only: histograms keep accumulating.
        19 => PhaseStats,
        /// Snapshot the site's engine/WAL/server/queue counters — the
        /// scrape endpoint the `camelot-scope` collector polls.
        20 => EngineStats,
        /// Drain at most `max_events` trace events as JSON Lines. Repeat
        /// until an empty reply: a chunked drain can never exceed the
        /// frame cap however large the ring has grown.
        21 => DrainTraceChunk { max_events: u32 },
        /// Test hook: emit `events` synthetic trace events into the
        /// site's ring, so harnesses can provoke oversized rings without
        /// running a workload.
        22 => FillTrace { events: u32 },
        _ => "unknown ctrl request",
    }
}

wire_enum! {
    /// A site process's reply.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum CtrlReply {
        1 => Ok,
        2 => Pong { site: SiteId },
        3 => Began { tid: Tid },
        4 => Value { value: Vec<u8> },
        /// Commit outcome: `true` is committed, `false` aborted.
        5 => Outcome { committed: bool },
        6 => State { dump: String },
        7 => Trace { jsonl: String },
        /// A typed error rendered for transport; the call provably or
        /// possibly did not take effect (the detail says which).
        8 => Err { detail: String },
        /// Snapshot of the data-plane transport's outbound counters.
        9 => Transport { stats: TransportStats },
        /// Snapshot of the site's fault-injection counters.
        10 => Fault { stats: FaultStats },
        /// Per-site restart counts from the supervisor.
        11 => Restarts { counts: Vec<RestartEntry> },
        /// Per-phase latency histograms: plain and protocol-keyed.
        /// Boxed: the snapshots are multi-KiB fixed-bucket arrays and
        /// would otherwise balloon every reply on the stack.
        12 => Phases { phases: Box<PhaseSnapshot>, proto: Box<ProtocolPhaseSnapshot> },
        /// Engine/WAL/server/queue counter snapshot (boxed for the same
        /// reason as the histograms).
        13 => Engine { stats: Box<SiteStatsWire> },
        _ => "unknown ctrl reply",
    }
}

/// States the counters of [`SiteStatsWire`] once — name, and where
/// the value comes from in a `camelot_rt::SiteStats` — and derives the
/// struct, `from_stats`, `fields` and the wire codec from
/// that one list, so no two of them can disagree about the order.
macro_rules! site_stats_wire {
    (|$s:ident, $router_pending:ident| $($(#[$doc:meta])* $name:ident = $from:expr,)*) => {
        /// A site's counter snapshot on the wire — the flat-u64 rendering of
        /// `camelot_rt::SiteStats` (histograms travel separately via
        /// [`CtrlReply::Phases`]). All counters are cumulative since process
        /// start; the collector derives rates by differencing scrapes.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct SiteStatsWire {
            pub site: SiteId,
            $($(#[$doc])* pub $name: u64,)*
        }

        impl SiteStatsWire {
            const COUNT: usize = [$(stringify!($name)),*].len();

            /// Flattens a runtime stats snapshot. A site process hosts
            /// one site, so the cluster's router is this site's.
            pub fn from_stats($s: &SiteStats, $router_pending: u64) -> Self {
                SiteStatsWire { site: $s.site, $($name: $from,)* }
            }

            /// The counters in stable `(name, value)` order — one source for
            /// the wire layout, JSON rendering, and rate derivation.
            pub fn fields(&self) -> [(&'static str, u64); Self::COUNT] {
                [$((stringify!($name), self.$name),)*]
            }
        }

        impl Wire for SiteStatsWire {
            fn encode(&self, w: &mut Writer) {
                w.put(&self.site);
                for (_, v) in self.fields() {
                    w.put_u64(v);
                }
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                Ok(SiteStatsWire { site: r.get()?, $($name: r.get_u64()?,)* })
            }
        }
    };
}

site_stats_wire! { |s, router_pending|
    // Engine protocol counters.
    begins = s.engine.begins,
    nested_begins = s.engine.nested_begins,
    commits = s.engine.commits,
    read_only_commits = s.engine.read_only_commits,
    aborts = s.engine.aborts,
    forces = s.engine.forces,
    lazy_appends = s.engine.lazy_appends,
    datagrams = s.engine.datagrams,
    piggybacked = s.engine.piggybacked,
    takeovers = s.engine.takeovers,
    blocked = s.engine.blocked,
    live_families = s.live_families as u64,
    // WAL counters.
    wal_records = s.wal.records,
    wal_forces_requested = s.wal.forces_requested,
    wal_forces_effective = s.wal.forces_effective,
    // Runtime counters.
    lock_wait_us = s.lock_wait.as_micros() as u64,
    inputs = s.inputs,
    /// Inputs that crossed to the TranMan worker pool (thread
    /// hand-offs); `inputs` counts every engine step on any thread.
    worker_inputs = s.worker_inputs,
    /// Gauge: deliveries the site's router holds (live timers plus
    /// datagrams in flight).
    router_pending = router_pending,
    platter_writes = s.platter_writes,
    forces_satisfied = s.forces_satisfied,
    max_batch = s.max_batch,
    lazy_drained = s.lazy_drained,
    /// Checkpoints completed (durable, log truncated below them).
    checkpoints = s.checkpoints,
    /// Log bytes discarded by truncation.
    wal_truncated_bytes = s.wal_truncated_bytes,
    /// Gauge: log bytes a restart would scan right now.
    wal_live_bytes = s.wal_live_bytes,
    /// Gauge: snapshot bytes the last completed checkpoint wrote.
    snapshot_bytes = s.snapshot_bytes,
    /// Gauge: duration of the site's last restart (its recovery of the
    /// log it was started on), in microseconds.
    last_restart_us = s.last_restart.as_micros() as u64,
    queue_ops = s.queue_ops,
    queue_parked = s.queue_parked,
    queue_vote_timeouts = s.queue_vote_timeouts,
    queue_cascades = s.queue_cascades,
    // Data-server counters (summed over the site's servers).
    reads = s.servers.reads,
    writes = s.servers.writes,
    lock_waits = s.servers.lock_waits,
    joins = s.servers.joins,
    deadlocks = s.servers.deadlocks,
    // Trace-ring health: nonzero drops mean truncated timelines.
    trace_emitted = s.trace_emitted,
    trace_dropped = s.trace_dropped,
}

impl SiteStatsWire {
    /// The fields that are levels, not cumulative counters: they fall
    /// in normal operation, so a drop says nothing about a restart.
    pub const GAUGES: [&'static str; 5] = [
        "live_families",
        "router_pending",
        "wal_live_bytes",
        "snapshot_bytes",
        "last_restart_us",
    ];
}

wire_struct! {
    /// One site's restart count, as reported by the supervisor.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RestartEntry {
        pub site: SiteId,
        pub restarts: u32,
    }
}

/// Writes one wire value as a frame on a stream.
pub fn write_framed<T: Wire>(stream: &mut TcpStream, value: &T) -> std::io::Result<()> {
    stream.write_all(&encode_frame(&value.to_bytes()))
}

/// Reads the next framed wire value off a stream, feeding `dec`.
/// `Ok(None)` means the peer closed the stream cleanly between frames.
pub fn read_framed<T: Wire>(stream: &mut TcpStream, dec: &mut FrameDecoder) -> Result<Option<T>> {
    let mut buf = [0u8; 16 * 1024];
    loop {
        if let Some(payload) = dec.next_frame()? {
            return T::from_bytes(&payload).map(Some);
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                if dec.buffered() == 0 {
                    return Ok(None);
                }
                return Err(CamelotError::Codec("ctrl stream ended mid-frame".into()));
            }
            Ok(n) => dec.extend(&buf[..n]),
            Err(e) => return Err(CamelotError::Log(format!("ctrl read: {e}"))),
        }
    }
}

/// A synchronous client of one site process's control socket.
pub struct CtrlClient {
    stream: TcpStream,
    dec: FrameDecoder,
}

impl CtrlClient {
    /// Connects, retrying briefly — the site process prints its
    /// handshake before it starts accepting, so the first connect can
    /// race the listener.
    pub fn connect(addr: SocketAddr) -> std::io::Result<CtrlClient> {
        Self::connect_with(addr, 50)
    }

    /// [`CtrlClient::connect`] with an explicit retry budget — a
    /// scraper probing a possibly-down site wants to give up after one
    /// or two attempts instead of blocking for a second.
    pub fn connect_with(addr: SocketAddr, attempts: u32) -> std::io::Result<CtrlClient> {
        let mut last = None;
        for _ in 0..attempts.max(1) {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    return Ok(CtrlClient {
                        stream,
                        dec: FrameDecoder::new(),
                    });
                }
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(StdDuration::from_millis(20));
                }
            }
        }
        Err(last.unwrap_or_else(|| std::io::Error::other("connect failed")))
    }

    /// One request/reply round trip.
    pub fn call(&mut self, req: &CtrlRequest) -> Result<CtrlReply> {
        write_framed(&mut self.stream, req)
            .map_err(|e| CamelotError::Log(format!("ctrl write: {e}")))?;
        read_framed(&mut self.stream, &mut self.dec)?
            .ok_or_else(|| CamelotError::Log("ctrl peer closed".into()))
    }

    /// Calls and converts a [`CtrlReply::Err`] into a typed error.
    fn call_ok(&mut self, req: &CtrlRequest) -> Result<CtrlReply> {
        match self.call(req)? {
            CtrlReply::Err { detail } => Err(CamelotError::Log(detail)),
            other => Ok(other),
        }
    }

    pub fn ping(&mut self) -> Result<SiteId> {
        match self.call_ok(&CtrlRequest::Ping)? {
            CtrlReply::Pong { site } => Ok(site),
            other => Err(unexpected(other)),
        }
    }

    pub fn set_peers(&mut self, peers: Vec<PeerEntry>) -> Result<()> {
        match self.call_ok(&CtrlRequest::Peers { peers })? {
            CtrlReply::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    pub fn begin(&mut self) -> Result<Tid> {
        match self.call_ok(&CtrlRequest::Begin)? {
            CtrlReply::Began { tid } => Ok(tid),
            other => Err(unexpected(other)),
        }
    }

    pub fn read(&mut self, tid: &Tid, server: ServerId, object: ObjectId) -> Result<Vec<u8>> {
        match self.call_ok(&CtrlRequest::Read {
            tid: tid.clone(),
            server,
            object,
        })? {
            CtrlReply::Value { value } => Ok(value),
            other => Err(unexpected(other)),
        }
    }

    pub fn write(
        &mut self,
        tid: &Tid,
        server: ServerId,
        object: ObjectId,
        value: Vec<u8>,
    ) -> Result<Vec<u8>> {
        match self.call_ok(&CtrlRequest::Write {
            tid: tid.clone(),
            server,
            object,
            value,
        })? {
            CtrlReply::Value { value } => Ok(value),
            other => Err(unexpected(other)),
        }
    }

    /// Returns true when the transaction committed.
    pub fn commit(
        &mut self,
        tid: &Tid,
        nonblocking: bool,
        participants: Vec<SiteId>,
    ) -> Result<bool> {
        match self.call_ok(&CtrlRequest::Commit {
            tid: tid.clone(),
            nonblocking,
            participants,
        })? {
            CtrlReply::Outcome { committed } => Ok(committed),
            other => Err(unexpected(other)),
        }
    }

    pub fn abort(&mut self, tid: &Tid, participants: Vec<SiteId>) -> Result<()> {
        match self.call_ok(&CtrlRequest::Abort {
            tid: tid.clone(),
            participants,
        })? {
            CtrlReply::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    pub fn committed_value(&mut self, server: ServerId, object: ObjectId) -> Result<Vec<u8>> {
        match self.call_ok(&CtrlRequest::CommittedValue { server, object })? {
            CtrlReply::Value { value } => Ok(value),
            other => Err(unexpected(other)),
        }
    }

    pub fn debug_state(&mut self) -> Result<String> {
        match self.call_ok(&CtrlRequest::DebugState)? {
            CtrlReply::State { dump } => Ok(dump),
            other => Err(unexpected(other)),
        }
    }

    pub fn arm_crash(&mut self, point: CrashPoint) -> Result<()> {
        match self.call_ok(&CtrlRequest::ArmCrash { point })? {
            CtrlReply::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    pub fn heal(&mut self) -> Result<()> {
        match self.call_ok(&CtrlRequest::Heal)? {
            CtrlReply::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Default chunk size for [`CtrlClient::drain_trace`]: at ~120
    /// bytes per rendered event, 2048 events stay well inside the
    /// 1 MiB frame cap with an order of magnitude to spare.
    pub const DRAIN_CHUNK: u32 = 2048;

    /// Drains the site's whole trace ring as JSON Lines, fetching it
    /// in bounded chunks so no single reply can hit the frame cap.
    pub fn drain_trace(&mut self) -> Result<String> {
        let mut out = String::new();
        loop {
            let chunk = self.drain_trace_chunk(Self::DRAIN_CHUNK)?;
            if chunk.is_empty() {
                return Ok(out);
            }
            out.push_str(&chunk);
        }
    }

    /// One bounded drain step: at most `max_events` rendered events,
    /// empty string when the ring is dry.
    pub fn drain_trace_chunk(&mut self, max_events: u32) -> Result<String> {
        match self.call_ok(&CtrlRequest::DrainTraceChunk { max_events })? {
            CtrlReply::Trace { jsonl } => Ok(jsonl),
            other => Err(unexpected(other)),
        }
    }

    pub fn phase_stats(&mut self) -> Result<(PhaseSnapshot, ProtocolPhaseSnapshot)> {
        match self.call_ok(&CtrlRequest::PhaseStats)? {
            CtrlReply::Phases { phases, proto } => Ok((*phases, *proto)),
            other => Err(unexpected(other)),
        }
    }

    pub fn engine_stats(&mut self) -> Result<SiteStatsWire> {
        match self.call_ok(&CtrlRequest::EngineStats)? {
            CtrlReply::Engine { stats } => Ok(*stats),
            other => Err(unexpected(other)),
        }
    }

    /// Test hook: emit `events` synthetic trace events at the site.
    pub fn fill_trace(&mut self, events: u32) -> Result<()> {
        match self.call_ok(&CtrlRequest::FillTrace { events })? {
            CtrlReply::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    pub fn transport_stats(&mut self) -> Result<TransportStats> {
        match self.call_ok(&CtrlRequest::TransportStats)? {
            CtrlReply::Transport { stats } => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    pub fn fault_stats(&mut self) -> Result<FaultStats> {
        match self.call_ok(&CtrlRequest::FaultStats)? {
            CtrlReply::Fault { stats } => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    pub fn partition(&mut self, a: &[SiteId], b: &[SiteId]) -> Result<()> {
        match self.call_ok(&CtrlRequest::Partition {
            a: a.to_vec(),
            b: b.to_vec(),
        })? {
            CtrlReply::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    pub fn set_skew(&mut self, site: SiteId, per_mille: u32) -> Result<()> {
        match self.call_ok(&CtrlRequest::SetSkew { site, per_mille })? {
            CtrlReply::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    pub fn restart_stats(&mut self) -> Result<Vec<RestartEntry>> {
        match self.call_ok(&CtrlRequest::RestartStats)? {
            CtrlReply::Restarts { counts } => Ok(counts),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the process to exit; the closed stream is the expected
    /// outcome, so transport errors after the request are swallowed.
    pub fn shutdown(&mut self) {
        let _ = self.call(&CtrlRequest::Shutdown);
    }
}

fn unexpected(reply: CtrlReply) -> CamelotError {
    CamelotError::Internal(format!("unexpected ctrl reply {reply:?}"))
}

/// The `ready` handshake a `camelot-site` process prints on stdout
/// once both sockets are bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handshake {
    pub site: SiteId,
    pub data: SocketAddr,
    pub ctrl: SocketAddr,
}

impl Handshake {
    /// Renders the stdout line: `ready site=1 data=ADDR ctrl=ADDR`.
    pub fn render(&self) -> String {
        format!(
            "ready site={} data={} ctrl={}",
            self.site.0, self.data, self.ctrl
        )
    }

    /// Parses a handshake line (ignores unrelated lines by returning
    /// `None`).
    pub fn parse(line: &str) -> Option<Handshake> {
        let line = line.trim();
        let rest = line.strip_prefix("ready ")?;
        let mut site = None;
        let mut data = None;
        let mut ctrl = None;
        for tok in rest.split_whitespace() {
            if let Some(v) = tok.strip_prefix("site=") {
                site = v.parse::<u32>().ok().map(SiteId);
            } else if let Some(v) = tok.strip_prefix("data=") {
                data = v.parse::<SocketAddr>().ok();
            } else if let Some(v) = tok.strip_prefix("ctrl=") {
                ctrl = v.parse::<SocketAddr>().ok();
            }
        }
        Some(Handshake {
            site: site?,
            data: data?,
            ctrl: ctrl?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_types::FamilyId;

    fn tid() -> Tid {
        Tid::top_level(FamilyId {
            origin: SiteId(2),
            seq: 7,
        })
    }

    fn all_requests() -> Vec<CtrlRequest> {
        vec![
            CtrlRequest::Ping,
            CtrlRequest::Peers {
                peers: vec![
                    PeerEntry {
                        site: SiteId(1),
                        addr: "127.0.0.1:4001".into(),
                    },
                    PeerEntry {
                        site: SiteId(2),
                        addr: "127.0.0.1:4002".into(),
                    },
                ],
            },
            CtrlRequest::Begin,
            CtrlRequest::Read {
                tid: tid(),
                server: ServerId(1),
                object: ObjectId(9),
            },
            CtrlRequest::Write {
                tid: tid(),
                server: ServerId(1),
                object: ObjectId(9),
                value: vec![1, 2, 3],
            },
            CtrlRequest::Commit {
                tid: tid(),
                nonblocking: true,
                participants: vec![SiteId(2), SiteId(3)],
            },
            CtrlRequest::Abort {
                tid: tid(),
                participants: vec![SiteId(3)],
            },
            CtrlRequest::CommittedValue {
                server: ServerId(1),
                object: ObjectId(9),
            },
            CtrlRequest::DebugState,
            CtrlRequest::ArmCrash {
                point: CrashPoint::PostForcePreSend,
            },
            CtrlRequest::Heal,
            CtrlRequest::Shutdown,
            CtrlRequest::TransportStats,
            CtrlRequest::FaultStats,
            CtrlRequest::Partition {
                a: vec![SiteId(1), SiteId(2)],
                b: vec![SiteId(3)],
            },
            CtrlRequest::SetSkew {
                site: SiteId(2),
                per_mille: 1500,
            },
            CtrlRequest::RestartStats,
            CtrlRequest::PhaseStats,
            CtrlRequest::EngineStats,
            CtrlRequest::DrainTraceChunk { max_events: 2048 },
            CtrlRequest::FillTrace { events: 20000 },
        ]
    }

    fn all_replies() -> Vec<CtrlReply> {
        vec![
            CtrlReply::Ok,
            CtrlReply::Pong { site: SiteId(3) },
            CtrlReply::Began { tid: tid() },
            CtrlReply::Value { value: vec![7; 9] },
            CtrlReply::Outcome { committed: true },
            CtrlReply::Outcome { committed: false },
            CtrlReply::State {
                dump: "s1 engine: f live".into(),
            },
            CtrlReply::Trace {
                jsonl: "{\"kind\":\"crash\"}\n".into(),
            },
            CtrlReply::Err {
                detail: "timeout".into(),
            },
            CtrlReply::Transport {
                stats: TransportStats {
                    sends: 10,
                    send_failures: 1,
                    connects: 3,
                    connect_failures: 2,
                    enqueued: 11,
                    queue_drops: 4,
                    queue_depth: 5,
                    max_queue_depth: 9,
                },
            },
            CtrlReply::Fault {
                stats: FaultStats {
                    drops: 1,
                    delays: 2,
                    duplicates: 3,
                    crashes: 4,
                    partition_drops: 5,
                    skewed_timers: 6,
                },
            },
            CtrlReply::Restarts {
                counts: vec![
                    RestartEntry {
                        site: SiteId(1),
                        restarts: 0,
                    },
                    RestartEntry {
                        site: SiteId(2),
                        restarts: 3,
                    },
                ],
            },
            CtrlReply::Phases {
                phases: Box::new(sample_phases()),
                proto: Box::new(sample_proto_phases()),
            },
            CtrlReply::Engine {
                stats: Box::new(sample_engine_stats()),
            },
        ]
    }

    fn sample_phases() -> PhaseSnapshot {
        let h = camelot_obs::PhaseHistograms::default();
        h.record_us(camelot_obs::Phase::Commit2pc, 1234);
        h.record_us(camelot_obs::Phase::ForceWait, 88);
        h.snapshot()
    }

    fn sample_proto_phases() -> ProtocolPhaseSnapshot {
        let h = camelot_obs::ProtocolPhaseHistograms::default();
        h.record_us(
            camelot_obs::AuditProtocol::NonBlocking,
            camelot_obs::Phase::CommitNb,
            4096,
        );
        h.snapshot()
    }

    /// Site 2 with counter `i` (in wire order) holding `1000 + i`:
    /// distinct values, so a transposed pair cannot round-trip.
    fn sample_engine_stats() -> SiteStatsWire {
        let mut w = Writer::new();
        w.put(&SiteId(2));
        for i in 0..SiteStatsWire::COUNT as u64 {
            w.put_u64(1000 + i);
        }
        SiteStatsWire::from_bytes(w.as_slice()).expect("a site and COUNT counters")
    }

    /// The wire layout: counter `i` of an `EngineStats` reply is this
    /// name. Every listing in the program is derived from the macro's
    /// one list, so reordering that list compiles and round-trips; this
    /// copy is what says the order is part of the format.
    const WIRE_ORDER: [&str; 39] = [
        "begins",
        "nested_begins",
        "commits",
        "read_only_commits",
        "aborts",
        "forces",
        "lazy_appends",
        "datagrams",
        "piggybacked",
        "takeovers",
        "blocked",
        "live_families",
        "wal_records",
        "wal_forces_requested",
        "wal_forces_effective",
        "lock_wait_us",
        "inputs",
        "worker_inputs",
        "router_pending",
        "platter_writes",
        "forces_satisfied",
        "max_batch",
        "lazy_drained",
        "checkpoints",
        "wal_truncated_bytes",
        "wal_live_bytes",
        "snapshot_bytes",
        "last_restart_us",
        "queue_ops",
        "queue_parked",
        "queue_vote_timeouts",
        "queue_cascades",
        "reads",
        "writes",
        "lock_waits",
        "joins",
        "deadlocks",
        "trace_emitted",
        "trace_dropped",
    ];

    #[test]
    fn site_stats_wire_names_each_counter_once_and_in_wire_order() {
        let x = sample_engine_stats();
        assert_eq!(x.site, SiteId(2));
        let fields = x.fields();
        // Decoding filled the fields in the order `fields` lists them…
        for (i, (name, v)) in fields.iter().enumerate() {
            assert_eq!(*v, 1000 + i as u64, "{name} is not counter {i} on the wire");
        }
        // …which is the recorded layout…
        let names: Vec<&str> = fields.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, WIRE_ORDER);
        // …and encoding writes them back the same way.
        let back = SiteStatsWire::from_bytes(&x.to_bytes()).unwrap();
        assert_eq!(back.fields(), fields);
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a counter is named twice");
        for g in SiteStatsWire::GAUGES {
            assert!(names.contains(&g), "gauge {g} is not a counter");
        }
    }

    #[test]
    fn every_request_roundtrips() {
        for q in all_requests() {
            let b = q.to_bytes();
            assert_eq!(CtrlRequest::from_bytes(&b).unwrap(), q, "{q:?}");
        }
    }

    #[test]
    fn request_tags_are_one_to_twenty_two_without_the_retired_twelve() {
        let tags: Vec<u8> = all_requests().iter().map(|q| q.to_bytes()[0]).collect();
        let expected: Vec<u8> = (1..=22).filter(|t| *t != 12).collect();
        assert_eq!(
            tags, expected,
            "all_requests() lists every kind, in tag order"
        );
        // `DrainTrace`'s tag stays unassigned: an old client's request
        // is refused by name rather than read as something else.
        match CtrlRequest::from_bytes(&[12]) {
            Err(CamelotError::Codec(detail)) => assert_eq!(detail, "unknown ctrl request 12"),
            other => panic!("tag 12 decoded to {other:?}"),
        }
    }

    #[test]
    fn every_reply_roundtrips() {
        for r in all_replies() {
            let b = r.to_bytes();
            assert_eq!(CtrlReply::from_bytes(&b).unwrap(), r, "{r:?}");
        }
    }

    #[test]
    fn truncated_requests_fail_cleanly() {
        for q in all_requests() {
            let b = q.to_bytes();
            for cut in 0..b.len() {
                assert!(CtrlRequest::from_bytes(&b[..cut]).is_err());
            }
        }
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(CtrlRequest::from_bytes(&[0]).is_err());
        assert!(CtrlRequest::from_bytes(&[99]).is_err());
        assert!(CtrlReply::from_bytes(&[99]).is_err());
        // Bad crash-point byte inside an otherwise valid ArmCrash.
        assert!(CtrlRequest::from_bytes(&[10, 77]).is_err());
    }

    #[test]
    fn handshake_roundtrips_and_rejects_noise() {
        let h = Handshake {
            site: SiteId(3),
            data: "127.0.0.1:5001".parse().unwrap(),
            ctrl: "127.0.0.1:5002".parse().unwrap(),
        };
        assert_eq!(Handshake::parse(&h.render()), Some(h.clone()));
        assert_eq!(Handshake::parse("starting up..."), None);
        assert_eq!(Handshake::parse("ready site=x data=y ctrl=z"), None);
    }
}
