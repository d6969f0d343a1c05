//! Per-family trace timelines in a bounded per-site ring.
//!
//! A [`TraceRing`] holds the last `capacity` [`TraceEvent`]s emitted
//! at one site. Emission claims a sequence number with one relaxed
//! atomic increment, stamps the event on the host clock (see
//! [`TraceEvent::at_us`]), and writes it into slot `seq % capacity`
//! under that slot's mutex — so concurrent writers never tear an
//! event, and when the ring wraps the oldest undrained event is
//! overwritten and the drop counter incremented. Slot locks are
//! uncontended except when two writers land exactly `capacity` events
//! apart.
//!
//! Engines and batchers hold a [`Tracer`] — a cheap cloneable handle
//! that is a no-op when tracing is off, so the sans-io state machines
//! stay free of any timing or I/O concern.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;

use camelot_types::{FamilyId, ServerId, SiteId};

/// One step in a transaction family's timeline (or a site-level event
/// when `family` is `None`). All payloads are small and `Copy`; message
/// and purpose names are the static identifiers used on the wire and
/// in the WAL, so serialization never allocates per event beyond the
/// output string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A top-level transaction began at this site (the family's
    /// commitment coordinator).
    Begin,
    /// A nested transaction began within the family.
    BeginNested,
    /// A data server joined the family at this site (first lock
    /// acquisition on behalf of the family).
    Join { server: ServerId },
    /// The application asked the coordinator to commit the top-level
    /// transaction under `mode` ("2pc" or "nb").
    CommitCall { mode: &'static str },
    /// A local data server voted in phase one.
    ServerVote {
        server: ServerId,
        vote: &'static str,
    },
    /// A TranMan datagram left this site; `piggyback` counts the acks
    /// riding along.
    DatagramSend {
        to: SiteId,
        msg: &'static str,
        piggyback: u32,
    },
    /// An off-critical-path message travelled piggybacked on the
    /// datagram just sent instead of alone (paper §3.3).
    Piggybacked { to: SiteId, msg: &'static str },
    /// A TranMan datagram arrived at this site.
    DatagramRecv { from: SiteId, msg: &'static str },
    /// A log record entered the WAL pipeline. `lazy` distinguishes an
    /// append-without-force (the delayed-commit optimization) from a
    /// critical-path force.
    LogEnqueue { purpose: &'static str, lazy: bool },
    /// The WAL pipeline reported the record durable.
    LogDurable { purpose: &'static str, lazy: bool },
    /// The group-commit batcher started a platter write covering log
    /// bytes up to `upto` (site-level event).
    BatchStart { upto: u64 },
    /// That platter write completed; the covered forces are released
    /// (site-level event).
    BatchDurable { upto: u64 },
    /// The commit protocol resolved the family at this site.
    Decision { outcome: &'static str },
    /// The application's commit/abort call returned.
    Resolved { outcome: &'static str },
    /// Non-blocking termination: a subordinate began gathering state
    /// to take over coordination.
    TakeoverStart,
    /// The takeover found itself blocked on an unreachable quorum.
    TakeoverBlocked,
    /// An envelope was serialized and framed for a real socket
    /// (site-level event; `bytes` is the framed size — the payload the
    /// kernel will copy, the cost Mach message passing hid in-process).
    WireEncode { bytes: u32 },
    /// A received frame passed magic/version/CRC checks and decoded
    /// back into an envelope (site-level event).
    WireDecode { bytes: u32 },
    /// A frame left this site through a kernel socket (site-level
    /// event).
    SocketSend { to: SiteId, bytes: u32 },
    /// A frame arrived from a kernel socket (site-level event).
    SocketRecv { from: SiteId, bytes: u32 },
    /// A frame was given up on at the syscall layer — a UDP `send_to`
    /// error, a TCP connect failure or write failure/timeout. To the
    /// protocol this is a lost datagram (site-level event).
    SocketSendFailed { to: SiteId },
    /// A full per-peer send queue evicted its oldest frame to accept a
    /// new one (site-level event).
    SendQueueDrop { to: SiteId },
    /// The site was killed (site-level event).
    Crash,
    /// The site restarted and ran recovery (site-level event).
    Restart,
    /// Recovery re-established this family from the durable log.
    Recovered { state: &'static str },
}

impl TraceEventKind {
    /// Stable snake_case name used as the JSONL `ev` field.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::Begin => "begin",
            TraceEventKind::BeginNested => "begin_nested",
            TraceEventKind::Join { .. } => "join",
            TraceEventKind::CommitCall { .. } => "commit_call",
            TraceEventKind::ServerVote { .. } => "server_vote",
            TraceEventKind::DatagramSend { .. } => "datagram_send",
            TraceEventKind::Piggybacked { .. } => "piggybacked",
            TraceEventKind::DatagramRecv { .. } => "datagram_recv",
            TraceEventKind::LogEnqueue { .. } => "log_enqueue",
            TraceEventKind::LogDurable { .. } => "log_durable",
            TraceEventKind::BatchStart { .. } => "batch_start",
            TraceEventKind::BatchDurable { .. } => "batch_durable",
            TraceEventKind::Decision { .. } => "decision",
            TraceEventKind::Resolved { .. } => "resolved",
            TraceEventKind::TakeoverStart => "takeover_start",
            TraceEventKind::TakeoverBlocked => "takeover_blocked",
            TraceEventKind::WireEncode { .. } => "wire_encode",
            TraceEventKind::WireDecode { .. } => "wire_decode",
            TraceEventKind::SocketSend { .. } => "socket_send",
            TraceEventKind::SocketRecv { .. } => "socket_recv",
            TraceEventKind::SocketSendFailed { .. } => "socket_send_failed",
            TraceEventKind::SendQueueDrop { .. } => "send_queue_drop",
            TraceEventKind::Crash => "crash",
            TraceEventKind::Restart => "restart",
            TraceEventKind::Recovered { .. } => "recovered",
        }
    }
}

/// One timestamped, site- and family-attributed trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Per-site emission sequence number (dense, starts at 0).
    pub seq: u64,
    /// Site that emitted the event.
    pub site: SiteId,
    /// Unix microseconds on the host clock: the process's wall-clock
    /// anchor plus monotonic time since it. Every ring of a process
    /// shares the anchor, and processes on one host agree to within
    /// its read jitter, so timelines from different sites and site
    /// processes interleave on this field with no correction.
    pub at_us: u64,
    /// Family the event belongs to; `None` for site-level events
    /// (batch starts, crashes, restarts).
    pub family: Option<FamilyId>,
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// One JSON object, no trailing newline. All strings are static
    /// identifiers, so no escaping is needed.
    pub fn to_json(&self) -> String {
        use fmt::Write;
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"seq\":{},\"site\":{},\"us\":{}",
            self.seq, self.site.0, self.at_us
        );
        if let Some(f) = self.family {
            let _ = write!(s, ",\"family\":\"{f}\"");
        }
        let _ = write!(s, ",\"ev\":\"{}\"", self.kind.name());
        match self.kind {
            TraceEventKind::Join { server } | TraceEventKind::ServerVote { server, .. } => {
                let _ = write!(s, ",\"server\":{}", server.0);
            }
            _ => {}
        }
        match self.kind {
            TraceEventKind::CommitCall { mode } => {
                let _ = write!(s, ",\"mode\":\"{mode}\"");
            }
            TraceEventKind::ServerVote { vote, .. } => {
                let _ = write!(s, ",\"vote\":\"{vote}\"");
            }
            TraceEventKind::DatagramSend { to, msg, piggyback } => {
                let _ = write!(
                    s,
                    ",\"to\":{},\"msg\":\"{msg}\",\"piggyback\":{piggyback}",
                    to.0
                );
            }
            TraceEventKind::Piggybacked { to, msg } => {
                let _ = write!(s, ",\"to\":{},\"msg\":\"{msg}\"", to.0);
            }
            TraceEventKind::DatagramRecv { from, msg } => {
                let _ = write!(s, ",\"from\":{},\"msg\":\"{msg}\"", from.0);
            }
            TraceEventKind::LogEnqueue { purpose, lazy }
            | TraceEventKind::LogDurable { purpose, lazy } => {
                let _ = write!(s, ",\"purpose\":\"{purpose}\",\"lazy\":{lazy}");
            }
            TraceEventKind::BatchStart { upto } | TraceEventKind::BatchDurable { upto } => {
                let _ = write!(s, ",\"upto\":{upto}");
            }
            TraceEventKind::Decision { outcome } | TraceEventKind::Resolved { outcome } => {
                let _ = write!(s, ",\"outcome\":\"{outcome}\"");
            }
            TraceEventKind::Recovered { state } => {
                let _ = write!(s, ",\"state\":\"{state}\"");
            }
            TraceEventKind::WireEncode { bytes } | TraceEventKind::WireDecode { bytes } => {
                let _ = write!(s, ",\"bytes\":{bytes}");
            }
            TraceEventKind::SocketSend { to, bytes } => {
                let _ = write!(s, ",\"to\":{},\"bytes\":{bytes}", to.0);
            }
            TraceEventKind::SocketRecv { from, bytes } => {
                let _ = write!(s, ",\"from\":{},\"bytes\":{bytes}", from.0);
            }
            TraceEventKind::SocketSendFailed { to } | TraceEventKind::SendQueueDrop { to } => {
                let _ = write!(s, ",\"to\":{}", to.0);
            }
            _ => {}
        }
        s.push('}');
        s
    }
}

/// Renders events as JSON Lines (one object per line, trailing
/// newline when non-empty).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut s = String::with_capacity(events.len() * 96);
    for e in events {
        s.push_str(&e.to_json());
        s.push('\n');
    }
    s
}

/// The process's host-clock anchor: one `Instant` paired with the
/// Unix µs read at that instant. The wall clock is read between two
/// monotonic reads and the tightest of a few brackets is kept, so a
/// preemption at start-up cannot shift the process's frame. Linux
/// slews the wall and monotonic clocks together; only a wall-clock
/// step between two process starts offsets their frames.
fn host_anchor() -> (Instant, u64) {
    static ANCHOR: OnceLock<(Instant, u64)> = OnceLock::new();
    *ANCHOR.get_or_init(|| {
        let mut best = (Duration::MAX, Instant::now(), 0);
        for _ in 0..5 {
            let before = Instant::now();
            let wall = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .unwrap_or_default();
            let width = before.elapsed();
            if width < best.0 {
                best = (width, before + width / 2, wall.as_micros() as u64);
            }
        }
        (best.1, best.2)
    })
}

/// Bounded per-site trace buffer. See the module docs for the
/// concurrency story.
pub struct TraceRing {
    site: SiteId,
    anchor: Instant,
    anchor_us: u64,
    head: AtomicU64,
    dropped: AtomicU64,
    slots: Box<[Mutex<Option<TraceEvent>>]>,
}

impl TraceRing {
    /// A ring for `site` holding the newest `capacity` events, stamped
    /// on the host clock. `_epoch` is unused; it is kept only for the
    /// `ladder/` benchmark's call site, until that benchmark is rebuilt.
    pub fn new(site: SiteId, capacity: usize, _epoch: Instant) -> Arc<TraceRing> {
        assert!(capacity > 0, "trace ring needs at least one slot");
        let (anchor, anchor_us) = host_anchor();
        Arc::new(TraceRing {
            site,
            anchor,
            anchor_us,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        })
    }

    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Records one event. Overwrites the oldest undrained event when
    /// the ring is full (incrementing [`TraceRing::dropped`]); never
    /// tears: readers see a complete event or none.
    pub fn emit(&self, family: Option<FamilyId>, kind: TraceEventKind) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let ev = TraceEvent {
            seq,
            site: self.site,
            at_us: self.anchor_us + self.anchor.elapsed().as_micros() as u64,
            family,
            kind,
        };
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        if slot.lock().replace(ev).is_some() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Takes every buffered event, oldest first. Events emitted
    /// concurrently with the drain land in the next drain.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = self.slots.iter().filter_map(|s| s.lock().take()).collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Events overwritten before anyone drained them.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events emitted since creation.
    pub fn emitted(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }
}

/// Cheap cloneable emission handle. `Tracer::default()` is disabled
/// and every emit through it is a branch on a `None` — the sans-io
/// engines carry one unconditionally.
#[derive(Clone, Default)]
pub struct Tracer {
    ring: Option<Arc<TraceRing>>,
}

impl Tracer {
    /// The no-op tracer.
    pub fn disabled() -> Tracer {
        Tracer { ring: None }
    }

    /// A tracer writing into `ring`.
    pub fn attached(ring: Arc<TraceRing>) -> Tracer {
        Tracer { ring: Some(ring) }
    }

    pub fn is_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Emits one event attributed to `family` (or site-level when
    /// `None`).
    #[inline]
    pub fn emit(&self, family: Option<FamilyId>, kind: TraceEventKind) {
        if let Some(ring) = &self.ring {
            ring.emit(family, kind);
        }
    }

    /// Emits one family-attributed event.
    #[inline]
    pub fn family(&self, family: FamilyId, kind: TraceEventKind) {
        self.emit(Some(family), kind);
    }

    /// Emits one site-level event.
    #[inline]
    pub fn site_event(&self, kind: TraceEventKind) {
        self.emit(None, kind);
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tracer({})",
            if self.ring.is_some() { "on" } else { "off" }
        )
    }
}

/// Merges already-drained per-site timelines into one cluster-wide
/// timeline ordered by timestamp, then site, then sequence number.
pub fn merge_timelines(mut events: Vec<TraceEvent>) -> Vec<TraceEvent> {
    events.sort_by_key(|e| (e.at_us, e.site, e.seq));
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn fam(seq: u64) -> FamilyId {
        FamilyId {
            origin: SiteId(1),
            seq,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops_on_wraparound() {
        let ring = TraceRing::new(SiteId(1), 4, Instant::now());
        for i in 0..10 {
            ring.emit(Some(fam(i)), TraceEventKind::Begin);
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), 4, "ring holds only its capacity");
        let seqs: Vec<u64> = drained.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "the oldest events were dropped");
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.emitted(), 10);
        // Drained slots are empty; a second drain yields nothing.
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn ring_never_tears_events_under_concurrent_emission() {
        let ring = TraceRing::new(SiteId(7), 64, Instant::now());
        let threads: Vec<_> = (0..4u32)
            .map(|t| {
                let ring = ring.clone();
                thread::spawn(move || {
                    for i in 0..5_000u64 {
                        // Redundant encoding: family.seq must equal the
                        // datagram's piggyback count and the destination
                        // must match the writer thread, so a torn write
                        // (fields from two events) is detectable.
                        ring.emit(
                            Some(FamilyId {
                                origin: SiteId(t + 100),
                                seq: i,
                            }),
                            TraceEventKind::DatagramSend {
                                to: SiteId(t + 100),
                                msg: "Prepare",
                                piggyback: i as u32,
                            },
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let drained = ring.drain();
        for e in &drained {
            let f = e.family.expect("every event carries a family");
            match e.kind {
                TraceEventKind::DatagramSend { to, piggyback, .. } => {
                    assert_eq!(to, f.origin, "torn event: thread fields disagree");
                    assert_eq!(piggyback as u64, f.seq, "torn event: seq fields disagree");
                }
                _ => panic!("unexpected kind"),
            }
        }
        // Every emission is accounted for: still buffered or dropped.
        assert_eq!(drained.len() as u64 + ring.dropped(), ring.emitted());
        assert_eq!(ring.emitted(), 20_000);
    }

    #[test]
    fn jsonl_renders_one_valid_object_per_line() {
        let ring = TraceRing::new(SiteId(2), 8, Instant::now());
        ring.emit(Some(fam(3)), TraceEventKind::Begin);
        ring.emit(
            Some(fam(3)),
            TraceEventKind::DatagramSend {
                to: SiteId(1),
                msg: "Prepare",
                piggyback: 1,
            },
        );
        ring.emit(None, TraceEventKind::BatchStart { upto: 4096 });
        let out = to_jsonl(&ring.drain());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"seq\":0,\"site\":2,"));
        assert!(lines[0].contains("\"family\":\"F1.3\""));
        assert!(lines[0].contains("\"ev\":\"begin\""));
        assert!(lines[1].contains("\"msg\":\"Prepare\"") && lines[1].contains("\"piggyback\":1"));
        assert!(
            !lines[2].contains("family"),
            "site-level events carry no family field"
        );
        assert!(lines[2].contains("\"upto\":4096"));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn disabled_tracer_is_a_no_op() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.family(fam(1), TraceEventKind::Begin);
        t.site_event(TraceEventKind::Crash);
    }
}
