//! Per-peer outbound queues with an explicit backpressure story.
//!
//! The socket transport used to write frames to the kernel from the
//! caller's thread while holding a global connection-map mutex — one
//! stalled or unreachable TCP peer head-of-line-blocked every outbound
//! send from the site. The pieces here fix that shape:
//!
//! - [`SendQueue`] — a bounded FIFO of encoded frames for one peer,
//!   drained by that peer's dedicated sender thread. `push` never
//!   blocks: when the queue is full the *oldest* frame is evicted and
//!   counted. Drop-oldest is protocol-safe — to the layers above, an
//!   evicted frame is indistinguishable from a datagram the network
//!   lost, and both the UDP [`ReliableChannel`](crate::ReliableChannel)
//!   and the commit protocols' own timers (inquiry, notify resend,
//!   vote timeout) already recover from loss. Evicting the oldest
//!   rather than rejecting the newest matters under a long stall: the
//!   queue then holds the *most recent* window of traffic, which is
//!   what a reconnecting peer can actually use.
//! - [`Backoff`] — capped exponential reconnect pacing for one peer,
//!   so a dead peer costs one connect attempt per backoff interval,
//!   not one per queued frame.
//! - [`TransportCounters`]/[`TransportStats`] — shared counters the
//!   enqueue path and the sender threads bump, snapshotted by
//!   [`SocketTransport::stats`](crate::SocketTransport::stats) so
//!   chaos campaigns can tell injected drops from transport faults.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration as StdDuration;

use camelot_types::wire_struct;

/// Outcome of a [`SendQueue::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Push {
    /// The frame was queued within the bound.
    Queued,
    /// The frame was queued, but the queue was full and the oldest
    /// frame was evicted to make room.
    Evicted,
    /// The queue is closed (transport shutting down); the frame was
    /// discarded.
    Closed,
}

/// Outcome of a [`SendQueue::pop`].
#[derive(Debug, PartialEq, Eq)]
pub enum Pop {
    /// The next frame, in FIFO order.
    Frame(Vec<u8>),
    /// Nothing arrived within the wait.
    TimedOut,
    /// The queue is closed and drained; the sender thread should exit.
    Closed,
}

struct QueueState {
    frames: VecDeque<Vec<u8>>,
    closed: bool,
}

/// Bounded FIFO of encoded frames bound for one peer.
///
/// One producer side (any thread calling
/// [`send`](crate::SocketTransport::send)) and one consumer (the
/// peer's sender thread). The `addr_gen` counter is bumped when the
/// peer's address changes, telling the sender thread to drop its
/// cached connection.
pub struct SendQueue {
    bound: usize,
    state: Mutex<QueueState>,
    cv: Condvar,
    addr_gen: AtomicU64,
}

impl SendQueue {
    /// A queue holding at most `bound` frames (at least 1).
    pub fn new(bound: usize) -> SendQueue {
        SendQueue {
            bound: bound.max(1),
            state: Mutex::new(QueueState {
                frames: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            addr_gen: AtomicU64::new(0),
        }
    }

    /// Appends a frame, evicting the oldest when full. Never blocks.
    pub fn push(&self, frame: Vec<u8>) -> Push {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Push::Closed;
        }
        let evicted = if st.frames.len() >= self.bound {
            st.frames.pop_front();
            true
        } else {
            false
        };
        st.frames.push_back(frame);
        drop(st);
        self.cv.notify_one();
        if evicted {
            Push::Evicted
        } else {
            Push::Queued
        }
    }

    /// Takes the next frame, waiting up to `wait` for one to arrive.
    pub fn pop(&self, wait: StdDuration) -> Pop {
        let mut st = self.state.lock().unwrap();
        if let Some(f) = st.frames.pop_front() {
            return Pop::Frame(f);
        }
        if st.closed {
            return Pop::Closed;
        }
        let (mut st, _timeout) = self.cv.wait_timeout(st, wait).unwrap();
        match st.frames.pop_front() {
            Some(f) => Pop::Frame(f),
            None if st.closed => Pop::Closed,
            None => Pop::TimedOut,
        }
    }

    /// Frames currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().frames.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: further pushes are discarded and the sender
    /// thread wakes up to exit once the backlog drains.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    /// Address generation for the peer this queue feeds; the sender
    /// thread compares it against the value cached with its
    /// connection.
    pub fn addr_gen(&self) -> u64 {
        self.addr_gen.load(Ordering::SeqCst)
    }

    /// Signals that the peer's address changed: the sender thread
    /// drops its cached connection and reconnects to the new address.
    pub fn bump_addr_gen(&self) {
        self.addr_gen.fetch_add(1, Ordering::SeqCst);
        self.cv.notify_all();
    }
}

/// Capped exponential backoff for one peer's reconnect loop.
///
/// A fresh (or just-successful) peer retries immediately on its first
/// failure; each subsequent failure doubles the wait up to `cap`.
#[derive(Debug)]
pub struct Backoff {
    base: StdDuration,
    cap: StdDuration,
    next: Option<StdDuration>,
}

impl Backoff {
    pub fn new(base: StdDuration, cap: StdDuration) -> Backoff {
        Backoff {
            base,
            cap,
            next: None,
        }
    }

    /// Records a failure; returns how long to wait before the next
    /// attempt.
    pub fn failure(&mut self) -> StdDuration {
        let d = self.next.unwrap_or(self.base);
        self.next = Some((d * 2).min(self.cap));
        d
    }

    /// Records a success: the next failure starts over from `base`.
    pub fn reset(&mut self) {
        self.next = None;
    }
}

/// Shared atomic counters for the transport's outbound path.
#[derive(Debug, Default)]
pub struct TransportCounters {
    pub sends: AtomicU64,
    pub send_failures: AtomicU64,
    pub connects: AtomicU64,
    pub connect_failures: AtomicU64,
    pub enqueued: AtomicU64,
    pub queue_drops: AtomicU64,
    pub max_queue_depth: AtomicU64,
}

impl TransportCounters {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an observed per-peer queue depth, keeping the maximum.
    pub fn observe_depth(&self, depth: u64) {
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Snapshot with the caller-computed current total queue depth.
    pub fn snapshot(&self, queue_depth: u64) -> TransportStats {
        TransportStats {
            sends: self.sends.load(Ordering::Relaxed),
            send_failures: self.send_failures.load(Ordering::Relaxed),
            connects: self.connects.load(Ordering::Relaxed),
            connect_failures: self.connect_failures.load(Ordering::Relaxed),
            enqueued: self.enqueued.load(Ordering::Relaxed),
            queue_drops: self.queue_drops.load(Ordering::Relaxed),
            queue_depth,
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
        }
    }
}

wire_struct! {
    /// Point-in-time view of the outbound path, distinguishing frames the
    /// kernel took from frames the transport had to give up on.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TransportStats {
        /// Frames successfully handed to a kernel socket.
        pub sends: u64,
        /// Syscall-level failures: a UDP `send_to` error, a TCP write
        /// error or timeout, or a connect failure that cost a frame. Each
        /// counted failure is one frame the protocol must treat as lost.
        pub send_failures: u64,
        /// Successful TCP connects (first connections and reconnects).
        pub connects: u64,
        /// TCP connect attempts that failed or timed out.
        pub connect_failures: u64,
        /// Frames accepted into a per-peer queue.
        pub enqueued: u64,
        /// Frames evicted from a full queue (drop-oldest overflow policy).
        pub queue_drops: u64,
        /// Frames queued across all peers at snapshot time.
        pub queue_depth: u64,
        /// Highest single-peer queue depth observed since creation.
        pub max_queue_depth: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_types::wire::Wire;
    use std::sync::Arc;
    use std::thread;

    fn ms(n: u64) -> StdDuration {
        StdDuration::from_millis(n)
    }

    #[test]
    fn push_pop_is_fifo() {
        let q = SendQueue::new(8);
        assert_eq!(q.push(vec![1]), Push::Queued);
        assert_eq!(q.push(vec![2]), Push::Queued);
        assert_eq!(q.pop(ms(10)), Pop::Frame(vec![1]));
        assert_eq!(q.pop(ms(10)), Pop::Frame(vec![2]));
        assert_eq!(q.pop(ms(1)), Pop::TimedOut);
    }

    #[test]
    fn overflow_evicts_oldest() {
        let q = SendQueue::new(2);
        assert_eq!(q.push(vec![1]), Push::Queued);
        assert_eq!(q.push(vec![2]), Push::Queued);
        assert_eq!(q.push(vec![3]), Push::Evicted);
        // The newest window survives: 2, 3.
        assert_eq!(q.pop(ms(10)), Pop::Frame(vec![2]));
        assert_eq!(q.pop(ms(10)), Pop::Frame(vec![3]));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn close_drains_backlog_then_reports_closed() {
        let q = SendQueue::new(4);
        q.push(vec![9]);
        q.close();
        assert_eq!(q.push(vec![1]), Push::Closed, "pushes after close discard");
        assert_eq!(q.pop(ms(10)), Pop::Frame(vec![9]), "backlog still drains");
        assert_eq!(q.pop(ms(10)), Pop::Closed);
    }

    #[test]
    fn pop_wakes_on_concurrent_push() {
        let q = Arc::new(SendQueue::new(4));
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.pop(StdDuration::from_secs(5)));
        thread::sleep(ms(30));
        q.push(vec![7]);
        assert_eq!(t.join().unwrap(), Pop::Frame(vec![7]));
    }

    #[test]
    fn addr_gen_signals_reconnect() {
        let q = SendQueue::new(1);
        let g0 = q.addr_gen();
        q.bump_addr_gen();
        assert_ne!(q.addr_gen(), g0);
    }

    #[test]
    fn backoff_doubles_to_cap_and_resets() {
        let mut b = Backoff::new(ms(25), ms(100));
        assert_eq!(b.failure(), ms(25));
        assert_eq!(b.failure(), ms(50));
        assert_eq!(b.failure(), ms(100));
        assert_eq!(b.failure(), ms(100), "capped");
        b.reset();
        assert_eq!(b.failure(), ms(25), "reset starts over");
    }

    #[test]
    fn counters_snapshot_round_trip() {
        let c = TransportCounters::default();
        TransportCounters::bump(&c.sends);
        TransportCounters::bump(&c.send_failures);
        c.observe_depth(7);
        c.observe_depth(3);
        let s = c.snapshot(2);
        assert_eq!(s.sends, 1);
        assert_eq!(s.send_failures, 1);
        assert_eq!(s.queue_depth, 2);
        assert_eq!(s.max_queue_depth, 7);
        // Wire round trip (the ctrl protocol ships these).
        let b = s.to_bytes();
        assert_eq!(TransportStats::from_bytes(&b).unwrap(), s);
    }
}
