//! Two corrections for the box the ladder runs on: sharper sleeps for
//! the load generator, and reference measurements of how fast the box
//! is at the moment.
//!
//! A thread's sleeps may overshoot by its *timer slack*, 50 µs by
//! default, which the kernel uses to batch wake-ups. An open-loop
//! driver times every transaction from its due time, so that slack
//! lands in every latency sample and is a good part of a 100 µs
//! median. The driver threads therefore ask for the minimum slack.
//! Only they do: the program under test keeps the default.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::stats;

const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// Sets the calling thread's timer slack to 1 ns. A refusal is not an
/// error: the sleeps are then as coarse as any thread's, which
/// `bench.gen_late_p50_us` shows.
pub fn precise_sleeps() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // no memory of this process.
    unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
}

/// Thread name of the reference's own threads; `cpu::process_cpu_ns`
/// skips them, as it skips the idle spinner.
pub const REFERENCE_THREAD: &str = "ladder-ref";

/// A fixed two-thread ping-pong that uses nothing of the repo: each hop
/// sends a freshly allocated 64-byte message over `std::sync::mpsc`,
/// wakes the other thread and files a copy in a `HashMap`.
///
/// The sandbox's speed drifts over minutes — identical runs differ by
/// up to 1.8× in CPU per commit, all workloads together — and what
/// slows is exactly this kind of code (hand-offs, allocation, hashing;
/// a plain arithmetic loop drifts far less). Timed inside every round,
/// its round trip tells how slow the box was for that round, and the
/// CPU-bound end-to-end figures are reported at the nominal speed
/// (README, "Speed adjustment"). Because it calls only `std`, no change
/// to the program can move it.
struct PingPong {
    to_peer: mpsc::Sender<Vec<u8>>,
    from_peer: mpsc::Receiver<Vec<u8>>,
    peer: std::thread::JoinHandle<()>,
    filed: HashMap<u64, Vec<u8>>,
    trips: u64,
}

impl PingPong {
    fn start() -> PingPong {
        let (to_peer, peer_rx) = mpsc::channel::<Vec<u8>>();
        let (to_me, from_peer) = mpsc::channel::<Vec<u8>>();
        let peer = std::thread::Builder::new()
            .name(REFERENCE_THREAD.into())
            .spawn(move || {
                let mut filed: HashMap<u64, Vec<u8>> = HashMap::new();
                let mut n = 0u64;
                while let Ok(msg) = peer_rx.recv() {
                    n += 1;
                    filed.insert(n % 4096, msg.clone());
                    if to_me.send(msg).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn reference peer");
        PingPong {
            to_peer,
            from_peer,
            peer,
            filed: HashMap::new(),
            trips: 0,
        }
    }

    fn trip(&mut self) {
        self.trips += 1;
        let msg = vec![self.trips as u8; 64];
        let slot = self.trips.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 4096;
        self.filed.insert(slot, msg.clone());
        if self.to_peer.send(msg).is_ok() {
            std::hint::black_box(self.from_peer.recv().ok());
        }
    }

    fn stop(self) {
        drop(self.to_peer);
        let _ = self.peer.join();
    }
}

/// The back-to-back round trip on this sandbox when the host is quiet.
pub const REFERENCE_NOMINAL_US: f64 = 3.0;

/// Microseconds per round trip, 1500 trips back to back: how fast the
/// box runs code that is already running, which is what the saturation
/// phase, recovery and set-up are.
///
/// The trips are timed in [`CHUNKS`] chunks and the median chunk is
/// the result: the host also stalls the virtual CPU for milliseconds
/// at a time, and one such stall inside a 5 ms measurement would
/// otherwise double it.
pub fn reference_roundtrip_us() -> f64 {
    const CHUNKS: usize = 15;
    const TRIPS_PER_CHUNK: u64 = 100;
    let mut pp = PingPong::start();
    let chunks: Vec<f64> = (0..CHUNKS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..TRIPS_PER_CHUNK {
                pp.trip();
            }
            t.elapsed().as_secs_f64() * 1e6 / TRIPS_PER_CHUNK as f64
        })
        .collect();
    pp.stop();
    stats::median(&chunks)
}

/// The paced round trip on this sandbox when the host is quiet.
pub const PACED_NOMINAL_US: f64 = 6.5;

/// The same ping-pong, one trip a millisecond, run *beside* the
/// fixed-rate phase: how fast the box runs code that starts after an
/// idle gap, which is what a paced transaction is.
///
/// When the host is busy, whoever shares the core empties its caches
/// in every gap, and a transaction released by a timer starts colder
/// than the back-to-back reference ever is: with that reference alone,
/// the adjusted latency and CPU per commit of the low-rate workloads
/// (`dist_*`, 2.5-3.3 ms between arrivals) still moved by a quarter
/// between a quiet and a busy half hour (README, "Speed adjustment").
/// A trip costs about 7 µs of the millisecond it sits in; its threads
/// are left out of the CPU accounting by their name.
pub struct PacedReference {
    stop: Arc<AtomicBool>,
    pinger: std::thread::JoinHandle<Vec<f64>>,
}

impl PacedReference {
    pub fn start() -> PacedReference {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let pinger = std::thread::Builder::new()
            .name(REFERENCE_THREAD.into())
            .spawn(move || {
                precise_sleeps();
                let mut pp = PingPong::start();
                let mut trips_us = Vec::new();
                while !stopped.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                    let t = Instant::now();
                    pp.trip();
                    trips_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                pp.stop();
                trips_us
            })
            .expect("spawn paced reference");
        PacedReference { stop, pinger }
    }

    /// Stops the reference; the median trip, µs (`None` if the phase
    /// was too short for a single one).
    pub fn finish(self) -> Option<f64> {
        // Relaxed: the flag publishes nothing but itself.
        self.stop.store(true, Ordering::Relaxed);
        let trips_us = self.pinger.join().expect("paced reference panicked");
        (!trips_us.is_empty()).then(|| stats::median(&trips_us))
    }
}
