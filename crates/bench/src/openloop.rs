//! Open-loop arrival scheduling.
//!
//! A closed-loop driver (each client issues its next transaction when
//! the previous one returns) self-throttles exactly when the system
//! congests, hiding the latency blow-up past the knee. The open-loop
//! harness instead fixes an *offered* arrival rate: transaction `i`
//! is due at `start + i/λ` regardless of how the previous ones fared,
//! and latency is measured from the *scheduled* arrival — queueing
//! delay in the harness counts against the system, as it would for
//! real users.

use std::time::{Duration, Instant};

/// Fixed-rate arrival schedule: `n` arrivals at `rate_per_sec`, the
/// i-th due `i/rate` after start.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    start: Instant,
    interval: Duration,
    released: u64,
    total: u64,
}

impl OpenLoop {
    pub fn new(start: Instant, rate_per_sec: f64, total: u64) -> OpenLoop {
        assert!(rate_per_sec > 0.0);
        OpenLoop {
            start,
            interval: Duration::from_secs_f64(1.0 / rate_per_sec),
            released: 0,
            total,
        }
    }

    /// Number of arrivals whose due time has passed but which have not
    /// been released yet; advances the cursor. Call in a loop with
    /// [`OpenLoop::next_due`]-based sleeps — bursts after a stall are
    /// released together, as an open-loop generator must.
    pub fn due_now(&mut self, now: Instant) -> u64 {
        let elapsed = now.saturating_duration_since(self.start);
        // Arrival i (0-based) is due at start + i*interval, so by
        // `elapsed` exactly floor(elapsed/interval)+1 are due.
        let due = (elapsed.as_secs_f64() / self.interval.as_secs_f64()) as u64 + 1;
        let due = due.min(self.total);
        let fresh = due.saturating_sub(self.released);
        self.released = due;
        fresh
    }

    /// Scheduled arrival time of release index `i` (0-based).
    pub fn due_at(&self, i: u64) -> Instant {
        self.start + Duration::from_secs_f64(self.interval.as_secs_f64() * i as f64)
    }

    /// When the next unreleased arrival is due (`None` when done).
    pub fn next_due(&self) -> Option<Instant> {
        (self.released < self.total).then(|| self.due_at(self.released))
    }

    /// Paces the whole schedule in real time on the calling thread,
    /// handing each arrival's `(index, due time)` to `release` once it
    /// is due. Sleeps at most 1 ms at a stretch, which keeps release
    /// bursts tight; a stall releases its backlog in one burst.
    pub fn run(&mut self, mut release: impl FnMut(u64, Instant)) {
        while let Some(due) = self.next_due() {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due.duration_since(now).min(Duration::from_millis(1)));
                continue;
            }
            let first = self.released;
            for idx in first..first + self.due_now(now) {
                release(idx, self.due_at(idx));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn releases_match_elapsed_time() {
        let start = Instant::now();
        let mut ol = OpenLoop::new(start, 1000.0, 100);
        // 10 ms in: 11 arrivals due (i*1ms for i in 0..=10).
        assert_eq!(ol.due_now(start + Duration::from_millis(10)), 11);
        // No time passes: nothing new.
        assert_eq!(ol.due_now(start + Duration::from_millis(10)), 0);
        // A stall releases the backlog in one burst, capped at total.
        assert_eq!(ol.due_now(start + Duration::from_secs(5)), 89);
        assert_eq!(ol.next_due(), None);
    }
}
