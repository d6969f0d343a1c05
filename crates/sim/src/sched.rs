//! The event scheduler: virtual clock plus a stable-ordered event heap.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use camelot_types::{Duration, Time};

use crate::rng::SimRng;

/// An event: a one-shot closure run at its scheduled virtual time with
/// mutable access to the model and to the scheduler (to schedule more
/// events).
pub type Event<M> = Box<dyn FnOnce(&mut M, &mut Scheduler<M>)>;

/// Handle for a scheduled event, usable to cancel it (timers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

struct Entry<M> {
    time: Time,
    seq: u64,
    event: Event<M>,
}

// The heap is a max-heap; we invert the ordering to pop the earliest
// (time, seq) first. Only `time` and `seq` participate in ordering.
impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Entry<M> {}
impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: earlier time (then lower seq) is "greater" so it
        // pops first from the max-heap.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event scheduler over a model type `M`.
pub struct Scheduler<M> {
    now: Time,
    heap: BinaryHeap<Entry<M>>,
    next_seq: u64,
    cancelled: HashSet<u64>,
    executed: u64,
    rng: SimRng,
}

impl<M> Scheduler<M> {
    /// Creates a scheduler at time zero with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Scheduler {
            now: Time::ZERO,
            heap: BinaryHeap::new(),
            next_seq: 0,
            cancelled: HashSet::new(),
            executed: 0,
            rng: SimRng::new(seed),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The simulation's random number generator.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Schedules `event` at absolute time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past — scheduling backwards in time is
    /// always a bug in the caller.
    pub fn at(&mut self, t: Time, event: Event<M>) -> EventId {
        assert!(
            t >= self.now,
            "cannot schedule into the past ({t} < {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: t,
            seq,
            event,
        });
        EventId(seq)
    }

    /// Schedules `event` after delay `d` from now.
    pub fn after(&mut self, d: Duration, event: Event<M>) -> EventId {
        self.at(self.now + d, event)
    }

    /// Schedules `event` at the current time, after all events already
    /// scheduled for the current time.
    pub fn immediately(&mut self, event: Event<M>) -> EventId {
        self.at(self.now, event)
    }

    /// Cancels a previously scheduled event. Cancelling an event that
    /// already ran (or was already cancelled) is a harmless no-op —
    /// exactly the semantics wanted for protocol timers.
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.insert(id.0);
    }

    /// Runs the earliest pending event. Returns `false` when no events
    /// remain.
    pub fn step(&mut self, model: &mut M) -> bool {
        loop {
            let Some(entry) = self.heap.pop() else {
                return false;
            };
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            debug_assert!(entry.time >= self.now);
            self.now = entry.time;
            self.executed += 1;
            (entry.event)(model, self);
            return true;
        }
    }

    /// Runs events until none remain.
    pub fn run(&mut self, model: &mut M) {
        while self.step(model) {}
    }

    /// Runs events until none remain or virtual time would pass
    /// `deadline`; events scheduled strictly after the deadline are
    /// left pending and `now` is advanced to the deadline.
    pub fn run_until(&mut self, model: &mut M, deadline: Time) {
        loop {
            // Peek: skip over cancelled entries to find the real next.
            let next_time = loop {
                match self.heap.peek() {
                    None => break None,
                    Some(e) if self.cancelled.contains(&e.seq) => {
                        let e = self.heap.pop().expect("peeked entry exists");
                        self.cancelled.remove(&e.seq);
                    }
                    Some(e) => break Some(e.time),
                }
            };
            match next_time {
                Some(t) if t <= deadline => {
                    self.step(model);
                }
                _ => {
                    if self.now < deadline {
                        self.now = deadline;
                    }
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type S = Scheduler<Vec<u32>>;

    fn push(v: u32) -> Event<Vec<u32>> {
        Box::new(move |m: &mut Vec<u32>, _| m.push(v))
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut s = S::new(0);
        let mut m = Vec::new();
        s.after(Duration::from_millis(20), push(2));
        s.after(Duration::from_millis(10), push(1));
        s.after(Duration::from_millis(30), push(3));
        s.run(&mut m);
        assert_eq!(m, vec![1, 2, 3]);
        assert_eq!(s.now(), Time(30_000));
        assert_eq!(s.executed(), 3);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut s = S::new(0);
        let mut m = Vec::new();
        for v in 0..10 {
            s.after(Duration::from_millis(5), push(v));
        }
        s.run(&mut m);
        assert_eq!(m, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn immediately_runs_after_current_time_peers() {
        let mut s = S::new(0);
        let mut m = Vec::new();
        s.at(
            Time(1000),
            Box::new(|m: &mut Vec<u32>, s| {
                m.push(1);
                s.immediately(push(2));
            }),
        );
        s.at(Time(1000), push(3));
        s.run(&mut m);
        assert_eq!(m, vec![1, 3, 2]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut s = S::new(0);
        let mut m = Vec::new();
        s.after(
            Duration::from_millis(1),
            Box::new(|m: &mut Vec<u32>, s| {
                m.push(1);
                s.after(
                    Duration::from_millis(1),
                    Box::new(|m: &mut Vec<u32>, s| {
                        m.push(2);
                        s.after(Duration::from_millis(1), push(3));
                    }),
                );
            }),
        );
        s.run(&mut m);
        assert_eq!(m, vec![1, 2, 3]);
        assert_eq!(s.now(), Time(3_000));
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut s = S::new(0);
        let mut m = Vec::new();
        let id = s.after(Duration::from_millis(5), push(9));
        s.after(Duration::from_millis(6), push(1));
        s.cancel(id);
        s.run(&mut m);
        assert_eq!(m, vec![1]);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut s = S::new(0);
        let mut m = Vec::new();
        let id = s.after(Duration::from_millis(1), push(1));
        s.run(&mut m);
        s.cancel(id); // Already fired; must not disturb anything.
        s.after(Duration::from_millis(1), push(2));
        s.run(&mut m);
        assert_eq!(m, vec![1, 2]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut s = S::new(0);
        let mut m = Vec::new();
        s.after(Duration::from_millis(10), push(1));
        s.after(Duration::from_millis(20), push(2));
        s.run_until(&mut m, Time(15_000));
        assert_eq!(m, vec![1]);
        assert_eq!(s.now(), Time(15_000));
        s.run(&mut m);
        assert_eq!(m, vec![1, 2]);
    }

    #[test]
    fn run_until_skips_cancelled_head() {
        let mut s = S::new(0);
        let mut m = Vec::new();
        let id = s.after(Duration::from_millis(10), push(1));
        s.cancel(id);
        s.run_until(&mut m, Time(50_000));
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut s = S::new(0);
        let mut m = Vec::new();
        s.after(Duration::from_millis(10), push(1));
        s.run(&mut m);
        s.at(Time(1_000), push(2));
    }

    #[test]
    fn deterministic_given_seed() {
        fn trace(seed: u64) -> Vec<u64> {
            let mut s = Scheduler::<Vec<u64>>::new(seed);
            let mut m = Vec::new();
            for _ in 0..50 {
                let d = Duration::from_micros(s.rng().uniform_u64(0, 10_000));
                s.after(
                    d,
                    Box::new(|m: &mut Vec<u64>, s| m.push(s.now().as_micros())),
                );
            }
            s.run(&mut m);
            m
        }
        assert_eq!(trace(7), trace(7));
        assert_ne!(trace(7), trace(8));
    }
}
