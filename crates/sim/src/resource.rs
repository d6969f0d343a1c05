//! First-come-first-served k-server resources.
//!
//! A [`Resource`] models a pool of identical servers with a FIFO queue:
//! the log disk is a 1-server resource, a 4-way multiprocessor's CPUs a
//! 4-server resource, and a transaction manager limited to `T` threads
//! a `T`-server resource. A simulated activity *acquires* a unit
//! (waiting in FIFO order if none is free), holds it across whatever
//! virtual time it needs — including synchronous waits such as a log
//! force, which is exactly how a thread-starved transaction manager
//! stalls — and then *releases* it.

use std::collections::VecDeque;

use crate::sched::{Event, Scheduler};

/// A FIFO k-server resource.
pub struct Resource<M> {
    name: &'static str,
    capacity: usize,
    in_use: usize,
    queue: VecDeque<Event<M>>,
    // Statistics.
    grants: u64,
    peak_queue: usize,
}

impl<M> Resource<M> {
    /// Creates a resource with `capacity` identical servers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(name: &'static str, capacity: usize) -> Self {
        assert!(capacity > 0, "resource {name} needs capacity >= 1");
        Resource {
            name,
            capacity,
            in_use: 0,
            queue: VecDeque::new(),
            grants: 0,
            peak_queue: 0,
        }
    }

    /// Resource name (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of servers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Units currently held.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Current queue length.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Longest queue observed.
    pub fn peak_queue(&self) -> usize {
        self.peak_queue
    }

    /// Requests one unit. If a server is free the continuation is
    /// scheduled immediately (at the current time, after events already
    /// queued for now); otherwise it waits in FIFO order.
    pub fn acquire(&mut self, sched: &mut Scheduler<M>, cont: Event<M>) {
        if self.in_use < self.capacity {
            self.in_use += 1;
            self.grants += 1;
            sched.immediately(cont);
        } else {
            self.queue.push_back(cont);
            self.peak_queue = self.peak_queue.max(self.queue.len());
        }
    }

    /// Releases one unit, handing it to the head-of-line waiter if any.
    ///
    /// # Panics
    ///
    /// Panics if no unit is held — a release without a matching acquire
    /// is always a model bug.
    pub fn release(&mut self, sched: &mut Scheduler<M>) {
        assert!(self.in_use > 0, "release of idle resource {}", self.name);
        if let Some(cont) = self.queue.pop_front() {
            // Hand the unit directly to the waiter: in_use stays the
            // same.
            self.grants += 1;
            sched.immediately(cont);
        } else {
            self.in_use -= 1;
        }
    }

    /// Total grants so far.
    pub fn grants(&self) -> u64 {
        self.grants
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_types::{Duration, Time};

    /// Acquire `get(model)`, hold it for `service`, release,
    /// then run `then`. This is the common "use a server for a fixed
    /// service time" pattern (CPU bursts, disk writes).
    fn use_resource<M: 'static>(
        get: fn(&mut M) -> &mut Resource<M>,
        sched: &mut Scheduler<M>,
        model: &mut M,
        service: Duration,
        then: Event<M>,
    ) {
        get(model).acquire(
            sched,
            Box::new(move |m: &mut M, s: &mut Scheduler<M>| {
                s.after(
                    service,
                    Box::new(move |m: &mut M, s: &mut Scheduler<M>| {
                        get(m).release(s);
                        then(m, s);
                    }),
                );
                let _ = m;
            }),
        );
    }

    struct W {
        cpu: Resource<W>,
        done: Vec<(u32, u64)>,
    }

    fn cpu(w: &mut W) -> &mut Resource<W> {
        &mut w.cpu
    }

    fn world(cap: usize) -> (Scheduler<W>, W) {
        (
            Scheduler::new(0),
            W {
                cpu: Resource::new("cpu", cap),
                done: Vec::new(),
            },
        )
    }

    fn job(id: u32, service_ms: u64) -> Event<W> {
        Box::new(move |w: &mut W, s: &mut Scheduler<W>| {
            use_resource(
                cpu,
                s,
                w,
                Duration::from_millis(service_ms),
                Box::new(move |w: &mut W, s: &mut Scheduler<W>| {
                    w.done.push((id, s.now().as_micros()));
                }),
            );
        })
    }

    #[test]
    fn single_server_serializes() {
        let (mut s, mut w) = world(1);
        s.at(Time(0), job(1, 10));
        s.at(Time(0), job(2, 10));
        s.at(Time(0), job(3, 10));
        s.run(&mut w);
        assert_eq!(w.done, vec![(1, 10_000), (2, 20_000), (3, 30_000)]);
    }

    #[test]
    fn k_servers_run_in_parallel() {
        let (mut s, mut w) = world(3);
        for id in 1..=3 {
            s.at(Time(0), job(id, 10));
        }
        s.run(&mut w);
        assert_eq!(w.done, vec![(1, 10_000), (2, 10_000), (3, 10_000)]);
    }

    #[test]
    fn queue_is_fifo() {
        let (mut s, mut w) = world(1);
        s.at(Time(0), job(1, 5));
        s.at(Time(1_000), job(2, 5));
        s.at(Time(2_000), job(3, 5));
        s.run(&mut w);
        let order: Vec<u32> = w.done.iter().map(|(id, _)| *id).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn grant_and_queue_statistics() {
        let (mut s, mut w) = world(1);
        s.at(Time(0), job(1, 10));
        s.at(Time(0), job(2, 10));
        s.run(&mut w);
        assert_eq!(s.now(), Time(20_000));
        assert_eq!(w.cpu.grants(), 2);
        assert_eq!(w.cpu.peak_queue(), 1);
    }

    #[test]
    #[should_panic(expected = "release of idle resource")]
    fn release_without_acquire_panics() {
        let (mut s, mut w) = world(1);
        s.at(
            Time(0),
            Box::new(|w: &mut W, s: &mut Scheduler<W>| {
                w.cpu.release(s);
            }),
        );
        s.run(&mut w);
    }

    #[test]
    fn handoff_keeps_server_busy() {
        // When a unit is handed directly to a waiter, in_use never dips,
        // so a third job still has to wait its full turn.
        let (mut s, mut w) = world(1);
        s.at(Time(0), job(1, 10));
        s.at(Time(0), job(2, 10));
        s.at(Time(0), job(3, 10));
        s.run(&mut w);
        assert_eq!(w.done.last(), Some(&(3, 30_000)));
        assert_eq!(w.cpu.in_use(), 0);
    }
}
