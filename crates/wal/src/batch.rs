//! Group commit (log batching), sans-io.
//!
//! "If the log is implemented as a disk, then a transaction facility
//! cannot do more than about 30 log writes per second. To provide
//! throughput rates greater than 30 TPS requires writing log records
//! that indicate the commitment of many transactions, a technique
//! which is called log batching or group commit. It sacrifices latency
//! in order to increase throughput. Camelot batches log records within
//! the disk manager, which is the single point of access to the log."
//! (paper §3.5)
//!
//! [`GroupCommitBatcher`] is a pure state machine: callers feed it
//! force *requests*, platter-write *completions* and *timer* firings;
//! it answers with [`BatcherAction`]s (start a platter write, arm a
//! timer, requests now satisfied). The discrete-event simulator and
//! the real-thread disk manager drive the same machine, so the
//! batching behaviour measured in Figure 4 is the behaviour the real
//! runtime executes.

use camelot_obs::{TraceEventKind, Tracer};
use camelot_types::{Duration, Lsn, Time};

/// Identifies one force request (assigned by the caller).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReqId(pub u64);

/// Batching policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// No batching: each request gets its own platter write (requests
    /// queue FIFO behind the busy disk). This is the "group commit
    /// off" configuration of Figure 4.
    Immediate,
    /// Classic group commit: all requests pending when the disk frees
    /// are satisfied by one write.
    Coalesce,
    /// Group commit with an accumulation timer: after the first
    /// request arrives, wait up to the window before writing, so more
    /// requests can share the platter write. (The "group commit
    /// timers" of Helland et al., cited by the paper.)
    Window(Duration),
}

/// What the driver must do next.
#[derive(Debug, PartialEq, Eq)]
pub enum BatcherAction {
    /// Start a platter write making everything up to `upto` durable.
    /// Exactly one write may be in flight; report completion with
    /// [`GroupCommitBatcher::write_complete`].
    StartWrite { upto: Lsn },
    /// Arm a timer for the given time carrying this epoch; when it
    /// fires, call [`GroupCommitBatcher::timer_fired`] with the epoch.
    /// A newer `SetTimer` supersedes older ones (stale epochs are
    /// ignored), so drivers never need to cancel.
    SetTimer { at: Time, epoch: u64 },
    /// These requests' records are durable; unblock their waiters.
    Satisfied { reqs: Vec<ReqId>, durable: Lsn },
}

/// The group-commit state machine.
#[derive(Debug)]
pub struct GroupCommitBatcher {
    policy: BatchPolicy,
    /// LSN watermark the in-flight write will establish, if any.
    in_flight: Option<Lsn>,
    /// Waiting requests in arrival order.
    pending: Vec<(ReqId, Lsn)>,
    /// Durable watermark (exclusive: all bytes below are durable).
    durable: Lsn,
    timer_epoch: u64,
    timer_armed: bool,
    /// Platter writes started (the figure-4 "log writes" count).
    writes: u64,
    /// Site-level trace emission (batch start/durable); no-op unless
    /// attached via [`GroupCommitBatcher::set_tracer`].
    tracer: Tracer,
}

impl GroupCommitBatcher {
    pub fn new(policy: BatchPolicy) -> Self {
        GroupCommitBatcher {
            policy,
            in_flight: None,
            pending: Vec::new(),
            durable: Lsn(0),
            timer_epoch: 0,
            timer_armed: false,
            writes: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a trace ring; batch starts and completions are
    /// recorded as site-level events from now on.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Platter writes started so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Requests currently waiting.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Durable watermark.
    pub fn durable(&self) -> Lsn {
        self.durable
    }

    /// How many pending requests a write up to `upto` would satisfy —
    /// the batch size of that write (used by cost models charging
    /// per-record work).
    pub fn pending_covered(&self, upto: Lsn) -> usize {
        self.pending.iter().filter(|&&(_, l)| l <= upto).count()
    }

    /// A caller wants everything up to and including the record at
    /// `lsn_end` (use the log's `end_lsn` after appending) durable.
    pub fn request(&mut self, req: ReqId, lsn_end: Lsn, now: Time) -> Vec<BatcherAction> {
        if lsn_end <= self.durable {
            return vec![BatcherAction::Satisfied {
                reqs: vec![req],
                durable: self.durable,
            }];
        }
        self.pending.push((req, lsn_end));
        self.maybe_start(now, false)
    }

    /// The driver finished the platter write previously requested.
    pub fn write_complete(&mut self, now: Time) -> Vec<BatcherAction> {
        let upto = self.in_flight.expect("write_complete without StartWrite");
        self.write_complete_to(upto, now)
    }

    /// The driver finished a platter write that established `actual`
    /// as the durable watermark. A pipelined driver whose workers keep
    /// appending while the platter is busy uses this form: the write
    /// drains everything appended so far, so `actual` is usually
    /// *beyond* the `upto` the [`BatcherAction::StartWrite`] asked for
    /// and later requests ride along for free. A driver whose store
    /// lost the tail (crash during the write) may report `actual`
    /// *below* `upto`: the uncovered requests simply stay pending.
    /// Either way, [`BatcherAction::Satisfied`] only ever reports
    /// requests whose LSN is at or below the durable watermark.
    pub fn write_complete_to(&mut self, actual: Lsn, now: Time) -> Vec<BatcherAction> {
        self.in_flight
            .take()
            .expect("write_complete without StartWrite");
        self.durable = self.durable.max(actual);
        self.tracer
            .site_event(TraceEventKind::BatchDurable { upto: actual.0 });
        let mut done = Vec::new();
        self.pending.retain(|&(req, lsn)| {
            if lsn <= self.durable {
                done.push(req);
                false
            } else {
                true
            }
        });
        let mut actions = Vec::new();
        if !done.is_empty() {
            actions.push(BatcherAction::Satisfied {
                reqs: done,
                durable: self.durable,
            });
        }
        actions.extend(self.maybe_start(now, true));
        actions
    }

    /// The site hosting this log crashed: everything above the durable
    /// watermark is gone, and the engine incarnation that issued the
    /// uncovered requests has been torn down — no append will ever
    /// satisfy them. Drops them, returning their ids so the driver can
    /// discard its own bookkeeping. Without this, a pipelined driver
    /// would restart the platter write forever against a log that can
    /// no longer reach the requested watermark.
    pub fn crash_abandon(&mut self) -> Vec<ReqId> {
        let durable = self.durable;
        let mut dropped = Vec::new();
        self.pending.retain(|&(req, lsn)| {
            if lsn > durable {
                dropped.push(req);
                false
            } else {
                true
            }
        });
        dropped
    }

    /// A previously armed timer fired. Stale epochs are ignored.
    pub fn timer_fired(&mut self, epoch: u64, now: Time) -> Vec<BatcherAction> {
        if !self.timer_armed || epoch != self.timer_epoch {
            return Vec::new();
        }
        self.timer_armed = false;
        self.maybe_start(now, true)
    }

    fn start_write(&mut self, upto: Lsn) -> Vec<BatcherAction> {
        debug_assert!(self.in_flight.is_none());
        self.in_flight = Some(upto);
        self.writes += 1;
        self.tracer
            .site_event(TraceEventKind::BatchStart { upto: upto.0 });
        vec![BatcherAction::StartWrite { upto }]
    }

    fn max_pending_lsn(&self) -> Lsn {
        self.pending
            .iter()
            .map(|&(_, l)| l)
            .max()
            .expect("pending not empty")
    }

    /// Decides whether to start a write now. `window_expired` is true
    /// when called from a timer firing or a write completion (the
    /// accumulation window no longer applies to what is queued).
    fn maybe_start(&mut self, now: Time, window_expired: bool) -> Vec<BatcherAction> {
        if self.in_flight.is_some() || self.pending.is_empty() {
            return Vec::new();
        }
        match self.policy {
            BatchPolicy::Immediate => {
                // One write per request, FIFO: write only as far as the
                // oldest request needs. (Later requests whose records
                // happen to fall below that watermark ride along — a
                // real disk cannot avoid making a prefix durable.)
                let upto = self.pending[0].1;
                self.start_write(upto)
            }
            BatchPolicy::Coalesce => {
                let upto = self.max_pending_lsn();
                self.start_write(upto)
            }
            BatchPolicy::Window(d) => {
                if window_expired {
                    let upto = self.max_pending_lsn();
                    self.start_write(upto)
                } else if !self.timer_armed {
                    self.timer_epoch += 1;
                    self.timer_armed = true;
                    vec![BatcherAction::SetTimer {
                        at: now + d,
                        epoch: self.timer_epoch,
                    }]
                } else {
                    Vec::new()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time(ms * 1000)
    }

    fn satisfied(actions: &[BatcherAction]) -> Vec<ReqId> {
        actions
            .iter()
            .filter_map(|a| match a {
                BatcherAction::Satisfied { reqs, .. } => Some(reqs.clone()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    fn starts(actions: &[BatcherAction]) -> Vec<Lsn> {
        actions
            .iter()
            .filter_map(|a| match a {
                BatcherAction::StartWrite { upto } => Some(*upto),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn immediate_gives_each_request_its_own_write() {
        let mut b = GroupCommitBatcher::new(BatchPolicy::Immediate);
        let a1 = b.request(ReqId(1), Lsn(100), t(0));
        assert_eq!(starts(&a1), vec![Lsn(100)]);
        // Second request while the disk is busy: queued, no new write.
        let a2 = b.request(ReqId(2), Lsn(200), t(1));
        assert!(starts(&a2).is_empty());
        // First write completes: request 1 satisfied, request 2's
        // write starts.
        let a3 = b.write_complete(t(33));
        assert_eq!(satisfied(&a3), vec![ReqId(1)]);
        assert_eq!(starts(&a3), vec![Lsn(200)]);
        let a4 = b.write_complete(t(66));
        assert_eq!(satisfied(&a4), vec![ReqId(2)]);
        assert_eq!(b.writes(), 2);
    }

    #[test]
    fn coalesce_satisfies_all_pending_with_one_write() {
        let mut b = GroupCommitBatcher::new(BatchPolicy::Coalesce);
        let a1 = b.request(ReqId(1), Lsn(100), t(0));
        assert_eq!(starts(&a1), vec![Lsn(100)]);
        // Three more requests arrive while the disk is busy.
        b.request(ReqId(2), Lsn(150), t(1));
        b.request(ReqId(3), Lsn(250), t(2));
        b.request(ReqId(4), Lsn(200), t(3));
        // First write completes: only request 1 is durable.
        let a2 = b.write_complete(t(33));
        assert_eq!(satisfied(&a2), vec![ReqId(1)]);
        // One combined write up to the max pending LSN.
        assert_eq!(starts(&a2), vec![Lsn(250)]);
        let a3 = b.write_complete(t(66));
        let mut got = satisfied(&a3);
        got.sort_by_key(|r| r.0);
        assert_eq!(got, vec![ReqId(2), ReqId(3), ReqId(4)]);
        assert_eq!(b.writes(), 2, "four transactions, two platter writes");
    }

    #[test]
    fn already_durable_request_satisfied_instantly() {
        let mut b = GroupCommitBatcher::new(BatchPolicy::Coalesce);
        b.request(ReqId(1), Lsn(100), t(0));
        b.write_complete(t(33));
        let a = b.request(ReqId(2), Lsn(50), t(40));
        assert_eq!(satisfied(&a), vec![ReqId(2)]);
        assert_eq!(b.writes(), 1);
    }

    #[test]
    fn window_policy_accumulates_until_timer() {
        let mut b = GroupCommitBatcher::new(BatchPolicy::Window(Duration::from_millis(10)));
        let a1 = b.request(ReqId(1), Lsn(100), t(0));
        // No write yet: a timer is armed instead.
        assert!(starts(&a1).is_empty());
        let epoch = match a1.as_slice() {
            [BatcherAction::SetTimer { at, epoch }] => {
                assert_eq!(*at, t(10));
                *epoch
            }
            other => panic!("expected SetTimer, got {other:?}"),
        };
        // Another request within the window: no second timer.
        let a2 = b.request(ReqId(2), Lsn(200), t(5));
        assert!(a2.is_empty());
        // Timer fires: one write for both.
        let a3 = b.timer_fired(epoch, t(10));
        assert_eq!(starts(&a3), vec![Lsn(200)]);
        let a4 = b.write_complete(t(43));
        assert_eq!(satisfied(&a4).len(), 2);
        assert_eq!(b.writes(), 1);
    }

    #[test]
    fn stale_timer_is_ignored() {
        let mut b = GroupCommitBatcher::new(BatchPolicy::Window(Duration::from_millis(10)));
        let a1 = b.request(ReqId(1), Lsn(100), t(0));
        let epoch = match a1.as_slice() {
            [BatcherAction::SetTimer { epoch, .. }] => *epoch,
            other => panic!("{other:?}"),
        };
        b.timer_fired(epoch, t(10));
        b.write_complete(t(43));
        // The old epoch firing again must do nothing.
        assert!(b.timer_fired(epoch, t(50)).is_empty());
        // And an unknown epoch likewise.
        assert!(b.timer_fired(999, t(51)).is_empty());
    }

    #[test]
    fn completion_starts_followup_immediately_under_window() {
        // Requests queued behind a busy disk don't wait for a fresh
        // window once the disk frees — the accumulation already
        // happened while the disk was busy.
        let mut b = GroupCommitBatcher::new(BatchPolicy::Window(Duration::from_millis(10)));
        let a1 = b.request(ReqId(1), Lsn(100), t(0));
        let epoch = match a1.as_slice() {
            [BatcherAction::SetTimer { epoch, .. }] => *epoch,
            other => panic!("{other:?}"),
        };
        b.timer_fired(epoch, t(10));
        b.request(ReqId(2), Lsn(300), t(12));
        let a = b.write_complete(t(43));
        assert_eq!(starts(&a), vec![Lsn(300)]);
    }

    #[test]
    fn counters() {
        let mut b = GroupCommitBatcher::new(BatchPolicy::Coalesce);
        b.request(ReqId(1), Lsn(10), t(0));
        b.request(ReqId(2), Lsn(20), t(0));
        b.write_complete(t(33)); // Satisfies 1, starts write for 2.
        b.write_complete(t(66));
        assert_eq!(b.pending_len(), 0);
        assert_eq!(b.durable(), Lsn(20));
    }

    #[test]
    #[should_panic(expected = "write_complete without StartWrite")]
    fn completion_without_start_panics() {
        let mut b = GroupCommitBatcher::new(BatchPolicy::Coalesce);
        b.write_complete(t(0));
    }

    #[test]
    fn pipelined_completion_ride_along_satisfies_later_requests() {
        // The pipelined driver's platter write drains everything the
        // workers appended while it was in flight: reporting the
        // *actual* watermark satisfies requests beyond the StartWrite
        // target in the same write.
        let mut b = GroupCommitBatcher::new(BatchPolicy::Coalesce);
        let a1 = b.request(ReqId(1), Lsn(100), t(0));
        assert_eq!(starts(&a1), vec![Lsn(100)]);
        // Arrives while the platter is busy; its record is in the
        // drained buffer anyway.
        b.request(ReqId(2), Lsn(180), t(1));
        let a2 = b.write_complete_to(Lsn(200), t(33));
        let mut got = satisfied(&a2);
        got.sort_by_key(|r| r.0);
        assert_eq!(got, vec![ReqId(1), ReqId(2)], "ride-along satisfied");
        assert!(starts(&a2).is_empty(), "nothing left to write");
        assert_eq!(b.writes(), 1);
        assert_eq!(b.durable(), Lsn(200));
    }

    #[test]
    fn satisfied_never_reports_requests_above_the_durable_watermark() {
        // Regression for the pipelined driver: a write that establishes
        // a watermark *below* a pending request's LSN (e.g. the store
        // lost its tail in a crash) must leave that request pending,
        // not report it satisfied.
        let mut b = GroupCommitBatcher::new(BatchPolicy::Coalesce);
        b.request(ReqId(1), Lsn(100), t(0));
        b.request(ReqId(2), Lsn(300), t(1));
        // The write was started for Lsn(300); the store only made 150
        // durable.
        let a = b.write_complete_to(Lsn(150), t(33));
        for action in &a {
            if let BatcherAction::Satisfied { reqs, durable } = action {
                assert_eq!(reqs, &vec![ReqId(1)]);
                assert_eq!(*durable, Lsn(150));
            }
        }
        assert_eq!(b.pending_len(), 1, "uncovered request stays pending");
        // The completion immediately restarts a write for the
        // remainder; once it lands, the request is satisfied.
        assert_eq!(starts(&a), vec![Lsn(300)]);
        let a2 = b.write_complete_to(Lsn(300), t(66));
        assert_eq!(satisfied(&a2), vec![ReqId(2)]);
    }

    #[test]
    fn pipelined_completion_watermark_invariant_over_many_rounds() {
        // Drive an Immediate batcher with interleaved requests and
        // over- and under-shooting completions; Satisfied must never
        // name a request whose LSN exceeds the reported watermark.
        let mut b = GroupCommitBatcher::new(BatchPolicy::Immediate);
        let mut lsns = std::collections::HashMap::new();
        let mut next_req = 1u64;
        let mut satisfied_total = 0usize;
        for round in 0..50u64 {
            for k in 0..3u64 {
                let r = ReqId(next_req);
                next_req += 1;
                let lsn = Lsn(round * 100 + k * 30 + 10);
                lsns.insert(r, lsn);
                b.request(r, lsn, t(round));
            }
            if b.pending_len() > 0 {
                // Alternate overshoot / exact completions.
                let actual = if round % 2 == 0 {
                    Lsn(round * 100 + 100)
                } else {
                    Lsn(round * 100 + 40)
                };
                let actions = b.write_complete_to(actual, t(round));
                for a in &actions {
                    if let BatcherAction::Satisfied { reqs, durable } = a {
                        for r in reqs {
                            satisfied_total += 1;
                            assert!(
                                lsns[r] <= *durable,
                                "req {r:?} at {:?} reported durable at {durable:?}",
                                lsns[r]
                            );
                        }
                    }
                }
            }
        }
        assert!(satisfied_total > 0);
    }

    #[test]
    fn force_while_window_timer_armed_shares_the_write() {
        // A force request that arrives while the accumulation timer is
        // armed neither re-arms the timer nor starts its own write: it
        // rides the armed window, and the single platter write covers
        // its (higher) LSN too. The satisfied batch then advances the
        // epoch, so the superseded timer firing late is a no-op.
        let mut b = GroupCommitBatcher::new(BatchPolicy::Window(Duration::from_millis(10)));
        let a1 = b.request(ReqId(1), Lsn(100), t(0));
        let e1 = match a1.as_slice() {
            [BatcherAction::SetTimer { epoch, .. }] => *epoch,
            other => panic!("expected SetTimer, got {other:?}"),
        };
        // The mid-window force: no second timer, no write.
        let a2 = b.request(ReqId(2), Lsn(250), t(4));
        assert!(a2.is_empty());
        let a3 = b.timer_fired(e1, t(10));
        assert_eq!(starts(&a3), vec![Lsn(250)], "one write covers both");
        let a4 = b.write_complete(t(43));
        let mut got = satisfied(&a4);
        got.sort_by_key(|r| r.0);
        assert_eq!(got, vec![ReqId(1), ReqId(2)]);
        assert_eq!(b.writes(), 1);
        // A fresh request arms a NEW epoch; the old one is dead.
        let a5 = b.request(ReqId(3), Lsn(300), t(50));
        let e2 = match a5.as_slice() {
            [BatcherAction::SetTimer { epoch, .. }] => *epoch,
            other => panic!("expected SetTimer, got {other:?}"),
        };
        assert_ne!(e1, e2);
        assert!(b.timer_fired(e1, t(55)).is_empty(), "stale epoch ignored");
    }

    #[test]
    fn epoch_rollover_across_crash_restart() {
        // A crash discards the batcher; the disk manager rebuilds a
        // fresh one at restart. Epoch numbering restarts with it, so
        // two contracts matter: (1) a pre-crash timer firing into the
        // fresh batcher (no timer armed yet) is ignored rather than
        // starting a bogus write, and (2) the first post-restart
        // window arms its own epoch and runs normally even though the
        // number collides with a pre-crash epoch.
        let mut b1 = GroupCommitBatcher::new(BatchPolicy::Window(Duration::from_millis(10)));
        let a = b1.request(ReqId(1), Lsn(100), t(0));
        let old_epoch = match a.as_slice() {
            [BatcherAction::SetTimer { epoch, .. }] => *epoch,
            other => panic!("expected SetTimer, got {other:?}"),
        };
        drop(b1); // Crash: volatile batcher state is gone.

        let mut b2 = GroupCommitBatcher::new(BatchPolicy::Window(Duration::from_millis(10)));
        // The stale pre-crash timer fires into the new incarnation.
        assert!(b2.timer_fired(old_epoch, t(12)).is_empty());
        assert_eq!(b2.writes(), 0);
        // Recovery re-forces the recovered tail under a fresh window:
        // the colliding epoch number belongs to b2 now and works.
        let a1 = b2.request(ReqId(2), Lsn(100), t(20));
        let new_epoch = match a1.as_slice() {
            [BatcherAction::SetTimer { epoch, .. }] => *epoch,
            other => panic!("expected SetTimer, got {other:?}"),
        };
        assert_eq!(new_epoch, old_epoch, "fresh numbering collides by design");
        let a2 = b2.timer_fired(new_epoch, t(30));
        assert_eq!(starts(&a2), vec![Lsn(100)]);
        let a3 = b2.write_complete(t(63));
        assert_eq!(satisfied(&a3), vec![ReqId(2)]);
        assert_eq!(b2.durable(), Lsn(100));
    }

    #[test]
    fn zero_delay_window_degenerates_to_per_record_force() {
        // Window(0) arms a timer that expires at `now`: with requests
        // arriving one at a time each gets its own platter write —
        // exactly the no-batching behaviour, just with a timer hop in
        // the middle.
        let mut b = GroupCommitBatcher::new(BatchPolicy::Window(Duration::from_millis(0)));
        for (i, lsn) in [(1u64, 100u64), (2, 200), (3, 300)] {
            let now = t(i * 40);
            let a1 = b.request(ReqId(i), Lsn(lsn), now);
            let epoch = match a1.as_slice() {
                [BatcherAction::SetTimer { at, epoch }] => {
                    assert_eq!(*at, now, "zero window expires immediately");
                    *epoch
                }
                other => panic!("expected SetTimer, got {other:?}"),
            };
            let a2 = b.timer_fired(epoch, now);
            assert_eq!(starts(&a2), vec![Lsn(lsn)]);
            let a3 = b.write_complete(now + Duration::from_millis(33));
            assert_eq!(satisfied(&a3), vec![ReqId(i)]);
        }
        assert_eq!(b.writes(), 3, "one write per record");
    }
}
