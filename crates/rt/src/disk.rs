//! The disk manager: a site's log, the pipelined platter thread, and
//! the checkpointer that keeps the log — and so restart — bounded.
//!
//! Workers encode and append records into the log's in-memory segment
//! themselves ([`SiteLog::append`], the only append path); the disk
//! thread only decides *when to write* (driving the
//! [`GroupCommitBatcher`]) and performs the platter write **without
//! holding the log lock**, so the log keeps filling while the platter
//! is busy — the classic double-buffered log manager.
//!
//! # Checkpoint, retention, truncation
//!
//! The same thread checkpoints. After a platter write it compares the
//! log written since the last checkpoint with the size of the last
//! snapshot and checkpoints once the tail exceeds
//! `max(64 KiB, 2 × last snapshot bytes)` — two numbers it already
//! has, so snapshot bytes stay at most half of log bytes and there is
//! nothing to tune. A checkpoint is every server's committed store
//! ([`LogRecord::ServerSnapshot`]) plus a [`LogRecord::Checkpoint`]
//! marker, made durable through the batcher like any other tail. Once
//! the marker is durable the log is truncated to
//!
//! ```text
//! min(log end when the checkpoint began,
//!     first LSN of every family an engine shard, a queue shard or a
//!     data server held when its state was looked at)
//! ```
//!
//! **Retention invariant:** a record below that floor belongs to a
//! family that had left every holder before the snapshot was taken, so
//! its committed effects are in the snapshot and its protocol state is
//! forgotten. Holders are looked at in hand-off order — engine shards,
//! then queue shards (a FIFO barrier), then the data servers under the
//! same lock that takes their snapshot — because a family's
//! resolution travels that way: whoever has let go of a family by the
//! time it is asked has already passed it on to a holder asked later,
//! or into the store. Retention is by live family, never "wait for an
//! idle moment": a site that is never quiescent still truncates.
//!
//! **Lock order:** the checkpointer takes one lock at a time — log
//! (read the end), each engine shard, each data server, log again
//! (append, prune) — and waits for the queue workers holding none.
//! Nothing it waits for ever waits for the disk thread.

use std::collections::{HashMap, HashSet};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use camelot_core::{CrashPoint, ForceToken, Input};
use camelot_obs::Phase;
use camelot_types::{FamilyId, Lsn};
use camelot_wal::{BatcherAction, GroupCommitBatcher, LogRecord, ReqId, StableStore, Wal};

use crate::cluster::{ClusterInner, SiteShared};
use crate::queue::QueueJob;

pub(crate) enum DiskJob {
    /// A force request: the record is already appended (by the
    /// requesting worker); make the log durable through `upto` and
    /// then feed `token` back as [`Input::LogForced`].
    Force {
        token: ForceToken,
        upto: Lsn,
        /// When the force entered the pipeline; the disk thread
        /// records enqueue→durable residence as [`Phase::ForceWait`].
        at: Instant,
    },
    /// Checkpoint now, whatever the tail's size. `done` hears once the
    /// checkpoint is durable and the log truncated; it is dropped
    /// unsent if the site is (or goes) down first.
    Checkpoint {
        done: Option<Sender<()>>,
    },
    Stop,
}

/// A site's log, with the one piece of bookkeeping truncation needs:
/// where each family's records begin. Derefs to the [`Wal`] for
/// everything but appending.
pub(crate) struct SiteLog {
    wal: Wal<Box<dyn StableStore + Send>>,
    /// LSN of the first retained record of each family that may still
    /// be held somewhere. Filled by [`SiteLog::append`] (and by the
    /// restart scan), pruned by the checkpointer.
    first_lsn: HashMap<FamilyId, Lsn>,
}

impl SiteLog {
    pub fn new(store: Box<dyn StableStore + Send>) -> Self {
        SiteLog {
            wal: Wal::new(store),
            first_lsn: HashMap::new(),
        }
    }

    /// Appends a record and returns the log end past it.
    pub fn append(&mut self, rec: &LogRecord) -> Lsn {
        if let Some(tid) = rec.tid() {
            let at = self.wal.end_lsn();
            self.first_lsn.entry(tid.family).or_insert(at);
        }
        let _ = self.wal.append(rec);
        self.wal.end_lsn()
    }

    /// Appends a server's encoded snapshot (no family, so nothing to
    /// book).
    fn append_snapshot(&mut self, encoded: &[u8]) {
        let _ = self.wal.append_encoded(encoded);
    }

    /// Restart: the bookkeeping is volatile, so it is rebuilt from the
    /// records the recovery scan found.
    pub fn rebuild_first_lsns(&mut self, records: &[(Lsn, LogRecord)]) {
        self.first_lsn.clear();
        for (lsn, rec) in records {
            if let Some(tid) = rec.tid() {
                self.first_lsn.entry(tid.family).or_insert(*lsn);
            }
        }
    }

    /// Forgets families that began below `before` and that nobody in
    /// `held` holds any more, and returns the lowest LSN still needed:
    /// the truncation floor, at most `before`.
    fn retention_floor(&mut self, before: Lsn, held: &HashSet<FamilyId>) -> Lsn {
        self.first_lsn
            .retain(|family, lsn| *lsn >= before || held.contains(family));
        self.first_lsn
            .values()
            .copied()
            .fold(before, |floor, lsn| floor.min(lsn))
    }
}

impl Deref for SiteLog {
    type Target = Wal<Box<dyn StableStore + Send>>;
    fn deref(&self) -> &Self::Target {
        &self.wal
    }
}

impl DerefMut for SiteLog {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.wal
    }
}

/// A checkpoint whose marker is appended but not yet durable.
struct PendingCheckpoint {
    /// Log end just past the marker: truncate once this is durable.
    marker_end: Lsn,
    floor: Lsn,
    snapshot_bytes: u64,
    /// The site incarnation that wrote it; a crash in between voids
    /// the floor along with the state it was computed from.
    incarnation: u64,
    done: Vec<Sender<()>>,
}

/// The checkpoint trigger never fires on a tail shorter than this.
const MIN_CHECKPOINT_TAIL: u64 = 64 * 1024;

/// The pipelined disk manager. Records are already in the log's
/// in-memory segment when requests arrive; this thread only drives the
/// [`GroupCommitBatcher`] and performs the platter writes. The write
/// itself holds no lock at all — the busy time is a plain sleep, then
/// a short [`Wal::force_to`] critical section marks the prefix
/// durable — so workers keep appending (and lazy records keep
/// accumulating) while the platter turns.
struct DiskManager {
    inner: Arc<ClusterInner>,
    site: Arc<SiteShared>,
    batcher: GroupCommitBatcher,
    /// Batcher requests are anonymous; this maps them back to the
    /// engine force tokens awaiting [`Input::LogForced`], along with
    /// each force's pipeline-entry time for the ForceWait histogram.
    /// Background flushes and checkpoints ride as tokenless requests.
    tokens: HashMap<u64, (ForceToken, Instant)>,
    next_req: u64,
    /// The batcher's accumulation-window timer, as a wall-clock
    /// deadline. Stale epochs are ignored by the batcher, so a newer
    /// timer just overwrites.
    window: Option<(Instant, u64)>,
    /// Log end as of the last platter write or idle tick.
    log_end: Lsn,
    /// Log end just past the last completed checkpoint's marker.
    checkpoint_end: Lsn,
    checkpoint: Option<PendingCheckpoint>,
}

pub(crate) fn disk_main(inner: Arc<ClusterInner>, site: Arc<SiteShared>, rx: Receiver<DiskJob>) {
    let mut batcher = GroupCommitBatcher::new(inner.cfg.batch);
    batcher.set_tracer(site.tracer());
    let mut disk = DiskManager {
        inner,
        site,
        batcher,
        tokens: HashMap::new(),
        next_req: 1,
        window: None,
        log_end: Lsn(0),
        checkpoint_end: Lsn(0),
        checkpoint: None,
    };
    loop {
        let lazy_flush = disk.inner.cfg.lazy_flush;
        let timeout = match disk.window {
            Some((at, _)) => at.saturating_duration_since(Instant::now()).min(lazy_flush),
            None => lazy_flush,
        };
        match rx.recv_timeout(timeout) {
            Ok(first) => {
                // Drain whatever else queued up while the disk was
                // busy, so the batcher decides over the whole backlog
                // rather than learning of it one request at a time.
                let mut next = Some(first);
                let mut actions = Vec::new();
                let mut checkpoints = Vec::new();
                let mut stop = false;
                while let Some(job) = next {
                    match job {
                        DiskJob::Force { token, upto, at } => {
                            let req = disk.alloc_req();
                            disk.tokens.insert(req.0, (token, at));
                            let now = disk.inner.now();
                            actions.extend(disk.batcher.request(req, upto, now));
                        }
                        DiskJob::Checkpoint { done } => checkpoints.push(done),
                        DiskJob::Stop => {
                            stop = true;
                            break;
                        }
                    }
                    next = rx.try_recv().ok();
                }
                disk.drive(actions);
                for done in checkpoints {
                    disk.start_checkpoint(done);
                }
                if stop {
                    disk.final_flush();
                    return;
                }
            }
            Err(RecvTimeoutError::Timeout) => match disk.window {
                Some((at, epoch)) if Instant::now() >= at => {
                    disk.window = None;
                    let actions = disk.batcher.timer_fired(epoch, disk.inner.now());
                    disk.drive(actions);
                }
                _ => disk.lazy_tick(),
            },
            Err(_) => return,
        }
        disk.checkpoint_if_due();
    }
}

impl DiskManager {
    fn alloc_req(&mut self) -> ReqId {
        self.next_req += 1;
        ReqId(self.next_req - 1)
    }

    /// Shutdown: one last synchronous force so everything appended is
    /// durable, then release every waiter.
    fn final_flush(&mut self) {
        if self.site.alive.load(Ordering::SeqCst) {
            let _ = self.site.wal.lock().force();
        }
        let durable = self.site.wal.lock().durable_lsn();
        for (_, (token, _)) in self.tokens.drain() {
            let _ = self.site.tm_tx.send(Some(Input::LogForced { token }));
        }
        drain_lazy(&self.site, durable);
    }

    /// Executes batcher actions, including the platter writes they
    /// start, until the batcher goes quiet. A completed write can
    /// immediately start the next (requests that arrived while the
    /// platter was busy), so this loops.
    fn drive(&mut self, mut actions: Vec<BatcherAction>) {
        while !actions.is_empty() {
            let mut next = Vec::new();
            for action in actions {
                match action {
                    BatcherAction::SetTimer { at, epoch } => {
                        let deadline = self.inner.epoch + StdDuration::from_micros(at.as_micros());
                        self.window = Some((deadline, epoch));
                    }
                    BatcherAction::Satisfied { reqs, durable } => {
                        let mut satisfied = 0u64;
                        for r in reqs {
                            if let Some((token, at)) = self.tokens.remove(&r.0) {
                                satisfied += 1;
                                self.site.hist.record(Phase::ForceWait, at.elapsed());
                                let _ = self.site.tm_tx.send(Some(Input::LogForced { token }));
                            }
                        }
                        if satisfied > 0 {
                            self.site.counters.note_batch(satisfied);
                        }
                        drain_lazy(&self.site, durable);
                        self.finish_checkpoint(durable);
                    }
                    BatcherAction::StartWrite { upto } => {
                        next.extend(self.platter_write(upto));
                    }
                }
            }
            actions = next;
        }
    }

    /// One platter write: busy for `platter_delay` with **no lock
    /// held**, then a short critical section marking the prefix
    /// durable. Reports the actual durable watermark back to the
    /// batcher — a crash during the write leaves it short of `upto`,
    /// and the batcher only releases requests at or below it.
    fn platter_write(&mut self, upto: Lsn) -> Vec<BatcherAction> {
        let (inner, site) = (&self.inner, &self.site);
        let mut died = false;
        let started = Instant::now();
        let actual = if site.alive.load(Ordering::SeqCst) {
            std::thread::sleep(inner.cfg.platter_delay);
            // Crash point: power fails while the platter write is in
            // flight — the un-synced tail is torn off, and whatever
            // force requests were riding this write never complete.
            if inner
                .fault
                .should_crash(site.id, CrashPoint::MidPlatterWrite)
            {
                site.kill();
            }
            site.counters.platter_writes.fetch_add(1, Ordering::Relaxed);
            let mut wal = site.wal.lock();
            self.log_end = wal.end_lsn();
            if site.alive.load(Ordering::SeqCst) {
                wal.force_to(upto).unwrap_or_else(|_| wal.durable_lsn())
            } else {
                // The site died mid-write: the un-synced tail is gone.
                died = true;
                wal.durable_lsn()
            }
        } else {
            died = true;
            site.wal.lock().durable_lsn()
        };
        if !died {
            site.hist.record(Phase::PlatterWrite, started.elapsed());
        }
        let actions = self.batcher.write_complete_to(actual, inner.now());
        if died {
            // Requests left uncovered came from the incarnation that
            // just died: the truncated log can never reach their
            // watermarks, and their force tokens belong to torn-down
            // engines. Abandon them or the batcher would retry the
            // write forever, wedging this thread and starving
            // post-restart forces.
            for req in self.batcher.crash_abandon() {
                self.tokens.remove(&req.0);
            }
            self.checkpoint = None;
        }
        actions
    }

    /// Periodic background flush: if lazily appended records (or any
    /// other unforced tail) are waiting and nothing else is pushing
    /// the disk, issue a tokenless batch request for them. The write
    /// then happens under the same pipeline as foreground forces.
    fn lazy_tick(&mut self) {
        if !self.site.alive.load(Ordering::SeqCst) {
            return;
        }
        let (end, durable) = {
            let wal = self.site.wal.lock();
            (wal.end_lsn(), wal.durable_lsn())
        };
        self.log_end = end;
        if end <= durable {
            // Everything durable already; release any lazy stragglers.
            drain_lazy(&self.site, durable);
            return;
        }
        let req = self.alloc_req();
        let actions = self.batcher.request(req, end, self.inner.now());
        self.drive(actions);
    }

    /// The trigger rule: checkpoint once the log written since the
    /// last checkpoint outweighs twice the snapshot it would rewrite
    /// (and 64 KiB, so a small store does not checkpoint on every
    /// write).
    fn checkpoint_if_due(&mut self) {
        let tail = self.log_end.0.saturating_sub(self.checkpoint_end.0);
        let snapshot = self.site.counters.snapshot_bytes.load(Ordering::Relaxed);
        if self.checkpoint.is_none() && tail > MIN_CHECKPOINT_TAIL.max(2 * snapshot) {
            self.start_checkpoint(None);
        }
    }

    /// Writes a checkpoint — every server's snapshot, then the marker —
    /// and asks the batcher to make it durable; [`finish_checkpoint`]
    /// truncates once it is. See the module docs for why the holders
    /// are asked in this order.
    ///
    /// [`finish_checkpoint`]: DiskManager::finish_checkpoint
    fn start_checkpoint(&mut self, done: Option<Sender<()>>) {
        let site = self.site.clone();
        let incarnation = site.incarnation.load(Ordering::SeqCst);
        if let Some(pending) = &mut self.checkpoint {
            if pending.incarnation == incarnation {
                // One at a time; the one under way is recent enough.
                pending.done.extend(done);
                return;
            }
        }
        self.checkpoint = None;
        if !site.alive.load(Ordering::SeqCst) {
            return;
        }
        let began_at = site.wal.lock().end_lsn();
        let mut held: HashSet<FamilyId> = HashSet::new();
        let mut next_family_seq = 0;
        for shard in &site.shards {
            let engine = shard.lock();
            held.extend(engine.family_ids());
            next_family_seq = next_family_seq.max(engine.next_family_seq());
        }
        if !site.queue_txs.is_empty() {
            // FIFO barrier: each queue worker answers after every job
            // sent before this one, with the families it still holds.
            let (tx, rx) = unbounded();
            for queue in &site.queue_txs {
                let _ = queue.send(QueueJob::Held(tx.clone()));
            }
            drop(tx);
            for _ in &site.queue_txs {
                match rx.recv() {
                    Ok(families) => held.extend(families),
                    // The workers are gone: the cluster is stopping.
                    Err(_) => return,
                }
            }
        }
        let snapshots: Vec<Vec<u8>> = site
            .servers
            .values()
            .map(|server| {
                let server = server.lock();
                held.extend(server.families());
                server.snapshot()
            })
            .collect();
        let snapshot_bytes = {
            let mut log = site.wal.lock();
            let at = log.end_lsn();
            for snapshot in &snapshots {
                log.append_snapshot(snapshot);
            }
            log.end_lsn().0 - at.0
        };
        // Crash point: the snapshot is in the log but the marker that
        // would license truncating below it never becomes durable.
        if self
            .inner
            .fault
            .should_crash(site.id, CrashPoint::MidCheckpoint)
        {
            site.kill();
            return;
        }
        let (marker_end, floor) = {
            let mut log = site.wal.lock();
            let end = log.append(&LogRecord::Checkpoint { next_family_seq });
            (end, log.retention_floor(began_at, &held))
        };
        self.checkpoint = Some(PendingCheckpoint {
            marker_end,
            floor,
            snapshot_bytes,
            incarnation,
            done: done.into_iter().collect(),
        });
        let req = self.alloc_req();
        let actions = self.batcher.request(req, marker_end, self.inner.now());
        self.drive(actions);
    }

    /// The log is durable through `durable`: if that covers a pending
    /// checkpoint's marker, the records below its floor are dead
    /// weight — truncate them.
    fn finish_checkpoint(&mut self, durable: Lsn) {
        let site = &self.site;
        let Some(pending) = self
            .checkpoint
            .take_if(|pending| pending.marker_end <= durable)
        else {
            return;
        };
        // Crash point: the checkpoint is durable and the old prefix
        // still there — the log a restart finds when power fails
        // before a truncation's new base is durable.
        if self
            .inner
            .fault
            .should_crash(site.id, CrashPoint::MidTruncate)
        {
            site.kill();
            return;
        }
        let mut log = site.wal.lock();
        // `kill` bumps the incarnation before it takes the log lock,
        // so under the lock an unchanged incarnation means the floor
        // still describes this log.
        if site.incarnation.load(Ordering::SeqCst) != pending.incarnation {
            return;
        }
        let base = log.base_lsn();
        // A store that cannot truncate keeps its prefix; the next
        // checkpoint tries again.
        let new_base = log.truncate_prefix(pending.floor).unwrap_or(base);
        drop(log);
        self.checkpoint_end = pending.marker_end;
        let c = &site.counters;
        c.checkpoints.fetch_add(1, Ordering::Relaxed);
        c.wal_truncated_bytes
            .fetch_add(new_base.0 - base.0, Ordering::Relaxed);
        c.snapshot_bytes
            .store(pending.snapshot_bytes, Ordering::Relaxed);
        for done in pending.done {
            let _ = done.send(());
        }
    }
}

/// Delivers [`Input::LogDurable`] for every lazy append at or below
/// the durable watermark.
fn drain_lazy(site: &SiteShared, durable: Lsn) {
    let mut done = Vec::new();
    {
        let mut lazy = site.lazy.lock();
        lazy.retain(|(t, lsn)| {
            if *lsn <= durable {
                done.push(*t);
                false
            } else {
                true
            }
        });
    }
    if !done.is_empty() {
        site.counters
            .lazy_drained
            .fetch_add(done.len() as u64, Ordering::Relaxed);
    }
    for t in done {
        let _ = site.tm_tx.send(Some(Input::LogDurable { token: t }));
    }
}
