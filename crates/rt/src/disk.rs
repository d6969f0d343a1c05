//! The disk manager: a site's log, leader/follower group commit, the
//! platter thread, and the checkpointer that keeps the log — and so
//! restart — bounded.
//!
//! Whoever produces a record encodes and appends it into the log's
//! in-memory segment itself ([`SiteLog::append`], the only append
//! path) and asks the site's one [`GroupCommitBatcher`] for the force
//! on its own thread ([`request_force`], the only way a force is
//! requested). The batcher sits with its token table in [`DiskState`],
//! behind one short lock, and what it answers decides who writes:
//!
//! - **Leader.** A thread with nothing left to apply but this force,
//!   that is told to start a write, performs it itself — if it could
//!   only wait anyway (an application call is parked on it, in
//!   `commit`), or if it is a TranMan worker and another of the site's
//!   workers is idle to serve datagrams while it writes (a subordinate's
//!   prepare record, a coordinator's commit record after the last
//!   vote). [`platter_write`] sleeps the simulated platter delay with
//!   **no lock held**, so the log keeps filling while that platter is
//!   busy, and the leader runs its own `LogForced` step when it
//!   returns. (True of the simulated sleep only: the log's
//!   `force_to` then runs inside `site.wal.lock()` and hands the
//!   covered prefix of its tail to `StableStore::write`, which on a
//!   `FileStore` is the real `write` and `sync_data`, so with a real
//!   disk nothing can be appended while the platter is busy. Moving it
//!   out from under the lock is owed, as a measured change of its own;
//!   see ROADMAP.) It wakes the other forces the write covered, and
//!   leaves whatever the batcher asks for next (the write for those who
//!   arrived meanwhile, a checkpoint that write made due) to the disk
//!   thread: a leader writes once per call.
//! - **Follower.** Anyone told anything else (a write is in flight, a
//!   window is accumulating) waits as before and is released by
//!   whichever thread performs the write that covers it. So batches
//!   form exactly when there is concurrency (paper §3.5).
//! - **The disk thread** performs every write nobody leads: a force
//!   that has work queued behind it (non-blocking commit's begin record
//!   overlaps phase one), a worker's force while no other worker of the
//!   site is idle (with `tm_threads = 1`, always: the one worker asleep
//!   in a platter write would stop the site's protocol traffic), the
//!   write after a leader's, window expiries, lazy flushes (after
//!   `lazy_flush` with no job), checkpoints.
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

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use camelot_core::{CrashPoint, ForceToken, Input};
use camelot_obs::{Phase, Tracer};
use camelot_types::{FamilyId, Lsn, Time};
use camelot_wal::{
    BatchPolicy, BatcherAction, GroupCommitBatcher, LogRecord, ReqId, StableStore, Wal,
};

use crate::cluster::{ClusterInner, SiteShared};

pub(crate) enum DiskJob {
    /// Batcher actions left to the disk thread: a platter write nobody
    /// leads, a window timer to arm. Empty when a leader's write only
    /// covered a checkpoint's marker or made a checkpoint due — the
    /// disk thread looks at both after every job.
    Drive(Vec<BatcherAction>),
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

/// What a site's threads share about its disk: the group-commit
/// batcher, the force tokens waiting on it, and where the checkpointer
/// stands. One lock, held for a few map operations — never across a
/// platter write, an engine step or another lock.
pub(crate) struct DiskState {
    batcher: GroupCommitBatcher,
    /// Batcher requests are anonymous; this maps them back to the
    /// engine force tokens awaiting [`Input::LogForced`], along with
    /// each force's pipeline-entry time for the ForceWait histogram.
    /// Background flushes and checkpoints ride as tokenless requests.
    tokens: HashMap<u64, (ForceToken, Instant)>,
    next_req: u64,
    /// Log end as of the last platter write or idle tick.
    log_end: Lsn,
    /// Log end just past the last completed checkpoint's marker.
    checkpoint_end: Lsn,
    checkpoint: Option<PendingCheckpoint>,
}

impl DiskState {
    pub fn new(policy: BatchPolicy, tracer: Tracer) -> Self {
        let mut batcher = GroupCommitBatcher::new(policy);
        batcher.set_tracer(tracer);
        DiskState {
            batcher,
            tokens: HashMap::new(),
            next_req: 1,
            log_end: Lsn(0),
            checkpoint_end: Lsn(0),
            checkpoint: None,
        }
    }

    /// Force tokens waiting for a platter write.
    pub fn waiting(&self) -> usize {
        self.tokens.len()
    }

    /// Asks the batcher to make the log durable through `upto`, on
    /// behalf of `waiter` if the request is somebody's force.
    fn request(
        &mut self,
        waiter: Option<(ForceToken, Instant)>,
        upto: Lsn,
        now: Time,
    ) -> Vec<BatcherAction> {
        let req = ReqId(self.next_req);
        self.next_req += 1;
        if let Some(waiter) = waiter {
            self.tokens.insert(req.0, waiter);
        }
        self.batcher.request(req, upto, now)
    }

    /// The incarnation that made the waiting requests is gone: the
    /// truncated log can never reach their watermarks, and their force
    /// tokens belong to torn-down engines. Drops them — or the batcher
    /// would retry the write forever, starving post-restart forces —
    /// and the pending checkpoint, whose floor died with the state it
    /// was computed from.
    pub fn abandon(&mut self) {
        for req in self.batcher.crash_abandon() {
            self.tokens.remove(&req.0);
        }
        self.checkpoint = None;
    }

    /// True once the log is durable past a pending checkpoint's marker:
    /// the disk thread can truncate.
    fn checkpoint_covered(&self) -> bool {
        let durable = self.batcher.durable();
        self.checkpoint
            .as_ref()
            .is_some_and(|pending| pending.marker_end <= durable)
    }

    /// The trigger rule: checkpoint once the log written since the
    /// last checkpoint outweighs twice the snapshot it would rewrite
    /// (and 64 KiB, so a small store does not checkpoint on every
    /// write).
    fn checkpoint_due(&self, snapshot_bytes: u64) -> bool {
        let tail = self.log_end.0.saturating_sub(self.checkpoint_end.0);
        self.checkpoint.is_none() && tail > MIN_CHECKPOINT_TAIL.max(2 * snapshot_bytes)
    }
}

/// The one way a force is requested, whoever asks: `upto` is the log
/// end past the record the requester has just appended, and the
/// batcher is asked on the requesting thread.
///
/// With `lead` — the thread has nothing left to apply but this force,
/// and either an application call is parked on it or another TranMan
/// worker of the site is idle — an answer of "start a
/// write" makes the thread the **leader**: it performs that one platter
/// write itself and releases everyone it covered. Any other answer, and
/// any requester that cannot lead,
/// leaves a **follower**, released by whichever thread performs the
/// covering write. What the batcher asks for beyond the leader's one
/// write goes to the disk thread.
///
/// Returns true if `token`'s own force completed on this thread: the
/// caller then runs its `LogForced` step here
/// ([`ClusterInner::log_forced`]). Otherwise that step reaches a worker
/// through `tm_tx`.
pub(crate) fn request_force(
    inner: &ClusterInner,
    site: &SiteShared,
    token: ForceToken,
    upto: Lsn,
    lead: bool,
) -> bool {
    let waiter = Some((token, Instant::now()));
    let mut actions = site.disk.lock().request(waiter, upto, inner.now());
    // The disk thread truncates below a checkpoint and starts the next:
    // it has to hear of a leader's write that calls for either.
    let mut checkpoint = false;
    if let (true, [BatcherAction::StartWrite { upto }]) = (lead, &actions[..]) {
        (actions, checkpoint) = platter_write(inner, site, *upto);
    }
    let mut mine = false;
    let mut left = Vec::new();
    for action in actions {
        match action {
            BatcherAction::Satisfied { reqs, durable } => {
                mine |= release(site, &reqs, durable, lead.then_some(token));
            }
            other => left.push(other),
        }
    }
    if checkpoint || !left.is_empty() {
        let _ = site.disk_tx.send(DiskJob::Drive(left));
    }
    mine
}

/// One platter write, on whichever thread leads it: busy for
/// `platter_delay` with **no lock held**, then a short critical section
/// marking the prefix durable. Reports the actual durable watermark
/// back to the batcher — a crash during the write leaves it short of
/// `upto`, and the batcher only releases requests at or below it — and
/// returns what the batcher answers, and whether the write left the
/// checkpointer something to do (a marker covered, a checkpoint due).
fn platter_write(inner: &ClusterInner, site: &SiteShared, upto: Lsn) -> (Vec<BatcherAction>, bool) {
    let alive = || site.alive.load(Ordering::SeqCst);
    let started = Instant::now();
    if alive() {
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
    }
    // A site that is down (before the write, or killed during it) has
    // lost its un-synced tail: the watermark stays where it was.
    let (actual, log_end, died) = {
        let mut wal = site.wal.lock();
        let (durable, end) = (wal.durable_lsn(), wal.end_lsn());
        if alive() {
            (wal.force_to(upto).unwrap_or(durable), end, false)
        } else {
            (durable, end, true)
        }
    };
    if !died {
        site.hist.record(Phase::PlatterWrite, started.elapsed());
    }
    let snapshot_bytes = site.counters.snapshot_bytes.load(Ordering::Relaxed);
    let mut disk = site.disk.lock();
    disk.log_end = log_end;
    let actions = disk.batcher.write_complete_to(actual, inner.now());
    if died {
        disk.abandon();
    }
    let checkpoint = disk.checkpoint_covered() || disk.checkpoint_due(snapshot_bytes);
    (actions, checkpoint)
}

/// Releases the forces a platter write satisfied: records each one's
/// enqueue→durable residence as [`Phase::ForceWait`] and feeds its
/// token back as [`Input::LogForced`] through `tm_tx` — except `own`,
/// the releasing thread's own force, which it reports by returning
/// true and runs itself.
fn release(site: &SiteShared, reqs: &[ReqId], durable: Lsn, own: Option<ForceToken>) -> bool {
    let released: Vec<(ForceToken, Instant)> = {
        let mut disk = site.disk.lock();
        reqs.iter()
            .filter_map(|req| disk.tokens.remove(&req.0))
            .collect()
    };
    // Counted before anyone is woken: a caller whose commit returned
    // sees its force counted.
    if !released.is_empty() {
        site.counters.note_batch(released.len() as u64);
    }
    let mut mine = false;
    for (token, entered) in &released {
        site.hist.record(Phase::ForceWait, entered.elapsed());
        if own == Some(*token) {
            mine = true;
        } else {
            let _ = site.tm_tx.send(Some(Input::LogForced { token: *token }));
        }
    }
    drain_lazy(site, durable);
    mine
}

/// The disk thread: performs the platter writes no requesting thread
/// leads, keeps the batcher's accumulation window, flushes lazily
/// appended records, and checkpoints.
struct DiskManager {
    inner: Arc<ClusterInner>,
    site: Arc<SiteShared>,
    /// The batcher's accumulation-window timer, as a wall-clock
    /// deadline. Stale epochs are ignored by the batcher, so a newer
    /// timer just overwrites.
    window: Option<(Instant, u64)>,
}

pub(crate) fn disk_main(inner: Arc<ClusterInner>, site: Arc<SiteShared>, rx: Receiver<DiskJob>) {
    let mut disk = DiskManager {
        inner,
        site,
        window: None,
    };
    loop {
        let lazy_flush = disk.inner.cfg.lazy_flush;
        let timeout = match disk.window {
            Some((at, _)) => at.saturating_duration_since(Instant::now()).min(lazy_flush),
            None => lazy_flush,
        };
        match rx.recv_timeout(timeout) {
            Ok(DiskJob::Drive(actions)) => disk.drive(actions),
            Ok(DiskJob::Checkpoint { done }) => disk.start_checkpoint(done),
            Ok(DiskJob::Stop) => {
                disk.final_flush();
                return;
            }
            Err(RecvTimeoutError::Timeout) => match disk.window {
                Some((at, epoch)) if Instant::now() >= at => {
                    disk.window = None;
                    let now = disk.inner.now();
                    let actions = disk.site.disk.lock().batcher.timer_fired(epoch, now);
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
    /// Shutdown: one last synchronous force so everything appended is
    /// durable, then release every waiter.
    fn final_flush(&mut self) {
        if self.site.alive.load(Ordering::SeqCst) {
            let _ = self.site.wal.lock().force();
        }
        let durable = self.site.wal.lock().durable_lsn();
        let waiting = std::mem::take(&mut self.site.disk.lock().tokens);
        for (token, _) in waiting.into_values() {
            let _ = self.site.tm_tx.send(Some(Input::LogForced { token }));
        }
        drain_lazy(&self.site, durable);
    }

    /// Executes batcher actions, including the platter writes they
    /// start, until the batcher goes quiet. A completed write can
    /// immediately start the next (requests that arrived while the
    /// platter was busy), so this loops; after every round it truncates
    /// below a checkpoint the round (or a leader's write) made durable.
    fn drive(&mut self, mut actions: Vec<BatcherAction>) {
        loop {
            let mut next = Vec::new();
            for action in actions {
                match action {
                    BatcherAction::SetTimer { at, epoch } => {
                        let deadline = self.inner.epoch + StdDuration::from_micros(at.as_micros());
                        self.window = Some((deadline, epoch));
                    }
                    BatcherAction::Satisfied { reqs, durable } => {
                        release(&self.site, &reqs, durable, None);
                    }
                    BatcherAction::StartWrite { upto } => {
                        // This thread is the checkpointer: it looks
                        // for itself after every round.
                        next.extend(platter_write(&self.inner, &self.site, upto).0);
                    }
                }
            }
            self.finish_checkpoint();
            if next.is_empty() {
                return;
            }
            actions = next;
        }
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
        self.site.disk.lock().log_end = end;
        if end <= durable {
            // Everything durable already; release any lazy stragglers.
            drain_lazy(&self.site, durable);
            return;
        }
        let now = self.inner.now();
        let actions = self.site.disk.lock().request(None, end, now);
        self.drive(actions);
    }

    fn checkpoint_if_due(&mut self) {
        let snapshot_bytes = self.site.counters.snapshot_bytes.load(Ordering::Relaxed);
        if self.site.disk.lock().checkpoint_due(snapshot_bytes) {
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
        {
            let mut disk = site.disk.lock();
            if let Some(pending) = &mut disk.checkpoint {
                if pending.incarnation == incarnation {
                    // One at a time; the one under way is recent enough.
                    pending.done.extend(done);
                    return;
                }
            }
            disk.checkpoint = None;
        }
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
        // The workers are gone: the cluster is stopping.
        let Some(queued) = site.queue_held() else {
            return;
        };
        held.extend(queued);
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
        let actions = {
            let mut disk = site.disk.lock();
            disk.checkpoint = Some(PendingCheckpoint {
                marker_end,
                floor,
                snapshot_bytes,
                incarnation,
                done: done.into_iter().collect(),
            });
            disk.request(None, marker_end, self.inner.now())
        };
        self.drive(actions);
    }

    /// If the log is durable past a pending checkpoint's marker —
    /// through this thread's write or a leader's — the records below
    /// its floor are dead weight: truncate them.
    fn finish_checkpoint(&mut self) {
        let site = &self.site;
        let mut disk = site.disk.lock();
        if !disk.checkpoint_covered() {
            return;
        }
        let pending = disk.checkpoint.take().expect("covered, so pending");
        drop(disk);
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
        site.disk.lock().checkpoint_end = pending.marker_end;
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
