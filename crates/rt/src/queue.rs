//! Queue-oriented execution ([`ExecMode::Queued`]): per-shard FIFO
//! operation queues instead of a lock table.
//!
//! The lock-based path serializes every operation on one mutex per
//! data server and holds hot-object locks across the entire
//! commitment protocol, so under skewed access waiters convoy behind
//! the hot key (the lock-based knee in `BENCH_load_curves.json`, a
//! quarter of queued mode's).
//! Following Qadah's queue-oriented transaction-processing paradigm,
//! this module partitions each site's objects over `data_shards`
//! single-owner worker threads. Each worker owns its shard's state
//! outright — no lock acquisition on the operation path at all:
//!
//! - **Operations** are routed to the owning shard's FIFO queue and
//!   executed speculatively against a per-object version chain.
//!   Writes append an uncommitted version and record a *commit-order
//!   dependency* on every uncommitted predecessor writer (write-write
//!   order per object). Reads return the newest uncommitted version
//!   if one exists (a dirty read, recorded as a *cascading*
//!   dependency on its writer) or else the committed value; a family
//!   re-reading a key sees its first-observed value (repeatable per
//!   key). Readers never block writers and writers never block
//!   readers or each other — conflicts cost ordering at commit, not
//!   blocking at execution.
//! - **Phase one** ([`Action::AskVote`]) broadcasts a *prepared
//!   marker* to every shard. A shard answers its sub-vote once the
//!   family's dependencies have resolved (parking the marker until
//!   then, with a timeout analogous to lock-based deadlock
//!   detection); the per-site aggregator combines sub-votes (any No
//!   wins, else any Yes, else ReadOnly) into the single
//!   [`Input::ServerVote`] the unmodified 2PC/NB engine expects.
//!   Cross-shard and cross-site transactions therefore resolve via
//!   the existing commitment machinery.
//! - **Resolution** broadcasts the outcome to every shard: committed
//!   updates install in execution order (write-through to the
//!   [`DataServer`] committed store, so recovery, checkpoints and
//!   external observers agree); aborts discard the speculative
//!   versions and doom cascading dependents, whose phase-one vote
//!   then comes back No.
//!
//! Isolation — what is and is not guaranteed. Guaranteed: atomicity
//! and durability exactly as in lock-based mode (the commit protocols
//! are unmodified); per object, committed writes install in queue
//! order; a transaction that read *uncommitted* data commits only if
//! its writer did (dirty-read cascades); reads are repeatable within a
//! key; and **no lost update**: a read of *committed* state takes no
//! dependency, so two transactions may both read `v` before either
//! writes `v + 1` — but a shard votes No for a family that wrote a key
//! whose committed value is no longer the one the family read
//! (read validation at vote time, first committer wins; the ladder's
//! `rt.lost_updates`, finding 1 in `ladder/README.md`, was this check
//! missing). **Not** guaranteed: serializability. Only keys a family
//! both read and wrote are validated, so write skew is possible, and
//! across keys the level is read-committed: a transaction whose first
//! touch of a key happens after an overlapping writer committed may
//! observe that writer. The lock-based mode remains the strict-2PL
//! reference; dependency cycles (possible when transactions touch
//! keys in opposing orders) are broken by the parked-vote timeout,
//! the analogue of a lock-wait timeout.
//!
//! [`ExecMode::Queued`]: camelot_core::ExecMode::Queued
//! [`Action::AskVote`]: camelot_core::Action::AskVote
//! [`DataServer`]: camelot_server::DataServer

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use camelot_core::{Action, Input};
use camelot_net::{Outcome, Vote};
use camelot_obs::Phase;
use camelot_server::{OpReply, Request};
use camelot_types::{CrashPoint, FamilyId, ObjectId, ServerId, Tid};
use camelot_wal::LogRecord;

use crate::cluster::{ClusterInner, SiteShared};

/// Which data shard owns an object. Fibonacci hashing spreads the
/// dense object ids the workloads use; the mapping is stable, so one
/// object is only ever touched by its owner worker.
pub(crate) fn queue_shard_of(object: ObjectId, shards: usize) -> usize {
    ((object.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 33) as usize % shards.max(1)
}

/// One job in a data shard's FIFO queue.
pub(crate) enum QueueJob {
    /// A client operation, executed speculatively by the shard owner.
    Op {
        server: ServerId,
        request: Request,
        /// Site incarnation at enqueue; ops from before a crash are
        /// dropped (their speculative state died with the site).
        incarnation: u64,
        enqueued: Instant,
    },
    /// Phase-one prepared marker for `(tid.family, server)`: answer
    /// this shard's sub-vote once the family's dependencies resolved.
    Prepare {
        tid: Tid,
        server: ServerId,
        enqueued: Instant,
    },
    /// `tid` is resolved. For a family: install or discard its
    /// speculative writes, release dependents. For a subtree of a live
    /// family: see `sub_resolve`.
    Resolve {
        tid: Tid,
        outcome: Outcome,
    },
    /// Checkpoint barrier: answer with the families this shard still
    /// holds speculative state for. FIFO order makes the answer cover
    /// every resolution sent before it.
    Held(Sender<Vec<FamilyId>>),
    /// Site crash/restart: drop all shard state.
    Reset,
    Stop,
}

/// Per-`(family, server)` aggregation of shard sub-votes into the one
/// [`Input::ServerVote`] the engine expects. Any No decides
/// immediately; otherwise the last outstanding shard decides.
pub(crate) struct VoteAgg {
    pub outstanding: usize,
    pub yes: bool,
    pub no: bool,
}

struct Parked {
    tid: Tid,
    server: ServerId,
    deadline: Instant,
}

/// An object's uncommitted version chain, oldest first. Empty chains
/// are removed from the map.
#[derive(Default)]
struct ObjState {
    versions: Vec<(FamilyId, Vec<u8>)>,
}

/// One transaction family's speculative state within a shard.
#[derive(Default)]
struct FamState {
    updates: Vec<QUpdate>,
    /// Families that must resolve before this one may vote. The flag
    /// records whether an abort cascades (true = this family read the
    /// dependency's uncommitted data).
    deps: HashMap<FamilyId, bool>,
    /// First-observed value per key: repeatable reads within a key.
    seen: HashMap<(ServerId, ObjectId), Vec<u8>>,
    /// What the family first *read* of a key from outside itself — the
    /// value a read-modify-write computed its write from. Validated
    /// against the committed value at vote time ([`FamState::stale`]).
    reads: HashMap<(ServerId, ObjectId), Vec<u8>>,
    /// A cascading dependency aborted: vote No at phase one.
    doomed: bool,
}

impl FamState {
    /// Read validation, asked once every dependency has resolved: a
    /// key this family read and then wrote must still hold, as its
    /// committed value, what the family read. Every writer ordered
    /// ahead of the family's write has resolved by now and every later
    /// one waits for this family, so a difference means somebody
    /// committed a write in between (or the uncommitted version read
    /// was overwritten before it committed) and installing this
    /// family's write would lose that update. First committer wins.
    fn stale(&self, committed: &HashMap<(ServerId, ObjectId), Vec<u8>>) -> bool {
        self.updates.iter().any(|u| {
            let key = (u.server, u.object);
            self.reads
                .get(&key)
                .is_some_and(|read| committed.get(&key) != Some(read))
        })
    }
}

struct QUpdate {
    tid: Tid,
    server: ServerId,
    object: ObjectId,
    new: Vec<u8>,
}

/// State owned exclusively by one shard worker — accessed with no
/// locks whatsoever.
#[derive(Default)]
struct Shard {
    objs: HashMap<(ServerId, ObjectId), ObjState>,
    fams: HashMap<FamilyId, FamState>,
    /// Committed-value cache, filled lazily from the [`DataServer`]
    /// store and kept current by resolve-time write-through.
    ///
    /// [`DataServer`]: camelot_server::DataServer
    committed: HashMap<(ServerId, ObjectId), Vec<u8>>,
    parked: Vec<Parked>,
    /// Shard-local cache of delivered joins (site-wide dedup lives in
    /// `SiteShared::queue_joined`).
    joined: HashSet<(FamilyId, ServerId)>,
}

/// The shard-owner worker loop: drain the FIFO, expire parked votes.
pub(crate) fn queue_worker(
    inner: Arc<ClusterInner>,
    site: Arc<SiteShared>,
    rx: Receiver<QueueJob>,
) {
    let mut sh = Shard::default();
    loop {
        expire_parked(&site, &mut sh);
        let timeout = sh
            .parked
            .iter()
            .map(|p| p.deadline)
            .min()
            .map(|d| d.saturating_duration_since(Instant::now()))
            .unwrap_or(StdDuration::from_millis(50))
            .min(StdDuration::from_millis(50))
            .max(StdDuration::from_millis(1));
        match rx.recv_timeout(timeout) {
            Ok(QueueJob::Stop) => return,
            Ok(job) => {
                handle_job(&inner, &site, &mut sh, job);
                // Drain the burst before re-arming the timeout.
                while let Ok(job) = rx.try_recv() {
                    if matches!(job, QueueJob::Stop) {
                        return;
                    }
                    // Crash point: the shard owner dies mid-burst —
                    // this job and the rest of the burst are lost with
                    // the site's speculative state. The worker thread
                    // itself survives (a later restart Resets it), as
                    // a respawned worker would after a process death.
                    if inner.fault.should_crash(site.id, CrashPoint::QueueMidBurst) {
                        site.kill();
                        break;
                    }
                    handle_job(&inner, &site, &mut sh, job);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn handle_job(inner: &Arc<ClusterInner>, site: &Arc<SiteShared>, sh: &mut Shard, job: QueueJob) {
    match job {
        QueueJob::Op {
            server,
            request,
            incarnation,
            enqueued,
        } => {
            if incarnation != site.incarnation.load(Ordering::SeqCst)
                || !site.alive.load(Ordering::SeqCst)
            {
                // Pre-crash work: its speculative state is gone. The
                // client's call surfaces as a timeout, the same shape
                // a crashed lock-based server produces.
                return;
            }
            site.hist.record(Phase::QueueWait, enqueued.elapsed());
            site.counters.queue_ops.fetch_add(1, Ordering::Relaxed);
            exec_op(inner, site, sh, server, request);
        }
        QueueJob::Prepare {
            tid,
            server,
            enqueued,
        } => {
            site.hist.record(Phase::QueueWait, enqueued.elapsed());
            match subvote(sh, tid.family, server) {
                Some(v) => deliver_subvote(site, &tid, server, v),
                None => {
                    // Crash point: the marker that should park is lost
                    // instead. This shard never answers its sub-vote,
                    // so the family can only resolve through the
                    // coordinator's vote timeout — the queued
                    // analogue of a lost Prepare datagram.
                    if inner
                        .fault
                        .should_crash(site.id, CrashPoint::QueueParkedPrepare)
                    {
                        return;
                    }
                    site.counters.queue_parked.fetch_add(1, Ordering::Relaxed);
                    sh.parked.push(Parked {
                        tid,
                        server,
                        deadline: Instant::now() + inner.cfg.queued_vote_timeout,
                    });
                }
            }
        }
        QueueJob::Resolve { tid, outcome } if tid.is_top_level() => {
            resolve(site, sh, tid.family, outcome)
        }
        QueueJob::Resolve { tid, outcome } => sub_resolve(sh, &tid, outcome),
        QueueJob::Held(reply) => {
            let _ = reply.send(sh.fams.keys().copied().collect());
        }
        QueueJob::Reset => *sh = Shard::default(),
        QueueJob::Stop => {}
    }
}

/// Completes a client operation through the site's completion map.
fn reply_op(site: &SiteShared, req: u64, value: Vec<u8>) {
    site.pending_ops.complete(req, OpReply { req, value });
}

/// Committed value of a key: the shard cache, falling back (once per
/// key) to the data server's store — the only place the server mutex
/// is ever taken on a read path, and only on a cold cache.
fn committed_of(site: &SiteShared, sh: &mut Shard, server: ServerId, object: ObjectId) -> Vec<u8> {
    if let Some(v) = sh.committed.get(&(server, object)) {
        return v.clone();
    }
    let v = site
        .servers
        .get(&server)
        .map(|s| s.lock().committed_value(object).to_vec())
        .unwrap_or_default();
    sh.committed.insert((server, object), v.clone());
    v
}

/// First touch of a family at a server delivers join-transaction to
/// the TranMan *before* the operation replies (same synchronous
/// guarantee as the lock-based path: a later prepare can never
/// overtake the join).
fn ensure_join(
    inner: &ClusterInner,
    site: &Arc<SiteShared>,
    sh: &mut Shard,
    tid: &Tid,
    server: ServerId,
) {
    let key = (tid.family, server);
    if !sh.joined.insert(key) {
        return;
    }
    let fresh = site.queue_joined.lock().insert(key);
    if fresh {
        let actions = inner.handle(
            site,
            Input::Join {
                tid: tid.clone(),
                server,
            },
        );
        inner.apply_actions(site, actions);
    }
}

fn exec_op(
    inner: &Arc<ClusterInner>,
    site: &Arc<SiteShared>,
    sh: &mut Shard,
    server: ServerId,
    request: Request,
) {
    ensure_join(inner, site, sh, request.tid(), server);
    match request {
        Request::Read { req, tid, object } => {
            let key = (server, object);
            let fam = tid.family;
            if let Some(v) = sh.fams.get(&fam).and_then(|fs| fs.seen.get(&key)).cloned() {
                reply_op(site, req, v);
                return;
            }
            let top = sh.objs.get(&key).and_then(|o| o.versions.last().cloned());
            let own = matches!(&top, Some((owner, _)) if *owner == fam);
            let value = match top {
                Some((owner, v)) if owner != fam => {
                    // Dirty read: serialize after the writer, abort
                    // with it.
                    sh.fams.entry(fam).or_default().deps.insert(owner, true);
                    v
                }
                Some((_, v)) => v,
                None => committed_of(site, sh, server, object),
            };
            let fs = sh.fams.entry(fam).or_default();
            fs.seen.insert(key, value.clone());
            if !own {
                fs.reads.entry(key).or_insert_with(|| value.clone());
            }
            reply_op(site, req, value);
        }
        Request::Write {
            req,
            tid,
            object,
            value,
        } => {
            let key = (server, object);
            let fam = tid.family;
            let owners: Vec<FamilyId> = sh
                .objs
                .get(&key)
                .map(|o| {
                    o.versions
                        .iter()
                        .map(|(f, _)| *f)
                        .filter(|f| *f != fam)
                        .collect()
                })
                .unwrap_or_default();
            // Old value for the log record: the family-visible value
            // before this write.
            let old = match sh.fams.get(&fam).and_then(|fs| fs.seen.get(&key)).cloned() {
                Some(v) => v,
                None => match sh.objs.get(&key).and_then(|o| o.versions.last()) {
                    Some((_, v)) => v.clone(),
                    None => committed_of(site, sh, server, object),
                },
            };
            {
                let fs = sh.fams.entry(fam).or_default();
                for f in owners {
                    // Write-write order; never downgrades an existing
                    // cascading (dirty-read) edge.
                    fs.deps.entry(f).or_insert(false);
                }
                fs.seen.insert(key, value.clone());
                fs.updates.push(QUpdate {
                    tid: tid.clone(),
                    server,
                    object,
                    new: value.clone(),
                });
            }
            let obj = sh.objs.entry(key).or_default();
            match obj.versions.last_mut() {
                Some((f, v)) if *f == fam => *v = value.clone(),
                _ => obj.versions.push((fam, value.clone())),
            }
            site.append(&LogRecord::ServerUpdate {
                tid,
                server,
                object,
                old,
                new: value.clone(),
            });
            reply_op(site, req, value);
        }
    }
}

/// This shard's phase-one sub-vote, `None` while dependencies are
/// still unresolved (the marker parks).
fn subvote(sh: &Shard, family: FamilyId, server: ServerId) -> Option<Vote> {
    match sh.fams.get(&family) {
        // No state here: this shard never saw the family (or the
        // family recovered in-doubt, which the data-server fallback in
        // `queued_ask_vote` already handled).
        None => Some(Vote::ReadOnly),
        Some(fs) if fs.doomed => Some(Vote::No),
        Some(fs) if !fs.deps.is_empty() => None,
        Some(fs) if fs.stale(&sh.committed) => Some(Vote::No),
        Some(fs) => Some(if fs.updates.iter().any(|u| u.server == server) {
            Vote::Yes
        } else {
            Vote::ReadOnly
        }),
    }
}

/// Feeds one shard sub-vote into the site aggregator; when the
/// aggregation decides, the combined vote enters the engine as an
/// ordinary [`Input::ServerVote`].
fn deliver_subvote(site: &SiteShared, tid: &Tid, server: ServerId, vote: Vote) {
    let decided = {
        let mut aggs = site.vote_aggs.lock();
        match aggs.get_mut(&(tid.family, server)) {
            // Already decided (an earlier No), cleared by a crash, or
            // the family resolved underneath us: drop.
            None => None,
            Some(agg) => {
                agg.outstanding = agg.outstanding.saturating_sub(1);
                match vote {
                    Vote::No => agg.no = true,
                    Vote::Yes => agg.yes = true,
                    Vote::ReadOnly => {}
                }
                if agg.no || agg.outstanding == 0 {
                    let v = if agg.no {
                        Vote::No
                    } else if agg.yes {
                        Vote::Yes
                    } else {
                        Vote::ReadOnly
                    };
                    aggs.remove(&(tid.family, server));
                    Some(v)
                } else {
                    None
                }
            }
        }
    };
    if let Some(vote) = decided {
        let _ = site.tm_tx.send(Some(Input::ServerVote {
            tid: tid.clone(),
            server,
            vote,
        }));
    }
}

/// Outcome processing: install or discard the family's speculative
/// writes, release its dependents, re-check parked markers.
fn resolve(site: &SiteShared, sh: &mut Shard, family: FamilyId, outcome: Outcome) {
    if let Some(fs) = sh.fams.remove(&family) {
        if outcome == Outcome::Committed && !fs.updates.is_empty() {
            // Final value per key, in execution order; write-through
            // to the data server so recovery, checkpoints and
            // external observers see the same committed state.
            let mut finals: HashMap<(ServerId, ObjectId), Vec<u8>> = HashMap::new();
            for u in &fs.updates {
                finals.insert((u.server, u.object), u.new.clone());
            }
            let mut by_server: HashMap<ServerId, Vec<(ObjectId, Vec<u8>)>> = HashMap::new();
            for ((srv, obj), v) in finals {
                sh.committed.insert((srv, obj), v.clone());
                by_server.entry(srv).or_default().push((obj, v));
            }
            for (srv, items) in by_server {
                if let Some(server) = site.servers.get(&srv) {
                    let mut server = server.lock();
                    for (obj, v) in items {
                        server.install_committed(obj, v);
                    }
                }
            }
        }
        let touched: HashSet<(ServerId, ObjectId)> =
            fs.updates.iter().map(|u| (u.server, u.object)).collect();
        for key in touched {
            let empty = match sh.objs.get_mut(&key) {
                Some(o) => {
                    o.versions.retain(|(f, _)| *f != family);
                    o.versions.is_empty()
                }
                None => false,
            };
            if empty {
                sh.objs.remove(&key);
            }
        }
        sh.joined.retain(|(f, _)| *f != family);
    }
    let aborted = outcome == Outcome::Aborted;
    let mut cascaded = 0u64;
    for fs in sh.fams.values_mut() {
        if let Some(cascade) = fs.deps.remove(&family) {
            if aborted && cascade && !fs.doomed {
                fs.doomed = true;
                cascaded += 1;
            }
        }
    }
    if cascaded > 0 {
        site.counters
            .queue_cascades
            .fetch_add(cascaded, Ordering::Relaxed);
    }
    unpark_ready(site, sh);
}

fn unpark_ready(site: &SiteShared, sh: &mut Shard) {
    let mut i = 0;
    while i < sh.parked.len() {
        let fam = sh.parked[i].tid.family;
        let server = sh.parked[i].server;
        match subvote(sh, fam, server) {
            Some(v) => {
                let p = sh.parked.swap_remove(i);
                deliver_subvote(site, &p.tid, p.server, v);
            }
            None => i += 1,
        }
    }
}

/// A parked marker outlived `queued_vote_timeout`: its dependencies
/// never resolved — a cross-shard dependency cycle or a lost
/// predecessor. Vote No, the analogue of a lock-wait timeout; the
/// engine's abort then cleans the family up everywhere.
fn expire_parked(site: &SiteShared, sh: &mut Shard) {
    if sh.parked.is_empty() {
        return;
    }
    let now = Instant::now();
    let mut i = 0;
    while i < sh.parked.len() {
        if sh.parked[i].deadline <= now {
            let p = sh.parked.swap_remove(i);
            site.counters
                .queue_vote_timeouts
                .fetch_add(1, Ordering::Relaxed);
            if let Some(fs) = sh.fams.get_mut(&p.tid.family) {
                fs.doomed = true;
            }
            deliver_subvote(site, &p.tid, p.server, Vote::No);
        } else {
            i += 1;
        }
    }
}

/// Nested subtree resolution. Sub-commit is a no-op (the subtree's
/// updates simply remain part of the family, as in the lock-based
/// server); sub-abort removes the subtree's updates and recomputes
/// the family's visible value per touched key.
fn sub_resolve(sh: &mut Shard, tid: &Tid, outcome: Outcome) {
    if outcome == Outcome::Committed {
        return;
    }
    let fam = tid.family;
    let Some(fs) = sh.fams.get_mut(&fam) else {
        return;
    };
    let affected: HashSet<(ServerId, ObjectId)> = fs
        .updates
        .iter()
        .filter(|u| tid.is_self_or_ancestor_of(&u.tid))
        .map(|u| (u.server, u.object))
        .collect();
    if affected.is_empty() {
        return;
    }
    fs.updates.retain(|u| !tid.is_self_or_ancestor_of(&u.tid));
    for key in affected {
        let surviving = fs
            .updates
            .iter()
            .rev()
            .find(|u| (u.server, u.object) == key)
            .map(|u| u.new.clone());
        match surviving {
            Some(v) => {
                fs.seen.insert(key, v.clone());
                if let Some(o) = sh.objs.get_mut(&key) {
                    if let Some(slot) = o.versions.iter_mut().rev().find(|(f, _)| *f == fam) {
                        slot.1 = v;
                    }
                }
            }
            None => {
                // No surviving family write: the key reverts to
                // whatever underlies the chain (re-read on next
                // touch).
                fs.seen.remove(&key);
                let empty = match sh.objs.get_mut(&key) {
                    Some(o) => {
                        o.versions.retain(|(f, _)| *f != fam);
                        o.versions.is_empty()
                    }
                    None => false,
                };
                if empty {
                    sh.objs.remove(&key);
                }
            }
        }
    }
}

impl ClusterInner {
    /// Queued-mode [`Action::AskVote`]: consult the data server first
    /// (recovered in-doubt families and poison live there), then
    /// broadcast prepared markers to every shard and aggregate.
    ///
    /// [`Action::AskVote`]: camelot_core::Action::AskVote
    pub(crate) fn queued_ask_vote(
        &self,
        site: &Arc<SiteShared>,
        queue: &mut VecDeque<Action>,
        tid: &Tid,
        servers: &[ServerId],
    ) {
        for &server in servers {
            let direct = site.servers.get(&server).map(|s| s.lock().vote(tid.family));
            match direct {
                Some(Vote::ReadOnly) | None => {
                    let n = site.queue_txs.len();
                    site.vote_aggs.lock().insert(
                        (tid.family, server),
                        VoteAgg {
                            outstanding: n,
                            yes: false,
                            no: false,
                        },
                    );
                    let now = Instant::now();
                    for tx in &site.queue_txs {
                        let _ = tx.send(QueueJob::Prepare {
                            tid: tid.clone(),
                            server,
                            enqueued: now,
                        });
                    }
                }
                Some(vote) => {
                    // Decided here and now: a local step, like the
                    // lock-based vote.
                    let tid = tid.clone();
                    let input = Input::ServerVote { tid, server, vote };
                    queue.extend(self.handle(site, input));
                }
            }
        }
    }

    /// Queued-mode resolution, after the data servers resolved (they
    /// hold the state of families recovered in doubt): a family's
    /// outcome clears its joins and pending votes, and every shard
    /// hears of it.
    pub(crate) fn queued_resolve(&self, site: &Arc<SiteShared>, tid: &Tid, outcome: Outcome) {
        if tid.is_top_level() {
            site.queue_joined.lock().retain(|(f, _)| *f != tid.family);
            site.vote_aggs.lock().retain(|(f, _), _| *f != tid.family);
        }
        for tx in &site.queue_txs {
            let tid = tid.clone();
            let _ = tx.send(QueueJob::Resolve { tid, outcome });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for n in [1usize, 2, 4, 7] {
            for o in 0..2000u64 {
                let s = queue_shard_of(ObjectId(o), n);
                assert!(s < n);
                assert_eq!(s, queue_shard_of(ObjectId(o), n));
            }
        }
        // Dense ids actually spread over the shards.
        let n = 4;
        let mut counts = [0usize; 4];
        for o in 0..1000u64 {
            counts[queue_shard_of(ObjectId(o), n)] += 1;
        }
        for c in counts {
            assert!(c > 100, "unbalanced shard: {counts:?}");
        }
    }
}
