//! The cluster: sites, worker pools, disk managers, router.
//!
//! # Scaling structure
//!
//! The paper's conclusion 3 observes that with group commit the
//! transaction manager, not the disk, becomes the throughput
//! bottleneck — which only helps if the TranMan can actually use more
//! than one processor. Two structural choices make that true here:
//!
//! - **Sharded engine state.** Each site runs `ENGINE_SHARDS`
//!   independent [`Engine`] shards (see [`Engine::sharded`]), each
//!   behind its own lock and owning a disjoint set of transaction
//!   families. Workers route every input to its family's shard
//!   ([`shard_of_family`] / [`shard_of_token`] read the owner straight
//!   off the id), so unrelated transactions never contend on one
//!   engine lock.
//! - **A pipelined disk manager** (`crate::disk`). Whoever produces a
//!   record appends it into the WAL's in-memory segment itself, under
//!   a short lock, and asks the site's group-commit batcher for the
//!   force; if the disk is idle the requesting thread performs the
//!   platter write itself (leader) when nothing is queued behind its
//!   force and it could only wait (a committing application thread) or
//!   another TranMan worker of the site is idle to serve traffic
//!   meanwhile; the disk thread performs every other write. Its
//!   *simulated* latency (`platter_delay`) is
//!   slept **without holding the WAL lock**; the log's `force_to` runs
//!   under it and hands its bytes to `StableStore::write`, so a
//!   file-backed site's `write` and `sync_data` still block appenders
//!   (see `crate::disk`). One write
//!   makes
//!   durable exactly the prefix it started with
//!   ([`Wal::force_to`](camelot_wal::Wal::force_to)); everything
//!   appended during the write rides the next one. The disk thread
//!   also checkpoints and truncates the log, so restart replays a
//!   bounded tail.
//!
//! A datagram due now between two sites of this process costs no
//! hand-off at all: the thread that posts it runs it
//! (`ClusterInner::apply_for`, DESIGN §5.7).
//!
//! The runtime of a site process ([`Cluster::new_site`]) hosts one
//! site and owns its socket: datagrams for every other site leave
//! through the [`SocketTransport`] it binds, and one receive thread
//! hands what arrives to the site's workers.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use camelot_core::{
    shard_of_family, shard_of_token, Action, CrashPoint, Engine, EngineConfig, ExecMode,
    ForceToken, Input, TimerToken,
};
use camelot_net::comman::CommMan;
use camelot_net::{SocketConfig, SocketTransport};
use camelot_obs::trace::merge_timelines;
use camelot_obs::{
    Phase, PhaseHistograms, ProtocolPhaseHistograms, TraceEvent, TraceEventKind, TraceRing, Tracer,
};
use camelot_server::{recover as server_recover, DataServer, OpReply};
use camelot_types::{FamilyId, Lsn, Result, ServerId, SiteId, Time};
use camelot_wal::{BatchPolicy, FileStore, LogRecord, MemStore, StableStore};

use crate::client::Client;
use crate::disk::{disk_main, request_force, DiskJob, DiskState, SiteLog};
use crate::queue::{queue_worker, QueueJob, VoteAgg};
use crate::shardmap::ShardedMap;
use crate::stats::{add_engine_stats, add_server_stats, ClusterStats, SiteCounters, SiteStats};
use camelot_net::fault::{FaultPlan, LinkDecision};

/// Engine shards per site. Families are partitioned over the shards,
/// each behind its own lock, so TranMan work on unrelated transactions
/// proceeds in parallel.
const ENGINE_SHARDS: u32 = 8;

/// Data servers per site (`ServerId(1)..=ServerId(SERVERS_PER_SITE)`).
const SERVERS_PER_SITE: u32 = 1;

/// Runtime configuration.
///
/// What every deployment runs with the same value is a constant next
/// to its reader, not a field: `ENGINE_SHARDS` and `SERVERS_PER_SITE`
/// in this module, and the client's retry of an operation that found
/// its site down (`OP_RETRIES`, `OP_RETRY_BASE` in `crate::client`).
#[derive(Debug, Clone)]
pub struct RtConfig {
    /// One-way inter-site datagram delay.
    pub datagram_delay: StdDuration,
    /// Duration of one platter write.
    pub platter_delay: StdDuration,
    /// Group-commit policy for the disk manager (§3.5):
    /// [`BatchPolicy::Immediate`] is group commit off (one platter
    /// write per force), [`BatchPolicy::Coalesce`] batches whatever
    /// piled up while the disk was busy, [`BatchPolicy::Window`] also
    /// waits out an accumulation window before writing.
    pub batch: BatchPolicy,
    /// Background flush period for lazily appended records.
    pub lazy_flush: StdDuration,
    /// TranMan worker threads per site, serving the inputs that arrive
    /// asynchronously (datagrams, timer firings, log completions).
    /// Application calls run on the calling thread.
    pub tm_threads: usize,
    /// Client call timeout: a blocked operation (e.g. a lock wait
    /// behind a deadlock) errors out after this long, letting the
    /// application abort — Camelot's answer to data-level deadlock.
    pub call_timeout: StdDuration,
    /// How data operations execute: the paper's lock-based servers
    /// ([`ExecMode::LockBased`]) or per-shard FIFO operation queues
    /// with single-owner workers ([`ExecMode::Queued`], see
    /// `crate::queue`).
    pub exec_mode: ExecMode,
    /// Data shards (queue-owner worker threads) per site in
    /// [`ExecMode::Queued`]; ignored in lock-based mode. Objects are
    /// hashed over the shards; each shard's state is owned by exactly
    /// one worker thread.
    pub data_shards: usize,
    /// Queued mode: how long a prepared marker may stay parked behind
    /// unresolved dependencies before the shard votes No — the
    /// analogue of a lock-wait timeout, breaking cross-shard
    /// dependency cycles.
    pub queued_vote_timeout: StdDuration,
    /// Engine configuration (protocol variant, timeouts).
    pub engine: EngineConfig,
    /// Directory for file-backed logs (`site-N.log`). `None` keeps
    /// the logs in memory. With a directory, committed state survives
    /// whole-cluster shutdowns: a new cluster started on the same
    /// directory recovers it.
    pub log_dir: Option<std::path::PathBuf>,
    /// Record per-family trace timelines into a bounded per-site ring
    /// ([`Cluster::drain_trace`]). Off by default: the phase latency
    /// histograms stay on either way; this switches only the
    /// per-event timeline.
    pub trace: bool,
    /// Events each site's trace ring retains (oldest overwritten
    /// beyond this).
    pub trace_capacity: usize,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            datagram_delay: StdDuration::from_millis(2),
            platter_delay: StdDuration::from_millis(4),
            batch: BatchPolicy::Coalesce,
            lazy_flush: StdDuration::from_millis(25),
            tm_threads: 4,
            call_timeout: StdDuration::from_secs(30),
            exec_mode: ExecMode::LockBased,
            data_shards: 4,
            queued_vote_timeout: StdDuration::from_secs(1),
            engine: EngineConfig::default(),
            log_dir: None,
            trace: false,
            trace_capacity: 16 * 1024,
        }
    }
}

/// Shared per-site state.
pub(crate) struct SiteShared {
    pub id: SiteId,
    pub alive: AtomicBool,
    /// The TranMan, partitioned by transaction family. Shard `k` owns
    /// the families [`shard_of_family`] maps to `k`.
    pub shards: Vec<Mutex<Engine>>,
    /// Round-robin cursor distributing `Begin` (which has no family
    /// yet) over the shards.
    next_begin: AtomicUsize,
    pub wal: Mutex<SiteLog>,
    /// The group-commit batcher and what waits on it (`crate::disk`).
    pub disk: Mutex<DiskState>,
    pub servers: BTreeMap<ServerId, Mutex<DataServer>>,
    pub comman: Mutex<CommMan>,
    pub tm_tx: Sender<Option<Input>>,
    /// TranMan workers parked in `recv`, waiting for an input: while one
    /// is, another worker may sleep through a platter write it leads.
    /// Relaxed: it only chooses who writes, and publishes no data.
    idle_workers: AtomicUsize,
    pub disk_tx: Sender<DiskJob>,
    pub lazy: Mutex<Vec<(ForceToken, Lsn)>>,
    pub counters: SiteCounters,
    /// Per-phase latency histograms (always on; relaxed atomics).
    pub hist: Arc<PhaseHistograms>,
    /// Client phase histograms keyed by the protocol a transaction
    /// committed under (per-protocol p50/p95/p99 from one mixed
    /// workload).
    pub proto_hist: Arc<ProtocolPhaseHistograms>,
    /// Queued execution mode: one FIFO sender per data shard (empty
    /// in lock-based mode).
    pub queue_txs: Vec<Sender<QueueJob>>,
    /// Crash incarnation; queued ops stamped with an older value are
    /// dropped (their speculative state died with the site).
    pub incarnation: AtomicU64,
    /// Queued mode: (family, server) pairs whose join-transaction has
    /// been delivered, deduplicating joins across shards.
    pub queue_joined: Mutex<HashSet<(FamilyId, ServerId)>>,
    /// Queued mode: outstanding phase-one sub-vote aggregations.
    pub vote_aggs: Mutex<HashMap<(FamilyId, ServerId), VoteAgg>>,
    /// Trace ring when `RtConfig::trace` is set.
    pub ring: Option<Arc<TraceRing>>,
    /// Completions for application-level engine calls (begin, commit)
    /// homed here whose reply comes from another thread: this site's
    /// engine produces every such reply.
    pub pending: ShardedMap<Action>,
    /// Completions for data-server operations on this site that went
    /// asynchronous (a lock wait, a shard queue): this site's servers
    /// or queue workers answer them.
    pub pending_ops: ShardedMap<OpReply>,
}

impl SiteShared {
    /// An emission handle into this site's ring (no-op when tracing
    /// is off).
    pub fn tracer(&self) -> Tracer {
        match &self.ring {
            Some(r) => Tracer::attached(r.clone()),
            None => Tracer::disabled(),
        }
    }

    /// Which engine shard handles this input. Family-bearing inputs go
    /// to the family's owner; log and timer completions carry tokens
    /// allocated in the owning shard's residue class, so they route
    /// back by arithmetic alone. `Begin` has no family yet — any shard
    /// may allocate one — so it round-robins.
    fn route(&self, input: &Input) -> usize {
        let n = self.shards.len();
        match input {
            Input::Begin { .. } => self.next_begin.fetch_add(1, Ordering::Relaxed) % n,
            Input::BeginNested { parent, .. } => shard_of_family(self.id, &parent.family, n),
            Input::CommitTop { tid, .. }
            | Input::CommitNested { tid, .. }
            | Input::AbortTx { tid, .. }
            | Input::Join { tid, .. }
            | Input::ServerVote { tid, .. } => shard_of_family(self.id, &tid.family, n),
            Input::Datagram { msg, .. } => shard_of_family(self.id, &msg.tid().family, n),
            Input::LogForced { token } | Input::LogDurable { token } => shard_of_token(token.0, n),
            Input::TimerFired { token } => shard_of_token(token.0, n),
        }
    }

    /// Appends a record into the WAL's in-memory segment (a short
    /// critical section) and returns the log end past it. Durability
    /// comes later, from a platter write.
    pub(crate) fn append(&self, rec: &LogRecord) -> Lsn {
        self.wal.lock().append(rec)
    }

    /// The families this site's queue shards still hold speculative
    /// state for (none in lock-based mode). A FIFO barrier: each shard
    /// answers after every job sent to it before this call, so the
    /// answer covers every resolution already sent. `None` once the
    /// shard workers are gone (the cluster is stopping).
    pub(crate) fn queue_held(&self) -> Option<Vec<FamilyId>> {
        let (tx, rx) = unbounded();
        for queue in &self.queue_txs {
            let _ = queue.send(QueueJob::Held(tx.clone()));
        }
        drop(tx);
        let mut held = Vec::new();
        for _ in &self.queue_txs {
            held.extend(rx.recv().ok()?);
        }
        Some(held)
    }

    /// Kills the site in place: volatile state is lost, unforced log
    /// records discarded, traffic to it dropped by the router. Safe to
    /// call from any runtime thread holding no site locks.
    pub(crate) fn kill(&self) {
        self.tracer().site_event(TraceEventKind::Crash);
        self.incarnation.fetch_add(1, Ordering::SeqCst);
        self.alive.store(false, Ordering::SeqCst);
        // Whatever would have answered a call parked here died with
        // the site: every such caller wakes now, outcome unknown.
        self.pending.clear();
        self.pending_ops.clear();
        self.wal.lock().lose_volatile();
        self.lazy.lock().clear();
        // Queued mode: speculative shard state dies with the site.
        self.queue_joined.lock().clear();
        self.vote_aggs.lock().clear();
        for tx in &self.queue_txs {
            let _ = tx.send(QueueJob::Reset);
        }
    }
}

/// Cluster-wide shared state.
pub(crate) struct ClusterInner {
    pub sites: BTreeMap<SiteId, Arc<SiteShared>>,
    router: Router,
    pub next_req: AtomicU64,
    pub epoch: Instant,
    pub cfg: RtConfig,
    /// Fault-injection plan consulted on every datagram and at the
    /// named crash points. [`FaultPlan::disabled`] for ordinary runs.
    pub fault: Arc<FaultPlan>,
    /// A site process's socket ([`Cluster::new_site`]): datagrams for
    /// sites not hosted here leave through it, and `socket_main` hands
    /// what arrives to the site's workers. `None` in an in-process
    /// cluster, which hosts every destination.
    pub transport: Option<SocketTransport>,
    /// Buffer between the rings and chunked trace drains: a full
    /// drain lands here and [`Cluster::drain_trace_chunk`] pops
    /// bounded slices, so one ctrl reply never has to carry the whole
    /// ring (which can exceed the 1 MiB frame cap).
    pub trace_pending: Mutex<std::collections::VecDeque<TraceEvent>>,
}

impl ClusterInner {
    pub fn now(&self) -> Time {
        Time(self.epoch.elapsed().as_micros() as u64)
    }

    pub fn alloc_req(&self) -> u64 {
        self.next_req.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs one input through its engine shard: route, lock (timing
    /// the wait), handle. Returns the engine's actions for the caller
    /// to apply with no locks held.
    pub fn handle_on_shard(&self, site: &SiteShared, input: Input) -> Vec<Action> {
        self.handle_then(site, input, |_| ())
    }

    /// [`ClusterInner::handle_on_shard`], calling `locked` on the
    /// actions before the shard lock is released (not at all if the
    /// site is down). Whatever `locked` does is ordered before every
    /// later input to this shard.
    pub fn handle_then(
        &self,
        site: &SiteShared,
        input: Input,
        locked: impl FnOnce(&[Action]),
    ) -> Vec<Action> {
        if !site.alive.load(Ordering::SeqCst) {
            return Vec::new();
        }
        let shard = site.route(&input);
        let now = self.now();
        let contend = Instant::now();
        let actions = {
            let mut engine = site.shards[shard].lock();
            let waited = contend.elapsed();
            site.hist.record(Phase::ShardLockWait, waited);
            site.counters
                .lock_wait_ns
                .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
            let actions = engine.handle(input, now);
            locked(&actions);
            actions
        };
        site.counters.inputs.fetch_add(1, Ordering::Relaxed);
        actions
    }

    /// Posts one inter-site datagram, and the messages piggybacked on
    /// it, through the fault plan: each may be delivered normally,
    /// dropped, delayed past later traffic on the link (reordering), or
    /// duplicated. A copy due now (zero `datagram_delay`, and the plan
    /// added nothing) for a site hosted here goes onto `inbox`, for the
    /// posting thread to run ([`ClusterInner::apply_for`]); a later one
    /// waits in the router. Timer firings never come through here —
    /// they are site-local, not network traffic.
    fn post_datagram(
        &self,
        from: SiteId,
        to: SiteId,
        msg: camelot_net::TmMessage,
        piggyback: Vec<camelot_net::TmMessage>,
        inbox: &mut VecDeque<(SiteId, Input)>,
    ) {
        if !self.sites.contains_key(&to) {
            // Not hosted here: out through the site's socket, which
            // sends the piggyback in the datagram's envelope and rolls
            // the (shared) fault plan itself. A peer whose address is
            // not known yet is a lost datagram, which the protocol's
            // timers recover.
            if let Some(transport) = &self.transport {
                let _ = transport.send(to, msg, piggyback);
            }
            return;
        }
        let base = self.cfg.datagram_delay;
        let mut deliver = |after: StdDuration, msg: camelot_net::TmMessage| {
            let input = Input::Datagram { from, msg };
            if after.is_zero() {
                inbox.push_back((to, input));
            } else {
                self.deliver_after(after, to, input);
            }
        };
        for msg in std::iter::once(msg).chain(piggyback) {
            match self.fault.link_decision(from, to) {
                LinkDecision::Deliver => deliver(base, msg),
                LinkDecision::Drop => {}
                LinkDecision::Delay(extra) => deliver(base + extra, msg),
                LinkDecision::Duplicate(extra) => {
                    deliver(base, msg.clone());
                    deliver(base + extra, msg);
                }
            }
        }
    }

    /// Hands `input` to `to`'s worker pool now. Traffic to a dead (or
    /// unknown) site is dropped; returns whether it was handed over.
    fn deliver(&self, to: SiteId, input: Input) -> bool {
        match self.sites.get(&to) {
            Some(site) if site.alive.load(Ordering::SeqCst) => site.tm_tx.send(Some(input)).is_ok(),
            _ => false,
        }
    }

    /// Delivers `input` — a delayed datagram, or a timer firing — to
    /// `to` after `after`. A timer due now goes straight to the site's
    /// workers from this thread; everything else waits in the router's
    /// queue, and the router thread is woken only if it now has to get
    /// up earlier than it meant to.
    fn deliver_after(&self, after: StdDuration, to: SiteId, input: Input) {
        if after.is_zero() {
            if let Input::TimerFired { token } = &input {
                // Arming a timer replaces whatever its token had armed.
                self.router.lock().cancel(to, *token);
            }
            self.deliver(to, input);
        } else if self.router.lock().push(Instant::now() + after, to, input) {
            self.router.wake.notify_one();
        }
    }

    /// Runs a completed force's `LogForced` step — on the thread that
    /// led the force's platter write, on a worker for every other — and
    /// returns the actions to apply.
    pub fn log_forced(&self, site: &SiteShared, token: ForceToken) -> Vec<Action> {
        let actions = self.handle_on_shard(site, Input::LogForced { token });
        // Crash point: the force hit the platter (the decision is
        // durable) but the datagrams announcing it never leave — the
        // window where peers must find the outcome via recovery or
        // inquiry.
        if self
            .fault
            .should_crash(site.id, CrashPoint::PostForcePreSend)
        {
            site.kill();
            return Vec::new();
        }
        actions
    }

    /// Routes a server's effects: join-transaction, log records,
    /// operation replies.
    pub fn route_server_effects(
        &self,
        site: &Arc<SiteShared>,
        server: ServerId,
        fx: camelot_server::Effects,
    ) {
        if let Some(tid) = fx.join {
            // Figure 1 step 4: the server notifies the local TranMan.
            // Synchronous, as the real join-transaction RPC is — the
            // operation does not return to the application until the
            // TranMan knows about the join, so a later prepare (or
            // commit) can never overtake it and mistake an updated
            // family for an unknown one.
            let actions = self.handle_on_shard(site, Input::Join { tid, server });
            self.apply_actions(site, actions);
        }
        for rec in fx.log {
            site.append(&rec);
        }
        for reply in fx.replies {
            site.pending_ops.complete(reply.req, reply);
        }
    }

    /// Applies the engine's actions (called with no locks held).
    pub fn apply_actions(&self, site: &Arc<SiteShared>, actions: Vec<Action>) {
        self.apply_for(site, actions, None);
    }

    /// [`ClusterInner::apply_actions`] on behalf of application call
    /// `caller`: the reply to that call, if this thread produces it,
    /// is returned instead of going through the completion table.
    ///
    /// A datagram due now for a site hosted here is not handed to that
    /// site's workers: it waits in this call's inbox, and once the
    /// current site's actions are applied this loop runs the inbox in
    /// FIFO order — each entry's engine step on its destination site,
    /// then that site's actions — so a zero-delay exchange between
    /// in-process sites costs no thread hand-off (DESIGN §5.7). A
    /// thread about to lead a platter write first hands the inbox over
    /// to the destinations' workers, which run it while it writes.
    pub fn apply_for(
        &self,
        site: &Arc<SiteShared>,
        actions: Vec<Action>,
        caller: Option<u64>,
    ) -> Option<Action> {
        let mut reply = None;
        let mut site = site;
        let mut queue = VecDeque::from(actions);
        let mut inbox = VecDeque::new();
        // Queued mode's `AskVote`s, each with its site, held back until
        // the rest, the inbox included, is applied.
        let mut asks = Vec::new();
        loop {
            let action = if let Some(action) = queue.pop_front() {
                action
            } else if let Some((to, input)) = inbox.pop_front() {
                site = &self.sites[&to];
                queue.extend(self.handle_on_shard(site, input));
                continue;
            } else if let Some((at, action)) = asks.pop() {
                site = at;
                action
            } else {
                return reply;
            };
            match action {
                a @ (Action::Began { .. } | Action::Resolved { .. } | Action::Rejected { .. }) => {
                    let req = reply_req(&a).expect("matched a reply");
                    if let Action::Resolved { tid, outcome, .. } = &a {
                        site.tracer().family(
                            tid.family,
                            TraceEventKind::Resolved {
                                outcome: match outcome {
                                    camelot_net::Outcome::Committed => "Committed",
                                    camelot_net::Outcome::Aborted => "Aborted",
                                },
                            },
                        );
                    }
                    if caller == Some(req) {
                        reply = Some(a);
                    } else {
                        site.pending.complete(req, a);
                    }
                }
                Action::AskVote { tid, servers } => {
                    if self.cfg.exec_mode == ExecMode::Queued {
                        // The shards answer at once, on their own
                        // threads, and a veto's abort notice must not
                        // leave before the prepares this batch has yet
                        // to send or has yet to run from the inbox: a
                        // subordinate drops an outcome for a family it
                        // has not been asked to prepare, then prepares
                        // and waits for the resend. Ask last — the order
                        // lock-based mode gets from running the vote
                        // inline, behind the batch.
                        if !queue.is_empty() || !inbox.is_empty() {
                            asks.push((site, Action::AskVote { tid, servers }));
                            continue;
                        }
                        self.queued_ask_vote(site, &mut queue, &tid, &servers);
                    } else {
                        for server in servers {
                            let vote = site
                                .servers
                                .get(&server)
                                .expect("server exists")
                                .lock()
                                .vote(tid.family);
                            // The vote is an input of the family this
                            // thread is already working for: it runs
                            // through the engine here, to completion,
                            // and its actions queue behind this batch.
                            let tid = tid.clone();
                            let input = Input::ServerVote { tid, server, vote };
                            queue.extend(self.handle_on_shard(site, input));
                        }
                    }
                }
                Action::ServerResolve {
                    tid,
                    servers,
                    outcome,
                } => {
                    for s in servers {
                        let srv = site.servers.get(&s).expect("server exists");
                        let fx = srv.lock().resolve(&tid, outcome);
                        self.route_server_effects(site, s, fx);
                    }
                    if self.cfg.exec_mode == ExecMode::Queued {
                        self.queued_resolve(site, &tid, outcome);
                    }
                }
                Action::Send { to, msg, piggyback } => {
                    self.post_datagram(site.id, to, msg, piggyback, &mut inbox);
                }
                Action::Broadcast { to, msg } => {
                    for dst in to {
                        self.post_datagram(site.id, dst, msg.clone(), Vec::new(), &mut inbox);
                    }
                }
                Action::RelayAbort { tid } => {
                    let targets = {
                        let mut cm = site.comman.lock();
                        let t = cm.participants(&tid.family);
                        cm.forget(&tid.family);
                        t
                    };
                    for dst in targets {
                        self.post_datagram(
                            site.id,
                            dst,
                            camelot_net::TmMessage::Abort { tid: tid.clone() },
                            Vec::new(),
                            &mut inbox,
                        );
                    }
                }
                Action::Append { rec } => {
                    site.append(&rec);
                }
                Action::Force { rec, token } => {
                    // Crash point: the decision is made but its commit
                    // record never reaches even the volatile log.
                    if self.fault.should_crash(site.id, CrashPoint::PreForce) {
                        site.kill();
                        continue;
                    }
                    // This thread appends, and asks for the force. With
                    // nothing left to apply it may be told to lead the
                    // platter write, and its own `LogForced` step then
                    // runs here too — if an application call is parked
                    // on it (all it could do is wait), or another
                    // TranMan worker is idle to serve the site's traffic
                    // while this thread sleeps through the write. A
                    // force with work queued behind it (non-blocking
                    // commit's begin record, ahead of phase one) must not
                    // hold that work up for a platter write, so it never
                    // leads; nor may the inbox wait for it — other
                    // sites' forces would run one after another — so a
                    // leader hands it to the destinations' workers.
                    let upto = site.append(&rec);
                    let lead = queue.is_empty()
                        && (caller.is_some() || site.idle_workers.load(Ordering::Relaxed) > 0);
                    if lead {
                        for (to, input) in inbox.drain(..) {
                            self.deliver(to, input);
                        }
                    }
                    if request_force(self, site, token, upto, lead) {
                        queue.extend(self.log_forced(site, token));
                    }
                }
                Action::AppendNotify { rec, token } => {
                    let upto = site.append(&rec);
                    site.lazy.lock().push((token, upto));
                }
                Action::SetTimer { token, after } => {
                    // Clock-skew fault: a skewed site's protocol timers
                    // (vote timeout, inquiry, notify resend, takeover)
                    // fire early or late by the plan's factor.
                    let nominal = StdDuration::from_micros(after.as_micros());
                    let after = self.fault.skew_timer(site.id, nominal);
                    self.deliver_after(after, site.id, Input::TimerFired { token });
                }
                Action::CancelTimer { token } => {
                    // Never wakes the router: the head can only move
                    // later, and the router finds that out by itself.
                    self.router.lock().cancel(site.id, token);
                }
            }
        }
    }
}

/// The application request an action answers, if it is a reply.
pub(crate) fn reply_req(action: &Action) -> Option<u64> {
    match action {
        Action::Began { req, .. } | Action::Resolved { req, .. } | Action::Rejected { req, .. } => {
            Some(*req)
        }
        _ => None,
    }
}

/// A running Camelot cluster.
pub struct Cluster {
    pub(crate) inner: Arc<ClusterInner>,
    handles: Vec<JoinHandle<()>>,
}

impl Cluster {
    /// Builds and starts `n` sites with no fault injection.
    pub fn new(n: u32, cfg: RtConfig) -> Cluster {
        Cluster::new_with_faults(n, cfg, Arc::new(FaultPlan::disabled()))
    }

    /// Builds and starts `n` sites with `fault` installed. The plan is
    /// shared: the caller keeps its own `Arc` to arm crash points or
    /// heal mid-run.
    pub fn new_with_faults(n: u32, cfg: RtConfig, fault: Arc<FaultPlan>) -> Cluster {
        Cluster::build((1..=n).map(SiteId).collect(), cfg, fault, None)
    }

    /// Builds the runtime of one site process — the shape of a
    /// `camelot-site`: a *partial* cluster hosting only `socket.site`,
    /// with its socket. The [`SocketTransport`] is bound from `socket`
    /// on the site's tracer before startup recovery runs, and every
    /// datagram for another site goes out through it; the transport
    /// rolls `fault` for each frame, so those datagrams skip the
    /// cluster's own roll. Once recovery is done, one receive thread
    /// hands each delivery to the site's workers;
    /// [`Cluster::shutdown`] stops it with the rest. Everything else
    /// (engine shards, WAL file, disk manager, tracer, crash points)
    /// is the ordinary runtime.
    pub fn new_site(socket: SocketConfig, cfg: RtConfig, fault: Arc<FaultPlan>) -> Cluster {
        Cluster::build(vec![socket.site], cfg, fault, Some(socket))
    }

    fn build(
        site_ids: Vec<SiteId>,
        cfg: RtConfig,
        fault: Arc<FaultPlan>,
        socket: Option<SocketConfig>,
    ) -> Cluster {
        // One epoch for the whole cluster's engine clock, taken before
        // any site state exists. Trace rings stamp the host clock
        // instead, so timelines interleave across clusters and
        // processes too.
        let epoch = Instant::now();
        let mut sites = BTreeMap::new();
        let mut site_channels = Vec::new();
        let queued = cfg.exec_mode == ExecMode::Queued;
        for id in site_ids {
            let i = id.0;
            let (tm_tx, tm_rx) = unbounded();
            let (disk_tx, disk_rx) = unbounded();
            let (queue_txs, queue_rxs): (Vec<_>, Vec<_>) = if queued {
                (0..cfg.data_shards.max(1)).map(|_| unbounded()).unzip()
            } else {
                (Vec::new(), Vec::new())
            };
            let mut servers = BTreeMap::new();
            for k in 1..=SERVERS_PER_SITE {
                let sid = ServerId(k);
                servers.insert(sid, Mutex::new(DataServer::new(id, sid)));
            }
            let store: Box<dyn StableStore + Send> = match &cfg.log_dir {
                Some(dir) => {
                    std::fs::create_dir_all(dir).expect("create log dir");
                    Box::new(
                        FileStore::open(dir.join(format!("site-{i}.log"))).expect("open site log"),
                    )
                }
                None => Box::new(MemStore::new()),
            };
            let ring = cfg
                .trace
                .then(|| TraceRing::new(id, cfg.trace_capacity, epoch));
            let tracer = match &ring {
                Some(r) => Tracer::attached(r.clone()),
                None => Tracer::disabled(),
            };
            let shards = (0..ENGINE_SHARDS)
                .map(|k| {
                    let mut engine = Engine::sharded(id, cfg.engine.clone(), k, ENGINE_SHARDS);
                    engine.set_tracer(tracer.clone());
                    Mutex::new(engine)
                })
                .collect();
            let shared = Arc::new(SiteShared {
                id,
                alive: AtomicBool::new(true),
                shards,
                next_begin: AtomicUsize::new(0),
                wal: Mutex::new(SiteLog::new(store)),
                disk: Mutex::new(DiskState::new(cfg.batch, tracer.clone())),
                servers,
                comman: Mutex::new(CommMan::new(id)),
                tm_tx,
                idle_workers: AtomicUsize::new(0),
                disk_tx,
                lazy: Mutex::new(Vec::new()),
                counters: SiteCounters::default(),
                hist: Arc::new(PhaseHistograms::default()),
                proto_hist: Arc::new(ProtocolPhaseHistograms::default()),
                queue_txs,
                incarnation: AtomicU64::new(0),
                queue_joined: Mutex::new(HashSet::new()),
                vote_aggs: Mutex::new(HashMap::new()),
                ring,
                pending: ShardedMap::new(16),
                pending_ops: ShardedMap::new(16),
            });
            sites.insert(id, shared);
            site_channels.push((id, tm_rx, disk_rx, queue_rxs));
        }
        let transport = socket.map(|socket| {
            let tracer = sites[&socket.site].tracer();
            SocketTransport::bind(socket, fault.clone(), tracer).expect("bind the site's socket")
        });
        let inner = Arc::new(ClusterInner {
            sites,
            router: Router::default(),
            next_req: AtomicU64::new(1),
            epoch,
            cfg: cfg.clone(),
            fault,
            transport,
            trace_pending: Mutex::new(std::collections::VecDeque::new()),
        });
        let mut handles = Vec::new();
        // Router.
        {
            let inner = inner.clone();
            handles.push(std::thread::spawn(move || router_main(inner)));
        }
        // Per-site workers.
        for (id, tm_rx, disk_rx, queue_rxs) in site_channels {
            let site = inner.sites.get(&id).expect("site exists").clone();
            for _ in 0..cfg.tm_threads.max(1) {
                let inner = inner.clone();
                let site = site.clone();
                let rx = tm_rx.clone();
                handles.push(std::thread::spawn(move || tm_worker(inner, site, rx)));
            }
            for rx in queue_rxs {
                let inner = inner.clone();
                let site = site.clone();
                handles.push(std::thread::spawn(move || queue_worker(inner, site, rx)));
            }
            let inner2 = inner.clone();
            let site2 = site.clone();
            handles.push(std::thread::spawn(move || {
                disk_main(inner2, site2, disk_rx)
            }));
        }
        let mut cluster = Cluster { inner, handles };
        // With persistent logs, a fresh cluster may be a *restart* of
        // an earlier one: recover every site from whatever its log
        // already holds.
        if cfg.log_dir.is_some() {
            for id in cluster.inner.sites.keys().copied().collect::<Vec<_>>() {
                cluster.restart(id).expect("recovery scan at startup");
            }
        }
        if cluster.inner.transport.is_some() {
            let inner = cluster.inner.clone();
            cluster
                .handles
                .push(std::thread::spawn(move || socket_main(inner)));
        }
        cluster
    }

    /// The installed fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.inner.fault
    }

    /// A site process's socket ([`Cluster::new_site`]). Its owner reads
    /// the address peers send to, installs the peer map and reads the
    /// send counters through it.
    ///
    /// # Panics
    ///
    /// On an in-process cluster, which has no socket.
    pub fn transport(&self) -> &SocketTransport {
        self.inner
            .transport
            .as_ref()
            .expect("only a site process's runtime has a socket")
    }

    /// An emission handle into `site`'s trace ring (no-op when tracing
    /// is off or the site is not hosted here), the one the engine and
    /// a site process's socket stamp their events with.
    pub fn site_tracer(&self, site: SiteId) -> Tracer {
        self.inner
            .sites
            .get(&site)
            .map(|s| s.tracer())
            .unwrap_or_else(Tracer::disabled)
    }

    /// A client homed at `site`.
    pub fn client(&self, site: SiteId) -> Client {
        assert!(self.inner.sites.contains_key(&site), "unknown site");
        Client::new(self.inner.clone(), site)
    }

    /// Crashes a site: volatile state is lost, unforced log records
    /// discarded, traffic to it dropped.
    pub fn crash(&self, site: SiteId) {
        self.inner.sites.get(&site).expect("unknown site").kill();
    }

    /// A snapshot of a site's retained durable log bytes (from the
    /// log's base, wherever checkpoints have moved it), for fault
    /// harnesses that corrupt and later restore the log across a
    /// restart.
    pub fn wal_image(&self, site: SiteId) -> Result<Vec<u8>> {
        let s = self.inner.sites.get(&site).expect("unknown site");
        s.wal.lock().store_mut().durable_bytes()
    }

    /// Replaces a site's retained durable log bytes; the base stays
    /// where it is. The site must be down:
    /// rewriting the log under a live site would corrupt its in-memory
    /// view of the tail.
    pub fn set_wal_image(&self, site: SiteId, bytes: &[u8]) -> Result<()> {
        let s = self.inner.sites.get(&site).expect("unknown site");
        assert!(
            !s.alive.load(Ordering::SeqCst),
            "set_wal_image requires a crashed site"
        );
        let mut log = s.wal.lock();
        log.lose_volatile();
        log.store_mut().set_durable_bytes(bytes)
    }

    /// Restarts a crashed site: the transaction manager and servers
    /// are rebuilt from the retained durable log — one scan, then the
    /// servers and each engine shard (from the records of the families
    /// it owns) read the same decoded records in place. The three
    /// steps are timed as [`Phase::RecoverScan`],
    /// [`Phase::RecoverServers`] and [`Phase::RecoverEngine`]. The
    /// restart ends by taking a checkpoint ([`Cluster::checkpoint`]) and
    /// returns once it is durable and the log truncated, so a site that
    /// crashes again at once does not replay the same tail. A site
    /// killed inside that checkpoint is reported as
    /// [`CamelotError::SiteDown`], like one killed mid-recovery.
    ///
    /// If the recovery scan finds a corrupt record (checksum mismatch
    /// on a complete frame), the typed [`CamelotError::Corruption`]
    /// error is returned and the site **stays down** — restarting on a
    /// damaged log must never silently drop committed state.
    ///
    /// [`CamelotError::SiteDown`]: camelot_types::CamelotError::SiteDown
    /// [`CamelotError::Corruption`]: camelot_types::CamelotError::Corruption
    pub fn restart(&self, site: SiteId) -> Result<()> {
        let s = self.inner.sites.get(&site).expect("unknown site");
        let started = Instant::now();
        s.tracer().site_event(TraceEventKind::Restart);
        // Queued mode: any speculative shard state predating this
        // restart is stale; recovered in-doubt families live in the
        // data servers and resolve through the direct-vote fallback.
        s.queue_joined.lock().clear();
        s.vote_aggs.lock().clear();
        for tx in &s.queue_txs {
            let _ = tx.send(QueueJob::Reset);
        }
        // A worker that was mid-action when the site died may have
        // appended, and asked for a force, since: none of the dead
        // incarnation's forces may be answered to the new one, and
        // nothing of its volatile tail may become durable under it.
        s.disk.lock().abandon();
        let records = {
            let mut log = s.wal.lock();
            log.lose_volatile();
            let records = log.recover()?;
            log.rebuild_first_lsns(&records);
            records
        };
        let scanned = Instant::now();
        s.hist.record(Phase::RecoverScan, scanned - started);
        // Rebuild servers.
        for (sid, server) in &s.servers {
            *server.lock() = server_recover(site, *sid, records.iter().map(|(_, rec)| rec));
        }
        let servers_done = Instant::now();
        s.hist.record(Phase::RecoverServers, servers_done - scanned);
        // Crash point: the site dies again half way through recovery,
        // servers rebuilt and engines not. Recovery only reads the
        // log, so the next restart starts from the same place.
        if self.inner.fault.should_crash(site, CrashPoint::MidRecovery) {
            s.kill();
            return Err(camelot_types::CamelotError::SiteDown(site));
        }
        // Partition the log by owning shard and rebuild each engine.
        // Checkpoint markers go to every shard (they carry the family
        // sequence numbers spent below the truncation point);
        // snapshots are for the servers only.
        let n = s.shards.len();
        let mut parts: Vec<Vec<&(Lsn, LogRecord)>> = (0..n).map(|_| Vec::new()).collect();
        for entry in &records {
            match entry.1.tid() {
                Some(tid) => parts[shard_of_family(site, &tid.family, n)].push(entry),
                None if matches!(entry.1, LogRecord::Checkpoint { .. }) => {
                    parts.iter_mut().for_each(|part| part.push(entry));
                }
                None => {}
            }
        }
        let mut all_actions = Vec::new();
        let tracer = s.tracer();
        for (k, part) in parts.into_iter().enumerate() {
            let (mut engine, actions) = Engine::recover_sharded(
                site,
                self.inner.cfg.engine.clone(),
                k as u32,
                n as u32,
                part,
            );
            engine.set_tracer(tracer.clone());
            if tracer.is_enabled() {
                for id in engine.family_ids() {
                    tracer.family(id, TraceEventKind::Recovered { state: "live" });
                }
            }
            *s.shards[k].lock() = engine;
            all_actions.extend(actions);
        }
        s.hist.record(Phase::RecoverEngine, servers_done.elapsed());
        s.alive.store(true, Ordering::SeqCst);
        self.inner.apply_actions(s, all_actions);
        self.checkpoint(site);
        s.counters
            .last_restart_us
            .store(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        if !s.alive.load(Ordering::SeqCst) {
            return Err(camelot_types::CamelotError::SiteDown(site));
        }
        Ok(())
    }

    /// Checkpoints `site` now, whatever the size of its log tail, and
    /// returns once the checkpoint is durable and the log truncated
    /// below it (at once if the site is down). The disk manager
    /// schedules checkpoints by itself; this is the same operation on
    /// demand, for tests and tools.
    pub fn checkpoint(&self, site: SiteId) {
        let s = self.inner.sites.get(&site).expect("unknown site");
        let (done, finished) = unbounded();
        let _ = s.disk_tx.send(DiskJob::Checkpoint { done: Some(done) });
        let _ = finished.recv();
    }

    /// One-line-per-entity diagnostic dump of a site's protocol
    /// state: every live family descriptor in every engine shard
    /// (with phase and role), every family a queue shard still holds,
    /// every server family still tracked (with its lock count), and
    /// the forces waiting for a platter write. Empty means the site is
    /// quiet. Chaos campaigns attach this to progress-violation
    /// reports so a wedged schedule explains itself. The output is
    /// deterministic — engine and queue lines are sorted
    /// by family id regardless of which shard owns them, and server
    /// lines by (server, family) — so two dumps of the same state
    /// compare equal.
    pub fn debug_state(&self, site: SiteId) -> String {
        let mut out = Vec::new();
        if let Some(s) = self.inner.sites.get(&site) {
            // First, holding no lock: a queue shard takes server locks.
            let mut queued = s.queue_held().unwrap_or_default();
            let mut engine_lines = Vec::new();
            for shard in &s.shards {
                let e = shard.lock();
                for id in e.family_ids() {
                    if let Some(v) = e.family_view(&id) {
                        engine_lines
                            .push((id, format!("{site} engine: {id} {} {:?}", v.role, v.phase)));
                    }
                }
            }
            engine_lines.sort_by_key(|(id, _)| (id.origin, id.seq));
            out.extend(engine_lines.into_iter().map(|(_, line)| line));
            queued.sort_by_key(|f| (f.origin, f.seq));
            out.extend(queued.iter().map(|f| format!("{site} queue: {f}")));
            for (srv, server) in &s.servers {
                let srv = srv.0;
                let m = server.lock();
                for f in m.families() {
                    out.push(format!("{site} server{srv}: active {f}"));
                }
                let mut in_doubt = m.in_doubt_families();
                in_doubt.sort_by_key(|f| (f.origin, f.seq));
                for f in in_doubt {
                    out.push(format!("{site} server{srv}: in-doubt {f}"));
                }
                let locked = m.locks().locked_objects();
                if locked != 0 {
                    out.push(format!("{site} server{srv}: {locked} locked object(s)"));
                }
            }
            // None at rest, and none after a restart: a dead
            // incarnation's forces are abandoned, never answered.
            let waiting = s.disk.lock().waiting();
            if waiting != 0 {
                out.push(format!("{site} disk: {waiting} force(s) waiting"));
            }
        }
        out.join("; ")
    }

    /// Drains and merges every site's trace ring into one
    /// cluster-wide timeline (ordered by timestamp, then site, then
    /// per-site sequence). Empty unless the cluster was built with
    /// [`RtConfig::trace`]. Draining consumes: each event is returned
    /// once.
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        let pending = self.inner.trace_pending.lock().drain(..).collect();
        self.drain_rings_into(pending)
    }

    /// Drains at most `max` trace events, buffering the rest for the
    /// next call. An empty return means the rings and the buffer are
    /// both dry — the chunked ctrl drain uses that as its terminator.
    /// Chunks come out in merged-timeline order.
    pub fn drain_trace_chunk(&self, max: usize) -> Vec<TraceEvent> {
        let mut pending = self.inner.trace_pending.lock();
        if pending.is_empty() {
            pending.extend(self.drain_rings_into(Vec::new()));
        }
        let take = max.min(pending.len());
        pending.drain(..take).collect()
    }

    /// `events` and everything drained from every site's ring, merged
    /// into one timeline.
    fn drain_rings_into(&self, mut events: Vec<TraceEvent>) -> Vec<TraceEvent> {
        for s in self.inner.sites.values() {
            if let Some(ring) = &s.ring {
                events.extend(ring.drain());
            }
        }
        merge_timelines(events)
    }

    /// True if the site is up.
    pub fn is_alive(&self, site: SiteId) -> bool {
        self.inner
            .sites
            .get(&site)
            .map(|s| s.alive.load(Ordering::SeqCst))
            .unwrap_or(false)
    }

    /// The committed value of an object at a server.
    pub fn committed_value(
        &self,
        site: SiteId,
        server: ServerId,
        obj: camelot_types::ObjectId,
    ) -> Vec<u8> {
        self.inner
            .sites
            .get(&site)
            .and_then(|s| s.servers.get(&server))
            .map(|srv| srv.lock().committed_value(obj).to_vec())
            .unwrap_or_default()
    }

    /// A point-in-time snapshot of the cluster's contention and
    /// throughput counters: per-shard protocol counters (summed), WAL
    /// append/force counts, worker lock-wait time, platter writes and
    /// group-commit batch sizes.
    pub fn stats(&self) -> ClusterStats {
        let sites = self
            .inner
            .sites
            .values()
            .map(|s| {
                let mut engine = camelot_core::EngineStats::default();
                let mut live = 0usize;
                for shard in &s.shards {
                    let e = shard.lock();
                    add_engine_stats(&mut engine, e.stats());
                    live += e.live_families();
                }
                let (wal, wal_live_bytes) = {
                    let log = s.wal.lock();
                    (log.stats(), log.end_lsn().0 - log.base_lsn().0)
                };
                let mut servers = camelot_server::ServerStats::default();
                for srv in s.servers.values() {
                    add_server_stats(&mut servers, srv.lock().stats());
                }
                let c = &s.counters;
                SiteStats {
                    site: s.id,
                    engine,
                    live_families: live,
                    wal,
                    lock_wait: StdDuration::from_nanos(c.lock_wait_ns.load(Ordering::Relaxed)),
                    inputs: c.inputs.load(Ordering::Relaxed),
                    worker_inputs: c.worker_inputs.load(Ordering::Relaxed),
                    platter_writes: c.platter_writes.load(Ordering::Relaxed),
                    forces_satisfied: c.forces_satisfied.load(Ordering::Relaxed),
                    max_batch: c.max_batch.load(Ordering::Relaxed),
                    lazy_drained: c.lazy_drained.load(Ordering::Relaxed),
                    checkpoints: c.checkpoints.load(Ordering::Relaxed),
                    wal_truncated_bytes: c.wal_truncated_bytes.load(Ordering::Relaxed),
                    wal_live_bytes,
                    snapshot_bytes: c.snapshot_bytes.load(Ordering::Relaxed),
                    last_restart: StdDuration::from_micros(
                        c.last_restart_us.load(Ordering::Relaxed),
                    ),
                    queue_ops: c.queue_ops.load(Ordering::Relaxed),
                    queue_parked: c.queue_parked.load(Ordering::Relaxed),
                    queue_vote_timeouts: c.queue_vote_timeouts.load(Ordering::Relaxed),
                    queue_cascades: c.queue_cascades.load(Ordering::Relaxed),
                    servers,
                    phases: s.hist.snapshot(),
                    proto_phases: s.proto_hist.snapshot(),
                    trace_emitted: s.ring.as_ref().map(|r| r.emitted()).unwrap_or(0),
                    trace_dropped: s.ring.as_ref().map(|r| r.dropped()).unwrap_or(0),
                }
            })
            .collect();
        ClusterStats {
            sites,
            router_pending: self.inner.router.lock().due.len() as u64,
            router_delivered: self.inner.router.delivered.load(Ordering::Relaxed),
        }
    }

    /// Stops every thread and joins them.
    pub fn shutdown(mut self) {
        self.inner.router.lock().stop = true;
        self.inner.router.wake.notify_one();
        for s in self.inner.sites.values() {
            for _ in 0..self.inner.cfg.tm_threads.max(1) {
                let _ = s.tm_tx.send(None);
            }
            for tx in &s.queue_txs {
                let _ = tx.send(QueueJob::Stop);
            }
            let _ = s.disk_tx.send(DiskJob::Stop);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One TranMan worker. Any thread serves any input (§3.4) that arrives
/// asynchronously — a datagram, a timer firing, a log completion, a
/// queued-mode vote aggregate; application calls and the local work
/// they produce run on the calling thread and never come here. The
/// input's transaction family picks the engine shard, so threads
/// working on different families hold different locks. While parked in
/// `recv` a worker counts as idle, which lets the others lead their
/// own platter writes (see the `Action::Force` arm of `apply_for`).
fn tm_worker(inner: Arc<ClusterInner>, site: Arc<SiteShared>, rx: Receiver<Option<Input>>) {
    loop {
        site.idle_workers.fetch_add(1, Ordering::Relaxed);
        let received = rx.recv();
        site.idle_workers.fetch_sub(1, Ordering::Relaxed);
        let Ok(Some(input)) = received else {
            return;
        };
        site.counters.worker_inputs.fetch_add(1, Ordering::Relaxed);
        let actions = match input {
            Input::LogForced { token } => inner.log_forced(&site, token),
            input => inner.handle_on_shard(&site, input),
        };
        inner.apply_actions(&site, actions);
    }
}

/// A site process's receive loop: hands each message of every fresh
/// delivery from the socket to the site's workers, as the router hands
/// over local traffic (a dead site's is dropped). Exits within one
/// receive timeout of [`Cluster::shutdown`] stopping the router.
fn socket_main(inner: Arc<ClusterInner>) {
    let Some(transport) = &inner.transport else {
        return;
    };
    let site = transport.site();
    while !inner.router.lock().stop {
        match transport.recv() {
            Ok(Some(delivery)) => {
                for msg in delivery.messages {
                    let from = delivery.from;
                    inner.deliver(site, Input::Datagram { from, msg });
                }
            }
            Ok(None) => {}
            Err(e) => eprintln!("site {}: data recv error: {e}", site.0),
        }
    }
}

/// The router's pending set, ordered by `(due, seq)`, with an index
/// from each live timer to its key: cancelling or re-arming a timer
/// deletes its entry, so the set holds only live timers and datagrams
/// in flight, and every operation is O(log n).
#[derive(Default)]
struct RouterQueue {
    due: BTreeMap<(Instant, u64), (SiteId, Input)>,
    timers: HashMap<(SiteId, TimerToken), (Instant, u64)>,
    seq: u64,
    /// Set by [`Cluster::shutdown`]: the router thread and a site
    /// process's receive loop (`socket_main`) exit on it.
    stop: bool,
}

const POISONED: &str = "no thread panics while editing the router's queue";

/// The router: one timer queue the whole cluster edits in place, under
/// a short lock, and a thread that sleeps until its head is due.
#[derive(Default)]
struct Router {
    queue: std::sync::Mutex<RouterQueue>,
    /// Signalled when the head moves earlier, and at shutdown.
    wake: Condvar,
    /// Entries the router thread handed to a site.
    delivered: AtomicU64,
}

impl Router {
    fn lock(&self) -> std::sync::MutexGuard<'_, RouterQueue> {
        self.queue.lock().expect(POISONED)
    }
}

impl RouterQueue {
    /// Returns true if the entry became the head, i.e. the router
    /// thread has to get up earlier than it meant to: wake it.
    fn push(&mut self, at: Instant, to: SiteId, input: Input) -> bool {
        self.seq += 1;
        let key = (at, self.seq);
        if let Input::TimerFired { token } = &input {
            if let Some(old) = self.timers.insert((to, *token), key) {
                self.due.remove(&old);
            }
        }
        let head = self.next_due();
        self.due.insert(key, (to, input));
        head.is_none_or(|head| at < head)
    }

    fn cancel(&mut self, site: SiteId, token: TimerToken) {
        if let Some(key) = self.timers.remove(&(site, token)) {
            self.due.remove(&key);
        }
    }

    fn next_due(&self) -> Option<Instant> {
        self.due.first_key_value().map(|(key, _)| key.0)
    }

    /// Removes and returns the earliest delivery if it is due by `now`.
    fn pop_due(&mut self, now: Instant) -> Option<(SiteId, Input)> {
        let first = self.due.first_entry()?;
        if first.key().0 > now {
            return None;
        }
        let (to, input) = first.remove();
        if let Input::TimerFired { token } = &input {
            self.timers.remove(&(to, *token));
        }
        Some((to, input))
    }
}

/// The router thread: delivers what waits in the queue — delayed
/// datagrams, timer firings — when it falls due, and sleeps until the
/// head is due or somebody moves it earlier. Deliveries happen with the
/// queue unlocked.
fn router_main(inner: Arc<ClusterInner>) {
    let router = &inner.router;
    let mut queue = router.lock();
    while !queue.stop {
        let now = Instant::now();
        let due: Vec<_> = std::iter::from_fn(|| queue.pop_due(now)).collect();
        queue = if !due.is_empty() {
            drop(queue);
            for (to, input) in due {
                if inner.deliver(to, input) {
                    router.delivered.fetch_add(1, Ordering::Relaxed);
                }
            }
            router.lock()
        } else if let Some(at) = queue.next_due() {
            router.wake.wait_timeout(queue, at - now).expect(POISONED).0
        } else {
            router.wake.wait(queue).expect(POISONED)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S1: SiteId = SiteId(1);

    fn timer(token: u64) -> Input {
        Input::TimerFired {
            token: TimerToken(token),
        }
    }

    /// Everything due by `now`, as timer tokens.
    fn fire(queue: &mut RouterQueue, now: Instant) -> Vec<u64> {
        std::iter::from_fn(|| queue.pop_due(now))
            .map(|(_, input)| match input {
                Input::TimerFired { token } => token.0,
                other => panic!("not a timer: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn cancelling_a_timer_deletes_it() {
        let t0 = Instant::now();
        let ms = StdDuration::from_millis;
        let mut queue = RouterQueue::default();
        // Set then cancel: it never fires.
        queue.push(t0 + ms(5), S1, timer(1));
        queue.cancel(S1, TimerToken(1));
        assert!(fire(&mut queue, t0 + ms(10)).is_empty());
        // A cancel that arrives after the firing is forgotten: the
        // same token, re-armed, fires exactly once.
        queue.push(t0 + ms(5), S1, timer(2));
        assert_eq!(fire(&mut queue, t0 + ms(5)), [2]);
        queue.cancel(S1, TimerToken(2));
        queue.push(t0 + ms(6), S1, timer(2));
        assert_eq!(fire(&mut queue, t0 + ms(10)), [2]);
        assert!(fire(&mut queue, t0 + ms(10)).is_empty());
        // Re-arming a live timer replaces it, and another site's
        // timer with the same token is a different timer.
        queue.push(t0 + ms(20), S1, timer(3));
        queue.push(t0 + ms(30), S1, timer(3));
        queue.push(t0 + ms(25), SiteId(2), timer(3));
        assert_eq!(fire(&mut queue, t0 + ms(29)), [3], "site 2's only");
        assert_eq!(queue.next_due(), Some(t0 + ms(30)));
        assert_eq!(fire(&mut queue, t0 + ms(30)), [3]);
        // Deliveries come out in (due, arrival) order.
        for token in [7, 8, 9] {
            queue.push(t0 + ms(40), S1, timer(token));
        }
        queue.push(t0 + ms(35), S1, timer(6));
        assert_eq!(fire(&mut queue, t0 + ms(40)), [6, 7, 8, 9]);
        assert!(queue.due.is_empty() && queue.timers.is_empty());
    }

    /// The router thread sleeps until the head of the queue is due, so
    /// it needs waking only when an edit moves the head earlier.
    #[test]
    fn only_an_earlier_head_wakes_the_router() {
        let t0 = Instant::now();
        let ms = StdDuration::from_millis;
        let mut queue = RouterQueue::default();
        assert!(queue.push(t0 + ms(50), S1, timer(1)), "first entry");
        assert!(!queue.push(t0 + ms(60), S1, timer(2)), "later than head");
        assert!(!queue.push(t0 + ms(50), S1, timer(3)), "same instant");
        assert!(queue.push(t0 + ms(40), S1, timer(4)), "earlier than head");
        // Re-arming the head later moves the head later: no wake. The
        // router gets up at the old time, finds nothing, sleeps again.
        assert!(!queue.push(t0 + ms(70), S1, timer(4)));
        assert_eq!(queue.next_due(), Some(t0 + ms(50)));
        // A cancel has nothing to say: removing an entry can only move
        // the head later. Cancelling the head leaves the next one due.
        queue.cancel(S1, TimerToken(1));
        assert_eq!(queue.next_due(), Some(t0 + ms(50)), "timer 3");
        queue.cancel(S1, TimerToken(3));
        assert_eq!(queue.next_due(), Some(t0 + ms(60)));
        assert_eq!(fire(&mut queue, t0 + ms(100)), [2, 4]);
    }

    /// The leak this structure replaced: cancelled timers used to sit
    /// in the router until their nominal expiry. The queue is edited in
    /// place, so 10 000 set + cancel pairs leave nothing pending the
    /// moment they are applied, and none of it reaches the router
    /// thread.
    #[test]
    fn cancelled_timers_leave_the_router_empty() {
        let cluster = Cluster::new(1, RtConfig::default());
        let site = cluster.inner.sites[&S1].clone();
        let after = camelot_types::Duration::from_millis(10_000);
        let set = |token| Action::SetTimer { token, after };
        let cancel = |token| Action::CancelTimer { token };
        let pairs = (0..10_000u64)
            .map(|i| TimerToken(1 << 40 | i))
            .flat_map(|token| [set(token), cancel(token)])
            .collect();
        cluster.inner.apply_actions(&site, pairs);
        assert_eq!(cluster.stats().router_pending, 0);
        let live = [TimerToken(1 << 41), TimerToken(1 << 41 | 1)];
        cluster.inner.apply_actions(&site, live.map(set).to_vec());
        assert_eq!(cluster.stats().router_pending, 2);
        cluster
            .inner
            .apply_actions(&site, live.map(cancel).to_vec());
        let stats = cluster.stats();
        assert_eq!((stats.router_pending, stats.router_delivered), (0, 0));
        cluster.shutdown();
    }

    /// A subordinate's orphan watchdog used to outlive its family by
    /// `orphan_check_interval`: two timers per three-site commit, in
    /// the engine's table and the router's set, for ten seconds each.
    /// It is retired when the family leaves `Executing`, so a quiet
    /// cluster holds no timer at all.
    #[test]
    fn orphan_watchdogs_are_retired_with_their_families() {
        let cfg = RtConfig {
            datagram_delay: StdDuration::ZERO,
            platter_delay: StdDuration::ZERO,
            ..RtConfig::default()
        };
        let cluster = Cluster::new(3, cfg);
        let sites = [S1, SiteId(2), SiteId(3)];
        let client = cluster.client(S1);
        for i in 0..50u64 {
            let mode = if i % 2 == 0 {
                camelot_core::CommitMode::TwoPhase
            } else {
                camelot_core::CommitMode::NonBlocking
            };
            let tid = client.begin().unwrap();
            for site in sites {
                let (srv, obj) = (ServerId(1), camelot_types::ObjectId(i));
                client.write(&tid, site, srv, obj, vec![1]).unwrap();
            }
            client.commit(&tid, mode).unwrap();
        }
        // A relayed abort takes the other way out of `Executing`.
        let tid = client.begin().unwrap();
        for site in sites {
            let (srv, obj) = (ServerId(1), camelot_types::ObjectId(99));
            client.write(&tid, site, srv, obj, vec![1]).unwrap();
        }
        client.abort(&tid).unwrap();
        let armed = || -> usize {
            let shards = cluster.inner.sites.values().flat_map(|s| s.shards.iter());
            shards.map(|shard| shard.lock().armed_timers()).sum()
        };
        let deadline = Instant::now() + StdDuration::from_secs(5);
        loop {
            let stats = cluster.stats();
            let live: usize = stats.sites.iter().map(|s| s.live_families).sum();
            if live == 0 && armed() == 0 && stats.router_pending == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{live} families live, {} timers armed, {} deliveries pending",
                armed(),
                stats.router_pending
            );
            std::thread::sleep(StdDuration::from_millis(2));
        }
        cluster.shutdown();
    }
}
