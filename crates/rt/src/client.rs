//! Synchronous client handles: the "application process" view of
//! Camelot (Figure 1).

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use camelot_core::{Action, CommitMode, ExecMode, Input, TwoPhaseVariant};
use camelot_net::Outcome;
use camelot_obs::{AuditProtocol, Phase};
use camelot_server::Request;
use camelot_types::{AbortReason, CamelotError, FamilyId, ObjectId, Result, ServerId, SiteId, Tid};

use crate::cluster::{reply_req, ClusterInner};
use crate::queue::{queue_shard_of, QueueJob};

/// How many times an operation that found its target site down is
/// tried again before [`CamelotError::SiteDown`] surfaces: a briefly
/// crashed site gets time to restart instead of failing the
/// transaction outright.
const OP_RETRIES: u32 = 2;
/// Pause before the first retry; doubles each attempt, plus jitter.
const OP_RETRY_BASE: std::time::Duration = std::time::Duration::from_millis(10);

/// A client application homed at one site.
pub struct Client {
    inner: Arc<ClusterInner>,
    home: SiteId,
    /// Families this client has successfully written under — enough
    /// to derive, at commit time, which protocol the paper's Tables
    /// 1–3 would charge (read-only vs update, standard vs delayed),
    /// keying the per-protocol phase histograms.
    wrote: Mutex<HashSet<FamilyId>>,
}

impl Client {
    pub(crate) fn new(inner: Arc<ClusterInner>, home: SiteId) -> Client {
        Client {
            inner,
            home,
            wrote: Mutex::new(HashSet::new()),
        }
    }

    pub fn home(&self) -> SiteId {
        self.home
    }

    /// Records a successful application call's latency into the home
    /// site's phase histograms (§4.1's per-operation breakdown).
    fn note_phase(&self, phase: Phase, started: Instant) {
        let site = self.inner.sites.get(&self.home).expect("home exists");
        site.hist.record(phase, started.elapsed());
    }

    /// `begin-transaction`: returns the new top-level transaction
    /// identifier.
    pub fn begin(&self) -> Result<Tid> {
        let started = Instant::now();
        match self.tm_call(None, |req| Input::Begin { req })? {
            Action::Began { tid, .. } => {
                self.note_phase(Phase::BeginCall, started);
                Ok(tid)
            }
            Action::Rejected { tid, detail, .. } => Err(CamelotError::BadState { tid, detail }),
            other => Err(CamelotError::Internal(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    /// Begins a nested transaction under `parent`.
    pub fn begin_nested(&self, parent: &Tid) -> Result<Tid> {
        let parent = parent.clone();
        match self.tm_call(Some(parent.clone()), move |req| Input::BeginNested {
            req,
            parent,
        })? {
            Action::Began { tid, .. } => Ok(tid),
            Action::Rejected { tid, detail, .. } => Err(CamelotError::BadState { tid, detail }),
            other => Err(CamelotError::Internal(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    /// Reads an object at `(site, server)` under `tid`.
    pub fn read(
        &self,
        tid: &Tid,
        site: SiteId,
        server: ServerId,
        obj: ObjectId,
    ) -> Result<Vec<u8>> {
        self.operation(tid, site, server, |req, tid| Request::Read {
            req,
            tid,
            object: obj,
        })
    }

    /// Writes an object at `(site, server)` under `tid`.
    pub fn write(
        &self,
        tid: &Tid,
        site: SiteId,
        server: ServerId,
        obj: ObjectId,
        value: Vec<u8>,
    ) -> Result<Vec<u8>> {
        let out = self.operation(tid, site, server, move |req, tid| Request::Write {
            req,
            tid,
            object: obj,
            value: value.clone(),
        });
        if out.is_ok() {
            self.wrote.lock().insert(tid.family);
        }
        out
    }

    /// `commit-transaction`. The protocol (two-phase or non-blocking)
    /// is an argument, as in Camelot.
    pub fn commit(&self, tid: &Tid, mode: CommitMode) -> Result<Outcome> {
        self.commit_with(tid, mode, Vec::new())
    }

    /// [`Client::commit`] with an explicit list of extra participant
    /// sites, merged with whatever the home communication manager
    /// spied. In-process clients never need it — every operation flows
    /// through the home CornMan, which learns the spread itself. In a
    /// multi-process deployment the driving application talks to each
    /// site process directly, so the home CornMan never sees the
    /// remote operations and the application must declare where the
    /// transaction spread — the paper's "the application knows its
    /// servers" assumption made explicit.
    pub fn commit_with(
        &self,
        tid: &Tid,
        mode: CommitMode,
        extra_participants: Vec<SiteId>,
    ) -> Result<Outcome> {
        let started = Instant::now();
        let wrote = self.wrote.lock().remove(&tid.family);
        let participants = self.merged_participants(tid, extra_participants);
        let t = tid.clone();
        let reply = self.tm_call(Some(tid.clone()), move |req| Input::CommitTop {
            req,
            tid: t,
            mode,
            participants,
        })?;
        let out = match reply {
            Action::Resolved { outcome, .. } => Ok(outcome),
            Action::Rejected { tid, detail, .. } => Err(CamelotError::BadState { tid, detail }),
            other => Err(CamelotError::Internal(format!(
                "unexpected reply {other:?}"
            ))),
        };
        if out.is_ok() {
            let phase = match mode {
                CommitMode::TwoPhase => Phase::Commit2pc,
                CommitMode::NonBlocking => Phase::CommitNb,
            };
            self.note_phase(phase, started);
            let site = self.inner.sites.get(&self.home).expect("home exists");
            // The same latency, keyed by the protocol the transaction
            // actually ran (Tables 1–3's row): read-only vs update,
            // and for 2PC updates standard vs delayed-commit.
            site.proto_hist
                .record(self.protocol_of(mode, wrote), phase, started.elapsed());
            site.comman.lock().forget(&tid.family);
        }
        out
    }

    /// Which audited protocol a commit ran, from the commit mode, the
    /// engine's 2PC variant and whether this client wrote under the
    /// family.
    fn protocol_of(&self, mode: CommitMode, wrote: bool) -> AuditProtocol {
        match (mode, wrote) {
            (CommitMode::NonBlocking, true) => AuditProtocol::NonBlocking,
            (CommitMode::NonBlocking, false) => AuditProtocol::NonBlockingRead,
            (CommitMode::TwoPhase, false) => AuditProtocol::ReadOnly,
            (CommitMode::TwoPhase, true) => match self.inner.cfg.engine.variant {
                TwoPhaseVariant::Optimized => AuditProtocol::TwoPhaseDelayed,
                _ => AuditProtocol::TwoPhaseStandard,
            },
        }
    }

    /// Commits a nested transaction.
    pub fn commit_nested(&self, tid: &Tid) -> Result<()> {
        let participants = {
            let site = self.inner.sites.get(&self.home).expect("home exists");
            site.comman.lock().participants(&tid.family)
        };
        let t = tid.clone();
        match self.tm_call(Some(tid.clone()), move |req| Input::CommitNested {
            req,
            tid: t,
            participants,
        })? {
            Action::Resolved { .. } => Ok(()),
            Action::Rejected { tid, detail, .. } => Err(CamelotError::BadState { tid, detail }),
            other => Err(CamelotError::Internal(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    /// `abort-transaction` (top-level or nested).
    pub fn abort(&self, tid: &Tid) -> Result<()> {
        self.abort_with(tid, Vec::new())
    }

    /// [`Client::abort`] with explicitly declared extra participants —
    /// the multi-process counterpart, mirroring
    /// [`Client::commit_with`].
    pub fn abort_with(&self, tid: &Tid, extra_participants: Vec<SiteId>) -> Result<()> {
        if tid.is_top_level() {
            self.wrote.lock().remove(&tid.family);
        }
        let participants = self.merged_participants(tid, extra_participants);
        let t = tid.clone();
        match self.tm_call(Some(tid.clone()), move |req| Input::AbortTx {
            req,
            tid: t,
            reason: AbortReason::Application,
            participants,
        })? {
            Action::Resolved { .. } => Ok(()),
            Action::Rejected { tid, detail, .. } => Err(CamelotError::BadState { tid, detail }),
            other => Err(CamelotError::Internal(format!(
                "unexpected reply {other:?}"
            ))),
        }
    }

    // -----------------------------------------------------------------

    /// Union of the home CornMan's spied participants and the
    /// caller-declared extras, minus the home site itself (the
    /// coordinator is never its own subordinate), deduplicated and
    /// ordered.
    fn merged_participants(&self, tid: &Tid, extra: Vec<SiteId>) -> Vec<SiteId> {
        let mut participants = {
            let site = self.inner.sites.get(&self.home).expect("home exists");
            site.comman.lock().participants(&tid.family)
        };
        participants.extend(extra);
        participants.retain(|s| *s != self.home);
        participants.sort();
        participants.dedup();
        participants
    }

    /// One synchronous call into the home TranMan, run on the calling
    /// thread (as the real TranMan's RPC stub runs in the caller's
    /// thread of control): the engine step, its actions, and whatever
    /// local work they produce. A reply produced along the way is
    /// handed straight back; only a call the engine leaves pending — a
    /// force, remote votes — parks a completion at the home site for
    /// the thread that finishes it — a worker (which may have led the
    /// force itself), or this thread again when it leads its own commit
    /// force. A reply that cannot arrive, because the home site died
    /// under the call (on this thread or any other), or that does not
    /// arrive within `call_timeout`, surfaces as the typed
    /// [`CamelotError::Timeout`] carrying `tid`: the outcome is
    /// *unknown* (the engine may still resolve the transaction later),
    /// which is a different situation from [`CamelotError::SiteDown`],
    /// where the call provably never started. The crash wakes the
    /// caller at once: `kill` drops every completion parked at the
    /// site.
    fn tm_call(&self, tid: Option<Tid>, make: impl FnOnce(u64) -> Input) -> Result<Action> {
        let site = self.inner.sites.get(&self.home).expect("home exists");
        let req = self.inner.alloc_req();
        let mut parked = None;
        let actions = self.inner.handle_then(site, make(req), |actions| {
            // Still under the shard lock: if the engine kept the call
            // pending, no other thread can have answered it yet, so a
            // completion parked now cannot miss its reply.
            if !actions.iter().any(|a| reply_req(a) == Some(req)) {
                parked = Some(site.pending.park(req, &site.alive));
            }
        });
        match (self.inner.apply_for(site, actions, Some(req)), parked) {
            (Some(reply), parked) => {
                if parked.is_some() {
                    site.pending.cancel(req);
                }
                Ok(reply)
            }
            (None, Some(rx)) => rx.recv_timeout(self.inner.cfg.call_timeout).map_err(|_| {
                site.pending.cancel(req);
                CamelotError::Timeout { tid }
            }),
            // The engine never saw the call: the site was down.
            (None, None) => Err(CamelotError::SiteDown(self.home)),
        }
    }

    /// A data-server operation, with bounded retry: if the target site
    /// is down the call backs off (exponentially, with deterministic
    /// jitter) and tries again up to `OP_RETRIES` times — a briefly
    /// crashed site may come back — before surfacing
    /// [`CamelotError::SiteDown`]. Lock-wait and reply timeouts are
    /// never retried: the operation may have taken effect.
    fn operation(
        &self,
        tid: &Tid,
        site_id: SiteId,
        server: ServerId,
        make: impl Fn(u64, Tid) -> Request,
    ) -> Result<Vec<u8>> {
        if !self.inner.sites.contains_key(&site_id) {
            return Err(CamelotError::SiteDown(site_id));
        }
        let started = Instant::now();
        let mut attempt = 0u32;
        loop {
            match self.operation_once(tid, site_id, server, &make) {
                Err(CamelotError::SiteDown(s)) if attempt < OP_RETRIES => {
                    attempt += 1;
                    std::thread::sleep(self.retry_pause(s, attempt));
                }
                other => {
                    if other.is_ok() {
                        self.note_phase(Phase::OpCall, started);
                    }
                    return other;
                }
            }
        }
    }

    /// Backoff before retry `attempt` (1-based): base × 2^(attempt-1)
    /// plus up to +25% jitter, deterministic in (home, target, attempt)
    /// so colliding clients desynchronise without nondeterminism.
    fn retry_pause(&self, target: SiteId, attempt: u32) -> std::time::Duration {
        let backed = OP_RETRY_BASE * (1u32 << (attempt - 1).min(10));
        let mut h = ((self.home.0 as u64) << 32 | target.0 as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(attempt as u64);
        h ^= h >> 29;
        let quarter = (backed.as_nanos() as u64) / 4;
        backed + std::time::Duration::from_nanos(if quarter > 0 { h % quarter } else { 0 })
    }

    fn operation_once(
        &self,
        tid: &Tid,
        site_id: SiteId,
        server: ServerId,
        make: impl Fn(u64, Tid) -> Request,
    ) -> Result<Vec<u8>> {
        let req = self.inner.alloc_req();
        // Remote spread tracking (the CornMan spying of §3.1).
        if site_id != self.home {
            let home = self.inner.sites.get(&self.home).expect("home exists");
            home.comman.lock().note_outgoing(tid.family, site_id);
        }
        let site = self
            .inner
            .sites
            .get(&site_id)
            .ok_or(CamelotError::SiteDown(site_id))?;
        if !site.alive.load(std::sync::atomic::Ordering::SeqCst) {
            return Err(CamelotError::SiteDown(site_id));
        }
        let Some(data_server) = site.servers.get(&server) else {
            return Err(CamelotError::UnknownService(format!("{server}")));
        };
        // The reply, if this thread produces it; otherwise the
        // completion parked for the thread that will.
        let (mut reply, mut parked) = (None, None);
        if self.inner.cfg.exec_mode == ExecMode::Queued && !site.queue_txs.is_empty() {
            // Queued execution: route to the owning shard's FIFO; the
            // shard-owner worker executes speculatively and completes
            // the pending op. No lock table, no server mutex.
            let request = make(req, tid.clone());
            let object = match &request {
                Request::Read { object, .. } | Request::Write { object, .. } => *object,
            };
            let tx = &site.queue_txs[queue_shard_of(object, site.queue_txs.len())];
            // Instantaneous backlog of the chosen shard (a count, not
            // a latency — see [`Phase::QueueDepth`]).
            site.hist.record_us(Phase::QueueDepth, tx.len() as u64);
            let job = QueueJob::Op {
                server,
                request,
                incarnation: site.incarnation.load(Ordering::SeqCst),
                enqueued: Instant::now(),
            };
            parked = Some(site.pending_ops.park(req, &site.alive));
            if tx.send(job).is_err() {
                site.pending_ops.cancel(req);
                return Err(CamelotError::SiteDown(site_id));
            }
        } else {
            let mut fx = {
                let mut data_server = data_server.lock();
                let fx = data_server.handle(make(req, tid.clone()));
                // A blocked operation is answered by whichever thread
                // releases the lock, under this same server mutex:
                // parked before unlocking, it cannot miss that reply.
                if fx.blocked {
                    parked = Some(site.pending_ops.park(req, &site.alive));
                }
                fx
            };
            let deadlock = fx.deadlock;
            if let Some(mine) = fx.replies.iter().position(|r| r.req == req) {
                reply = Some(fx.replies.swap_remove(mine));
            }
            self.inner.route_server_effects(site, server, fx);
            if deadlock {
                // Deadlock-avoidance denied the operation (this caller
                // is the victim): fail fast instead of waiting out the
                // call timeout, so the application aborts and its peer
                // runs.
                return Err(CamelotError::LockTimeout);
            }
        }
        // Merge the reply stamp at home (transitive spread).
        if site_id != self.home {
            let stamp = site.comman.lock().reply_stamp(&tid.family);
            let home = self.inner.sites.get(&self.home).expect("home exists");
            home.comman.lock().merge_reply_stamp(tid.family, &stamp);
        }
        let reply = match reply {
            Some(reply) => reply,
            None => parked
                .and_then(|rx| rx.recv_timeout(self.inner.cfg.call_timeout).ok())
                .ok_or_else(|| {
                    site.pending_ops.cancel(req);
                    // The operation was accepted but its reply never
                    // came — a lock wait that outlived the call
                    // timeout, or the site crashed under it (which
                    // wakes the wait at once). The outcome is unknown;
                    // the typed error names the transaction so the
                    // application can abort it.
                    CamelotError::Timeout {
                        tid: Some(tid.clone()),
                    }
                })?,
        };
        Ok(reply.value)
    }
}
