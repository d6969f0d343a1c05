//! The transaction-manager engine: state, dispatch, and the calls
//! common to both commitment protocols (begin, join, nested
//! transactions, the abort protocol, piggyback queues).
//!
//! Protocol-specific handling lives in [`crate::twophase`] and
//! [`crate::nonblocking`]; restart recovery in [`crate::recovery`].

use std::collections::HashMap;

use camelot_net::{Outcome, TmMessage, Vote};
use camelot_obs::{TraceEventKind, Tracer};
use camelot_types::{AbortReason, Duration, FamilyId, ServerId, SiteId, Tid, Time};
use camelot_wal::record::QuorumKind;
use camelot_wal::LogRecord;

use crate::config::{CommitMode, EngineConfig, TwoPhaseVariant};
use crate::family::{Announcing, Family, FamilyView, Role, SubPhase, TallyStep, TxnStatus};
use crate::io::{Action, ForceToken, Input, TimerToken};

/// Multiplier applied to a retry interval on each successive re-send
/// of the same protocol datagram (inquiries, commit-notice resends,
/// takeover retries); see [`Engine::retry_after`].
const RETRY_BACKOFF: u32 = 2;

/// Which protocol step issued a force/append-notify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ForceKind {
    CoordCommit,
    SubPrepared,
    SubCommit,
    SubCommitLazy,
    NbBegin,
    NbSubPrepared,
    NbSubReplicate,
    NbCoordCommit,
    NbSubOutcomeLazy,
    NbSubAbortJoin,
    TkCommit,
    TkAbortJoin,
}

/// Why a force/append-notify was issued; routes the completion input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ForcePurpose {
    pub kind: ForceKind,
    pub family: FamilyId,
}

impl ForceKind {
    /// True for append-without-force purposes — the delayed-commit
    /// optimization's lazy records.
    pub(crate) fn is_lazy(self) -> bool {
        matches!(self, ForceKind::SubCommitLazy | ForceKind::NbSubOutcomeLazy)
    }

    /// Stable name for trace events.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ForceKind::CoordCommit => "CoordCommit",
            ForceKind::SubPrepared => "SubPrepared",
            ForceKind::SubCommit => "SubCommit",
            ForceKind::SubCommitLazy => "SubCommitLazy",
            ForceKind::NbBegin => "NbBegin",
            ForceKind::NbSubPrepared => "NbSubPrepared",
            ForceKind::NbSubReplicate => "NbSubReplicate",
            ForceKind::NbCoordCommit => "NbCoordCommit",
            ForceKind::NbSubOutcomeLazy => "NbSubOutcomeLazy",
            ForceKind::NbSubAbortJoin => "NbSubAbortJoin",
            ForceKind::TkCommit => "TkCommit",
            ForceKind::TkAbortJoin => "TkAbortJoin",
        }
    }
}

/// Which watchdog of a family's commitment a timer is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerKind {
    VoteTimeout,
    Inquiry,
    NotifyResend,
    /// Watchdog for the non-blocking replication phase: re-send
    /// `NbReplicate` to targets whose ack is missing.
    ReplicateResend,
    NbOutcome,
    TakeoverWindow,
    RecruitWindow,
    TakeoverRetry,
    /// Watchdog for a remote-origin family still executing: the abort
    /// relay that should have reached us may have been lost.
    OrphanCheck,
}

/// Why a timer was set; routes the firing input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerPurpose {
    Family(TimerKind, FamilyId),
    AckFlush(SiteId),
}

/// Counters the experiments read off the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Top-level transactions begun here.
    pub begins: u64,
    /// Nested transactions begun here.
    pub nested_begins: u64,
    /// Commits resolved here as coordinator (either protocol).
    pub commits: u64,
    /// Of those, commits that needed no log write at all (read-only
    /// optimization).
    pub read_only_commits: u64,
    /// Aborts resolved here.
    pub aborts: u64,
    /// Log forces issued (`Action::Force`).
    pub forces: u64,
    /// Lazy appends issued (`Action::AppendNotify`) — each is a force
    /// the delayed-commit optimization avoided.
    pub lazy_appends: u64,
    /// Datagrams sent (`Action::Send`, plus broadcast fan-out).
    pub datagrams: u64,
    /// Messages that travelled piggybacked instead of alone.
    pub piggybacked: u64,
    /// Takeovers started (non-blocking termination).
    pub takeovers: u64,
    /// Times a takeover found itself blocked.
    pub blocked: u64,
}

/// Stable outcome name for trace events.
pub(crate) fn outcome_name(outcome: Outcome) -> &'static str {
    match outcome {
        Outcome::Committed => "Committed",
        Outcome::Aborted => "Aborted",
    }
}

/// Which of `of` engine shards owns `family` at `site`.
///
/// Locally originated families are strided over the shards by their
/// sequence number (each shard allocates sequence numbers in its own
/// residue class, see [`Engine::sharded`]), so the owner can be read
/// straight off the id. Remote-origin families — first seen when a
/// server joins on behalf of a remote transaction or when a prepare
/// arrives — are assigned by a deterministic hash: any fixed function
/// works, because the family's state is created on first touch at
/// whichever shard the function names.
pub fn shard_of_family(site: SiteId, family: &FamilyId, of: usize) -> usize {
    if of <= 1 {
        return 0;
    }
    if family.origin == site {
        ((family.seq.wrapping_sub(1)) % of as u64) as usize
    } else {
        let mut h = (family.origin.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= family.seq.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        h ^= h >> 29;
        (h % of as u64) as usize
    }
}

/// Which of `of` engine shards issued this force/timer token. Tokens
/// are strided like family sequence numbers, so a completion input can
/// be routed without any shared lookup table.
pub fn shard_of_token(token: u64, of: usize) -> usize {
    if of <= 1 {
        0
    } else {
        ((token.wrapping_sub(1)) % of as u64) as usize
    }
}

/// The Camelot transaction manager for one site, sans-io.
pub struct Engine {
    pub(crate) site: SiteId,
    pub(crate) config: EngineConfig,
    next_family_seq: u64,
    /// This engine's shard index and the total shard count (1 = the
    /// whole site). Family sequence numbers and force/timer tokens are
    /// allocated `shard + 1, shard + 1 + stride, ...` so the id spaces
    /// of co-sited shards never collide and ownership is computable
    /// from the id alone ([`shard_of_family`], [`shard_of_token`]).
    shard: u64,
    shard_stride: u64,
    pub(crate) families: HashMap<FamilyId, Family>,
    pub(crate) forces: HashMap<ForceToken, ForcePurpose>,
    pub(crate) timers: HashMap<TimerToken, TimerPurpose>,
    next_token: u64,
    /// Queued piggybackable messages per destination.
    pending_acks: HashMap<SiteId, Vec<TmMessage>>,
    ack_flush_timer: HashMap<SiteId, TimerToken>,
    pub(crate) stats: EngineStats,
    /// Trace emission handle; disabled (no-op) unless the runtime
    /// attaches a ring via [`Engine::set_tracer`].
    pub(crate) tracer: Tracer,
}

impl Engine {
    /// Creates an engine for `site`.
    pub fn new(site: SiteId, config: EngineConfig) -> Self {
        Engine::sharded(site, config, 0, 1)
    }

    /// Creates shard `shard` of `of` co-sited engine shards. Each
    /// shard owns a disjoint slice of the site's transaction families
    /// (routing per [`shard_of_family`]) and allocates family sequence
    /// numbers and tokens in its own residue class, so shards never
    /// contend and their ids never collide.
    pub fn sharded(site: SiteId, config: EngineConfig, shard: u32, of: u32) -> Self {
        assert!(of >= 1 && shard < of, "shard {shard} out of range 0..{of}");
        Engine {
            site,
            config,
            next_family_seq: shard as u64 + 1,
            shard: shard as u64,
            shard_stride: of as u64,
            families: HashMap::new(),
            forces: HashMap::new(),
            timers: HashMap::new(),
            next_token: shard as u64 + 1,
            pending_acks: HashMap::new(),
            ack_flush_timer: HashMap::new(),
            stats: EngineStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a trace ring: every protocol step this engine takes is
    /// recorded into it from now on. The default tracer is a no-op.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// This engine's site.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Snapshot of a family's state at this site, if it exists.
    pub fn family_view(&self, id: &FamilyId) -> Option<FamilyView> {
        self.families.get(id).map(|f| f.view())
    }

    /// Number of live family descriptors.
    pub fn live_families(&self) -> usize {
        self.families.len()
    }

    /// Ids of the live family descriptors, sorted (diagnostics, leak
    /// checks).
    pub fn family_ids(&self) -> Vec<FamilyId> {
        let mut ids: Vec<FamilyId> = self.families.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Timers armed and not yet fired or cancelled (leak checks).
    pub fn armed_timers(&self) -> usize {
        self.timers.len()
    }

    /// The sequence number this shard's next family gets. A
    /// checkpoint records the maximum over the site's shards, so a
    /// restart from a truncated log never reuses a family id.
    pub fn next_family_seq(&self) -> u64 {
        self.next_family_seq
    }

    /// Raises the family sequence counter (recovery: never reuse a
    /// sequence number that may appear in the durable log), keeping it
    /// in this shard's residue class.
    pub(crate) fn bump_family_seq(&mut self, at_least: u64) {
        let mut v = self.next_family_seq.max(at_least);
        let rem = (v - 1) % self.shard_stride;
        v += (self.shard + self.shard_stride - rem) % self.shard_stride;
        self.next_family_seq = v;
    }

    // -----------------------------------------------------------------
    // Token and messaging helpers (shared with protocol modules)
    // -----------------------------------------------------------------

    pub(crate) fn alloc_force(&mut self, p: ForcePurpose) -> ForceToken {
        let t = ForceToken(self.next_token);
        self.next_token += self.shard_stride;
        self.tracer.family(
            p.family,
            TraceEventKind::LogEnqueue {
                purpose: p.kind.name(),
                lazy: p.kind.is_lazy(),
            },
        );
        self.forces.insert(t, p);
        t
    }

    /// Forces `rec`; its completion comes back as `kind` for `family`.
    pub(crate) fn force(
        &mut self,
        out: &mut Vec<Action>,
        kind: ForceKind,
        family: FamilyId,
        rec: LogRecord,
    ) {
        let token = self.alloc_force(ForcePurpose { kind, family });
        self.stats.forces += 1;
        out.push(Action::Force { rec, token });
    }

    /// Appends `rec` without forcing it — a force the delayed-commit
    /// optimization avoids; `kind` comes back once it is durable.
    pub(crate) fn append_lazy(
        &mut self,
        out: &mut Vec<Action>,
        kind: ForceKind,
        family: FamilyId,
        rec: LogRecord,
    ) {
        let token = self.alloc_force(ForcePurpose { kind, family });
        self.stats.lazy_appends += 1;
        out.push(Action::AppendNotify { rec, token });
    }

    pub(crate) fn alloc_timer(&mut self, p: TimerPurpose) -> TimerToken {
        let t = TimerToken(self.next_token);
        self.next_token += self.shard_stride;
        self.timers.insert(t, p);
        t
    }

    /// Arms `family`'s timer, replacing the one it held, for the
    /// `attempt`-th firing of a schedule based on `base`.
    pub(crate) fn arm_attempt(
        &mut self,
        out: &mut Vec<Action>,
        kind: TimerKind,
        family: FamilyId,
        base: Duration,
        attempt: u32,
    ) {
        self.disarm(out, family);
        let token = self.alloc_timer(TimerPurpose::Family(kind, family));
        if let Some(fam) = self.families.get_mut(&family) {
            fam.retry_attempts = attempt;
            fam.timer = Some(token);
        }
        let after = self.retry_after(&family, base, attempt);
        out.push(Action::SetTimer { token, after });
    }

    /// Arms `family`'s timer to fire `after` from now, starting a
    /// fresh retry schedule.
    pub(crate) fn arm(
        &mut self,
        out: &mut Vec<Action>,
        kind: TimerKind,
        family: FamilyId,
        after: Duration,
    ) {
        self.arm_attempt(out, kind, family, after, 0);
    }

    /// Re-arms a periodic timer that just fired, one step further
    /// along the backoff schedule over `base`.
    pub(crate) fn rearm_with_backoff(
        &mut self,
        out: &mut Vec<Action>,
        kind: TimerKind,
        family: FamilyId,
        base: Duration,
    ) {
        let attempt = self.families.get(&family).map_or(0, |f| f.retry_attempts) + 1;
        self.arm_attempt(out, kind, family, base, attempt);
    }

    /// Cancels `family`'s timer, unless it has already fired.
    pub(crate) fn disarm(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let timer = self.families.get_mut(&family).and_then(|f| f.timer.take());
        if let Some(token) = timer.filter(|t| self.timers.remove(t).is_some()) {
            out.push(Action::CancelTimer { token });
        }
    }

    /// Emits a datagram, attaching any queued piggybackable messages
    /// for the same destination.
    pub(crate) fn send(&mut self, out: &mut Vec<Action>, to: SiteId, msg: TmMessage) {
        let piggyback = self.pending_acks.remove(&to).unwrap_or_default();
        self.send_with(out, to, msg, piggyback);
    }

    fn send_with(
        &mut self,
        out: &mut Vec<Action>,
        to: SiteId,
        msg: TmMessage,
        piggyback: Vec<TmMessage>,
    ) {
        self.stats.datagrams += 1;
        self.stats.piggybacked += piggyback.len() as u64;
        self.tracer.family(
            msg.tid().family,
            TraceEventKind::DatagramSend {
                to,
                msg: msg.kind_name(),
                piggyback: piggyback.len() as u32,
            },
        );
        for rider in &piggyback {
            self.tracer.family(
                rider.tid().family,
                TraceEventKind::Piggybacked {
                    to,
                    msg: rider.kind_name(),
                },
            );
        }
        out.push(Action::Send { to, msg, piggyback });
    }

    /// Emits one message to many sites (the runtime chooses multicast
    /// or sequential unicast).
    pub(crate) fn broadcast(&mut self, out: &mut Vec<Action>, to: Vec<SiteId>, msg: TmMessage) {
        if to.is_empty() {
            return;
        }
        if to.len() == 1 {
            self.send(out, to[0], msg);
            return;
        }
        self.stats.datagrams += to.len() as u64;
        for dest in &to {
            self.tracer.family(
                msg.tid().family,
                TraceEventKind::DatagramSend {
                    to: *dest,
                    msg: msg.kind_name(),
                    piggyback: 0,
                },
            );
        }
        out.push(Action::Broadcast { to, msg });
    }

    /// Queues an off-critical-path message for piggybacking, or sends
    /// it immediately under the unoptimized variant, which pays a
    /// datagram for every ack.
    pub(crate) fn queue_ack(&mut self, out: &mut Vec<Action>, to: SiteId, msg: TmMessage) {
        debug_assert!(msg.piggybackable());
        if self.config.variant == TwoPhaseVariant::Unoptimized {
            self.send(out, to, msg);
            return;
        }
        self.pending_acks.entry(to).or_default().push(msg);
        if !self.ack_flush_timer.contains_key(&to) {
            let t = self.alloc_timer(TimerPurpose::AckFlush(to));
            self.ack_flush_timer.insert(to, t);
            out.push(Action::SetTimer {
                token: t,
                after: self.config.ack_flush_interval,
            });
        }
    }

    /// Drops all per-family bookkeeping, the family's timer included.
    pub(crate) fn forget_family(&mut self, out: &mut Vec<Action>, id: &FamilyId) {
        self.disarm(out, *id);
        self.families.remove(id);
        self.forces.retain(|_, p| p.family != *id);
    }

    /// Backed-off interval for the `attempt`-th firing of a periodic
    /// protocol datagram. Attempt 0 (the initial arm) always uses
    /// `base` unchanged, so fixed-interval expectations in tests and
    /// traces hold until a retry actually happens. Later attempts grow
    /// exponentially by [`RETRY_BACKOFF`], capped at `retry_cap`, plus
    /// deterministic jitter (up to +25%) derived from the family id so
    /// retries started together de-synchronize without an RNG.
    pub(crate) fn retry_after(&self, family: &FamilyId, base: Duration, attempt: u32) -> Duration {
        if attempt == 0 {
            return base;
        }
        let factor = u64::from(RETRY_BACKOFF).saturating_pow(attempt.min(20));
        let backed = Duration(base.0.saturating_mul(factor)).min(self.config.retry_cap);
        let mut h = (family.origin.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= family.seq.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        h ^= u64::from(attempt).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 29;
        let jitter = backed.0 / 4;
        Duration(backed.0 + if jitter > 0 { h % jitter } else { 0 })
    }

    /// Counts and traces a family's final outcome (which lives in the
    /// family itself, see [`Family::outcome`]).
    pub(crate) fn record_resolution(&mut self, id: FamilyId, outcome: Outcome) {
        match outcome {
            Outcome::Committed => self.stats.commits += 1,
            Outcome::Aborted => self.stats.aborts += 1,
        }
        self.tracer.family(
            id,
            TraceEventKind::Decision {
                outcome: outcome_name(outcome),
            },
        );
    }

    /// What every resolution does at the site where it happens, short
    /// of booking it: answer the application's pending call (at its
    /// home site), write the abort record (aborts only; it is what
    /// recovery uses to keep the family's updates out of redo), and
    /// tell the local servers to commit or abort.
    pub(crate) fn settle_here(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        outcome: Outcome,
        reason: Option<AbortReason>,
    ) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        let servers: Vec<ServerId> = fam.servers.iter().copied().collect();
        let req = fam.commit_req.take();
        // A non-blocking subordinate acks once its lazy record is durable.
        let ack_waits = matches!(&fam.role, Role::SubNb(s) if s.phase == SubPhase::AwaitDurable);
        if outcome == Outcome::Aborted {
            fam.mark_subtree(&tid, TxnStatus::Aborted);
            let rec = LogRecord::Abort { tid: tid.clone() };
            match ack_waits {
                true => self.append_lazy(out, ForceKind::NbSubOutcomeLazy, family, rec),
                false => out.push(Action::Append { rec }),
            }
        }
        if let Some(req) = req {
            out.push(Action::Resolved {
                req,
                tid: tid.clone(),
                outcome,
                reason,
            });
        }
        if !servers.is_empty() {
            out.push(Action::ServerResolve {
                tid,
                servers,
                outcome,
            });
        }
    }

    /// A nested resolution at this site: marks `tid`'s subtree, writes
    /// the abort record (aborts only; recovery uses it to keep the
    /// subtree's updates out of redo if the family later commits), and
    /// tells the local servers. A remote `SubResolved` is just this.
    fn settle_subtree(&mut self, out: &mut Vec<Action>, tid: &Tid, outcome: Outcome) {
        let Some(fam) = self.families.get_mut(&tid.family) else {
            return;
        };
        fam.ensure_txn(tid);
        let status = match outcome {
            Outcome::Committed => TxnStatus::Committed,
            Outcome::Aborted => TxnStatus::Aborted,
        };
        fam.mark_subtree(tid, status);
        if outcome == Outcome::Aborted {
            out.push(Action::Append {
                rec: LogRecord::Abort { tid: tid.clone() },
            });
        }
        let servers: Vec<ServerId> = fam.servers.iter().copied().collect();
        if !servers.is_empty() {
            out.push(Action::ServerResolve {
                tid: tid.clone(),
                servers,
                outcome,
            });
        }
    }

    /// `CommitNested` and a nested `AbortTx`: the home site decides
    /// alone, settles the subtree, tells `participants` so that their
    /// servers settle it too, and answers the call.
    fn resolve_nested(
        &mut self,
        out: &mut Vec<Action>,
        req: u64,
        tid: Tid,
        outcome: Outcome,
        reason: Option<AbortReason>,
        participants: Vec<SiteId>,
    ) {
        let detail = match self.families.get(&tid.family) {
            None => "unknown family",
            Some(fam) if fam.effective_status(&tid) != Some(TxnStatus::Active) => {
                "transaction not active"
            }
            Some(_) => {
                self.settle_subtree(out, &tid, outcome);
                let msg = TmMessage::SubResolved {
                    tid: tid.clone(),
                    outcome,
                };
                self.broadcast(out, participants, msg);
                out.push(Action::Resolved {
                    req,
                    tid,
                    outcome,
                    reason,
                });
                return;
            }
        };
        out.push(Action::Rejected { req, tid, detail });
    }

    /// The epilogue of a resolution at this site: [`Engine::settle_here`]
    /// plus the booking of the outcome.
    pub(crate) fn resolve_here(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        outcome: Outcome,
        reason: Option<AbortReason>,
    ) {
        self.settle_here(out, family, outcome, reason);
        self.record_resolution(family, outcome);
    }

    /// Hands a decided family to the announcing role: tells
    /// `a.awaiting_acks` the outcome and keeps re-sending until every
    /// one of them acknowledges. With nobody to tell, the family ends
    /// at once.
    pub(crate) fn announce(&mut self, out: &mut Vec<Action>, family: FamilyId, a: Announcing) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        if a.awaiting_acks.is_empty() {
            return self.end_family(out, family, a.forget);
        }
        let msg = a.notice(fam.top_tid());
        let to = a.awaiting_acks.iter().copied().collect();
        fam.role = Role::Announcing(a);
        self.arm(
            out,
            TimerKind::NotifyResend,
            family,
            self.config.notify_resend_interval,
        );
        self.broadcast(out, to, msg);
    }

    /// Joins the non-blocking quorum of `kind`: writes its `NbQuorum`
    /// record — forced as `force`, or appended for the replication
    /// record's force to carry — and records the join on the family in
    /// the same step, for the append is the decision. Refuses, writing
    /// nothing, if the site already joined the other quorum (change 4).
    /// Every `NbQuorum` record is written here.
    pub(crate) fn join_quorum(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        kind: QuorumKind,
        force: Option<ForceKind>,
    ) -> bool {
        let Some(fam) = self.families.get_mut(&family) else {
            return false;
        };
        if fam.joined.is_some_and(|k| k != kind) {
            return false;
        }
        fam.joined = Some(kind);
        let rec = LogRecord::NbQuorum {
            tid: fam.top_tid(),
            kind,
        };
        match force {
            Some(force) => self.force(out, force, family, rec),
            None => out.push(Action::Append { rec }),
        }
        true
    }

    // -----------------------------------------------------------------
    // Dispatch
    // -----------------------------------------------------------------

    /// Consumes one input, returning the actions the runtime must
    /// perform. The engine never blocks; long-running work is split
    /// across force/timer completions. It never reads the clock
    /// either: `_now` is part of the hosts' calling convention and is
    /// not looked at — every delay the engine needs is a timer.
    pub fn handle(&mut self, input: Input, _now: Time) -> Vec<Action> {
        let mut out = Vec::new();
        match input {
            Input::Begin { req } => self.on_begin(&mut out, req),
            Input::BeginNested { req, parent } => self.on_begin_nested(&mut out, req, parent),
            Input::Join { tid, server } => self.on_join(&mut out, tid, server),
            Input::CommitTop {
                req,
                tid,
                mode,
                participants,
            } => self.commit_top(&mut out, req, tid, mode, participants),
            Input::CommitNested { req, tid, .. } if tid.is_top_level() => {
                out.push(Action::Rejected {
                    req,
                    tid,
                    detail: "top-level commit needs CommitTop",
                })
            }
            Input::CommitNested {
                req,
                tid,
                participants,
            } => self.resolve_nested(&mut out, req, tid, Outcome::Committed, None, participants),
            Input::AbortTx {
                req,
                tid,
                reason,
                participants,
            } => self.on_abort(&mut out, req, tid, reason, participants),
            Input::ServerVote { tid, server, vote } => {
                self.on_server_vote(&mut out, tid, server, vote)
            }
            Input::Datagram { from, msg } => self.on_datagram(&mut out, from, msg),
            Input::LogForced { token } | Input::LogDurable { token } => {
                self.on_log_done(&mut out, token)
            }
            Input::TimerFired { token } => self.on_timer(&mut out, token),
        }
        out
    }

    // -----------------------------------------------------------------
    // Application calls
    // -----------------------------------------------------------------

    fn on_begin(&mut self, out: &mut Vec<Action>, req: u64) {
        let id = FamilyId {
            origin: self.site,
            seq: self.next_family_seq,
        };
        self.next_family_seq += self.shard_stride;
        let fam = Family::new(id);
        let tid = fam.top_tid();
        self.families.insert(id, fam);
        self.stats.begins += 1;
        self.tracer.family(id, TraceEventKind::Begin);
        out.push(Action::Began { req, tid });
    }

    fn on_begin_nested(&mut self, out: &mut Vec<Action>, req: u64, parent: Tid) {
        let Some(fam) = self.families.get_mut(&parent.family) else {
            out.push(Action::Rejected {
                req,
                tid: parent,
                detail: "unknown family",
            });
            return;
        };
        if fam.committing() {
            out.push(Action::Rejected {
                req,
                tid: parent,
                detail: "commitment in progress",
            });
            return;
        }
        match fam.alloc_child(&parent) {
            Some(tid) => {
                self.stats.nested_begins += 1;
                self.tracer
                    .family(parent.family, TraceEventKind::BeginNested);
                out.push(Action::Began { req, tid });
            }
            None => out.push(Action::Rejected {
                req,
                tid: parent,
                detail: "parent not active",
            }),
        }
    }

    fn on_join(&mut self, out: &mut Vec<Action>, tid: Tid, server: ServerId) {
        let fam = self
            .families
            .entry(tid.family)
            .or_insert_with(|| Family::new(tid.family));
        fam.ensure_txn(&tid);
        // Not logged: recovery learns a family's servers from their
        // update records, and a server that only read has nothing to
        // recover.
        if fam.servers.insert(server) {
            self.tracer
                .family(tid.family, TraceEventKind::Join { server });
        }
        // A remote-origin family that only ever *executes* here is
        // invisible to the commitment protocols; if the origin aborts
        // and the relayed abort is lost, its locks would leak forever.
        // Arm a watchdog that inquires at the origin — presumed abort
        // guarantees a safe answer for forgotten families, and the
        // origin stays silent while the family is live and undecided.
        if tid.family.origin != self.site
            && fam.timer.is_none()
            && matches!(fam.role, Role::Executing)
        {
            self.arm(
                out,
                TimerKind::OrphanCheck,
                tid.family,
                self.config.orphan_check_interval,
            );
        }
    }

    fn on_abort(
        &mut self,
        out: &mut Vec<Action>,
        req: u64,
        tid: Tid,
        reason: AbortReason,
        participants: Vec<SiteId>,
    ) {
        if !tid.is_top_level() {
            let reason = Some(reason);
            return self.resolve_nested(out, req, tid, Outcome::Aborted, reason, participants);
        }
        let Some(fam) = self.families.get_mut(&tid.family) else {
            out.push(Action::Rejected {
                req,
                tid,
                detail: "unknown family",
            });
            return;
        };
        let undecided = fam.open_tally().is_some();
        match &fam.role {
            Role::Executing => {
                fam.commit_req = Some(req);
                self.resolve_here(out, tid.family, Outcome::Aborted, Some(reason));
                self.forget_family(out, &tid.family);
                self.broadcast(out, participants, TmMessage::Abort { tid });
            }
            // Abort during early commitment: fold into the protocol's
            // abort path if the decision is still open.
            Role::Coord2pc(_) | Role::CoordNb(_) if undecided => {
                self.coord_abort(out, tid.family, reason);
                out.push(Action::Resolved {
                    req,
                    tid,
                    outcome: Outcome::Aborted,
                    reason: Some(reason),
                });
            }
            Role::Coord2pc(_) | Role::CoordNb(_) | Role::Announcing(_) => {
                out.push(Action::Rejected {
                    req,
                    tid,
                    detail: "too late to abort",
                })
            }
            _ => out.push(Action::Rejected {
                req,
                tid,
                detail: "not the coordinator",
            }),
        }
    }

    // -----------------------------------------------------------------
    // Phase-one votes: one tally step, then the role's continuation
    // -----------------------------------------------------------------

    fn on_server_vote(&mut self, out: &mut Vec<Action>, tid: Tid, server: ServerId, vote: Vote) {
        let Some(fam) = self.families.get_mut(&tid.family) else {
            return;
        };
        self.tracer.family(
            tid.family,
            TraceEventKind::ServerVote {
                server,
                vote: match vote {
                    Vote::Yes => "Yes",
                    Vote::No => "No",
                    Vote::ReadOnly => "ReadOnly",
                },
            },
        );
        if let Some(tally) = fam.open_tally() {
            let step = tally.tally_local(server, vote);
            self.tallied(out, tid.family, step);
        }
    }

    /// A subordinate's phase-one vote arrived (`mode`: in which
    /// protocol's message).
    fn on_site_vote(
        &mut self,
        out: &mut Vec<Action>,
        tid: Tid,
        from: SiteId,
        vote: Vote,
        mode: CommitMode,
    ) {
        let Some(fam) = self.families.get_mut(&tid.family) else {
            return;
        };
        if fam.mode() != Some(mode) {
            return;
        }
        if let Some(tally) = fam.open_tally() {
            let step = tally.tally_site(from, vote);
            self.tallied(out, tid.family, step);
        }
    }

    /// Continues after a vote was counted: a veto aborts, the last
    /// vote moves the role on.
    fn tallied(&mut self, out: &mut Vec<Action>, family: FamilyId, step: TallyStep) {
        let Some(fam) = self.families.get(&family) else {
            return;
        };
        match (step, &fam.role) {
            (TallyStep::Stale | TallyStep::Waiting, _) => {}
            (TallyStep::Veto, Role::Sub2pc(_) | Role::SubNb(_)) => self.sub_veto(out, family),
            (TallyStep::Veto, _) => self.coord_abort(out, family, AbortReason::ServerVetoed),
            (TallyStep::AllIn { update }, Role::Coord2pc(_)) => {
                self.coord2pc_votes_in(out, family, update)
            }
            (TallyStep::AllIn { .. }, Role::CoordNb(_)) => self.coordnb_maybe_proceed(out, family),
            (TallyStep::AllIn { update }, _) => self.sub_votes_in(out, family, update),
        }
    }

    /// Coordinator-side abort while the decision is still open.
    pub(crate) fn coord_abort(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        reason: AbortReason,
    ) {
        match self.families.get(&family).and_then(|f| f.mode()) {
            Some(CommitMode::TwoPhase) => self.coord2pc_abort(out, family, reason),
            Some(CommitMode::NonBlocking) => self.coordnb_abort(out, family, reason),
            None => {}
        }
    }

    // -----------------------------------------------------------------
    // Datagrams route to the protocol modules
    // -----------------------------------------------------------------

    fn on_datagram(&mut self, out: &mut Vec<Action>, from: SiteId, msg: TmMessage) {
        self.tracer.family(
            msg.tid().family,
            TraceEventKind::DatagramRecv {
                from,
                msg: msg.kind_name(),
            },
        );
        use CommitMode::{NonBlocking, TwoPhase};
        match msg {
            // Phase one and the notify phase: shared steps, told which
            // protocol's message arrived.
            TmMessage::Prepare { tid, coordinator } => {
                self.sub_prepare(out, tid, coordinator, None)
            }
            TmMessage::NbPrepare {
                tid,
                coordinator,
                info,
            } => self.sub_prepare(out, tid, coordinator, Some(info)),
            TmMessage::VoteMsg { tid, from, vote } => {
                self.on_site_vote(out, tid, from, vote, TwoPhase)
            }
            TmMessage::NbVote { tid, from, vote } => {
                self.on_site_vote(out, tid, from, vote, NonBlocking)
            }
            TmMessage::CommitAck { tid, from } => self.on_outcome_ack(out, tid, from, TwoPhase),
            TmMessage::NbOutcomeAck { tid, from } => {
                self.on_outcome_ack(out, tid, from, NonBlocking)
            }
            // Two-phase commit.
            TmMessage::Commit { tid } => self.sub2pc_commit(out, tid),
            TmMessage::Abort { tid } => self.participant_abort(out, tid),
            TmMessage::Inquire { tid, from } => self.answer_inquiry(out, tid, from),
            TmMessage::InquireResp { tid, outcome } => match outcome {
                Outcome::Committed => self.sub2pc_commit(out, tid),
                Outcome::Aborted => self.participant_abort(out, tid),
            },
            // Non-blocking commit.
            TmMessage::NbReplicate { tid, info } => self.subnb_replicate(out, from, tid, info),
            TmMessage::NbReplicateAck { tid, from, joined } => {
                self.nb_replicate_ack(out, tid, from, joined)
            }
            TmMessage::NbOutcome { tid, outcome } => self.subnb_outcome(out, from, tid, outcome),
            TmMessage::NbStatusReq { tid, from } => self.nb_status_req(out, tid, from),
            TmMessage::NbStatus {
                tid, from, state, ..
            } => self.takeover_status(out, tid, from, state),
            TmMessage::NbAbortJoinReq { tid, from } => self.nb_abort_join_req(out, tid, from),
            TmMessage::NbAbortJoinResp { tid, from, joined } => {
                self.takeover_abort_join_resp(out, tid, from, joined)
            }
            // Every site has resolved it: one that holds its outcome ends it.
            TmMessage::NbForget { tid } => match self.families.get(&tid.family) {
                Some(fam) if fam.outcome().is_some() => self.end_family(out, tid.family, vec![]),
                _ => self.forget_family(out, &tid.family),
            },
            // Nested transactions.
            TmMessage::SubResolved { tid, outcome } => self.settle_subtree(out, &tid, outcome),
        }
    }

    /// Abort notice (or the abort protocol) arriving at a participant.
    pub(crate) fn participant_abort(&mut self, out: &mut Vec<Action>, tid: Tid) {
        let family = tid.family;
        if !self.families.contains_key(&family) {
            return;
        }
        self.settle_here(out, family, Outcome::Aborted, None);
        // Ref [7]: forward the abort along this site's own outgoing
        // calls — the initiator may not know the full participant set.
        out.push(Action::RelayAbort { tid });
        // An abort notice is traced without counting it in
        // `EngineStats::aborts` (decisions and announced outcomes).
        self.tracer
            .family(family, TraceEventKind::Decision { outcome: "Aborted" });
        self.forget_family(out, &family);
    }

    // -----------------------------------------------------------------
    // Log and timer completions route by purpose
    // -----------------------------------------------------------------

    fn on_log_done(&mut self, out: &mut Vec<Action>, token: ForceToken) {
        let Some(ForcePurpose { kind, family: f }) = self.forces.remove(&token) else {
            return;
        };
        self.tracer.family(
            f,
            TraceEventKind::LogDurable {
                purpose: kind.name(),
                lazy: kind.is_lazy(),
            },
        );
        match kind {
            ForceKind::CoordCommit | ForceKind::NbCoordCommit => self.coord_commit_forced(out, f),
            ForceKind::SubPrepared | ForceKind::NbSubPrepared => self.sub_prepared_forced(out, f),
            ForceKind::SubCommit => self.sub2pc_commit_durable(out, f, SubPhase::ForcingCommit),
            ForceKind::SubCommitLazy => self.sub2pc_commit_durable(out, f, SubPhase::AwaitDurable),
            ForceKind::NbBegin => self.coordnb_begin_forced(out, f),
            ForceKind::NbSubReplicate => self.subnb_replicate_forced(out, f),
            ForceKind::NbSubOutcomeLazy => self.subnb_outcome_durable(out, f),
            ForceKind::NbSubAbortJoin => self.subnb_abort_join_forced(out, f),
            ForceKind::TkCommit => self.takeover_commit_forced(out, f),
            ForceKind::TkAbortJoin => self.takeover_abort_join_forced(out, f),
        }
    }

    /// Orphan watchdog fired: the family is still only *executing*
    /// here (never prepared) long after a remote coordinator created
    /// it. Ask the origin. Three cases: the origin resolved and forgot
    /// it — presumed abort answers `Aborted` and we release; the origin
    /// still has it live and undecided — it stays silent and we re-arm
    /// with backoff; commitment started meanwhile — the role changed
    /// and the watchdog retires (the commit protocols carry their own
    /// inquiry timers).
    fn orphan_check_fired(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let role = self.families.get(&family).map(|f| &f.role);
        if !matches!(role, Some(Role::Executing)) {
            return;
        }
        let base = self.config.orphan_check_interval;
        self.rearm_with_backoff(out, TimerKind::OrphanCheck, family, base);
        let (tid, from) = (Tid::top_level(family), self.site);
        self.send(out, family.origin, TmMessage::Inquire { tid, from });
    }

    fn on_timer(&mut self, out: &mut Vec<Action>, token: TimerToken) {
        let Some(purpose) = self.timers.remove(&token) else {
            return;
        };
        let (kind, f) = match purpose {
            TimerPurpose::Family(kind, f) => (kind, f),
            TimerPurpose::AckFlush(site) => {
                self.ack_flush_timer.remove(&site);
                let mut riders = self.pending_acks.remove(&site).unwrap_or_default();
                if !riders.is_empty() {
                    let first = riders.remove(0);
                    self.send_with(out, site, first, riders);
                }
                return;
            }
        };
        match kind {
            TimerKind::VoteTimeout => self.vote_timeout(out, f),
            TimerKind::Inquiry => self.sub2pc_inquiry_timer(out, f),
            TimerKind::NotifyResend => self.notify_resend(out, f),
            TimerKind::ReplicateResend => self.coordnb_replicate_resend(out, f),
            TimerKind::NbOutcome => self.subnb_outcome_timeout(out, f),
            TimerKind::TakeoverWindow => self.takeover_window_fired(out, f),
            TimerKind::RecruitWindow => self.takeover_recruit_fired(out, f),
            TimerKind::TakeoverRetry => self.takeover_retry_fired(out, f),
            TimerKind::OrphanCheck => self.orphan_check_fired(out, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::testkit::decided_by;

    fn engine() -> Engine {
        Engine::new(SiteId(1), EngineConfig::default())
    }

    #[test]
    fn begin_allocates_unique_top_level_tids() {
        let mut e = engine();
        let a1 = e.handle(Input::Begin { req: 1 }, Time::ZERO);
        let a2 = e.handle(Input::Begin { req: 2 }, Time::ZERO);
        let t1 = match &a1[0] {
            Action::Began { req: 1, tid } => tid.clone(),
            other => panic!("{other:?}"),
        };
        let t2 = match &a2[0] {
            Action::Began { req: 2, tid } => tid.clone(),
            other => panic!("{other:?}"),
        };
        assert_ne!(t1, t2);
        assert!(t1.is_top_level());
        assert_eq!(e.stats().begins, 2);
        assert_eq!(e.live_families(), 2);
    }

    #[test]
    fn begin_nested_allocates_children() {
        let mut e = engine();
        let a = e.handle(Input::Begin { req: 1 }, Time::ZERO);
        let top = match &a[0] {
            Action::Began { tid, .. } => tid.clone(),
            other => panic!("{other:?}"),
        };
        let a = e.handle(
            Input::BeginNested {
                req: 2,
                parent: top.clone(),
            },
            Time::ZERO,
        );
        match &a[0] {
            Action::Began { req: 2, tid } => {
                assert_eq!(tid.parent(), Some(top));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(e.stats().nested_begins, 1);
    }

    #[test]
    fn begin_nested_unknown_family_rejected() {
        let mut e = engine();
        let ghost = Tid::top_level(FamilyId {
            origin: SiteId(9),
            seq: 9,
        });
        let a = e.handle(
            Input::BeginNested {
                req: 1,
                parent: ghost,
            },
            Time::ZERO,
        );
        assert!(matches!(a[0], Action::Rejected { req: 1, .. }));
    }

    #[test]
    fn a_join_registers_its_server_and_logs_nothing() {
        let mut e = engine();
        let a = e.handle(Input::Begin { req: 1 }, Time::ZERO);
        let top = match &a[0] {
            Action::Began { tid, .. } => tid.clone(),
            other => panic!("{other:?}"),
        };
        for _ in 0..2 {
            let a = e.handle(
                Input::Join {
                    tid: top.clone(),
                    server: ServerId(4),
                },
                Time::ZERO,
            );
            assert!(a.is_empty(), "{a:?}");
        }
        let v = e.family_view(&top.family).unwrap();
        assert_eq!(v.servers, 1);
    }

    #[test]
    fn join_from_remote_operation_creates_family() {
        // A subordinate site first hears of a family when a server
        // joins on behalf of a remote transaction.
        let mut e = engine();
        let remote = Tid::top_level(FamilyId {
            origin: SiteId(9),
            seq: 3,
        });
        e.handle(
            Input::Join {
                tid: remote.clone(),
                server: ServerId(1),
            },
            Time::ZERO,
        );
        assert_eq!(e.live_families(), 1);
    }

    #[test]
    fn top_level_abort_while_executing() {
        let mut e = engine();
        let a = e.handle(Input::Begin { req: 1 }, Time::ZERO);
        let top = match &a[0] {
            Action::Began { tid, .. } => tid.clone(),
            other => panic!("{other:?}"),
        };
        e.handle(
            Input::Join {
                tid: top.clone(),
                server: ServerId(2),
            },
            Time::ZERO,
        );
        let a = e.handle(
            Input::AbortTx {
                req: 7,
                tid: top.clone(),
                reason: AbortReason::Application,
                participants: vec![SiteId(5)],
            },
            Time::ZERO,
        );
        // Abort record, server abort, abort datagram, resolution.
        assert!(a.iter().any(|x| matches!(
            x,
            Action::Append {
                rec: LogRecord::Abort { .. }
            }
        )));
        assert!(a.iter().any(|x| matches!(
            x,
            Action::ServerResolve {
                outcome: Outcome::Aborted,
                ..
            }
        )));
        assert!(a.iter().any(|x| matches!(
            x,
            Action::Send {
                to: SiteId(5),
                msg: TmMessage::Abort { .. },
                ..
            }
        )));
        assert!(a.iter().any(|x| matches!(
            x,
            Action::Resolved {
                req: 7,
                outcome: Outcome::Aborted,
                ..
            }
        )));
        assert_eq!(e.live_families(), 0);
        assert!(a
            .iter()
            .any(|x| decided_by(x) == Some((top.family, Outcome::Aborted))));
    }

    #[test]
    fn nested_commit_propagates_to_participants() {
        let mut e = engine();
        let a = e.handle(Input::Begin { req: 1 }, Time::ZERO);
        let top = match &a[0] {
            Action::Began { tid, .. } => tid.clone(),
            other => panic!("{other:?}"),
        };
        let a = e.handle(
            Input::BeginNested {
                req: 2,
                parent: top.clone(),
            },
            Time::ZERO,
        );
        let child = match &a[0] {
            Action::Began { tid, .. } => tid.clone(),
            other => panic!("{other:?}"),
        };
        e.handle(
            Input::Join {
                tid: child.clone(),
                server: ServerId(2),
            },
            Time::ZERO,
        );
        let a = e.handle(
            Input::CommitNested {
                req: 3,
                tid: child.clone(),
                participants: vec![SiteId(8)],
            },
            Time::ZERO,
        );
        assert!(a.iter().any(|x| matches!(
            x,
            Action::ServerResolve { tid, outcome: Outcome::Committed, .. } if *tid == child
        )));
        assert!(a.iter().any(|x| matches!(
            x,
            Action::Send {
                to: SiteId(8),
                msg: TmMessage::SubResolved { .. },
                ..
            }
        )));
        assert!(a.iter().any(|x| matches!(
            x,
            Action::Resolved {
                req: 3,
                outcome: Outcome::Committed,
                ..
            }
        )));
        // Committing the same child again is rejected.
        let a = e.handle(
            Input::CommitNested {
                req: 4,
                tid: child,
                participants: vec![],
            },
            Time::ZERO,
        );
        assert!(matches!(a[0], Action::Rejected { req: 4, .. }));
    }

    #[test]
    fn sharded_engines_allocate_disjoint_routable_ids() {
        const N: u32 = 4;
        let mut seen = std::collections::HashSet::new();
        for shard in 0..N {
            let mut e = Engine::sharded(SiteId(1), EngineConfig::default(), shard, N);
            for req in 0..8 {
                let a = e.handle(Input::Begin { req }, Time::ZERO);
                let tid = match &a[0] {
                    Action::Began { tid, .. } => tid.clone(),
                    other => panic!("{other:?}"),
                };
                assert!(seen.insert(tid.family), "family id collision across shards");
                assert_eq!(
                    shard_of_family(SiteId(1), &tid.family, N as usize),
                    shard as usize,
                    "a shard's own families must route back to it"
                );
            }
        }
    }

    #[test]
    fn sharded_tokens_route_back_to_their_shard() {
        const N: u32 = 4;
        for shard in 0..N {
            let mut e = Engine::sharded(SiteId(1), EngineConfig::default(), shard, N);
            for _ in 0..5 {
                let t = e.alloc_force(ForcePurpose {
                    kind: ForceKind::CoordCommit,
                    family: FamilyId {
                        origin: SiteId(1),
                        seq: 1,
                    },
                });
                assert_eq!(shard_of_token(t.0, N as usize), shard as usize);
            }
        }
    }

    #[test]
    fn remote_families_route_deterministically() {
        let fid = FamilyId {
            origin: SiteId(7),
            seq: 42,
        };
        let a = shard_of_family(SiteId(1), &fid, 8);
        let b = shard_of_family(SiteId(1), &fid, 8);
        assert_eq!(a, b);
        assert!(a < 8);
    }

    #[test]
    fn bump_family_seq_stays_in_residue_class() {
        const N: u32 = 4;
        for shard in 0..N {
            let mut e = Engine::sharded(SiteId(1), EngineConfig::default(), shard, N);
            e.bump_family_seq(1000);
            let a = e.handle(Input::Begin { req: 1 }, Time::ZERO);
            let tid = match &a[0] {
                Action::Began { tid, .. } => tid.clone(),
                other => panic!("{other:?}"),
            };
            assert!(tid.family.seq >= 1000);
            assert_eq!(
                shard_of_family(SiteId(1), &tid.family, N as usize),
                shard as usize
            );
        }
    }

    #[test]
    fn retry_after_backs_off_and_caps() {
        let e = engine();
        let fid = FamilyId {
            origin: SiteId(3),
            seq: 7,
        };
        let base = Duration::from_secs(5);
        assert_eq!(
            e.retry_after(&fid, base, 0),
            base,
            "attempt 0 is unjittered"
        );
        let a1 = e.retry_after(&fid, base, 1);
        let a2 = e.retry_after(&fid, base, 2);
        assert!(
            a1 >= base * 2 && a1 < base * 3,
            "one doubling plus <=25% jitter"
        );
        assert!(a2 >= base * 4 && a2 < base * 5);
        // Deterministic: same inputs, same interval.
        assert_eq!(a1, e.retry_after(&fid, base, 1));
        // Far-out attempts are capped (cap plus at most 25% jitter).
        let far = e.retry_after(&fid, base, 30);
        let cap = e.config().retry_cap;
        assert!(far >= cap && far <= cap + cap / 4);
    }

    #[test]
    fn remote_join_arms_orphan_watchdog_that_inquires_at_origin() {
        let mut e = engine();
        let remote = Tid::top_level(FamilyId {
            origin: SiteId(9),
            seq: 3,
        });
        let a = e.handle(
            Input::Join {
                tid: remote.clone(),
                server: ServerId(1),
            },
            Time::ZERO,
        );
        let token = a
            .iter()
            .find_map(|x| match x {
                Action::SetTimer { token, .. } => Some(*token),
                _ => None,
            })
            .expect("remote join arms the orphan watchdog");
        // Local-origin joins never arm it (their site drives commit).
        let local = e.handle(Input::Begin { req: 1 }, Time::ZERO);
        let local_tid = match &local[0] {
            Action::Began { tid, .. } => tid.clone(),
            other => panic!("{other:?}"),
        };
        let a = e.handle(
            Input::Join {
                tid: local_tid,
                server: ServerId(1),
            },
            Time::ZERO,
        );
        assert!(!a.iter().any(|x| matches!(x, Action::SetTimer { .. })));
        // Firing the watchdog inquires at the origin and re-arms with
        // backoff.
        let a = e.handle(Input::TimerFired { token }, Time::ZERO);
        assert!(a.iter().any(|x| matches!(
            x,
            Action::Send {
                to: SiteId(9),
                msg: TmMessage::Inquire { .. },
                ..
            }
        )));
        assert!(a.iter().any(|x| matches!(x, Action::SetTimer { .. })));
        // A presumed-abort answer releases the orphan entirely.
        let a = e.handle(
            Input::Datagram {
                from: SiteId(9),
                msg: TmMessage::InquireResp {
                    tid: remote.clone(),
                    outcome: Outcome::Aborted,
                },
            },
            Time::ZERO,
        );
        assert!(a.iter().any(|x| matches!(
            x,
            Action::ServerResolve {
                outcome: Outcome::Aborted,
                ..
            }
        )));
        assert_eq!(e.family_view(&remote.family), None);
        assert!(a
            .iter()
            .any(|x| decided_by(x) == Some((remote.family, Outcome::Aborted))));
    }

    #[test]
    fn sub_resolved_datagram_updates_remote_family() {
        let mut e = engine();
        let remote_child = Tid::top_level(FamilyId {
            origin: SiteId(9),
            seq: 1,
        })
        .child(2);
        e.handle(
            Input::Join {
                tid: remote_child.clone(),
                server: ServerId(3),
            },
            Time::ZERO,
        );
        let a = e.handle(
            Input::Datagram {
                from: SiteId(9),
                msg: TmMessage::SubResolved {
                    tid: remote_child.clone(),
                    outcome: Outcome::Aborted,
                },
            },
            Time::ZERO,
        );
        // First the durable undo marker, then the server instruction.
        assert!(matches!(
            &a[0],
            Action::Append {
                rec: LogRecord::Abort { .. }
            }
        ));
        assert!(
            matches!(&a[1], Action::ServerResolve { tid, outcome: Outcome::Aborted, .. } if *tid == remote_child)
        );
    }
}
