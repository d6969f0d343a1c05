//! Presumed-abort two-phase commitment with the delayed-commit
//! optimization (paper §3.2) — and, because non-blocking commitment is
//! this protocol plus five changes (§3.3), the steps both protocols
//! share: the admission of a commit call, the subordinate's whole
//! phase one, the coordinator's commit point, and the collection of
//! acknowledgements. [`crate::nonblocking`] holds only the changes.
//!
//! Roles: the transaction's home site coordinates; every other
//! participant site is a subordinate. Read-only subordinates vote
//! `ReadOnly`, immediately release their locks and take no part in
//! phase two. The commit point is the force of the coordinator's
//! commit record.
//!
//! The §3.2 optimization: "The subordinate drops its locks before
//! writing a commit record. [...] The optimized protocol uses the
//! commit record at the coordinator to indicate [commitment]. So the
//! coordinator must not forget about the transaction before the
//! subordinate writes its own commit record; hence, the commit
//! acknowledgement cannot be sent until the subordinate's commit
//! record is written." Subordinate update sites make one fewer log
//! force per transaction; locks are held slightly shorter; throughput
//! improves at no cost to latency.

use camelot_net::msg::NbInfo;
use camelot_net::{Outcome, TmMessage, Vote};
use camelot_obs::TraceEventKind;
use camelot_types::{AbortReason, FamilyId, ServerId, SiteId, Tid};
use camelot_wal::LogRecord;

use crate::config::{CommitMode, TwoPhaseVariant};
use crate::engine::{outcome_msg, Engine, ForceKind, TimerKind};
use crate::family::{
    Coord2pc, CoordPhase, Family, Role, Sub2pc, SubNb, SubPhase, Tally, TxnStatus,
};
use crate::io::Action;

impl Engine {
    // =================================================================
    // Coordinator
    // =================================================================

    /// `commit-transaction`: the admission checks, then the chosen
    /// protocol's opening.
    pub(crate) fn commit_top(
        &mut self,
        out: &mut Vec<Action>,
        req: u64,
        tid: Tid,
        mode: CommitMode,
        participants: Vec<SiteId>,
    ) {
        self.tracer.family(
            tid.family,
            TraceEventKind::CommitCall {
                mode: match mode {
                    CommitMode::TwoPhase => "2pc",
                    CommitMode::NonBlocking => "nb",
                },
            },
        );
        let refusal = match self.families.get_mut(&tid.family) {
            _ if !tid.is_top_level() => Some("commit of nested tid"),
            None => Some("unknown family"),
            Some(fam) if fam.committing() => Some("commitment already in progress"),
            Some(fam) if fam.effective_status(&tid) != Some(TxnStatus::Active) => {
                Some("transaction not active")
            }
            Some(fam) => {
                fam.commit_req = Some(req);
                None
            }
        };
        if let Some(detail) = refusal {
            out.push(Action::Rejected { req, tid, detail });
            return;
        }
        match mode {
            CommitMode::TwoPhase => self.open_2pc(out, tid, participants),
            CommitMode::NonBlocking => self.open_nb(out, tid, participants),
        }
    }

    /// Two-phase commit opens by collecting the local votes; the
    /// prepares go out once they are in.
    fn open_2pc(&mut self, out: &mut Vec<Action>, tid: Tid, participants: Vec<SiteId>) {
        let fam = self.families.get_mut(&tid.family).expect("admitted");
        let servers = fam.servers.clone();
        fam.role = Role::Coord2pc(Coord2pc {
            participants,
            tally: Tally::collecting(servers.clone()),
            phase: CoordPhase::CollectLocal,
        });
        if servers.is_empty() {
            self.coord2pc_votes_in(out, tid.family, false);
        } else {
            out.push(Action::AskVote {
                tid,
                servers: servers.into_iter().collect(),
            });
        }
    }

    /// Every vote asked for so far is in. After the local round the
    /// prepares go out (if anyone is to be asked); after the
    /// subordinates' round — or with none — the coordinator decides.
    pub(crate) fn coord2pc_votes_in(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        update: bool,
    ) {
        let fam = self.families.get_mut(&family).expect("family exists");
        let tid = fam.top_tid();
        let Role::Coord2pc(c) = &mut fam.role else {
            unreachable!("role checked by caller")
        };
        if c.phase == CoordPhase::CollectLocal && !c.participants.is_empty() {
            c.phase = CoordPhase::CollectVotes;
            c.tally.awaiting_sites = c.participants.iter().copied().collect();
            let subs = c.participants.clone();
            let msg = TmMessage::Prepare {
                tid,
                coordinator: self.site,
            };
            self.arm(
                out,
                TimerKind::VoteTimeout,
                family,
                self.config.vote_timeout,
            );
            self.broadcast(out, subs, msg);
            return;
        }
        // All votes are in and all are yes/read-only: commit.
        self.disarm(out, family);
        if !update {
            // Fully read-only: committed with no log write at all.
            self.stats.read_only_commits += 1;
            self.resolve_here(out, family, Outcome::Committed, None);
            self.forget_family(&family);
            return;
        }
        let fam = self.families.get_mut(&family).expect("family exists");
        let Role::Coord2pc(c) = &mut fam.role else {
            unreachable!("role unchanged")
        };
        c.phase = CoordPhase::ForcingCommit;
        let subs: Vec<SiteId> = c.tally.yes_subs.iter().copied().collect();
        let rec = LogRecord::Commit { tid, subs };
        if self.config.unsafe_no_commit_force {
            // Canary path (see `EngineConfig::unsafe_no_commit_force`):
            // skip the commit-point force and pretend it completed.
            out.push(Action::Append { rec });
            self.coord_commit_forced(out, family);
            return;
        }
        self.force(out, ForceKind::CoordCommit, family, rec);
    }

    /// The coordinator's commit record is durable — the commit point
    /// (under non-blocking commit: the record that completes the
    /// commit quorum). Answer the application, release the local
    /// locks, and notify whoever holds state for the family: the
    /// update subordinates, or the replication targets.
    pub(crate) fn coord_commit_forced(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let notify = match self.families.get(&family).map(|f| &f.role) {
            Some(Role::Coord2pc(c)) if c.phase == CoordPhase::ForcingCommit => {
                c.tally.yes_subs.clone()
            }
            Some(Role::CoordNb(c)) if c.phase == CoordPhase::ForcingCommit => {
                c.replication_targets.clone()
            }
            _ => return,
        };
        self.resolve_here(out, family, Outcome::Committed, None);
        if notify.is_empty() {
            // Local-update transaction: nothing to notify.
            self.end_family(out, family);
        } else {
            self.announce(out, family, notify, Outcome::Committed);
        }
    }

    /// Writes the end record and forgets the family: nobody is left
    /// who could ask about it.
    pub(crate) fn end_family(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        out.push(Action::Append {
            rec: LogRecord::End {
                tid: Tid::top_level(family),
            },
        });
        self.forget_family(&family);
    }

    /// An acknowledgement of the announced outcome arrived (a
    /// `CommitAck`: the subordinate's commit record is durable; an
    /// `NbOutcomeAck`: the participant resolved). After the last one
    /// the family ends here — and under non-blocking commit everyone
    /// who kept a tombstone is told to forget (change 4's epilogue).
    pub(crate) fn on_outcome_ack(
        &mut self,
        out: &mut Vec<Action>,
        tid: Tid,
        from: SiteId,
        mode: CommitMode,
    ) {
        let family = tid.family;
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        if fam.mode() != Some(mode) {
            return;
        }
        let Some((awaiting_acks, _)) = fam.notifying() else {
            return;
        };
        awaiting_acks.remove(&from);
        if !awaiting_acks.is_empty() {
            return;
        }
        let tombstones = self.tombstone_holders(family);
        self.disarm(out, family);
        self.broadcast(out, tombstones, TmMessage::NbForget { tid });
        self.end_family(out, family);
    }

    /// Coordinator-side abort: presumed abort means no force and no
    /// acknowledgement collection.
    pub(crate) fn coord2pc_abort(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        reason: AbortReason,
    ) {
        let Some(Role::Coord2pc(c)) = self.families.get(&family).map(|f| &f.role) else {
            return;
        };
        let participants = c.participants.clone();
        self.resolve_here(out, family, Outcome::Aborted, Some(reason));
        self.disarm(out, family);
        self.forget_family(&family);
        let tid = Tid::top_level(family);
        self.broadcast(out, participants, TmMessage::Abort { tid });
    }

    /// Phase-one vote collection timed out.
    pub(crate) fn vote_timeout(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        if fam.coordinating() && fam.open_tally().is_some() {
            self.coord_abort(out, family, AbortReason::VoteTimeout);
        }
    }

    /// Re-send unacknowledged notifications (commit notices or
    /// non-blocking outcomes), backing off each successive resend.
    pub(crate) fn notify_resend(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let Some((awaiting_acks, outcome)) = fam.notifying() else {
            return;
        };
        if awaiting_acks.is_empty() {
            return;
        }
        let sites: Vec<SiteId> = awaiting_acks.iter().copied().collect();
        let msg = outcome_msg(fam, outcome);
        let base = self.config.notify_resend_interval;
        self.rearm_with_backoff(out, TimerKind::NotifyResend, family, base);
        self.broadcast(out, sites, msg);
    }

    /// A prepared subordinate (or a recovering site) asks about the
    /// outcome. Presumed abort: unknown means aborted.
    pub(crate) fn answer_inquiry(&mut self, out: &mut Vec<Action>, tid: Tid, from: SiteId) {
        let family = tid.family;
        let outcome = match self.resolutions.get(&family) {
            Some(outcome) => *outcome,
            // Still undecided here; the subordinate will ask again.
            None if self.families.contains_key(&family) => return,
            None => Outcome::Aborted,
        };
        self.send(out, from, TmMessage::InquireResp { tid, outcome });
    }

    // =================================================================
    // Subordinate, phase one (both protocols)
    // =================================================================

    /// Casts this site's phase-one vote in `mode`'s message.
    fn send_vote(
        &mut self,
        out: &mut Vec<Action>,
        mode: CommitMode,
        coordinator: SiteId,
        tid: Tid,
        vote: Vote,
    ) {
        let from = self.site;
        let msg = match mode {
            CommitMode::TwoPhase => TmMessage::VoteMsg { tid, from, vote },
            CommitMode::NonBlocking => TmMessage::NbVote { tid, from, vote },
        };
        self.send(out, coordinator, msg);
    }

    /// Prepare request from the coordinator. A non-blocking prepare
    /// carries the full site list and the quorum sizes (`nb`, change 1
    /// of §3.3); that is all that tells the two protocols apart here.
    pub(crate) fn sub_prepare(
        &mut self,
        out: &mut Vec<Action>,
        tid: Tid,
        coordinator: SiteId,
        nb: Option<NbInfo>,
    ) {
        let family = tid.family;
        let mode = match nb {
            None => CommitMode::TwoPhase,
            Some(_) => CommitMode::NonBlocking,
        };
        self.retire_orphan_timer(&family);
        let vote = match self.families.get_mut(&family) {
            // Presumed abort: no information means vote NO. This
            // site cannot tell "no server ever joined here" (or
            // "read-only participation already resolved and
            // forgotten") apart from "a server joined with updates
            // and the site crashed before preparing" — a read-only
            // vote in that last case would let the coordinator
            // commit a transaction whose updates were lost.
            None => Vote::No,
            Some(fam) if !fam.committing() && fam.servers.is_empty() => {
                self.forget_family(&family);
                Vote::ReadOnly
            }
            Some(fam) if !fam.committing() => {
                let servers = fam.servers.clone();
                let tally = Tally::collecting(servers.clone());
                let phase = SubPhase::CollectLocal;
                fam.role = match nb {
                    None => Role::Sub2pc(Sub2pc {
                        coordinator,
                        tally,
                        phase,
                    }),
                    Some(info) => Role::SubNb(SubNb {
                        tally,
                        ..SubNb::at(coordinator, info, phase, false)
                    }),
                };
                out.push(Action::AskVote {
                    tid,
                    servers: servers.into_iter().collect(),
                });
                return;
            }
            // Retransmitted prepare: repeat the vote if we already
            // cast it.
            Some(fam) => match fam.sub_mut() {
                Some((_, m, SubPhase::Prepared | SubPhase::Replicated)) if m == mode => Vote::Yes,
                _ => return,
            },
        };
        self.send_vote(out, mode, coordinator, tid, vote);
    }

    /// A local server vetoed: unilateral abort before voting. Presumed
    /// abort lets a two-phase subordinate forget immediately after
    /// telling the coordinator; a non-blocking one keeps a tombstone —
    /// status requests must see "aborted" until the coordinator's
    /// forget note (change 4).
    pub(crate) fn sub_veto(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        let Some((coordinator, mode, _)) = fam.sub_mut() else {
            return;
        };
        if let Role::SubNb(s) = &mut fam.role {
            s.phase = SubPhase::Resolved;
            s.outcome = Some(Outcome::Aborted);
        }
        self.resolve_here(out, family, Outcome::Aborted, None);
        if mode == CommitMode::TwoPhase {
            self.forget_family(&family);
        }
        self.send_vote(out, mode, coordinator, tid, Vote::No);
    }

    /// All local votes are in, none of them no.
    pub(crate) fn sub_votes_in(&mut self, out: &mut Vec<Action>, family: FamilyId, update: bool) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        let Some((coordinator, mode, phase)) = fam.sub_mut() else {
            return;
        };
        if !update {
            // Read-only site: vote, drop locks, forget (the read-only
            // optimization — no log records, no phase two). If a
            // non-blocking quorum later needs us, NbReplicate
            // recreates the state.
            let servers: Vec<ServerId> = fam.servers.iter().copied().collect();
            out.push(Action::ServerCommit {
                tid: tid.clone(),
                servers,
            });
            self.forget_family(&family);
            self.send_vote(out, mode, coordinator, tid, Vote::ReadOnly);
            return;
        }
        *phase = SubPhase::ForcingPrepared;
        let (kind, rec) = match &fam.role {
            Role::SubNb(s) => (
                ForceKind::NbSubPrepared,
                LogRecord::NbPrepared {
                    tid,
                    coordinator,
                    sites: s.info.sites.clone(),
                },
            ),
            _ => (
                ForceKind::SubPrepared,
                LogRecord::Prepared { tid, coordinator },
            ),
        };
        self.force(out, kind, family, rec);
    }

    /// The subordinate's prepared record is durable: vote yes. From
    /// here the site is in doubt, and the protocols differ in what it
    /// may do about a silent coordinator — see
    /// [`Engine::arm_in_doubt_timer`].
    pub(crate) fn sub_prepared_forced(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        let Some((coordinator, mode, phase)) = fam.sub_mut() else {
            return;
        };
        if *phase != SubPhase::ForcingPrepared {
            return;
        }
        *phase = SubPhase::Prepared;
        self.arm_in_doubt_timer(out, family, mode);
        self.send_vote(out, mode, coordinator, tid, Vote::Yes);
    }

    /// Starts the in-doubt subordinate's timer. Two-phase commit can
    /// only inquire, periodically, and stays blocked while the
    /// coordinator is silent; a non-blocking subordinate times out
    /// once and becomes a coordinator itself (change 2).
    pub(crate) fn arm_in_doubt_timer(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        mode: CommitMode,
    ) {
        let (kind, after) = match mode {
            CommitMode::TwoPhase => (TimerKind::Inquiry, self.config.inquiry_interval),
            CommitMode::NonBlocking => (TimerKind::NbOutcome, self.config.nb_outcome_timeout),
        };
        self.arm(out, kind, family, after);
    }

    // =================================================================
    // Subordinate, phase two (two-phase commit)
    // =================================================================

    /// Commit notice from the coordinator.
    pub(crate) fn sub2pc_commit(&mut self, out: &mut Vec<Action>, tid: Tid) {
        let family = tid.family;
        let Some(fam) = self.families.get_mut(&family) else {
            // Already resolved and forgotten here — our ack was lost.
            // Re-acknowledge so the coordinator can forget too.
            let me = self.site;
            let coordinator = family.origin;
            self.queue_ack(out, coordinator, TmMessage::CommitAck { tid, from: me });
            return;
        };
        let Role::Sub2pc(s) = &mut fam.role else {
            return;
        };
        if s.phase != SubPhase::Prepared {
            return; // Duplicate while already committing.
        }
        let rec = LogRecord::Commit { tid, subs: vec![] };
        match self.config.variant {
            TwoPhaseVariant::Optimized => {
                // Delayed-commit optimization: locks dropped *now*,
                // before the commit record is durable; the record is
                // written lazily and the ack waits for durability.
                s.phase = SubPhase::AwaitDurable;
                self.disarm(out, family);
                self.resolve_here(out, family, Outcome::Committed, None);
                self.append_lazy(out, ForceKind::SubCommitLazy, family, rec);
            }
            TwoPhaseVariant::SemiOptimized | TwoPhaseVariant::Unoptimized => {
                // Unoptimized: the subordinate's own commit record
                // indicates commitment, so locks drop only after the
                // force completes.
                s.phase = SubPhase::ForcingCommit;
                self.disarm(out, family);
                self.record_resolution(family, Outcome::Committed);
                self.force(out, ForceKind::SubCommit, family, rec);
            }
        }
    }

    /// The subordinate's commit record is durable, in the phase that
    /// was `awaiting` it: acknowledge and forget. The forced record
    /// (semi-/unoptimized) is also what releases the locks; the lazy
    /// one (optimized) follows their release.
    pub(crate) fn sub2pc_commit_durable(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        awaiting: SubPhase,
    ) {
        let Some(Role::Sub2pc(s)) = self.families.get(&family).map(|f| &f.role) else {
            return;
        };
        if s.phase != awaiting {
            return;
        }
        let coordinator = s.coordinator;
        if awaiting == SubPhase::ForcingCommit {
            self.settle_here(out, family, Outcome::Committed, None);
        }
        let (tid, from) = (Tid::top_level(family), self.site);
        self.forget_family(&family);
        // `queue_ack` sends immediately when piggybacking is off
        // (unoptimized) and delays otherwise.
        self.queue_ack(out, coordinator, TmMessage::CommitAck { tid, from });
    }

    /// Periodic inquiry while prepared and in doubt.
    pub(crate) fn sub2pc_inquiry_timer(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let Some(Role::Sub2pc(s)) = self.families.get(&family).map(|f| &f.role) else {
            return;
        };
        if s.phase != SubPhase::Prepared {
            return;
        }
        let coordinator = s.coordinator;
        let base = self.config.inquiry_interval;
        self.rearm_with_backoff(out, TimerKind::Inquiry, family, base);
        let (tid, from) = (Tid::top_level(family), self.site);
        self.send(out, coordinator, TmMessage::Inquire { tid, from });
    }
}

/// Internal helper shared with recovery: build a subordinate entry in
/// the prepared state (used when restart finds a prepared record).
pub(crate) fn prepared_subordinate(fam: &mut Family, coordinator: SiteId) {
    fam.role = Role::Sub2pc(Sub2pc {
        coordinator,
        tally: Tally {
            local_update: true,
            ..Tally::default()
        },
        phase: SubPhase::Prepared,
    });
}
