//! Presumed-abort two-phase commitment with the delayed-commit
//! optimization (paper §3.2).
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

use camelot_net::{Outcome, TmMessage, Vote};
use camelot_types::{AbortReason, FamilyId, ServerId, SiteId, Tid, Time};
use camelot_wal::LogRecord;

use crate::config::TwoPhaseVariant;
use crate::engine::{Engine, ForcePurpose, TimerPurpose};
use crate::family::{Coord2pc, CoordPhase, Family, Role, Sub2pc, SubPhase, TxnStatus};
use crate::io::Action;

use std::collections::BTreeSet;

impl Engine {
    // =================================================================
    // Coordinator
    // =================================================================

    /// `commit-transaction` with the two-phase protocol.
    pub(crate) fn commit_2pc(
        &mut self,
        out: &mut Vec<Action>,
        req: u64,
        tid: Tid,
        participants: Vec<SiteId>,
        now: Time,
    ) {
        if !tid.is_top_level() {
            out.push(Action::Rejected {
                req,
                tid,
                detail: "commit of nested tid",
            });
            return;
        }
        let Some(fam) = self.families.get_mut(&tid.family) else {
            out.push(Action::Rejected {
                req,
                tid,
                detail: "unknown family",
            });
            return;
        };
        if fam.committing() {
            out.push(Action::Rejected {
                req,
                tid,
                detail: "commitment already in progress",
            });
            return;
        }
        if fam.effective_status(&tid) != Some(TxnStatus::Active) {
            out.push(Action::Rejected {
                req,
                tid,
                detail: "transaction not active",
            });
            return;
        }
        fam.commit_req = Some(req);
        let servers: BTreeSet<ServerId> = fam.servers.clone();
        fam.role = Role::Coord2pc(Coord2pc {
            participants,
            awaiting_local: servers.clone(),
            local_update: false,
            awaiting_sites: BTreeSet::new(),
            yes_subs: BTreeSet::new(),
            phase: CoordPhase::CollectLocal,
            vote_timer: None,
            resend_timer: None,
        });
        if servers.is_empty() {
            self.coord2pc_local_done(out, tid.family, now);
        } else {
            out.push(Action::AskVote {
                tid,
                servers: servers.into_iter().collect(),
            });
        }
    }

    /// A local server's vote while this site coordinates.
    pub(crate) fn coord2pc_server_vote(
        &mut self,
        out: &mut Vec<Action>,
        tid: Tid,
        server: ServerId,
        vote: Vote,
        now: Time,
    ) {
        let family = tid.family;
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let Role::Coord2pc(c) = &mut fam.role else {
            return;
        };
        if c.phase != CoordPhase::CollectLocal || !c.awaiting_local.remove(&server) {
            return;
        }
        match vote {
            Vote::No => {
                self.coord2pc_abort(out, family, AbortReason::ServerVetoed);
                return;
            }
            Vote::Yes => c.local_update = true,
            Vote::ReadOnly => {}
        }
        if c.awaiting_local.is_empty() {
            self.coord2pc_local_done(out, family, now);
        }
    }

    /// All local votes collected: go distributed or decide.
    fn coord2pc_local_done(&mut self, out: &mut Vec<Action>, family: FamilyId, now: Time) {
        let fam = self.families.get_mut(&family).expect("family exists");
        let tid = fam.top_tid();
        let Role::Coord2pc(c) = &mut fam.role else {
            unreachable!("role checked by caller")
        };
        if c.participants.is_empty() {
            self.coord2pc_decide(out, family);
            return;
        }
        c.phase = CoordPhase::CollectVotes;
        c.awaiting_sites = c.participants.iter().copied().collect();
        let subs = c.participants.clone();
        let msg = TmMessage::Prepare {
            tid,
            coordinator: self.site,
        };
        let t = self.alloc_timer(TimerPurpose::VoteTimeout(family));
        let timeout = self.config.vote_timeout;
        if let Some(fam) = self.families.get_mut(&family) {
            if let Role::Coord2pc(c) = &mut fam.role {
                c.vote_timer = Some(t);
            }
        }
        self.broadcast(out, subs, msg);
        out.push(Action::SetTimer {
            token: t,
            after: timeout,
        });
        let _ = now;
    }

    /// A subordinate's phase-one vote arrived.
    pub(crate) fn coord2pc_vote(
        &mut self,
        out: &mut Vec<Action>,
        tid: Tid,
        from: SiteId,
        vote: Vote,
        now: Time,
    ) {
        let family = tid.family;
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let Role::Coord2pc(c) = &mut fam.role else {
            return;
        };
        if c.phase != CoordPhase::CollectVotes || !c.awaiting_sites.remove(&from) {
            return; // Duplicate or stale vote.
        }
        match vote {
            Vote::No => {
                self.coord2pc_abort(out, family, AbortReason::ServerVetoed);
                return;
            }
            Vote::Yes => {
                c.yes_subs.insert(from);
            }
            Vote::ReadOnly => {}
        }
        if c.awaiting_sites.is_empty() {
            let timer = c.vote_timer.take();
            self.cancel_timer(out, timer);
            self.coord2pc_decide(out, family);
        }
        let _ = now;
    }

    /// All votes are in and all are yes/read-only: commit.
    fn coord2pc_decide(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let fam = self.families.get_mut(&family).expect("family exists");
        let tid = fam.top_tid();
        let Role::Coord2pc(c) = &mut fam.role else {
            unreachable!("role checked by caller")
        };
        let any_update = c.local_update || !c.yes_subs.is_empty();
        if !any_update {
            // Fully read-only: committed with no log write at all.
            self.stats.read_only_commits += 1;
            self.finish_local_commit(out, family, tid);
            return;
        }
        c.phase = CoordPhase::ForcingCommit;
        let subs: Vec<SiteId> = c.yes_subs.iter().copied().collect();
        if self.config.unsafe_no_commit_force {
            // Canary path (see `EngineConfig::unsafe_no_commit_force`):
            // skip the commit-point force and pretend it completed.
            out.push(Action::Append {
                rec: LogRecord::Commit { tid, subs },
            });
            self.coord2pc_commit_forced(out, family, Time::ZERO);
            return;
        }
        let token = self.alloc_force(ForcePurpose::CoordCommit(family));
        self.stats.forces += 1;
        out.push(Action::Force {
            rec: LogRecord::Commit { tid, subs },
            token,
        });
    }

    /// Reply to the application, release local locks, bookkeep.
    fn finish_local_commit(&mut self, out: &mut Vec<Action>, family: FamilyId, tid: Tid) {
        let fam = self.families.get_mut(&family).expect("family exists");
        let req = fam.commit_req.take();
        let servers: Vec<ServerId> = fam.servers.iter().copied().collect();
        if let Some(req) = req {
            out.push(Action::Resolved {
                req,
                tid: tid.clone(),
                outcome: Outcome::Committed,
                reason: None,
            });
        }
        if !servers.is_empty() {
            out.push(Action::ServerCommit { tid, servers });
        }
        self.record_resolution(family, Outcome::Committed);
        self.forget_family(&family);
    }

    /// The coordinator's commit record is durable — the commit point.
    pub(crate) fn coord2pc_commit_forced(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        now: Time,
    ) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        let req = fam.commit_req.take();
        let servers: Vec<ServerId> = fam.servers.iter().copied().collect();
        let Role::Coord2pc(c) = &mut fam.role else {
            return;
        };
        if c.phase != CoordPhase::ForcingCommit {
            return;
        }
        let yes_subs = c.yes_subs.clone();
        if let Some(req) = req {
            out.push(Action::Resolved {
                req,
                tid: tid.clone(),
                outcome: Outcome::Committed,
                reason: None,
            });
        }
        if !servers.is_empty() {
            out.push(Action::ServerCommit {
                tid: tid.clone(),
                servers,
            });
        }
        self.record_resolution(family, Outcome::Committed);
        if yes_subs.is_empty() {
            // Local-update transaction: nothing to notify.
            out.push(Action::Append {
                rec: LogRecord::End { tid },
            });
            self.forget_family(&family);
            return;
        }
        let fam = self.families.get_mut(&family).expect("family exists");
        let Role::Coord2pc(c) = &mut fam.role else {
            unreachable!("role unchanged")
        };
        c.phase = CoordPhase::Notifying {
            awaiting_acks: yes_subs.clone(),
        };
        let t = self.alloc_timer(TimerPurpose::NotifyResend(family));
        let interval = self.config.notify_resend_interval;
        if let Some(fam) = self.families.get_mut(&family) {
            fam.retry_attempts = 0;
            if let Role::Coord2pc(c) = &mut fam.role {
                c.resend_timer = Some(t);
            }
        }
        self.broadcast(
            out,
            yes_subs.into_iter().collect(),
            TmMessage::Commit { tid },
        );
        out.push(Action::SetTimer {
            token: t,
            after: interval,
        });
        let _ = now;
    }

    /// A subordinate acknowledged that its commit record is durable.
    pub(crate) fn coord2pc_ack(&mut self, out: &mut Vec<Action>, tid: Tid, from: SiteId) {
        let family = tid.family;
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let Role::Coord2pc(c) = &mut fam.role else {
            return;
        };
        let CoordPhase::Notifying { awaiting_acks } = &mut c.phase else {
            return;
        };
        awaiting_acks.remove(&from);
        if awaiting_acks.is_empty() {
            let timer = c.resend_timer.take();
            self.cancel_timer(out, timer);
            out.push(Action::Append {
                rec: LogRecord::End { tid },
            });
            self.forget_family(&family);
        }
    }

    /// Coordinator-side abort: presumed abort means no force and no
    /// acknowledgement collection.
    pub(crate) fn coord2pc_abort(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        reason: AbortReason,
    ) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        let req = fam.commit_req.take();
        let servers: Vec<ServerId> = fam.servers.iter().copied().collect();
        let Role::Coord2pc(c) = &mut fam.role else {
            return;
        };
        let participants = c.participants.clone();
        let timers = [c.vote_timer.take(), c.resend_timer.take()];
        out.push(Action::Append {
            rec: LogRecord::Abort { tid: tid.clone() },
        });
        if let Some(req) = req {
            out.push(Action::Resolved {
                req,
                tid: tid.clone(),
                outcome: Outcome::Aborted,
                reason: Some(reason),
            });
        }
        if !servers.is_empty() {
            out.push(Action::ServerAbort {
                tid: tid.clone(),
                servers,
            });
        }
        for t in timers {
            self.cancel_timer(out, t);
        }
        self.broadcast(out, participants, TmMessage::Abort { tid });
        self.record_resolution(family, Outcome::Aborted);
        self.forget_family(&family);
    }

    /// Application called abort while commitment was in flight.
    pub(crate) fn coordinator_abort_request(
        &mut self,
        out: &mut Vec<Action>,
        req: u64,
        tid: Tid,
        reason: AbortReason,
    ) {
        let family = tid.family;
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let undecided = match &fam.role {
            Role::Coord2pc(c) => {
                matches!(c.phase, CoordPhase::CollectLocal | CoordPhase::CollectVotes)
            }
            Role::CoordNb(c) => {
                matches!(c.phase, crate::family::NbCoordPhase::CollectVotes)
            }
            _ => false,
        };
        if !undecided {
            out.push(Action::Rejected {
                req,
                tid,
                detail: "too late to abort",
            });
            return;
        }
        match &fam.role {
            Role::Coord2pc(_) => self.coord2pc_abort(out, family, reason),
            Role::CoordNb(_) => self.coordnb_abort(out, family, reason),
            _ => unreachable!("undecided implies coordinator role"),
        }
        out.push(Action::Resolved {
            req,
            tid,
            outcome: Outcome::Aborted,
            reason: Some(reason),
        });
    }

    /// Phase-one vote collection timed out.
    pub(crate) fn vote_timeout(&mut self, out: &mut Vec<Action>, family: FamilyId, now: Time) {
        let Some(fam) = self.families.get(&family) else {
            return;
        };
        match &fam.role {
            Role::Coord2pc(c) if c.phase == CoordPhase::CollectVotes => {
                self.coord2pc_abort(out, family, AbortReason::VoteTimeout);
            }
            Role::CoordNb(c) if matches!(c.phase, crate::family::NbCoordPhase::CollectVotes) => {
                self.coordnb_abort(out, family, AbortReason::VoteTimeout);
            }
            _ => {}
        }
        let _ = now;
    }

    /// Re-send unacknowledged notifications (commit notices or
    /// non-blocking outcomes).
    pub(crate) fn notify_resend(&mut self, out: &mut Vec<Action>, family: FamilyId, now: Time) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        enum Plan {
            TwoPhase(Vec<SiteId>),
            Nb(Vec<SiteId>, Outcome),
            Takeover(Vec<SiteId>, Outcome),
        }
        let plan = match &fam.role {
            Role::Coord2pc(c) => match &c.phase {
                CoordPhase::Notifying { awaiting_acks } if !awaiting_acks.is_empty() => {
                    Plan::TwoPhase(awaiting_acks.iter().copied().collect())
                }
                _ => return,
            },
            Role::CoordNb(c) => match &c.phase {
                crate::family::NbCoordPhase::Notifying {
                    awaiting_acks,
                    outcome,
                } if !awaiting_acks.is_empty() => {
                    Plan::Nb(awaiting_acks.iter().copied().collect(), *outcome)
                }
                _ => return,
            },
            Role::Takeover(t) => match &t.phase {
                crate::family::TakeoverPhase::Announcing {
                    awaiting_acks,
                    outcome,
                } if !awaiting_acks.is_empty() => {
                    Plan::Takeover(awaiting_acks.iter().copied().collect(), *outcome)
                }
                _ => return,
            },
            _ => return,
        };
        // Re-arm the timer, backing off each successive resend.
        let t = self.alloc_timer(TimerPurpose::NotifyResend(family));
        let mut attempt = 0;
        if let Some(fam) = self.families.get_mut(&family) {
            fam.retry_attempts += 1;
            attempt = fam.retry_attempts;
            match &mut fam.role {
                Role::Coord2pc(c) => c.resend_timer = Some(t),
                Role::CoordNb(c) => c.resend_timer = Some(t),
                Role::Takeover(tk) => tk.timer = Some(t),
                _ => {}
            }
        }
        let interval = self.retry_after(&family, self.config.notify_resend_interval, attempt);
        out.push(Action::SetTimer {
            token: t,
            after: interval,
        });
        match plan {
            Plan::TwoPhase(sites) => self.broadcast(out, sites, TmMessage::Commit { tid }),
            Plan::Nb(sites, outcome) | Plan::Takeover(sites, outcome) => {
                self.broadcast(out, sites, TmMessage::NbOutcome { tid, outcome })
            }
        }
        let _ = now;
    }

    /// A prepared subordinate (or a recovering site) asks about the
    /// outcome. Presumed abort: unknown means aborted.
    pub(crate) fn answer_inquiry(&mut self, out: &mut Vec<Action>, tid: Tid, from: SiteId) {
        let family = tid.family;
        if let Some(outcome) = self.resolutions.get(&family).copied() {
            self.send(out, from, TmMessage::InquireResp { tid, outcome });
            return;
        }
        if self.families.contains_key(&family) {
            // Still undecided here; the subordinate will ask again.
            return;
        }
        self.send(
            out,
            from,
            TmMessage::InquireResp {
                tid,
                outcome: Outcome::Aborted,
            },
        );
    }

    // =================================================================
    // Subordinate
    // =================================================================

    /// Prepare request from the coordinator.
    pub(crate) fn sub2pc_prepare(
        &mut self,
        out: &mut Vec<Action>,
        tid: Tid,
        coordinator: SiteId,
        now: Time,
    ) {
        let family = tid.family;
        self.retire_orphan_timer(&family);
        match self.families.get_mut(&family) {
            None => {
                // Presumed abort: no information means vote NO. This
                // site cannot tell "no server ever joined here" (or
                // "read-only participation already resolved and
                // forgotten") apart from "a server joined with updates
                // and the site crashed before preparing" — a read-only
                // vote in that last case would let the coordinator
                // commit a transaction whose updates were lost.
                let me = self.site;
                self.send(
                    out,
                    coordinator,
                    TmMessage::VoteMsg {
                        tid,
                        from: me,
                        vote: Vote::No,
                    },
                );
            }
            Some(fam) => match &mut fam.role {
                Role::Executing => {
                    let servers = fam.servers.clone();
                    if servers.is_empty() {
                        let me = self.site;
                        self.forget_family(&family);
                        self.send(
                            out,
                            coordinator,
                            TmMessage::VoteMsg {
                                tid,
                                from: me,
                                vote: Vote::ReadOnly,
                            },
                        );
                        return;
                    }
                    fam.role = Role::Sub2pc(Sub2pc {
                        coordinator,
                        awaiting_local: servers.clone(),
                        local_update: false,
                        phase: SubPhase::CollectLocal,
                        inquiry_timer: None,
                    });
                    out.push(Action::AskVote {
                        tid,
                        servers: servers.into_iter().collect(),
                    });
                }
                // Retransmitted prepare: repeat the vote if we
                // already cast it.
                Role::Sub2pc(s) if s.phase == SubPhase::Prepared => {
                    let me = self.site;
                    self.send(
                        out,
                        coordinator,
                        TmMessage::VoteMsg {
                            tid,
                            from: me,
                            vote: Vote::Yes,
                        },
                    );
                }
                _ => {}
            },
        }
        let _ = now;
    }

    /// A local server's vote while this site is a subordinate.
    pub(crate) fn sub2pc_server_vote(
        &mut self,
        out: &mut Vec<Action>,
        tid: Tid,
        server: ServerId,
        vote: Vote,
        now: Time,
    ) {
        let family = tid.family;
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let Role::Sub2pc(s) = &mut fam.role else {
            return;
        };
        if s.phase != SubPhase::CollectLocal || !s.awaiting_local.remove(&server) {
            return;
        }
        let coordinator = s.coordinator;
        match vote {
            Vote::No => {
                // Unilateral abort before voting: presumed abort lets
                // us forget immediately after telling the coordinator.
                let servers: Vec<ServerId> = fam.servers.iter().copied().collect();
                fam.mark_subtree(&tid, TxnStatus::Aborted);
                out.push(Action::Append {
                    rec: LogRecord::Abort { tid: tid.clone() },
                });
                out.push(Action::ServerAbort {
                    tid: tid.clone(),
                    servers,
                });
                let me = self.site;
                self.record_resolution(family, Outcome::Aborted);
                self.forget_family(&family);
                self.send(
                    out,
                    coordinator,
                    TmMessage::VoteMsg {
                        tid,
                        from: me,
                        vote: Vote::No,
                    },
                );
                return;
            }
            Vote::Yes => s.local_update = true,
            Vote::ReadOnly => {}
        }
        if !s.awaiting_local.is_empty() {
            return;
        }
        if !s.local_update {
            // Read-only site: vote, drop locks, forget (the read-only
            // optimization — no log records, no phase two).
            let servers: Vec<ServerId> = fam.servers.iter().copied().collect();
            out.push(Action::ServerCommit {
                tid: tid.clone(),
                servers,
            });
            let me = self.site;
            self.forget_family(&family);
            self.send(
                out,
                coordinator,
                TmMessage::VoteMsg {
                    tid,
                    from: me,
                    vote: Vote::ReadOnly,
                },
            );
            return;
        }
        s.phase = SubPhase::ForcingPrepared;
        let token = self.alloc_force(ForcePurpose::SubPrepared(family));
        self.stats.forces += 1;
        out.push(Action::Force {
            rec: LogRecord::Prepared { tid, coordinator },
            token,
        });
        let _ = now;
    }

    /// The subordinate's prepared record is durable: vote yes.
    pub(crate) fn sub2pc_prepared_forced(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        now: Time,
    ) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        let Role::Sub2pc(s) = &mut fam.role else {
            return;
        };
        if s.phase != SubPhase::ForcingPrepared {
            return;
        }
        s.phase = SubPhase::Prepared;
        let coordinator = s.coordinator;
        let t = self.alloc_timer(TimerPurpose::Inquiry(family));
        let interval = self.config.inquiry_interval;
        if let Some(fam) = self.families.get_mut(&family) {
            fam.retry_attempts = 0;
            if let Role::Sub2pc(s) = &mut fam.role {
                s.inquiry_timer = Some(t);
            }
        }
        let me = self.site;
        self.send(
            out,
            coordinator,
            TmMessage::VoteMsg {
                tid,
                from: me,
                vote: Vote::Yes,
            },
        );
        out.push(Action::SetTimer {
            token: t,
            after: interval,
        });
        let _ = now;
    }

    /// Commit notice from the coordinator.
    pub(crate) fn sub2pc_commit(&mut self, out: &mut Vec<Action>, tid: Tid, now: Time) {
        let family = tid.family;
        let Some(fam) = self.families.get_mut(&family) else {
            // Already resolved and forgotten here — our ack was lost.
            // Re-acknowledge so the coordinator can forget too.
            let me = self.site;
            let coordinator = family.origin;
            self.queue_ack(out, coordinator, TmMessage::CommitAck { tid, from: me });
            return;
        };
        let servers: Vec<ServerId> = fam.servers.iter().copied().collect();
        let Role::Sub2pc(s) = &mut fam.role else {
            return;
        };
        if s.phase != SubPhase::Prepared {
            return; // Duplicate while already committing.
        }
        let timer = s.inquiry_timer.take();
        self.cancel_timer(out, timer);
        self.record_resolution(family, Outcome::Committed);
        let fam = self.families.get_mut(&family).expect("family exists");
        let Role::Sub2pc(s) = &mut fam.role else {
            unreachable!("role unchanged")
        };
        match self.config.variant {
            TwoPhaseVariant::Optimized => {
                // Delayed-commit optimization: locks dropped *now*,
                // before the commit record is durable; the record is
                // written lazily and the ack waits for durability.
                s.phase = SubPhase::AwaitDurable;
                out.push(Action::ServerCommit {
                    tid: tid.clone(),
                    servers,
                });
                let token = self.alloc_force(ForcePurpose::SubCommitLazy(family));
                self.stats.lazy_appends += 1;
                out.push(Action::AppendNotify {
                    rec: LogRecord::Commit { tid, subs: vec![] },
                    token,
                });
            }
            TwoPhaseVariant::SemiOptimized | TwoPhaseVariant::Unoptimized => {
                // Unoptimized: the subordinate's own commit record
                // indicates commitment, so locks drop only after the
                // force completes.
                s.phase = SubPhase::ForcingCommit;
                let token = self.alloc_force(ForcePurpose::SubCommit(family));
                self.stats.forces += 1;
                out.push(Action::Force {
                    rec: LogRecord::Commit { tid, subs: vec![] },
                    token,
                });
            }
        }
        let _ = now;
    }

    /// Forced subordinate commit record is durable (semi-/unoptimized).
    pub(crate) fn sub2pc_commit_forced(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        let servers: Vec<ServerId> = fam.servers.iter().copied().collect();
        let Role::Sub2pc(s) = &mut fam.role else {
            return;
        };
        if s.phase != SubPhase::ForcingCommit {
            return;
        }
        let coordinator = s.coordinator;
        out.push(Action::ServerCommit {
            tid: tid.clone(),
            servers,
        });
        let me = self.site;
        self.forget_family(&family);
        // `queue_ack` sends immediately when piggybacking is off
        // (unoptimized) and delays otherwise (semi-optimized).
        self.queue_ack(out, coordinator, TmMessage::CommitAck { tid, from: me });
    }

    /// Lazily appended subordinate commit record became durable
    /// (optimized variant): acknowledge now.
    pub(crate) fn sub2pc_commit_durable(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        let Role::Sub2pc(s) = &mut fam.role else {
            return;
        };
        if s.phase != SubPhase::AwaitDurable {
            return;
        }
        let coordinator = s.coordinator;
        let me = self.site;
        self.forget_family(&family);
        self.queue_ack(out, coordinator, TmMessage::CommitAck { tid, from: me });
    }

    /// Inquiry answer from the coordinator.
    pub(crate) fn sub2pc_inquire_resp(
        &mut self,
        out: &mut Vec<Action>,
        tid: Tid,
        outcome: Outcome,
        now: Time,
    ) {
        match outcome {
            Outcome::Committed => self.sub2pc_commit(out, tid, now),
            Outcome::Aborted => self.participant_abort(out, tid),
        }
    }

    /// Periodic inquiry while prepared and in doubt.
    pub(crate) fn sub2pc_inquiry_timer(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        now: Time,
    ) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        let Role::Sub2pc(s) = &mut fam.role else {
            return;
        };
        if s.phase != SubPhase::Prepared {
            return;
        }
        let coordinator = s.coordinator;
        let t = self.alloc_timer(TimerPurpose::Inquiry(family));
        let mut attempt = 0;
        if let Some(fam) = self.families.get_mut(&family) {
            fam.retry_attempts += 1;
            attempt = fam.retry_attempts;
            if let Role::Sub2pc(s) = &mut fam.role {
                s.inquiry_timer = Some(t);
            }
        }
        let me = self.site;
        self.send(out, coordinator, TmMessage::Inquire { tid, from: me });
        let interval = self.retry_after(&family, self.config.inquiry_interval, attempt);
        out.push(Action::SetTimer {
            token: t,
            after: interval,
        });
        let _ = now;
    }
}

/// Internal helper shared with recovery: build a subordinate entry in
/// the prepared state (used when restart finds a prepared record).
pub(crate) fn prepared_subordinate(fam: &mut Family, coordinator: SiteId) {
    fam.role = Role::Sub2pc(Sub2pc {
        coordinator,
        awaiting_local: BTreeSet::new(),
        local_update: true,
        phase: SubPhase::Prepared,
        inquiry_timer: None,
    });
}
