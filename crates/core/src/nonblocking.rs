//! Non-blocking commitment (paper §3.3).
//!
//! A three-phase quorum protocol that lets at least some sites commit
//! or abort in spite of any single site crash or network partition.
//! The five changes relative to two-phase commit, all implemented
//! here:
//!
//! 1. the prepare message carries the full site list and the quorum
//!    sizes;
//! 2. subordinates time out waiting for the outcome and become
//!    coordinators (multiple simultaneous coordinators are tolerated);
//! 3. an extra *replication phase* sits between the standard two: the
//!    coordinator replicates the decision information at subordinates,
//!    and may not decide commit until a commit quorum excludes abort —
//!    the atomic commitment point is the force of a log record that
//!    completes a commit quorum;
//! 4. no transaction manager forgets a transaction until all sites
//!    have resolved it, and no site ever joins both quorums;
//! 5. the coordinator logs its own begin-commit record before the
//!    replication phase may conclude.
//!
//! Read-only subordinates vote and drop their locks immediately; they
//! are recruited into the replication phase only when the update sites
//! alone cannot form the commit quorum ("often need not participate in
//! either the replication or notify phases"). A fully read-only
//! transaction has two-phase commit's critical path.
//!
//! In the failure-free case the critical path of an update
//! transaction is 4 log forces + 5 datagrams, versus 2 + 3 for
//! two-phase commit — the ratio the paper attributes to the inherent
//! cost of non-blocking commitment (Dwork & Skeen).

use std::collections::BTreeSet;

use camelot_net::msg::NbInfo;
use camelot_net::{NbSiteState, Outcome, TmMessage, Vote};
use camelot_types::{AbortReason, FamilyId, ServerId, SiteId, Tid, Time};
use camelot_wal::record::{QuorumKind, ReplicationInfo};
use camelot_wal::LogRecord;

use crate::engine::{Engine, ForcePurpose, TimerPurpose};
use crate::family::{
    CoordNb, Family, NbCoordPhase, NbSubPhase, Role, SubNb, TakeoverPhase, TxnStatus,
};
use crate::io::Action;

/// Converts wire info to the log-record form.
pub(crate) fn info_to_record(i: &NbInfo) -> ReplicationInfo {
    ReplicationInfo {
        sites: i.sites.clone(),
        yes_votes: i.yes_votes.clone(),
        commit_quorum: i.commit_quorum,
        abort_quorum: i.abort_quorum,
    }
}

/// Converts log-record info back to the wire form.
pub(crate) fn info_from_record(i: &ReplicationInfo) -> NbInfo {
    NbInfo {
        sites: i.sites.clone(),
        yes_votes: i.yes_votes.clone(),
        commit_quorum: i.commit_quorum,
        abort_quorum: i.abort_quorum,
    }
}

/// Majority-based quorum sizes over a population of `n` sites:
/// `Vc + Va = n + 1 > n`, so any commit quorum intersects any abort
/// quorum (the Gifford weighted-voting condition the protocol relies
/// on).
pub(crate) fn quorum_sizes(n: usize) -> (u32, u32) {
    let n = n as u32;
    let vc = n / 2 + 1;
    let va = n + 1 - vc;
    (vc, va)
}

impl Engine {
    // =================================================================
    // Coordinator
    // =================================================================

    /// `commit-transaction` with the non-blocking protocol.
    pub(crate) fn commit_nb(
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
        let mut sites = vec![self.site];
        sites.extend(participants.iter().copied());
        let (vc, va) = quorum_sizes(sites.len());
        let info = NbInfo {
            sites,
            yes_votes: Vec::new(),
            commit_quorum: vc,
            abort_quorum: va,
        };
        fam.role = Role::CoordNb(CoordNb {
            info: info.clone(),
            begun: false,
            awaiting_local: servers.clone(),
            local_update: false,
            awaiting_sites: participants.iter().copied().collect(),
            yes_subs: BTreeSet::new(),
            ro_subs: BTreeSet::new(),
            replication_targets: BTreeSet::new(),
            repl_acks: BTreeSet::new(),
            phase: NbCoordPhase::CollectVotes,
            vote_timer: None,
            resend_timer: None,
        });
        // Change 5: the coordinator logs its begin record up front.
        // The force proceeds concurrently with phase one (it gates
        // only the replication phase), which is why a fully read-only
        // transaction keeps two-phase commit's critical path.
        let token = self.alloc_force(ForcePurpose::NbBegin(tid.family));
        self.stats.forces += 1;
        out.push(Action::Force {
            rec: LogRecord::NbBegin {
                tid: tid.clone(),
                info: info_to_record(&info),
            },
            token,
        });
        if !servers.is_empty() {
            out.push(Action::AskVote {
                tid: tid.clone(),
                servers: servers.into_iter().collect(),
            });
        }
        if !participants.is_empty() {
            let t = self.alloc_timer(TimerPurpose::VoteTimeout(tid.family));
            let timeout = self.config.vote_timeout;
            if let Some(fam) = self.families.get_mut(&tid.family) {
                if let Role::CoordNb(c) = &mut fam.role {
                    c.vote_timer = Some(t);
                }
            }
            self.broadcast(
                out,
                participants,
                TmMessage::NbPrepare {
                    tid: tid.clone(),
                    coordinator: self.site,
                    info,
                },
            );
            out.push(Action::SetTimer {
                token: t,
                after: timeout,
            });
        }
        self.coordnb_maybe_proceed(out, tid.family, now);
    }

    /// A local server's vote while coordinating a non-blocking commit.
    pub(crate) fn coordnb_server_vote(
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
        let Role::CoordNb(c) = &mut fam.role else {
            return;
        };
        if !matches!(c.phase, NbCoordPhase::CollectVotes) || !c.awaiting_local.remove(&server) {
            return;
        }
        match vote {
            Vote::No => {
                self.coordnb_abort(out, family, AbortReason::ServerVetoed);
                return;
            }
            Vote::Yes => c.local_update = true,
            Vote::ReadOnly => {}
        }
        self.coordnb_maybe_proceed(out, family, now);
    }

    /// A subordinate's vote arrived.
    pub(crate) fn coordnb_vote(
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
        let Role::CoordNb(c) = &mut fam.role else {
            return;
        };
        if !matches!(c.phase, NbCoordPhase::CollectVotes) || !c.awaiting_sites.remove(&from) {
            return;
        }
        match vote {
            Vote::No => {
                self.coordnb_abort(out, family, AbortReason::ServerVetoed);
                return;
            }
            Vote::Yes => {
                c.yes_subs.insert(from);
            }
            Vote::ReadOnly => {
                c.ro_subs.insert(from);
            }
        }
        self.coordnb_maybe_proceed(out, family, now);
    }

    /// The coordinator's begin record is durable.
    pub(crate) fn coordnb_begin_forced(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        now: Time,
    ) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let Role::CoordNb(c) = &mut fam.role else {
            return;
        };
        c.begun = true;
        self.coordnb_maybe_proceed(out, family, now);
    }

    /// Checks whether phase one is complete (all votes in, begin
    /// record durable) and advances to the replication phase or to a
    /// read-only commit.
    fn coordnb_maybe_proceed(&mut self, out: &mut Vec<Action>, family: FamilyId, now: Time) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        let Role::CoordNb(c) = &mut fam.role else {
            return;
        };
        if !matches!(c.phase, NbCoordPhase::CollectVotes) {
            return;
        }
        if !c.awaiting_local.is_empty() || !c.awaiting_sites.is_empty() {
            return;
        }
        // All votes are in (all yes / read-only).
        let timer = c.vote_timer.take();
        if !c.local_update && c.yes_subs.is_empty() {
            // Fully read-only: commit with no further log writes or
            // messages — same critical path as two-phase commit.
            self.cancel_timer(out, timer);
            self.stats.read_only_commits += 1;
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
                out.push(Action::ServerCommit {
                    tid: tid.clone(),
                    servers,
                });
            }
            out.push(Action::Append {
                rec: LogRecord::End { tid },
            });
            self.record_resolution(family, Outcome::Committed);
            self.forget_family(&family);
            return;
        }
        // An update exists: the replication phase needs the begin
        // record durable first (change 5 gates the decision).
        if !c.begun {
            c.vote_timer = timer; // Restore; still waiting on the log.
            return;
        }
        self.cancel_timer(out, timer);
        let fam = self.families.get_mut(&family).expect("family exists");
        let Role::CoordNb(c) = &mut fam.role else {
            unreachable!("role unchanged")
        };
        // Decide replication targets: update subordinates, plus just
        // enough read-only subordinates if the quorum demands more.
        let mut targets: BTreeSet<SiteId> = c.yes_subs.clone();
        let vc = c.info.commit_quorum as usize;
        for ro in &c.ro_subs {
            if targets.len() + 1 >= vc {
                break;
            }
            targets.insert(*ro);
        }
        let mut yes_votes: Vec<SiteId> = vec![self.site];
        yes_votes.extend(c.yes_subs.iter().copied());
        c.info.yes_votes = yes_votes;
        c.replication_targets = targets.clone();
        if targets.is_empty() {
            // Only local updates: our commit record alone completes
            // the (singleton) quorum.
            c.phase = NbCoordPhase::ForcingCommit;
            let token = self.alloc_force(ForcePurpose::NbCoordCommit(family));
            self.stats.forces += 1;
            out.push(Action::Force {
                rec: LogRecord::Commit { tid, subs: vec![] },
                token,
            });
            return;
        }
        c.phase = NbCoordPhase::Replicating;
        let info = c.info.clone();
        // A single lost replicate request (or ack) must not park the
        // quorum: a watchdog re-sends until every ack is in.
        let t = self.alloc_timer(TimerPurpose::ReplicateResend(family));
        if let Some(fam) = self.families.get_mut(&family) {
            fam.retry_attempts = 0;
            if let Role::CoordNb(c) = &mut fam.role {
                c.resend_timer = Some(t);
            }
        }
        self.broadcast(
            out,
            targets.into_iter().collect(),
            TmMessage::NbReplicate { tid, info },
        );
        out.push(Action::SetTimer {
            token: t,
            after: self.config.notify_resend_interval,
        });
        let _ = now;
    }

    /// Replication-phase watchdog fired: re-send `NbReplicate` to
    /// every target whose ack is still missing, backing off each
    /// round ("if some operation fails to respond, the site that
    /// invoked it should eventually" retry). Without this, one lost
    /// replicate datagram stalls the coordinator in `Replicating`
    /// forever — and no subordinate takeover can rescue it, because a
    /// *live* coordinator answers status requests with `Prepared`
    /// while never re-driving its own quorum.
    pub(crate) fn coordnb_replicate_resend(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        _now: Time,
    ) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        let (missing, info) = match &fam.role {
            Role::CoordNb(c) if matches!(c.phase, NbCoordPhase::Replicating) => (
                c.replication_targets
                    .difference(&c.repl_acks)
                    .copied()
                    .collect::<Vec<SiteId>>(),
                c.info.clone(),
            ),
            _ => return,
        };
        if missing.is_empty() {
            return;
        }
        let t = self.alloc_timer(TimerPurpose::ReplicateResend(family));
        let mut attempt = 0;
        if let Some(fam) = self.families.get_mut(&family) {
            fam.retry_attempts += 1;
            attempt = fam.retry_attempts;
            if let Role::CoordNb(c) = &mut fam.role {
                c.resend_timer = Some(t);
            }
        }
        let interval = self.retry_after(&family, self.config.notify_resend_interval, attempt);
        out.push(Action::SetTimer {
            token: t,
            after: interval,
        });
        self.broadcast(out, missing, TmMessage::NbReplicate { tid, info });
    }

    /// A replicate-ack arrived (routes by role: normal coordinator or
    /// takeover recruiting).
    pub(crate) fn nb_replicate_ack(
        &mut self,
        out: &mut Vec<Action>,
        tid: Tid,
        from: SiteId,
        joined: bool,
        now: Time,
    ) {
        let family = tid.family;
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        match &mut fam.role {
            Role::CoordNb(c) => {
                if !matches!(c.phase, NbCoordPhase::Replicating) {
                    return;
                }
                if !joined {
                    // A site refused (abort quorum member): only
                    // possible during termination races; abort.
                    self.coordnb_abort(out, family, AbortReason::AbortQuorum);
                    return;
                }
                c.repl_acks.insert(from);
                // Our own forced commit record will complete the
                // quorum (+1).
                if c.repl_acks.len() + 1 >= c.info.commit_quorum as usize {
                    c.phase = NbCoordPhase::ForcingCommit;
                    let subs: Vec<SiteId> = c.replication_targets.iter().copied().collect();
                    let watchdog = c.resend_timer.take();
                    self.cancel_timer(out, watchdog);
                    let token = self.alloc_force(ForcePurpose::NbCoordCommit(family));
                    self.stats.forces += 1;
                    out.push(Action::Force {
                        rec: LogRecord::Commit { tid, subs },
                        token,
                    });
                }
            }
            Role::Takeover(t) => {
                if !matches!(t.phase, TakeoverPhase::RecruitCommit) {
                    return;
                }
                if joined {
                    t.replicated.insert(from);
                    if t.replicated.len() >= t.info.commit_quorum as usize {
                        self.takeover_finish(out, family, Outcome::Committed, now);
                    }
                } else {
                    t.abort_joined.insert(from);
                }
            }
            _ => {}
        }
    }

    /// The coordinator's commit record is durable: the commit quorum
    /// is complete — the commitment point.
    pub(crate) fn coordnb_commit_forced(
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
        let Role::CoordNb(c) = &mut fam.role else {
            return;
        };
        if !matches!(c.phase, NbCoordPhase::ForcingCommit) {
            return;
        }
        let notify: BTreeSet<SiteId> = c.replication_targets.clone();
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
        if notify.is_empty() {
            out.push(Action::Append {
                rec: LogRecord::End { tid },
            });
            self.forget_family(&family);
            return;
        }
        let fam = self.families.get_mut(&family).expect("family exists");
        let Role::CoordNb(c) = &mut fam.role else {
            unreachable!("role unchanged")
        };
        c.phase = NbCoordPhase::Notifying {
            awaiting_acks: notify.clone(),
            outcome: Outcome::Committed,
        };
        let t = self.alloc_timer(TimerPurpose::NotifyResend(family));
        let interval = self.config.notify_resend_interval;
        if let Some(fam) = self.families.get_mut(&family) {
            fam.retry_attempts = 0;
            if let Role::CoordNb(c) = &mut fam.role {
                c.resend_timer = Some(t);
            }
        }
        self.broadcast(
            out,
            notify.into_iter().collect(),
            TmMessage::NbOutcome {
                tid,
                outcome: Outcome::Committed,
            },
        );
        out.push(Action::SetTimer {
            token: t,
            after: interval,
        });
        let _ = now;
    }

    /// Coordinator-side abort of a non-blocking commitment.
    pub(crate) fn coordnb_abort(
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
        let Role::CoordNb(c) = &mut fam.role else {
            return;
        };
        // Everyone who may hold protocol state: every participant
        // except read-only voters (who already dropped out). That
        // includes no-voters (their tombstones wait for the outcome)
        // and sites whose votes never arrived.
        let me = self.site;
        let notify: BTreeSet<SiteId> = c
            .info
            .sites
            .iter()
            .copied()
            .filter(|s| *s != me && !c.ro_subs.contains(s))
            .collect();
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
        self.record_resolution(family, Outcome::Aborted);
        if notify.is_empty() {
            self.forget_family(&family);
            return;
        }
        let fam = self.families.get_mut(&family).expect("family exists");
        let Role::CoordNb(c) = &mut fam.role else {
            unreachable!("role unchanged")
        };
        c.phase = NbCoordPhase::Notifying {
            awaiting_acks: notify.clone(),
            outcome: Outcome::Aborted,
        };
        let t = self.alloc_timer(TimerPurpose::NotifyResend(family));
        let interval = self.config.notify_resend_interval;
        if let Some(fam) = self.families.get_mut(&family) {
            fam.retry_attempts = 0;
            if let Role::CoordNb(c) = &mut fam.role {
                c.resend_timer = Some(t);
            }
        }
        self.broadcast(
            out,
            notify.into_iter().collect(),
            TmMessage::NbOutcome {
                tid,
                outcome: Outcome::Aborted,
            },
        );
        out.push(Action::SetTimer {
            token: t,
            after: interval,
        });
    }

    /// An outcome-ack arrived at whoever announced the outcome.
    pub(crate) fn nb_outcome_ack(&mut self, out: &mut Vec<Action>, tid: Tid, from: SiteId) {
        let family = tid.family;
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let me = self.site;
        let (done, targets) = match &mut fam.role {
            Role::CoordNb(c) => match &mut c.phase {
                NbCoordPhase::Notifying { awaiting_acks, .. } => {
                    awaiting_acks.remove(&from);
                    // Everyone that may hold a tombstone gets the
                    // forget note: every non-read-only participant,
                    // plus read-only sites that were recruited into
                    // the replication phase. Sites that never kept
                    // state ignore it.
                    let mut targets: BTreeSet<SiteId> = c
                        .info
                        .sites
                        .iter()
                        .copied()
                        .filter(|s| *s != me && !c.ro_subs.contains(s))
                        .collect();
                    targets.extend(c.replication_targets.iter().copied());
                    targets.remove(&me);
                    (awaiting_acks.is_empty(), targets)
                }
                _ => return,
            },
            Role::Takeover(t) => match &mut t.phase {
                TakeoverPhase::Announcing { awaiting_acks, .. } => {
                    awaiting_acks.remove(&from);
                    let targets: BTreeSet<SiteId> = t
                        .info
                        .sites
                        .iter()
                        .copied()
                        .filter(|s| *s != self.site)
                        .collect();
                    (awaiting_acks.is_empty(), targets)
                }
                _ => return,
            },
            _ => return,
        };
        if !done {
            return;
        }
        let timer = match &mut fam.role {
            Role::CoordNb(c) => c.resend_timer.take(),
            Role::Takeover(t) => t.timer.take(),
            _ => None,
        };
        self.cancel_timer(out, timer);
        // Change 4 epilogue: everyone has resolved; release the
        // tombstones and forget.
        self.broadcast(
            out,
            targets.into_iter().collect(),
            TmMessage::NbForget { tid: tid.clone() },
        );
        out.push(Action::Append {
            rec: LogRecord::End { tid },
        });
        self.forget_family(&family);
    }

    // =================================================================
    // Subordinate
    // =================================================================

    /// Non-blocking prepare request.
    pub(crate) fn subnb_prepare(
        &mut self,
        out: &mut Vec<Action>,
        tid: Tid,
        coordinator: SiteId,
        info: NbInfo,
        now: Time,
    ) {
        let family = tid.family;
        self.retire_orphan_timer(&family);
        match self.families.get_mut(&family) {
            None => {
                // Presumed abort: no information means vote NO (see
                // `sub2pc_prepare` — a crash here may have lost joined
                // updates, so a read-only vote is unsound).
                let me = self.site;
                self.send(
                    out,
                    coordinator,
                    TmMessage::NbVote {
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
                            TmMessage::NbVote {
                                tid,
                                from: me,
                                vote: Vote::ReadOnly,
                            },
                        );
                        return;
                    }
                    fam.role = Role::SubNb(SubNb {
                        coordinator,
                        info,
                        awaiting_local: servers.clone(),
                        local_update: false,
                        phase: NbSubPhase::CollectLocal,
                        outcome: None,
                        outcome_timer: None,
                        joined: None,
                        pending_ack_to: None,
                    });
                    out.push(Action::AskVote {
                        tid,
                        servers: servers.into_iter().collect(),
                    });
                }
                Role::SubNb(s) => {
                    if matches!(s.phase, NbSubPhase::Prepared | NbSubPhase::Replicated) {
                        let me = self.site;
                        self.send(
                            out,
                            coordinator,
                            TmMessage::NbVote {
                                tid,
                                from: me,
                                vote: Vote::Yes,
                            },
                        );
                    }
                }
                _ => {}
            },
        }
        let _ = now;
    }

    /// A local server's vote while this site is a non-blocking
    /// subordinate.
    pub(crate) fn subnb_server_vote(
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
        let Role::SubNb(s) = &mut fam.role else {
            return;
        };
        if s.phase != NbSubPhase::CollectLocal || !s.awaiting_local.remove(&server) {
            return;
        }
        let coordinator = s.coordinator;
        match vote {
            Vote::No => {
                // Unilateral abort. Unlike presumed-abort 2PC we keep
                // a tombstone: status requests must see "aborted"
                // until the coordinator's forget note (change 4).
                s.phase = NbSubPhase::Resolved;
                s.outcome = Some(Outcome::Aborted);
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
                self.send(
                    out,
                    coordinator,
                    TmMessage::NbVote {
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
            // Read-only subordinate: vote, drop locks, forget ("writes
            // no log records and exchanges only one round of
            // messages"). If the quorum later needs us, NbReplicate
            // recreates the state.
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
                TmMessage::NbVote {
                    tid,
                    from: me,
                    vote: Vote::ReadOnly,
                },
            );
            return;
        }
        s.phase = NbSubPhase::ForcingPrepared;
        let sites = s.info.sites.clone();
        let token = self.alloc_force(ForcePurpose::NbSubPrepared(family));
        self.stats.forces += 1;
        out.push(Action::Force {
            rec: LogRecord::NbPrepared {
                tid,
                coordinator,
                sites,
            },
            token,
        });
        let _ = now;
    }

    /// Prepared record durable: cast the yes vote, start the outcome
    /// timer (change 2: we will take over if the coordinator goes
    /// silent).
    pub(crate) fn subnb_prepared_forced(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        now: Time,
    ) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        let Role::SubNb(s) = &mut fam.role else {
            return;
        };
        if s.phase != NbSubPhase::ForcingPrepared {
            return;
        }
        s.phase = NbSubPhase::Prepared;
        let coordinator = s.coordinator;
        let t = self.alloc_timer(TimerPurpose::NbOutcome(family));
        let timeout = self.config.nb_outcome_timeout;
        if let Some(fam) = self.families.get_mut(&family) {
            fam.retry_attempts = 0;
            if let Role::SubNb(s) = &mut fam.role {
                s.outcome_timer = Some(t);
            }
        }
        let me = self.site;
        self.send(
            out,
            coordinator,
            TmMessage::NbVote {
                tid,
                from: me,
                vote: Vote::Yes,
            },
        );
        out.push(Action::SetTimer {
            token: t,
            after: timeout,
        });
        let _ = now;
    }

    /// Replication-phase request: force the decision information and
    /// thereby join the commit quorum.
    pub(crate) fn subnb_replicate(
        &mut self,
        out: &mut Vec<Action>,
        from: SiteId,
        tid: Tid,
        info: NbInfo,
        now: Time,
    ) {
        let family = tid.family;
        let fam = self
            .families
            .entry(family)
            .or_insert_with(|| Family::new(family));
        match &mut fam.role {
            Role::Executing => {
                // A read-only participant being recruited into the
                // quorum (it forgot after voting): rebuild state.
                fam.role = Role::SubNb(SubNb {
                    coordinator: from,
                    info: info.clone(),
                    awaiting_local: BTreeSet::new(),
                    local_update: false,
                    phase: NbSubPhase::Prepared,
                    outcome: None,
                    outcome_timer: None,
                    joined: None,
                    pending_ack_to: None,
                });
                self.subnb_do_replicate(out, family, from, tid, info, now);
            }
            Role::SubNb(s) => match s.phase {
                NbSubPhase::Prepared => {
                    if s.joined == Some(QuorumKind::Abort) {
                        let me = self.site;
                        self.send(
                            out,
                            from,
                            TmMessage::NbReplicateAck {
                                tid,
                                from: me,
                                joined: false,
                            },
                        );
                        return;
                    }
                    self.subnb_do_replicate(out, family, from, tid, info, now);
                }
                NbSubPhase::Replicated => {
                    // Duplicate: re-acknowledge.
                    let me = self.site;
                    self.send(
                        out,
                        from,
                        TmMessage::NbReplicateAck {
                            tid,
                            from: me,
                            joined: true,
                        },
                    );
                }
                NbSubPhase::Resolved => {
                    let joined = s.outcome == Some(Outcome::Committed);
                    let me = self.site;
                    self.send(
                        out,
                        from,
                        TmMessage::NbReplicateAck {
                            tid,
                            from: me,
                            joined,
                        },
                    );
                }
                _ => {} // Mid-force; the requester will retry.
            },
            Role::Takeover(t) => {
                // Another coordinator recruits us while we run our own
                // takeover: cooperate if we have not joined abort.
                if t.joined == Some(QuorumKind::Abort) {
                    let me = self.site;
                    self.send(
                        out,
                        from,
                        TmMessage::NbReplicateAck {
                            tid,
                            from: me,
                            joined: false,
                        },
                    );
                } else if t.self_state == NbSiteState::Replicated {
                    let me = self.site;
                    self.send(
                        out,
                        from,
                        TmMessage::NbReplicateAck {
                            tid,
                            from: me,
                            joined: true,
                        },
                    );
                } else {
                    self.subnb_do_replicate(out, family, from, tid, info, now);
                }
            }
            _ => {}
        }
    }

    /// Appends the quorum-join marker and forces the replication
    /// record.
    fn subnb_do_replicate(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        reply_to: SiteId,
        tid: Tid,
        info: NbInfo,
        _now: Time,
    ) {
        if let Some(fam) = self.families.get_mut(&family) {
            match &mut fam.role {
                Role::SubNb(s) => {
                    s.phase = NbSubPhase::ForcingReplicate;
                    s.pending_ack_to = Some(reply_to);
                    s.info = info.clone();
                }
                Role::Takeover(t) => {
                    // Self-recruiting is routed through the takeover
                    // handlers; remember the peer for the ack.
                    t.info = info.clone();
                }
                _ => return,
            }
        }
        out.push(Action::Append {
            rec: LogRecord::NbQuorum {
                tid: tid.clone(),
                kind: QuorumKind::Commit,
            },
        });
        let token = self.alloc_force(ForcePurpose::NbSubReplicate(family));
        self.stats.forces += 1;
        out.push(Action::Force {
            rec: LogRecord::NbReplicate {
                tid,
                info: info_to_record(&info),
            },
            token,
        });
    }

    /// Replication record durable: we are now a commit-quorum member.
    pub(crate) fn subnb_replicate_forced(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        now: Time,
    ) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        match &mut fam.role {
            Role::SubNb(s) => {
                if s.phase != NbSubPhase::ForcingReplicate {
                    return;
                }
                s.phase = NbSubPhase::Replicated;
                s.joined = Some(QuorumKind::Commit);
                let reply_to = s.pending_ack_to.take().unwrap_or(s.coordinator);
                // Restart the outcome timer: progress was made.
                let old = s.outcome_timer.take();
                self.cancel_timer(out, old);
                let t = self.alloc_timer(TimerPurpose::NbOutcome(family));
                let timeout = self.config.nb_outcome_timeout;
                if let Some(fam) = self.families.get_mut(&family) {
                    fam.retry_attempts = 0;
                    if let Role::SubNb(s) = &mut fam.role {
                        s.outcome_timer = Some(t);
                    }
                }
                let me = self.site;
                self.send(
                    out,
                    reply_to,
                    TmMessage::NbReplicateAck {
                        tid,
                        from: me,
                        joined: true,
                    },
                );
                out.push(Action::SetTimer {
                    token: t,
                    after: timeout,
                });
            }
            Role::Takeover(t) => {
                // Our own recruit-self force completed.
                t.self_state = NbSiteState::Replicated;
                t.joined = Some(QuorumKind::Commit);
                t.replicated.insert(self.site);
                if matches!(t.phase, TakeoverPhase::RecruitCommit)
                    && t.replicated.len() >= t.info.commit_quorum as usize
                {
                    self.takeover_finish(out, family, Outcome::Committed, now);
                }
            }
            _ => {}
        }
    }

    /// The outcome notice (from the original coordinator or a
    /// takeover coordinator).
    pub(crate) fn subnb_outcome(
        &mut self,
        out: &mut Vec<Action>,
        from: SiteId,
        tid: Tid,
        outcome: Outcome,
        now: Time,
    ) {
        let family = tid.family;
        let me = self.site;
        let Some(fam) = self.families.get_mut(&family) else {
            // Already forgotten: re-acknowledge so the sender can
            // finish.
            self.send(out, from, TmMessage::NbOutcomeAck { tid, from: me });
            return;
        };
        let servers: Vec<ServerId> = fam.servers.iter().copied().collect();
        match &mut fam.role {
            Role::SubNb(s) => {
                match s.phase {
                    NbSubPhase::Resolved => {
                        // Tombstone: re-ack.
                        self.send(out, from, TmMessage::NbOutcomeAck { tid, from: me });
                        return;
                    }
                    NbSubPhase::CommitAwaitDurable => return, // Ack under way.
                    _ => {}
                }
                let timer = s.outcome_timer.take();
                s.outcome = Some(outcome);
                match outcome {
                    Outcome::Committed => {
                        s.phase = NbSubPhase::CommitAwaitDurable;
                        s.pending_ack_to = Some(from);
                        self.cancel_timer(out, timer);
                        out.push(Action::ServerCommit {
                            tid: tid.clone(),
                            servers,
                        });
                        self.record_resolution(family, Outcome::Committed);
                        // The outcome record is lazy: each site forces
                        // only two records in this protocol (prepared
                        // and replication).
                        let token = self.alloc_force(ForcePurpose::NbSubOutcomeLazy(family));
                        self.stats.lazy_appends += 1;
                        out.push(Action::AppendNotify {
                            rec: LogRecord::Commit { tid, subs: vec![] },
                            token,
                        });
                    }
                    Outcome::Aborted => {
                        s.phase = NbSubPhase::Resolved;
                        self.cancel_timer(out, timer);
                        out.push(Action::Append {
                            rec: LogRecord::Abort { tid: tid.clone() },
                        });
                        if !servers.is_empty() {
                            out.push(Action::ServerAbort {
                                tid: tid.clone(),
                                servers,
                            });
                        }
                        self.record_resolution(family, Outcome::Aborted);
                        self.send(out, from, TmMessage::NbOutcomeAck { tid, from: me });
                    }
                }
            }
            Role::Takeover(t) => {
                // Someone else finished first: adopt their outcome.
                let timer = t.timer.take();
                let local_update = t.local_update;
                self.cancel_timer(out, timer);
                match outcome {
                    Outcome::Committed => {
                        if local_update {
                            out.push(Action::ServerCommit {
                                tid: tid.clone(),
                                servers,
                            });
                        }
                        self.record_resolution(family, Outcome::Committed);
                        let token = self.alloc_force(ForcePurpose::NbSubOutcomeLazy(family));
                        self.stats.lazy_appends += 1;
                        if let Some(fam) = self.families.get_mut(&family) {
                            fam.role = Role::SubNb(SubNb {
                                coordinator: from,
                                info: NbInfo {
                                    sites: vec![],
                                    yes_votes: vec![],
                                    commit_quorum: 0,
                                    abort_quorum: 0,
                                },
                                awaiting_local: BTreeSet::new(),
                                local_update,
                                phase: NbSubPhase::CommitAwaitDurable,
                                outcome: Some(Outcome::Committed),
                                outcome_timer: None,
                                joined: Some(QuorumKind::Commit),
                                pending_ack_to: Some(from),
                            });
                        }
                        out.push(Action::AppendNotify {
                            rec: LogRecord::Commit { tid, subs: vec![] },
                            token,
                        });
                    }
                    Outcome::Aborted => {
                        out.push(Action::Append {
                            rec: LogRecord::Abort { tid: tid.clone() },
                        });
                        if !servers.is_empty() {
                            out.push(Action::ServerAbort {
                                tid: tid.clone(),
                                servers,
                            });
                        }
                        self.record_resolution(family, Outcome::Aborted);
                        if let Some(fam) = self.families.get_mut(&family) {
                            fam.role = Role::SubNb(SubNb {
                                coordinator: from,
                                info: NbInfo {
                                    sites: vec![],
                                    yes_votes: vec![],
                                    commit_quorum: 0,
                                    abort_quorum: 0,
                                },
                                awaiting_local: BTreeSet::new(),
                                local_update,
                                phase: NbSubPhase::Resolved,
                                outcome: Some(Outcome::Aborted),
                                outcome_timer: None,
                                joined: None,
                                pending_ack_to: None,
                            });
                        }
                        self.send(out, from, TmMessage::NbOutcomeAck { tid, from: me });
                    }
                }
            }
            Role::CoordNb(c) => {
                // A takeover coordinator finished our transaction
                // while we were slow (not crashed). Adopt.
                let req = fam.commit_req.take();
                let timers = [c.vote_timer.take(), c.resend_timer.take()];
                for t in timers {
                    self.cancel_timer(out, t);
                }
                if let Some(req) = req {
                    out.push(Action::Resolved {
                        req,
                        tid: tid.clone(),
                        outcome,
                        reason: (outcome == Outcome::Aborted).then_some(AbortReason::SiteFailure),
                    });
                }
                match outcome {
                    Outcome::Committed => {
                        if !servers.is_empty() {
                            out.push(Action::ServerCommit {
                                tid: tid.clone(),
                                servers,
                            });
                        }
                        out.push(Action::Append {
                            rec: LogRecord::Commit {
                                tid: tid.clone(),
                                subs: vec![],
                            },
                        });
                    }
                    Outcome::Aborted => {
                        if !servers.is_empty() {
                            out.push(Action::ServerAbort {
                                tid: tid.clone(),
                                servers,
                            });
                        }
                        out.push(Action::Append {
                            rec: LogRecord::Abort { tid: tid.clone() },
                        });
                    }
                }
                self.record_resolution(family, outcome);
                self.forget_family(&family);
                self.send(out, from, TmMessage::NbOutcomeAck { tid, from: me });
            }
            _ => {}
        }
        let _ = now;
    }

    /// Lazy commit record became durable: acknowledge the outcome.
    pub(crate) fn subnb_outcome_durable(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        let Role::SubNb(s) = &mut fam.role else {
            return;
        };
        if s.phase != NbSubPhase::CommitAwaitDurable {
            return;
        }
        s.phase = NbSubPhase::Resolved;
        let to = s.pending_ack_to.take().unwrap_or(s.coordinator);
        let me = self.site;
        self.send(out, to, TmMessage::NbOutcomeAck { tid, from: me });
    }
}
