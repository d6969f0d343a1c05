//! Non-blocking commitment (paper §3.3).
//!
//! A three-phase quorum protocol that lets at least some sites commit
//! or abort in spite of any single site crash or network partition.
//! It is two-phase commit plus five changes, and this module (with
//! [`crate::takeover`] for change 2) holds only the changes. What the
//! protocols share is stated once elsewhere: the vote tally in
//! [`crate::family::Tally`]; the admission of the commit call, the
//! subordinate's whole phase one, the coordinator's commit point and
//! the collection of acknowledgements in [`crate::twophase`]; the
//! resolution epilogue, the announcement of an outcome and the timer
//! helpers in [`crate::engine`]. The five changes:
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
use camelot_net::{Outcome, TmMessage};
use camelot_types::{AbortReason, FamilyId, SiteId, Tid};
use camelot_wal::record::{QuorumKind, ReplicationInfo};
use camelot_wal::LogRecord;

use crate::config::CommitMode;
use crate::engine::{Engine, ForceKind, TimerKind};
use crate::family::{
    Announcing, CoordNb, CoordPhase, Family, Role, SubNb, SubPhase, TakeoverPhase, Tally,
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

/// The decision information of a commitment over `sites`, before any
/// vote, with majority-based quorum sizes: `Vc + Va = n + 1 > n`, so
/// any commit quorum intersects any abort quorum (the Gifford
/// weighted-voting condition the protocol relies on).
pub(crate) fn quorum_info(sites: Vec<SiteId>) -> NbInfo {
    let n = sites.len() as u32;
    let commit_quorum = n / 2 + 1;
    let abort_quorum = n + 1 - commit_quorum;
    NbInfo {
        sites,
        yes_votes: Vec::new(),
        commit_quorum,
        abort_quorum,
    }
}

impl Engine {
    // =================================================================
    // Coordinator
    // =================================================================

    /// Non-blocking commit opens with changes 5 and 1: the begin
    /// record is forced up front, and the prepares — sent at once,
    /// concurrently with the local vote collection — carry the full
    /// site list and the quorum sizes.
    pub(crate) fn open_nb(&mut self, out: &mut Vec<Action>, tid: Tid, participants: Vec<SiteId>) {
        let family = tid.family;
        let fam = self.families.get_mut(&family).expect("admitted");
        let servers = fam.servers.clone();
        let mut sites = vec![self.site];
        sites.extend(participants.iter().copied());
        let info = quorum_info(sites);
        fam.role = Role::CoordNb(CoordNb {
            info: info.clone(),
            begun: false,
            tally: Tally {
                awaiting_sites: participants.iter().copied().collect(),
                ..Tally::collecting(servers.clone())
            },
            replication_targets: BTreeSet::new(),
            repl_acks: BTreeSet::new(),
            phase: CoordPhase::CollectVotes,
        });
        // Change 5: the coordinator logs its begin record up front.
        // The force proceeds concurrently with phase one (it gates
        // only the replication phase), which is why a fully read-only
        // transaction keeps two-phase commit's critical path.
        let rec = LogRecord::NbBegin {
            tid: tid.clone(),
            info: info_to_record(&info),
        };
        self.force(out, ForceKind::NbBegin, family, rec);
        if !servers.is_empty() {
            out.push(Action::AskVote {
                tid: tid.clone(),
                servers: servers.into_iter().collect(),
            });
        }
        if !participants.is_empty() {
            self.arm(
                out,
                TimerKind::VoteTimeout,
                family,
                self.config.vote_timeout,
            );
            let coordinator = self.site;
            self.broadcast(
                out,
                participants,
                TmMessage::NbPrepare {
                    tid,
                    coordinator,
                    info,
                },
            );
        }
        self.coordnb_maybe_proceed(out, family);
    }

    /// The coordinator's begin record is durable.
    pub(crate) fn coordnb_begin_forced(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        if let Some(Role::CoordNb(c)) = self.families.get_mut(&family).map(|f| &mut f.role) {
            c.begun = true;
            self.coordnb_maybe_proceed(out, family);
        }
    }

    /// Checks whether phase one is complete (all votes in, begin
    /// record durable) and advances to the replication phase or to a
    /// read-only commit.
    pub(crate) fn coordnb_maybe_proceed(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        let Role::CoordNb(c) = &mut fam.role else {
            return;
        };
        if c.phase != CoordPhase::CollectVotes || !c.tally.all_in() {
            return;
        }
        // All votes are in (all yes / read-only).
        if !c.tally.any_update() {
            // Fully read-only: commit with no further log writes or
            // messages — same critical path as two-phase commit.
            self.stats.read_only_commits += 1;
            self.resolve_here(out, family, Outcome::Committed, None);
            self.end_family(out, family, Vec::new());
            return;
        }
        // An update exists: the replication phase needs the begin
        // record durable first (change 5 gates the decision); the
        // vote timer keeps running until it is.
        if !c.begun {
            return;
        }
        // Decide replication targets: update subordinates, plus just
        // enough read-only subordinates if the quorum demands more.
        let mut targets: BTreeSet<SiteId> = c.tally.yes_subs.clone();
        let vc = c.info.commit_quorum as usize;
        for ro in &c.tally.ro_subs {
            if targets.len() + 1 >= vc {
                break;
            }
            targets.insert(*ro);
        }
        let mut yes_votes: Vec<SiteId> = vec![self.site];
        yes_votes.extend(c.tally.yes_subs.iter().copied());
        c.info.yes_votes = yes_votes;
        c.replication_targets = targets.clone();
        let info = c.info.clone();
        c.phase = if targets.is_empty() {
            CoordPhase::ForcingCommit
        } else {
            CoordPhase::Replicating
        };
        self.disarm(out, family);
        if targets.is_empty() {
            // Only local updates: our commit record alone completes
            // the (singleton) quorum.
            let rec = LogRecord::Commit { tid, subs: vec![] };
            self.force(out, ForceKind::NbCoordCommit, family, rec);
            return;
        }
        // A single lost replicate request (or ack) must not park the
        // quorum: a watchdog re-sends until every ack is in.
        let interval = self.config.notify_resend_interval;
        self.arm(out, TimerKind::ReplicateResend, family, interval);
        self.broadcast(
            out,
            targets.into_iter().collect(),
            TmMessage::NbReplicate { tid, info },
        );
    }

    /// Replication-phase watchdog fired: re-send `NbReplicate` to
    /// every target whose ack is still missing, backing off each
    /// round ("if some operation fails to respond, the site that
    /// invoked it should eventually" retry). Without this, one lost
    /// replicate datagram stalls the coordinator in `Replicating`
    /// forever — and no subordinate takeover can rescue it, because a
    /// *live* coordinator answers status requests with `Prepared`
    /// while never re-driving its own quorum.
    pub(crate) fn coordnb_replicate_resend(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let Some(Role::CoordNb(c)) = self.families.get(&family).map(|f| &f.role) else {
            return;
        };
        if c.phase != CoordPhase::Replicating {
            return;
        }
        let missing: Vec<SiteId> = c
            .replication_targets
            .difference(&c.repl_acks)
            .copied()
            .collect();
        if missing.is_empty() {
            return;
        }
        let (tid, info) = (Tid::top_level(family), c.info.clone());
        let base = self.config.notify_resend_interval;
        self.rearm_with_backoff(out, TimerKind::ReplicateResend, family, base);
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
    ) {
        let family = tid.family;
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        match &mut fam.role {
            Role::CoordNb(c) => {
                if c.phase != CoordPhase::Replicating {
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
                    c.phase = CoordPhase::ForcingCommit;
                    let subs: Vec<SiteId> = c.replication_targets.iter().copied().collect();
                    self.disarm(out, family);
                    let rec = LogRecord::Commit { tid, subs };
                    self.force(out, ForceKind::NbCoordCommit, family, rec);
                }
            }
            Role::Takeover(t) => {
                if !matches!(t.phase, TakeoverPhase::RecruitCommit) {
                    return;
                }
                // A refusal means the site joined the abort quorum.
                let kind = match joined {
                    true => QuorumKind::Commit,
                    false => QuorumKind::Abort,
                };
                if let Some(outcome) = t.count(kind, from) {
                    self.takeover_finish(out, family, outcome);
                }
            }
            _ => {}
        }
    }

    /// Coordinator-side abort of a non-blocking commitment. Unlike
    /// presumed abort, the outcome is announced and acknowledged:
    /// nobody forgets until all have resolved (change 4).
    pub(crate) fn coordnb_abort(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        reason: AbortReason,
    ) {
        let Some(Role::CoordNb(c)) = self.families.get(&family).map(|f| &f.role) else {
            return;
        };
        let announcing = c.announcing(self.site, Outcome::Aborted, c.state_holders(self.site));
        self.resolve_here(out, family, Outcome::Aborted, Some(reason));
        self.announce(out, family, announcing);
    }

    // =================================================================
    // Subordinate (phase one is `Engine::sub_prepare` and what follows
    // it in `twophase.rs`)
    // =================================================================

    /// Replies to a replication-phase request.
    fn send_replicate_ack(&mut self, out: &mut Vec<Action>, to: SiteId, tid: Tid, joined: bool) {
        let from = self.site;
        self.send(out, to, TmMessage::NbReplicateAck { tid, from, joined });
    }

    /// Replication-phase request: force the decision information and
    /// thereby join the commit quorum.
    pub(crate) fn subnb_replicate(
        &mut self,
        out: &mut Vec<Action>,
        from: SiteId,
        tid: Tid,
        info: NbInfo,
    ) {
        let family = tid.family;
        let fam = self
            .families
            .entry(family)
            .or_insert_with(|| Family::new(family));
        let me = self.site;
        let joined = match &mut fam.role {
            Role::Executing => {
                // A read-only participant being recruited into the
                // quorum (it forgot after voting): rebuild state.
                fam.role = Role::SubNb(SubNb::at(from, info.clone(), SubPhase::Prepared, false));
                None
            }
            Role::SubNb(s) => match s.phase {
                SubPhase::Prepared => None,
                // Duplicate: re-acknowledge.
                SubPhase::Replicated => Some(true),
                SubPhase::Resolved => Some(s.outcome == Some(Outcome::Committed)),
                _ => return, // Mid-force; the requester will retry.
            },
            // Another coordinator recruits us while we run our own
            // takeover: cooperate unless we joined abort.
            Role::Takeover(t) if t.replicated.contains(&me) => Some(true),
            Role::Takeover(_) => None,
            // Decided here: a member of the commit quorum exactly if
            // the outcome is commit.
            Role::Announcing(a) => Some(a.outcome == Outcome::Committed),
            _ => return,
        };
        if let Some(joined) = joined {
            return self.send_replicate_ack(out, from, tid, joined);
        }
        if !self.force_replicate(out, family, tid.clone(), &info) {
            // This site joined the abort quorum.
            return self.send_replicate_ack(out, from, tid, false);
        }
        match self.families.get_mut(&family).map(|f| &mut f.role) {
            Some(Role::SubNb(s)) => {
                s.phase = SubPhase::ForcingReplicate;
                s.pending_ack_to = Some(from);
                s.info = info;
            }
            // A takeover counts itself once the record is durable.
            Some(Role::Takeover(t)) => t.info = info,
            _ => {}
        }
    }

    /// Joins the commit quorum: the join marker, then the forced
    /// replication record. False, writing nothing, if this site joined
    /// the abort quorum.
    pub(crate) fn force_replicate(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        tid: Tid,
        info: &NbInfo,
    ) -> bool {
        if !self.join_quorum(out, family, QuorumKind::Commit, None) {
            return false;
        }
        let rec = LogRecord::NbReplicate {
            tid,
            info: info_to_record(info),
        };
        self.force(out, ForceKind::NbSubReplicate, family, rec);
        true
    }

    /// Replication record durable: we are now a commit-quorum member.
    pub(crate) fn subnb_replicate_forced(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        match &mut fam.role {
            Role::SubNb(s) => {
                if s.phase != SubPhase::ForcingReplicate {
                    return;
                }
                s.phase = SubPhase::Replicated;
                let reply_to = s.pending_ack_to.take().unwrap_or(s.coordinator);
                // Restart the outcome timer: progress was made.
                self.arm_in_doubt_timer(out, family, CommitMode::NonBlocking);
                self.send_replicate_ack(out, reply_to, tid, true);
            }
            Role::Takeover(t) => {
                // Our own recruit-self force completed.
                if let Some(outcome) = t.count(QuorumKind::Commit, self.site) {
                    self.takeover_finish(out, family, outcome);
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
    ) {
        let family = tid.family;
        let me = self.site;
        let ack = TmMessage::NbOutcomeAck {
            tid: tid.clone(),
            from: me,
        };
        let Some(fam) = self.families.get_mut(&family) else {
            // Already forgotten: re-acknowledge so the sender can
            // finish.
            self.send(out, from, ack);
            return;
        };
        let fallback = match &mut fam.role {
            Role::SubNb(s) => match s.phase {
                // Tombstone: re-ack.
                SubPhase::Resolved => return self.send(out, from, ack),
                SubPhase::AwaitDurable => return, // Ack under way.
                _ => None,
            },
            // Someone else finished first — a rival takeover, or a
            // takeover that finished our own transaction while we were
            // slow (not crashed): fall back to a subordinate, with its
            // outcome timer, and adopt.
            Role::Takeover(t) => Some((std::mem::take(&mut t.info), t.local_update)),
            Role::CoordNb(c) => Some((std::mem::take(&mut c.info), c.tally.local_update)),
            // Two announcers crossed: the sender has resolved, which is
            // what its acknowledgement would say.
            Role::Announcing(_) => {
                self.send(out, from, ack);
                return self.on_outcome_ack(out, tid, from, CommitMode::NonBlocking);
            }
            // The family only executed here: this site never prepared,
            // so its work was never in the vote. An abort ends it at
            // once; a commit was decided without it and is ignored (the
            // orphan watchdog learns the family's fate at its origin).
            Role::Executing if outcome == Outcome::Aborted => {
                self.participant_abort(out, tid);
                return self.send(out, from, ack);
            }
            _ => return,
        };
        if let Some((info, local_update)) = fallback {
            fam.role = Role::SubNb(SubNb::at(from, info, SubPhase::Prepared, local_update));
            self.arm_in_doubt_timer(out, family, CommitMode::NonBlocking);
        }
        // The subordinate adopts the outcome. From here it answers to
        // whoever announced it, and its tombstone keeps the outcome
        // timer to ask them for the forget note.
        let Some(Role::SubNb(s)) = self.families.get_mut(&family).map(|f| &mut f.role) else {
            return;
        };
        s.outcome = Some(outcome);
        s.coordinator = from;
        s.pending_ack_to = Some(from);
        s.phase = SubPhase::AwaitDurable;
        // The outcome record is lazy (each site forces only two records
        // in this protocol, prepared and replication); the ack waits for
        // it. At the family's home site this answers the application.
        let reason = (outcome == Outcome::Aborted).then_some(AbortReason::SiteFailure);
        self.resolve_here(out, family, outcome, reason);
        if outcome == Outcome::Committed {
            let rec = LogRecord::Commit { tid, subs: vec![] };
            self.append_lazy(out, ForceKind::NbSubOutcomeLazy, family, rec);
        }
    }

    /// Lazy outcome record became durable: acknowledge the outcome.
    pub(crate) fn subnb_outcome_durable(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let Some(Role::SubNb(s)) = self.families.get_mut(&family).map(|f| &mut f.role) else {
            return;
        };
        if s.phase != SubPhase::AwaitDurable {
            return;
        }
        s.phase = SubPhase::Resolved;
        let to = s.pending_ack_to.take().unwrap_or(s.coordinator);
        let (tid, from) = (Tid::top_level(family), self.site);
        self.send(out, to, TmMessage::NbOutcomeAck { tid, from });
    }
}

impl CoordNb {
    /// The announcement of `outcome` to `awaiting_acks`. The forget
    /// note goes to every participant that may hold a tombstone
    /// (change 4): the state holders, plus read-only sites that were
    /// recruited into the replication phase. Sites that never kept
    /// state ignore the note.
    pub(crate) fn announcing(
        &self,
        me: SiteId,
        outcome: Outcome,
        awaiting_acks: BTreeSet<SiteId>,
    ) -> Announcing {
        let mut forget = self.state_holders(me);
        forget.extend(self.replication_targets.iter().copied());
        forget.remove(&me);
        Announcing {
            nb: Some(self.info.clone()),
            outcome,
            awaiting_acks,
            forget: forget.into_iter().collect(),
        }
    }

    /// Every participant that may hold protocol state for the
    /// family: all of them except read-only voters (who already
    /// dropped out). That includes no-voters (their tombstones wait
    /// for the outcome) and sites whose votes never arrived.
    fn state_holders(&self, me: SiteId) -> BTreeSet<SiteId> {
        let voted_ro = &self.tally.ro_subs;
        self.info
            .sites
            .iter()
            .copied()
            .filter(|s| *s != me && !voted_ro.contains(s))
            .collect()
    }
}
