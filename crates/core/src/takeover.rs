//! Non-blocking termination: a timed-out subordinate becomes a
//! coordinator (change 2 of §3.3).
//!
//! The takeover coordinator gathers every reachable site's state. If
//! any site already committed or aborted, that outcome is adopted and
//! re-announced. Otherwise it tries to assemble a quorum:
//!
//! - **Commit** is possible only if at least one site already holds
//!   the replication record — proof that the original coordinator
//!   collected a complete set of yes votes (so no site can have
//!   unilaterally aborted). Prepared sites are then recruited into
//!   the commit quorum with further `NbReplicate` messages until
//!   `Vc` members exist.
//! - **Abort** is chosen when no replicated site is reachable: the
//!   takeover coordinator recruits an abort quorum of `Va` sites,
//!   each of which durably records that it joined (and will forever
//!   refuse to join the commit quorum).
//!
//! Because `Vc + Va > N`, the two quorums intersect and at most one
//! outcome can ever be decided, no matter how many coordinators run
//! simultaneously. If neither quorum is reachable — possible only
//! with two or more failures, matching the protocol's optimality
//! bound — the takeover blocks and retries later.

use std::collections::BTreeSet;

use camelot_net::msg::NbInfo;
use camelot_net::{NbSiteState, Outcome, TmMessage};
use camelot_obs::TraceEventKind;
use camelot_types::{FamilyId, ServerId, SiteId, Tid};
use camelot_wal::record::QuorumKind;
use camelot_wal::LogRecord;

use crate::config::CommitMode;
use crate::engine::{Engine, ForceKind, TimerKind};
use crate::family::{Family, Role, SubNb, SubPhase, Takeover, TakeoverPhase};
use crate::io::Action;

fn state_of(outcome: Outcome) -> NbSiteState {
    match outcome {
        Outcome::Committed => NbSiteState::Committed,
        Outcome::Aborted => NbSiteState::Aborted,
    }
}

impl Engine {
    /// The outcome timer of a subordinate fired. In doubt (prepared
    /// or replicated): become a coordinator. Resolved: the tombstone
    /// is still waiting for its forget note, so it acknowledges the
    /// outcome again — a site that has forgotten the family answers
    /// with the note. Its commit record still on its way: wait.
    pub(crate) fn subnb_outcome_timeout(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let Role::SubNb(s) = &mut fam.role else {
            return;
        };
        let self_state = match s.phase {
            SubPhase::Prepared => NbSiteState::Prepared,
            SubPhase::Replicated => NbSiteState::Replicated,
            SubPhase::AwaitDurable | SubPhase::Resolved => {
                let ack_to = (s.phase == SubPhase::Resolved).then_some(s.coordinator);
                let base = self.config.notify_resend_interval;
                self.rearm_with_backoff(out, TimerKind::NbOutcome, family, base);
                if let Some(to) = ack_to {
                    let (tid, from) = (Tid::top_level(family), self.site);
                    self.send(out, to, TmMessage::NbOutcomeAck { tid, from });
                }
                return;
            }
            _ => return,
        };
        let mut takeover =
            Takeover::gathering(s.info.clone(), self_state, s.joined, s.tally.local_update);
        if self_state == NbSiteState::Replicated {
            takeover.replicated.insert(self.site);
        }
        fam.role = Role::Takeover(takeover);
        self.begin_gathering(out, family);
    }

    /// (Re)starts the status-gathering round of a takeover.
    pub(crate) fn begin_gathering(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        self.stats.takeovers += 1;
        self.tracer.family(family, TraceEventKind::TakeoverStart);
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        let Role::Takeover(t) = &mut fam.role else {
            return;
        };
        t.phase = TakeoverPhase::Gathering;
        t.statuses.clear();
        let me = self.site;
        let peers: Vec<SiteId> = t.info.sites.iter().copied().filter(|s| *s != me).collect();
        let window = self.config.takeover_window;
        self.arm(out, TimerKind::TakeoverWindow, family, window);
        self.broadcast(out, peers, TmMessage::NbStatusReq { tid, from: me });
    }

    /// Any site answers a status request with its protocol state.
    pub(crate) fn nb_status_req(&mut self, out: &mut Vec<Action>, tid: Tid, from: SiteId) {
        let family = tid.family;
        let me = self.site;
        let (state, info) = match self.families.get_mut(&family) {
            None => {
                let state = self
                    .resolutions
                    .get(&family)
                    .map_or(NbSiteState::Unknown, |o| state_of(*o));
                (state, None)
            }
            Some(fam) => {
                let announced = fam.notifying().map(|(_, outcome)| state_of(outcome));
                match &fam.role {
                    Role::SubNb(s) => {
                        let state = match s.phase {
                            SubPhase::CollectLocal
                            | SubPhase::ForcingPrepared
                            | SubPhase::Prepared
                            | SubPhase::ForcingCommit
                            | SubPhase::ForcingReplicate => NbSiteState::Prepared,
                            SubPhase::Replicated => NbSiteState::Replicated,
                            SubPhase::AwaitDurable => NbSiteState::Committed,
                            SubPhase::Resolved => match s.outcome {
                                Some(Outcome::Committed) => NbSiteState::Committed,
                                _ => NbSiteState::Aborted,
                            },
                        };
                        (state, Some(s.info.clone()))
                    }
                    // Not durably decided: report prepared (our
                    // commit record, once forced, is what joins
                    // the quorum).
                    Role::CoordNb(c) => (
                        announced.unwrap_or(NbSiteState::Prepared),
                        Some(c.info.clone()),
                    ),
                    Role::Takeover(t) => (announced.unwrap_or(t.self_state), Some(t.info.clone())),
                    _ => (NbSiteState::Unknown, None),
                }
            }
        };
        self.send(
            out,
            from,
            TmMessage::NbStatus {
                tid,
                from: me,
                state,
                info,
            },
        );
    }

    /// A status report reached a takeover coordinator.
    pub(crate) fn takeover_status(
        &mut self,
        out: &mut Vec<Action>,
        tid: Tid,
        from: SiteId,
        state: NbSiteState,
    ) {
        let family = tid.family;
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let Role::Takeover(t) = &mut fam.role else {
            return;
        };
        t.statuses.insert(from, state);
        match state {
            NbSiteState::Committed => self.takeover_finish(out, family, Outcome::Committed),
            NbSiteState::Aborted => self.takeover_finish(out, family, Outcome::Aborted),
            NbSiteState::Replicated => {
                t.replicated.insert(from);
                if matches!(t.phase, TakeoverPhase::RecruitCommit)
                    && t.replicated.len() >= t.info.commit_quorum as usize
                {
                    self.takeover_finish(out, family, Outcome::Committed);
                }
            }
            _ => {}
        }
    }

    /// The status-gathering window closed: decide what can be decided.
    pub(crate) fn takeover_window_fired(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        let Role::Takeover(t) = &mut fam.role else {
            return;
        };
        if !matches!(t.phase, TakeoverPhase::Gathering) {
            return;
        }
        let vc = t.info.commit_quorum as usize;
        let va = t.info.abort_quorum as usize;
        if t.replicated.len() >= vc {
            self.takeover_finish(out, family, Outcome::Committed);
            return;
        }
        // Reachable prepared peers (and whether we ourselves are
        // merely prepared).
        let prepared_peers: Vec<SiteId> = t
            .statuses
            .iter()
            .filter(|(_, s)| **s == NbSiteState::Prepared)
            .map(|(site, _)| *site)
            .collect();
        let self_prepared =
            t.self_state == NbSiteState::Prepared && t.joined != Some(QuorumKind::Abort);
        let window = self.config.recruit_window;
        if !t.replicated.is_empty() {
            // Commit is the only possibly-decided outcome; recruit
            // prepared sites into the commit quorum.
            let achievable = t.replicated.len() + prepared_peers.len() + usize::from(self_prepared);
            if achievable < vc {
                self.takeover_blocked(out, family);
                return;
            }
            t.phase = TakeoverPhase::RecruitCommit;
            let info = t.info.clone();
            self.arm(out, TimerKind::RecruitWindow, family, window);
            if self_prepared {
                // Recruit ourselves: force our own replication
                // record.
                self.force_replicate(out, family, tid.clone(), &info);
            }
            self.broadcast(out, prepared_peers, TmMessage::NbReplicate { tid, info });
            return;
        }
        // No replicated site reachable: the vote may never have
        // completed, so abort is the only safe outcome. Recruit an
        // abort quorum.
        let self_eligible =
            t.joined != Some(QuorumKind::Commit) && t.self_state != NbSiteState::Replicated;
        if prepared_peers.len() + usize::from(self_eligible) < va {
            self.takeover_blocked(out, family);
            return;
        }
        t.phase = TakeoverPhase::RecruitAbort;
        self.arm(out, TimerKind::RecruitWindow, family, window);
        if self_eligible {
            let rec = LogRecord::NbQuorum {
                tid: tid.clone(),
                kind: QuorumKind::Abort,
            };
            self.force(out, ForceKind::TkAbortJoin, family, rec);
        }
        let me = self.site;
        self.broadcast(
            out,
            prepared_peers,
            TmMessage::NbAbortJoinReq { tid, from: me },
        );
    }

    /// The recruiting window closed without a quorum.
    pub(crate) fn takeover_recruit_fired(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        if let Some(TakeoverPhase::RecruitCommit | TakeoverPhase::RecruitAbort) =
            self.takeover_phase(family)
        {
            self.takeover_blocked(out, family);
        }
    }

    fn takeover_phase(&self, family: FamilyId) -> Option<&TakeoverPhase> {
        match &self.families.get(&family)?.role {
            Role::Takeover(t) => Some(&t.phase),
            _ => None,
        }
    }

    /// Mark blocked and schedule a retry (reachable only under
    /// multiple failures). Successive blocked rounds back off so a
    /// long-dead quorum is probed ever more gently.
    fn takeover_blocked(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        self.stats.blocked += 1;
        self.tracer.family(family, TraceEventKind::TakeoverBlocked);
        let Some(Role::Takeover(t)) = self.families.get_mut(&family).map(|f| &mut f.role) else {
            return;
        };
        t.phase = TakeoverPhase::Blocked;
        let round = t.blocked_rounds;
        t.blocked_rounds += 1;
        self.arm_attempt(
            out,
            TimerKind::TakeoverRetry,
            family,
            self.config.takeover_retry,
            round,
        );
    }

    /// Retry a blocked takeover from the top.
    pub(crate) fn takeover_retry_fired(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        if let Some(TakeoverPhase::Blocked) = self.takeover_phase(family) {
            self.begin_gathering(out, family);
        }
    }

    /// Our own abort-quorum join record is durable (we recruited
    /// ourselves during takeover).
    pub(crate) fn takeover_abort_join_forced(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let Some(Role::Takeover(t)) = self.families.get_mut(&family).map(|f| &mut f.role) else {
            return;
        };
        t.joined = Some(QuorumKind::Abort);
        t.abort_joined.insert(self.site);
        if matches!(t.phase, TakeoverPhase::RecruitAbort)
            && t.abort_joined.len() >= t.info.abort_quorum as usize
        {
            self.takeover_finish(out, family, Outcome::Aborted);
        }
    }

    /// Replies to an abort-quorum recruitment.
    fn send_abort_join_resp(&mut self, out: &mut Vec<Action>, to: SiteId, tid: Tid, joined: bool) {
        let from = self.site;
        self.send(out, to, TmMessage::NbAbortJoinResp { tid, from, joined });
    }

    /// A participant is asked to join the abort quorum.
    pub(crate) fn nb_abort_join_req(&mut self, out: &mut Vec<Action>, tid: Tid, from: SiteId) {
        let family = tid.family;
        let me = self.site;
        // A site that resolved (or never heard of) the transaction:
        // under change 4 a resolved site still has its tombstone, so
        // "unknown" really means "never prepared" — free to join.
        match self.resolutions.get(&family) {
            Some(Outcome::Aborted) => return self.send_abort_join_resp(out, from, tid, true),
            Some(Outcome::Committed) => {
                let state = NbSiteState::Committed;
                return self.send(
                    out,
                    from,
                    TmMessage::NbStatus {
                        tid,
                        from: me,
                        state,
                        info: None,
                    },
                );
            }
            None => {}
        }
        let fam = self
            .families
            .entry(family)
            .or_insert_with(|| Family::new(family));
        let join_rec = LogRecord::NbQuorum {
            tid: tid.clone(),
            kind: QuorumKind::Abort,
        };
        let joined = match &mut fam.role {
            Role::Executing => {
                // Never prepared here: join the abort quorum and
                // resolve locally as aborted, keeping a tombstone and
                // its outcome timer.
                fam.role = Role::SubNb(SubNb {
                    outcome: Some(Outcome::Aborted),
                    joined: Some(QuorumKind::Abort),
                    pending_ack_to: Some(from),
                    ..SubNb::at(from, NbInfo::default(), SubPhase::Resolved, false)
                });
                self.resolve_here(out, family, Outcome::Aborted, None);
                self.arm_in_doubt_timer(out, family, CommitMode::NonBlocking);
                return self.force(out, ForceKind::NbSubAbortJoin, family, join_rec);
            }
            Role::SubNb(s) => {
                if s.joined == Some(QuorumKind::Commit)
                    || matches!(s.phase, SubPhase::Replicated | SubPhase::AwaitDurable)
                {
                    false
                } else if s.joined == Some(QuorumKind::Abort) {
                    true
                } else if s.phase == SubPhase::Resolved {
                    s.outcome == Some(Outcome::Aborted)
                } else {
                    // Prepared and unjoined: force the join record.
                    s.pending_ack_to = Some(from);
                    return self.force(out, ForceKind::NbSubAbortJoin, family, join_rec);
                }
            }
            Role::Takeover(t) => match t.joined {
                Some(QuorumKind::Commit) => false,
                Some(QuorumKind::Abort) => true,
                None if t.self_state == NbSiteState::Replicated => false,
                None => {
                    // Join their abort quorum (abandoning our own
                    // commit ambitions is safe: we had none — we
                    // are not replicated).
                    t.joined = Some(QuorumKind::Abort);
                    t.abort_joined.insert(me);
                    out.push(Action::Append { rec: join_rec });
                    true
                }
            },
            _ => false,
        };
        self.send_abort_join_resp(out, from, tid, joined);
    }

    /// A subordinate's abort-join record became durable: reply.
    pub(crate) fn subnb_abort_join_forced(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let Some(Role::SubNb(s)) = self.families.get_mut(&family).map(|f| &mut f.role) else {
            return;
        };
        s.joined = Some(QuorumKind::Abort);
        // A prepared site that joined the abort quorum resolves as
        // aborted once the takeover coordinator announces; until then
        // it stays prepared (locks held) — joining is a promise not to
        // commit, not an abort.
        if let Some(to) = s.pending_ack_to.take() {
            self.send_abort_join_resp(out, to, Tid::top_level(family), true);
        }
    }

    /// An abort-join reply reached the takeover coordinator.
    pub(crate) fn takeover_abort_join_resp(
        &mut self,
        out: &mut Vec<Action>,
        tid: Tid,
        from: SiteId,
        joined: bool,
    ) {
        let family = tid.family;
        let Some(Role::Takeover(t)) = self.families.get_mut(&family).map(|f| &mut f.role) else {
            return;
        };
        if !matches!(t.phase, TakeoverPhase::RecruitAbort) {
            return;
        }
        if joined {
            t.abort_joined.insert(from);
            if t.abort_joined.len() >= t.info.abort_quorum as usize {
                self.takeover_finish(out, family, Outcome::Aborted);
            }
        } else {
            // A refusal means a commit-quorum member exists after all;
            // restart gathering to find it.
            self.begin_gathering(out, family);
        }
    }

    /// The takeover decided (or adopted) an outcome.
    pub(crate) fn takeover_finish(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        outcome: Outcome,
    ) {
        let Some(Role::Takeover(t)) = self.families.get_mut(&family).map(|f| &mut f.role) else {
            return;
        };
        if matches!(
            t.phase,
            TakeoverPhase::Announcing { .. } | TakeoverPhase::ForcingCommit
        ) {
            return; // Already finishing.
        }
        match outcome {
            Outcome::Committed => {
                t.phase = TakeoverPhase::ForcingCommit;
                self.disarm(out, family);
                let tid = Tid::top_level(family);
                let rec = LogRecord::Commit { tid, subs: vec![] };
                self.force(out, ForceKind::TkCommit, family, rec);
            }
            Outcome::Aborted => {
                self.resolve_here(out, family, Outcome::Aborted, None);
                self.takeover_announce(out, family, Outcome::Aborted);
            }
        }
    }

    /// The takeover coordinator's commit record is durable.
    pub(crate) fn takeover_commit_forced(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        let servers: Vec<ServerId> = fam.servers.iter().copied().collect();
        let Role::Takeover(t) = &mut fam.role else {
            return;
        };
        if !matches!(t.phase, TakeoverPhase::ForcingCommit) {
            return;
        }
        if t.local_update && !servers.is_empty() {
            out.push(Action::ServerResolve {
                tid,
                servers,
                outcome: Outcome::Committed,
            });
        }
        self.record_resolution(family, Outcome::Committed);
        self.takeover_announce(out, family, Outcome::Committed);
    }

    /// Broadcast the decided outcome to every other site and collect
    /// acknowledgements.
    fn takeover_announce(&mut self, out: &mut Vec<Action>, family: FamilyId, outcome: Outcome) {
        let Some(Role::Takeover(t)) = self.families.get(&family).map(|f| &f.role) else {
            return;
        };
        let me = self.site;
        let peers: BTreeSet<SiteId> = t.info.sites.iter().copied().filter(|s| *s != me).collect();
        self.announce(out, family, peers, outcome);
    }
}
