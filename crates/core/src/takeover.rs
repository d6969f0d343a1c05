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
use crate::family::{Announcing, Family, Role, SubNb, SubPhase, Takeover, TakeoverPhase};
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
        let replicated = match s.phase {
            SubPhase::Prepared => false,
            SubPhase::Replicated => true,
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
        let mut takeover = Takeover::gathering(s.info.clone(), s.tally.local_update);
        if replicated {
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
        let (state, info) = match self.families.get(&family) {
            // Never prepared here, or every site has resolved it.
            None => (NbSiteState::Unknown, None),
            Some(fam) => match (&fam.role, fam.outcome()) {
                (Role::Announcing(a), Some(outcome)) => (state_of(outcome), a.nb.clone()),
                (Role::SubNb(s), Some(outcome)) => (state_of(outcome), Some(s.info.clone())),
                (Role::SubNb(s), None) => {
                    let state = match s.phase {
                        SubPhase::Replicated => NbSiteState::Replicated,
                        _ => NbSiteState::Prepared,
                    };
                    (state, Some(s.info.clone()))
                }
                // Not durably decided: report prepared (our commit
                // record, once forced, is what joins the quorum).
                (Role::CoordNb(c), _) => (NbSiteState::Prepared, Some(c.info.clone())),
                (Role::Takeover(t), _) => {
                    let state = match t.replicated.contains(&me) {
                        true => NbSiteState::Replicated,
                        false => NbSiteState::Prepared,
                    };
                    (state, Some(t.info.clone()))
                }
                _ => (NbSiteState::Unknown, None),
            },
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
                if let Some(outcome) = t.count(QuorumKind::Commit, from) {
                    self.takeover_finish(out, family, outcome);
                }
            }
            _ => {}
        }
    }

    /// The status-gathering window closed: decide what can be decided.
    pub(crate) fn takeover_window_fired(&mut self, out: &mut Vec<Action>, family: FamilyId) {
        let me = self.site;
        let Some(fam) = self.families.get_mut(&family) else {
            return;
        };
        let tid = fam.top_tid();
        let joined = fam.joined;
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
        // Reachable peers in one of the `want` states.
        let peers = |want: &[NbSiteState]| -> Vec<SiteId> {
            let found = t.statuses.iter().filter(|(_, s)| want.contains(s));
            found.map(|(site, _)| *site).collect()
        };
        let prepared_peers = peers(&[NbSiteState::Prepared]);
        let self_replicated = t.replicated.contains(&me);
        let self_prepared = !self_replicated && joined != Some(QuorumKind::Abort);
        let window = self.config.recruit_window;
        if !t.replicated.is_empty() {
            // Commit is the only possibly-decided outcome; recruit
            // prepared sites into the commit quorum.
            let achievable = t.replicated.len() + prepared_peers.len() + usize::from(self_prepared);
            // Replication proves the coordinator's begin record durable,
            // so it holds the family until every site resolved it (change
            // 4). If no other site holds it, this site's replication came
            // from a stale duplicate request: holding no updates, forget.
            let unknown = peers(&[NbSiteState::Unknown]).len();
            if !t.local_update && unknown + 1 == t.info.sites.len() {
                return self.forget_family(out, &family);
            }
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
        // abort quorum. A peer that answers `Unknown` never prepared —
        // a site that did keeps the family until every site has
        // resolved it (change 4) — so it is free to join.
        let abort_peers = peers(&[NbSiteState::Prepared, NbSiteState::Unknown]);
        let self_eligible = joined != Some(QuorumKind::Commit);
        if abort_peers.len() + usize::from(self_eligible) < va {
            self.takeover_blocked(out, family);
            return;
        }
        t.phase = TakeoverPhase::RecruitAbort;
        self.arm(out, TimerKind::RecruitWindow, family, window);
        if self_eligible {
            self.join_quorum(out, family, QuorumKind::Abort, Some(ForceKind::TkAbortJoin));
        }
        let msg = TmMessage::NbAbortJoinReq { tid, from: me };
        self.broadcast(out, abort_peers, msg);
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
        if let Some(outcome) = t.count(QuorumKind::Abort, self.site) {
            self.takeover_finish(out, family, outcome);
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
        let fam = self
            .families
            .entry(family)
            .or_insert_with(|| Family::new(family));
        // A site that resolved the transaction answers with its outcome:
        // it holds the family (an announcer, or a tombstone) until every
        // site has resolved it (change 4). One that does not never
        // prepared: free to join.
        match fam.outcome() {
            Some(Outcome::Aborted) => return self.send_abort_join_resp(out, from, tid, true),
            Some(Outcome::Committed) => return self.nb_status_req(out, tid, from),
            None => {}
        }
        let force = Some(ForceKind::NbSubAbortJoin);
        let joined = match &mut fam.role {
            Role::Executing => {
                // Never prepared here: join the abort quorum and
                // resolve locally as aborted, keeping a tombstone and
                // its outcome timer.
                fam.role = Role::SubNb(SubNb {
                    outcome: Some(Outcome::Aborted),
                    pending_ack_to: Some(from),
                    ..SubNb::at(from, NbInfo::default(), SubPhase::Resolved, false)
                });
                self.resolve_here(out, family, Outcome::Aborted, None);
                self.arm_in_doubt_timer(out, family, CommitMode::NonBlocking);
                self.join_quorum(out, family, QuorumKind::Abort, force);
                return;
            }
            Role::SubNb(s) => {
                if fam.joined == Some(QuorumKind::Commit) || s.phase == SubPhase::Replicated {
                    false
                } else if fam.joined == Some(QuorumKind::Abort) && s.pending_ack_to.is_none() {
                    true // Joined, and the record is durable.
                } else {
                    // Prepared: force the join record, reply once it
                    // is durable.
                    s.pending_ack_to = Some(from);
                    self.join_quorum(out, family, QuorumKind::Abort, force);
                    return;
                }
            }
            // A takeover answers only from a durable join (its own
            // force's completion counts it); the asker asks again in
            // its next round.
            Role::Takeover(t) => match fam.joined {
                Some(QuorumKind::Commit) => false,
                Some(QuorumKind::Abort) if t.abort_joined.contains(&me) => true,
                Some(QuorumKind::Abort) => return,
                None => {
                    // Join their abort quorum (abandoning our own
                    // commit ambitions is safe: we had none — we
                    // joined nothing).
                    let force = Some(ForceKind::TkAbortJoin);
                    self.join_quorum(out, family, QuorumKind::Abort, force);
                    return;
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
            if let Some(outcome) = t.count(QuorumKind::Abort, from) {
                self.takeover_finish(out, family, outcome);
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
            return; // Not taking over, or already announcing.
        };
        if t.phase == TakeoverPhase::ForcingCommit {
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
                let info = t.info.clone();
                self.resolve_here(out, family, Outcome::Aborted, None);
                self.announce_to_peers(out, family, info, Outcome::Aborted);
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
        let info = t.info.clone();
        if t.local_update && !servers.is_empty() {
            out.push(Action::ServerResolve {
                tid,
                servers,
                outcome: Outcome::Committed,
            });
        }
        self.record_resolution(family, Outcome::Committed);
        self.announce_to_peers(out, family, info, Outcome::Committed);
    }

    /// Announces `outcome`, decided here alone, to every other site of
    /// `info.sites`; each of them may keep a tombstone.
    pub(crate) fn announce_to_peers(
        &mut self,
        out: &mut Vec<Action>,
        family: FamilyId,
        info: NbInfo,
        outcome: Outcome,
    ) {
        let me = self.site;
        let peers: BTreeSet<SiteId> = info.sites.iter().copied().filter(|s| *s != me).collect();
        let announcing = Announcing {
            forget: peers.iter().copied().collect(),
            nb: Some(info),
            outcome,
            awaiting_acks: peers,
        };
        self.announce(out, family, announcing);
    }
}
