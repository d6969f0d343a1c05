//! Family and transaction descriptors.
//!
//! "The principal data structure is a hash table of family
//! descriptors, each with an attached hash table of transaction
//! descriptors." (paper §3.4). A family descriptor carries the set of
//! local data servers that joined any member of the family, and — once
//! commitment begins — the state of the commitment role this site
//! plays (coordinator or subordinate, two-phase or non-blocking, or a
//! takeover coordinator during non-blocking termination).

use std::collections::{BTreeMap, BTreeSet};

use camelot_net::msg::NbInfo;
use camelot_net::{NbSiteState, Outcome, Vote};
use camelot_types::{FamilyId, ServerId, SiteId, Tid};
use camelot_wal::record::QuorumKind;

use crate::config::CommitMode;
use crate::io::TimerToken;

/// Lifecycle of one (sub)transaction within its family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    Active,
    /// Nested: committed into its parent.
    Committed,
    Aborted,
}

/// Descriptor of one (sub)transaction.
#[derive(Debug, Clone)]
pub struct TxnDesc {
    pub status: TxnStatus,
    /// Next child ordinal to hand out.
    pub next_child: u32,
}

impl TxnDesc {
    fn new() -> Self {
        TxnDesc {
            status: TxnStatus::Active,
            next_child: 1,
        }
    }
}

// ---------------------------------------------------------------------
// Phase one: the vote tally every commitment role embeds
// ---------------------------------------------------------------------

/// Phase-one vote tally. A coordinator collects its local servers'
/// votes and its subordinates' votes here; a subordinate collects its
/// local servers' votes (and never awaits a site). Both commitment
/// protocols run phase one on this one structure.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Local servers whose vote is outstanding.
    pub awaiting_local: BTreeSet<ServerId>,
    /// Some local server voted yes: this site holds updates.
    pub local_update: bool,
    /// Subordinate sites whose vote is outstanding (filled when the
    /// prepare goes out).
    pub awaiting_sites: BTreeSet<SiteId>,
    /// Update subordinates (voted yes) — the later phases go to them.
    pub yes_subs: BTreeSet<SiteId>,
    /// Read-only subordinates: they dropped their locks when voting
    /// and take no further part unless a quorum needs them.
    pub ro_subs: BTreeSet<SiteId>,
}

/// What one vote did to a [`Tally`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TallyStep {
    /// Duplicate, or from a voter nobody asked: ignored.
    Stale,
    /// A no vote: the transaction aborts.
    Veto,
    /// Counted; other votes are still outstanding.
    Waiting,
    /// Every vote asked for so far is in, all yes or read-only;
    /// `update` says whether anyone holds updates.
    AllIn { update: bool },
}

impl Tally {
    /// A tally awaiting the votes of `servers`.
    pub fn collecting(servers: BTreeSet<ServerId>) -> Tally {
        Tally {
            awaiting_local: servers,
            ..Tally::default()
        }
    }

    /// Counts a local server's vote.
    pub fn tally_local(&mut self, server: ServerId, vote: Vote) -> TallyStep {
        if !self.awaiting_local.remove(&server) {
            return TallyStep::Stale;
        }
        match vote {
            Vote::No => return TallyStep::Veto,
            Vote::Yes => self.local_update = true,
            Vote::ReadOnly => {}
        }
        self.progress()
    }

    /// Counts a subordinate site's vote.
    pub fn tally_site(&mut self, from: SiteId, vote: Vote) -> TallyStep {
        if !self.awaiting_sites.remove(&from) {
            return TallyStep::Stale;
        }
        match vote {
            Vote::No => return TallyStep::Veto,
            Vote::Yes => self.yes_subs.insert(from),
            Vote::ReadOnly => self.ro_subs.insert(from),
        };
        self.progress()
    }

    /// True when no vote asked for is outstanding.
    pub fn all_in(&self) -> bool {
        self.awaiting_local.is_empty() && self.awaiting_sites.is_empty()
    }

    /// True if any voter, local or remote, holds updates.
    pub fn any_update(&self) -> bool {
        self.local_update || !self.yes_subs.is_empty()
    }

    fn progress(&self) -> TallyStep {
        if self.all_in() {
            TallyStep::AllIn {
                update: self.any_update(),
            }
        } else {
            TallyStep::Waiting
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator roles
// ---------------------------------------------------------------------

/// Coordinator progress. Two-phase commit collects its local votes
/// first and never replicates; non-blocking commit starts in
/// `CollectVotes` (local and remote votes arrive concurrently).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordPhase {
    /// 2PC: waiting for local servers' votes; prepare not yet sent.
    CollectLocal,
    /// Prepare sent; votes (NB: and the begin-record force)
    /// outstanding.
    CollectVotes,
    /// NB replication phase: waiting for enough replicate-acks to form
    /// a commit quorum together with our own commit record.
    Replicating,
    /// Commit record force in flight — the commit point (NB: writing
    /// it completes the quorum, change 3 of §3.3).
    ForcingCommit,
    /// Outcome sent; waiting for acknowledgements before the end
    /// record can be written and the transaction forgotten (2PC: from
    /// the update subordinates, always `Committed`; NB change 4: from
    /// every participant that holds state).
    Notifying {
        awaiting_acks: BTreeSet<SiteId>,
        outcome: Outcome,
    },
}

/// State of a 2PC commitment this site coordinates.
#[derive(Debug, Clone)]
pub struct Coord2pc {
    pub participants: Vec<SiteId>,
    pub tally: Tally,
    pub phase: CoordPhase,
}

/// State of a non-blocking commitment this site coordinates.
#[derive(Debug, Clone)]
pub struct CoordNb {
    pub info: NbInfo,
    /// The begin record is durable (gate for the replication phase).
    pub begun: bool,
    pub tally: Tally,
    /// Sites the replication record was sent to.
    pub replication_targets: BTreeSet<SiteId>,
    pub repl_acks: BTreeSet<SiteId>,
    pub phase: CoordPhase,
}

// ---------------------------------------------------------------------
// Subordinate roles
// ---------------------------------------------------------------------

/// Subordinate progress. Phase one (`CollectLocal` → `ForcingPrepared`
/// → `Prepared`) is the same under both protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubPhase {
    /// Prepare received; collecting local server votes.
    CollectLocal,
    /// Prepared-record force in flight.
    ForcingPrepared,
    /// Voted yes; in doubt until the outcome arrives (the window of
    /// vulnerability — a 2PC subordinate here is *blocked* if the
    /// coordinator dies; an NB subordinate awaits the replication
    /// phase or times out and takes over).
    Prepared,
    /// 2PC: commit notice received; commit-record force in flight
    /// (unoptimized / semi-optimized variants).
    ForcingCommit,
    /// Commit outcome received; locks dropped; lazy commit record
    /// awaiting durability before the acknowledgement goes out (2PC:
    /// the delayed-commit optimization).
    AwaitDurable,
    /// NB: replication record force in flight.
    ForcingReplicate,
    /// NB: holds the replicated decision information (member of the
    /// commit quorum).
    Replicated,
    /// NB: resolved; tombstone retained until the coordinator's forget
    /// note (change 4 of §3.3).
    Resolved,
}

/// State of a 2PC commitment this site participates in.
#[derive(Debug, Clone)]
pub struct Sub2pc {
    pub coordinator: SiteId,
    pub tally: Tally,
    pub phase: SubPhase,
}

/// State of a non-blocking commitment this site participates in.
#[derive(Debug, Clone)]
pub struct SubNb {
    pub coordinator: SiteId,
    pub tally: Tally,
    pub phase: SubPhase,
    pub info: NbInfo,
    pub outcome: Option<Outcome>,
    /// Which quorum this site irrevocably joined, if any.
    pub joined: Option<QuorumKind>,
    /// Where the acknowledgement of an in-flight force must go (the
    /// original coordinator or a takeover coordinator).
    pub pending_ack_to: Option<SiteId>,
}

impl SubNb {
    /// A subordinate entry created past its local vote collection (a
    /// recruited read-only site, an adopted outcome, a recovered
    /// in-doubt site): nothing joined, nothing pending.
    pub fn at(coordinator: SiteId, info: NbInfo, phase: SubPhase, local_update: bool) -> SubNb {
        SubNb {
            coordinator,
            tally: Tally {
                local_update,
                ..Tally::default()
            },
            phase,
            info,
            outcome: None,
            joined: None,
            pending_ack_to: None,
        }
    }
}

/// Takeover coordinator progress (non-blocking termination protocol).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TakeoverPhase {
    /// Collecting status reports.
    Gathering,
    /// Recruiting prepared sites into the commit quorum.
    RecruitCommit,
    /// Recruiting sites into the abort quorum.
    RecruitAbort,
    /// Commit record force in flight.
    ForcingCommit,
    /// Outcome decided and announced; awaiting acks.
    Announcing {
        awaiting_acks: BTreeSet<SiteId>,
        outcome: Outcome,
    },
    /// Neither quorum reachable; will retry (possible only under
    /// multiple failures).
    Blocked,
}

/// State of a takeover ("a subordinate becomes a coordinator",
/// change 2 of §3.3).
#[derive(Debug, Clone)]
pub struct Takeover {
    pub info: NbInfo,
    /// Our own protocol state at takeover time.
    pub self_state: NbSiteState,
    pub joined: Option<QuorumKind>,
    /// Whether local servers still hold this family's locks here.
    pub local_update: bool,
    pub statuses: BTreeMap<SiteId, NbSiteState>,
    /// Sites known to hold the replication record (commit-quorum
    /// members), including ourselves when applicable.
    pub replicated: BTreeSet<SiteId>,
    /// Sites known to have joined the abort quorum.
    pub abort_joined: BTreeSet<SiteId>,
    pub phase: TakeoverPhase,
    /// Gathering rounds that ended blocked so far; backs the retry
    /// off.
    pub blocked_rounds: u32,
}

impl Takeover {
    /// A takeover about to gather status reports.
    pub fn gathering(
        info: NbInfo,
        self_state: NbSiteState,
        joined: Option<QuorumKind>,
        local_update: bool,
    ) -> Takeover {
        Takeover {
            info,
            self_state,
            joined,
            local_update,
            statuses: BTreeMap::new(),
            replicated: BTreeSet::new(),
            abort_joined: BTreeSet::new(),
            phase: TakeoverPhase::Gathering,
            blocked_rounds: 0,
        }
    }
}

// ---------------------------------------------------------------------
// Family descriptor
// ---------------------------------------------------------------------

/// The commitment role this site currently plays for a family.
#[derive(Debug, Clone)]
pub enum Role {
    /// Still executing; no commitment protocol under way.
    Executing,
    Coord2pc(Coord2pc),
    Sub2pc(Sub2pc),
    CoordNb(CoordNb),
    SubNb(SubNb),
    Takeover(Takeover),
}

/// One family descriptor.
#[derive(Debug, Clone)]
pub struct Family {
    pub id: FamilyId,
    /// Transaction descriptors keyed by nesting path (the top-level
    /// transaction has the empty path).
    pub txns: BTreeMap<Vec<u32>, TxnDesc>,
    /// Local data servers that joined any member of the family.
    pub servers: BTreeSet<ServerId>,
    pub role: Role,
    /// Correlation id of the pending commit/abort call, if this is
    /// the application's home site.
    pub commit_req: Option<u64>,
    /// The commitment role's timer. Every role has at most one armed
    /// at a time: the vote timeout, then the replicate/notify resend
    /// (coordinators); the inquiry or outcome timer (subordinates);
    /// the window, recruit or retry timer (takeover).
    pub timer: Option<TimerToken>,
    /// How many times the family's current periodic datagram (inquiry,
    /// notice resend, takeover retry) has already fired; drives the
    /// exponential-backoff schedule.
    pub retry_attempts: u32,
    /// Watchdog for remote-origin families still executing: fires an
    /// inquiry at the origin in case the abort relay was lost.
    pub orphan_timer: Option<TimerToken>,
}

impl Family {
    /// Creates a family descriptor with its top-level transaction.
    pub fn new(id: FamilyId) -> Self {
        let mut txns = BTreeMap::new();
        txns.insert(Vec::new(), TxnDesc::new());
        Family {
            id,
            txns,
            servers: BTreeSet::new(),
            role: Role::Executing,
            commit_req: None,
            timer: None,
            retry_attempts: 0,
            orphan_timer: None,
        }
    }

    /// The family's top-level transaction identifier.
    pub fn top_tid(&self) -> Tid {
        Tid::top_level(self.id)
    }

    /// Allocates the next child of `parent`, creating its descriptor.
    /// Returns `None` if `parent` is unknown or not active.
    pub fn alloc_child(&mut self, parent: &Tid) -> Option<Tid> {
        debug_assert_eq!(parent.family, self.id);
        let desc = self.txns.get_mut(&parent.path)?;
        if desc.status != TxnStatus::Active {
            return None;
        }
        let n = desc.next_child;
        desc.next_child += 1;
        let child = parent.child(n);
        self.txns.insert(child.path.clone(), TxnDesc::new());
        Some(child)
    }

    /// Ensures a descriptor exists for `tid` (used when a remote
    /// operation introduces a nested tid this site has not seen).
    pub fn ensure_txn(&mut self, tid: &Tid) {
        debug_assert_eq!(tid.family, self.id);
        // Materialize ancestors too, so status checks work.
        for depth in 0..=tid.path.len() {
            let path = tid.path[..depth].to_vec();
            self.txns.entry(path).or_insert_with(TxnDesc::new);
        }
    }

    /// Status of `tid`, taking ancestors into account: a transaction
    /// whose ancestor aborted is aborted.
    pub fn effective_status(&self, tid: &Tid) -> Option<TxnStatus> {
        let own = self.txns.get(&tid.path)?.status;
        for depth in 0..tid.path.len() {
            if let Some(anc) = self.txns.get(&tid.path[..depth]) {
                if anc.status == TxnStatus::Aborted {
                    return Some(TxnStatus::Aborted);
                }
            }
        }
        Some(own)
    }

    /// Marks `tid` and every descendant with `status`.
    pub fn mark_subtree(&mut self, tid: &Tid, status: TxnStatus) {
        for (path, desc) in self.txns.iter_mut() {
            if path.len() >= tid.path.len() && path[..tid.path.len()] == tid.path[..] {
                desc.status = status;
            }
        }
    }

    /// True once a commitment protocol has begun for the family.
    pub fn committing(&self) -> bool {
        !matches!(self.role, Role::Executing)
    }

    /// The protocol of the commitment under way, if any.
    pub fn mode(&self) -> Option<CommitMode> {
        match self.role {
            Role::Executing => None,
            Role::Coord2pc(_) | Role::Sub2pc(_) => Some(CommitMode::TwoPhase),
            Role::CoordNb(_) | Role::SubNb(_) | Role::Takeover(_) => Some(CommitMode::NonBlocking),
        }
    }

    /// True while this site coordinates the commitment (takeover
    /// coordinators are subordinates that stepped up, not this).
    pub fn coordinating(&self) -> bool {
        matches!(self.role, Role::Coord2pc(_) | Role::CoordNb(_))
    }

    /// The phase-one tally, while the role is still collecting votes.
    pub fn open_tally(&mut self) -> Option<&mut Tally> {
        match &mut self.role {
            Role::Coord2pc(Coord2pc { tally, phase, .. })
            | Role::CoordNb(CoordNb { tally, phase, .. })
                if matches!(phase, CoordPhase::CollectLocal | CoordPhase::CollectVotes) =>
            {
                Some(tally)
            }
            Role::Sub2pc(Sub2pc { tally, phase, .. }) | Role::SubNb(SubNb { tally, phase, .. })
                if *phase == SubPhase::CollectLocal =>
            {
                Some(tally)
            }
            _ => None,
        }
    }

    /// What every subordinate has, whichever protocol it runs: its
    /// coordinator, that protocol, and its phase.
    pub fn sub_mut(&mut self) -> Option<(SiteId, CommitMode, &mut SubPhase)> {
        match &mut self.role {
            Role::Sub2pc(s) => Some((s.coordinator, CommitMode::TwoPhase, &mut s.phase)),
            Role::SubNb(s) => Some((s.coordinator, CommitMode::NonBlocking, &mut s.phase)),
            _ => None,
        }
    }

    /// Enters the notify phase of whichever role decides outcomes
    /// here: `awaiting_acks` must acknowledge `outcome`.
    pub fn set_notifying(&mut self, awaiting_acks: BTreeSet<SiteId>, outcome: Outcome) {
        match &mut self.role {
            Role::Coord2pc(Coord2pc { phase, .. }) | Role::CoordNb(CoordNb { phase, .. }) => {
                *phase = CoordPhase::Notifying {
                    awaiting_acks,
                    outcome,
                }
            }
            Role::Takeover(t) => {
                t.phase = TakeoverPhase::Announcing {
                    awaiting_acks,
                    outcome,
                }
            }
            _ => {}
        }
    }

    /// The sites whose acknowledgement is outstanding and the outcome
    /// they were sent, while in the notify phase.
    pub fn notifying(&mut self) -> Option<(&mut BTreeSet<SiteId>, Outcome)> {
        match &mut self.role {
            Role::Coord2pc(Coord2pc { phase, .. }) | Role::CoordNb(CoordNb { phase, .. }) => {
                match phase {
                    CoordPhase::Notifying {
                        awaiting_acks,
                        outcome,
                    } => Some((awaiting_acks, *outcome)),
                    _ => None,
                }
            }
            Role::Takeover(Takeover {
                phase:
                    TakeoverPhase::Announcing {
                        awaiting_acks,
                        outcome,
                    },
                ..
            }) => Some((awaiting_acks, *outcome)),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// External view (tests, harness, monitoring)
// ---------------------------------------------------------------------

/// Coarse phase of a family at this site, for inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyPhase {
    Executing,
    Preparing,
    /// In doubt: prepared and waiting for an outcome.
    Prepared,
    /// Non-blocking: member of the commit quorum.
    Replicated,
    /// Commitment decided, cleanup (acks / durability) outstanding.
    Resolving,
    /// Takeover coordinator at work.
    TakingOver,
    /// Takeover could not assemble a quorum (≥ 2 failures).
    Blocked,
}

/// Snapshot of a family descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyView {
    pub id: FamilyId,
    pub phase: FamilyPhase,
    pub role: &'static str,
    pub servers: usize,
}

impl Family {
    /// Builds the external snapshot.
    pub fn view(&self) -> FamilyView {
        let coord_phase = |p: &CoordPhase| match p {
            CoordPhase::CollectLocal | CoordPhase::CollectVotes => FamilyPhase::Preparing,
            _ => FamilyPhase::Resolving,
        };
        let sub_phase = |p: SubPhase| match p {
            SubPhase::CollectLocal | SubPhase::ForcingPrepared => FamilyPhase::Preparing,
            SubPhase::Prepared => FamilyPhase::Prepared,
            SubPhase::ForcingReplicate | SubPhase::Replicated => FamilyPhase::Replicated,
            SubPhase::ForcingCommit | SubPhase::AwaitDurable | SubPhase::Resolved => {
                FamilyPhase::Resolving
            }
        };
        let (phase, role) = match &self.role {
            Role::Executing => (FamilyPhase::Executing, "executing"),
            Role::Coord2pc(c) => (coord_phase(&c.phase), "2pc-coordinator"),
            Role::Sub2pc(s) => (sub_phase(s.phase), "2pc-subordinate"),
            Role::CoordNb(c) => (coord_phase(&c.phase), "nb-coordinator"),
            Role::SubNb(s) => (sub_phase(s.phase), "nb-subordinate"),
            Role::Takeover(t) => {
                let p = match t.phase {
                    TakeoverPhase::Blocked => FamilyPhase::Blocked,
                    _ => FamilyPhase::TakingOver,
                };
                (p, "nb-takeover")
            }
        };
        FamilyView {
            id: self.id,
            phase,
            role,
            servers: self.servers.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_types::SiteId;

    fn fam() -> Family {
        Family::new(FamilyId {
            origin: SiteId(1),
            seq: 7,
        })
    }

    #[test]
    fn new_family_has_active_top_level() {
        let f = fam();
        let top = f.top_tid();
        assert_eq!(f.effective_status(&top), Some(TxnStatus::Active));
        assert!(!f.committing());
        assert_eq!(f.view().phase, FamilyPhase::Executing);
    }

    #[test]
    fn alloc_children_in_order() {
        let mut f = fam();
        let top = f.top_tid();
        let c1 = f.alloc_child(&top).unwrap();
        let c2 = f.alloc_child(&top).unwrap();
        assert_eq!(c1.path, vec![1]);
        assert_eq!(c2.path, vec![2]);
        let gc = f.alloc_child(&c1).unwrap();
        assert_eq!(gc.path, vec![1, 1]);
    }

    #[test]
    fn alloc_child_of_resolved_parent_fails() {
        let mut f = fam();
        let top = f.top_tid();
        let c1 = f.alloc_child(&top).unwrap();
        f.mark_subtree(&c1, TxnStatus::Aborted);
        assert!(f.alloc_child(&c1).is_none());
    }

    #[test]
    fn effective_status_inherits_ancestor_abort() {
        let mut f = fam();
        let top = f.top_tid();
        let c1 = f.alloc_child(&top).unwrap();
        let gc = f.alloc_child(&c1).unwrap();
        f.mark_subtree(&c1, TxnStatus::Aborted);
        assert_eq!(f.effective_status(&gc), Some(TxnStatus::Aborted));
        assert_eq!(f.effective_status(&top), Some(TxnStatus::Active));
    }

    #[test]
    fn mark_subtree_spares_siblings() {
        let mut f = fam();
        let top = f.top_tid();
        let c1 = f.alloc_child(&top).unwrap();
        let c2 = f.alloc_child(&top).unwrap();
        f.mark_subtree(&c1, TxnStatus::Committed);
        assert_eq!(f.effective_status(&c1), Some(TxnStatus::Committed));
        assert_eq!(f.effective_status(&c2), Some(TxnStatus::Active));
    }

    #[test]
    fn ensure_txn_materializes_ancestors() {
        let mut f = fam();
        let deep = f.top_tid().child(3).child(1);
        f.ensure_txn(&deep);
        assert_eq!(f.effective_status(&deep), Some(TxnStatus::Active));
        assert_eq!(
            f.effective_status(&f.top_tid().child(3)),
            Some(TxnStatus::Active)
        );
    }

    /// One table for the phase-one tally: who is asked, the votes in
    /// arrival order, and what each one does.
    #[test]
    fn tally_counts_local_and_site_votes() {
        use TallyStep::{AllIn, Stale, Veto, Waiting};
        #[derive(Clone, Copy)]
        enum Voter {
            Local(u32),
            Site(u32),
        }
        use Voter::{Local, Site};
        type Case = (
            &'static str,
            &'static [u32],
            &'static [(Voter, Vote, TallyStep)],
        );
        let cases: &[Case] = &[
            (
                "local read-only votes: all in, nothing to write",
                &[],
                &[
                    (Local(1), Vote::ReadOnly, Waiting),
                    (Local(2), Vote::ReadOnly, AllIn { update: false }),
                ],
            ),
            (
                "one local yes makes it an update; a duplicate is stale",
                &[],
                &[
                    (Local(1), Vote::Yes, Waiting),
                    (Local(1), Vote::Yes, Stale),
                    (Local(2), Vote::ReadOnly, AllIn { update: true }),
                    (Local(2), Vote::No, Stale),
                ],
            ),
            (
                "a voter nobody asked is stale, local or remote",
                &[7],
                &[(Local(3), Vote::No, Stale), (Site(9), Vote::No, Stale)],
            ),
            (
                "a local no is a veto",
                &[],
                &[
                    (Local(1), Vote::ReadOnly, Waiting),
                    (Local(2), Vote::No, Veto),
                ],
            ),
            (
                "a site no is a veto",
                &[7, 8],
                &[(Site(7), Vote::Yes, Waiting), (Site(8), Vote::No, Veto)],
            ),
            (
                "site read-only votes leave a read-only transaction",
                &[7, 8],
                &[
                    (Local(1), Vote::ReadOnly, Waiting),
                    (Local(2), Vote::ReadOnly, Waiting),
                    (Site(7), Vote::ReadOnly, Waiting),
                    (Site(7), Vote::Yes, Stale),
                    (Site(8), Vote::ReadOnly, AllIn { update: false }),
                ],
            ),
            (
                "one site yes makes it an update, whatever came first",
                &[7, 8],
                &[
                    (Site(8), Vote::Yes, Waiting),
                    (Local(2), Vote::ReadOnly, Waiting),
                    (Site(7), Vote::ReadOnly, Waiting),
                    (Local(1), Vote::ReadOnly, AllIn { update: true }),
                ],
            ),
        ];
        for (name, sites, votes) in cases {
            let mut tally = Tally::collecting([ServerId(1), ServerId(2)].into_iter().collect());
            tally.awaiting_sites = sites.iter().map(|s| SiteId(*s)).collect();
            for (i, (voter, vote, want)) in votes.iter().enumerate() {
                let got = match voter {
                    Local(s) => tally.tally_local(ServerId(*s), *vote),
                    Site(s) => tally.tally_site(SiteId(*s), *vote),
                };
                assert_eq!(got, *want, "{name}: vote {i}");
            }
        }
        // Yes and read-only sites are kept apart for the later phases.
        let mut tally = Tally {
            awaiting_sites: [SiteId(7), SiteId(8)].into_iter().collect(),
            ..Tally::default()
        };
        tally.tally_site(SiteId(7), Vote::Yes);
        tally.tally_site(SiteId(8), Vote::ReadOnly);
        assert_eq!(tally.yes_subs, [SiteId(7)].into_iter().collect());
        assert_eq!(tally.ro_subs, [SiteId(8)].into_iter().collect());
    }

    #[test]
    fn view_reports_role() {
        let mut f = fam();
        f.role = Role::Sub2pc(Sub2pc {
            coordinator: SiteId(2),
            tally: Tally::default(),
            phase: SubPhase::Prepared,
        });
        let v = f.view();
        assert_eq!(v.phase, FamilyPhase::Prepared);
        assert_eq!(v.role, "2pc-subordinate");
    }
}
