//! Restart recovery of transaction-manager protocol state.
//!
//! After a crash, the recovery process replays the stable log and
//! rebuilds the transaction manager's in-memory state. For each
//! transaction family the durable records determine what must happen:
//!
//! - **commit record without end record, with subordinates** — the
//!   coordinator crashed mid-notify: resume the notify phase (the
//!   outcome is decided; presumed abort obliges the coordinator to
//!   keep re-announcing until every ack arrives).
//! - **2PC prepared record without outcome** — an in-doubt
//!   subordinate: rebuild the prepared state and inquire (it stays
//!   *blocked* until the coordinator answers — the vulnerability
//!   non-blocking commitment removes).
//! - **non-blocking prepared/replication record without outcome** —
//!   rebuild the subordinate state and let the outcome timer drive a
//!   takeover.
//! - **non-blocking begin record without outcome** — the original
//!   coordinator crashed mid-protocol: it rejoins as a takeover
//!   coordinator (its own decision may have been made *for* it by a
//!   quorum while it was down, so it must ask, not assume).
//! - **anything else without a prepare** — presumed abort: the
//!   transaction simply aborted; an abort record is appended for
//!   hygiene.

use std::collections::{BTreeMap, BTreeSet};

use camelot_net::msg::NbInfo;
use camelot_net::{NbSiteState, Outcome, TmMessage};
use camelot_types::{FamilyId, Lsn, ServerId, SiteId};
use camelot_wal::record::{QuorumKind, ReplicationInfo};
use camelot_wal::LogRecord;

use crate::config::{CommitMode, EngineConfig};
use crate::engine::Engine;
use crate::family::{Coord2pc, CoordPhase, Family, Role, SubNb, SubPhase, Takeover, Tally};
use crate::io::Action;
use crate::nonblocking::info_from_record;

#[derive(Default)]
struct FamScan {
    prepared_2pc: Option<SiteId>,
    nb_prepared: Option<(SiteId, Vec<SiteId>)>,
    nb_begin: Option<ReplicationInfo>,
    nb_replicate: Option<ReplicationInfo>,
    quorum: Option<QuorumKind>,
    commit_subs: Option<Vec<SiteId>>,
    aborted: bool,
    ended: bool,
    servers: BTreeSet<ServerId>,
}

impl Engine {
    /// Rebuilds an engine from the durable log. Returns the engine and
    /// the immediate actions (inquiries, takeover status requests,
    /// re-announcements, timers) the runtime must execute.
    pub fn recover<'a>(
        site: SiteId,
        config: EngineConfig,
        records: impl IntoIterator<Item = &'a (Lsn, LogRecord)>,
    ) -> (Engine, Vec<Action>) {
        Engine::recover_sharded(site, config, 0, 1, records)
    }

    /// Rebuilds one shard of a sharded engine (see [`Engine::sharded`])
    /// from the durable log. Of the family-bearing records the caller
    /// must pass only those of families this shard owns (route with
    /// [`crate::engine::shard_of_family`]). Checkpoint markers go to
    /// every shard: the log below them may be gone, and they carry
    /// the family sequence numbers already spent there. Server
    /// snapshots are ignored here.
    pub fn recover_sharded<'a>(
        site: SiteId,
        config: EngineConfig,
        shard: u32,
        of: u32,
        records: impl IntoIterator<Item = &'a (Lsn, LogRecord)>,
    ) -> (Engine, Vec<Action>) {
        let mut scans: BTreeMap<FamilyId, FamScan> = BTreeMap::new();
        let mut max_seq = 0u64;
        for (_, rec) in records {
            if let LogRecord::Checkpoint { next_family_seq } = rec {
                max_seq = max_seq.max(next_family_seq.saturating_sub(1));
            }
            let Some(tid) = rec.tid() else { continue };
            let fid = tid.family;
            if fid.origin == site {
                max_seq = max_seq.max(fid.seq);
            }
            let s = scans.entry(fid).or_default();
            match rec {
                LogRecord::Prepared { coordinator, .. } => s.prepared_2pc = Some(*coordinator),
                LogRecord::Commit { subs, .. } => s.commit_subs = Some(subs.clone()),
                LogRecord::Abort { .. } => s.aborted = true,
                LogRecord::End { .. } => s.ended = true,
                LogRecord::NbBegin { info, .. } => s.nb_begin = Some(info.clone()),
                LogRecord::NbPrepared {
                    coordinator, sites, ..
                } => s.nb_prepared = Some((*coordinator, sites.clone())),
                LogRecord::NbReplicate { info, .. } => s.nb_replicate = Some(info.clone()),
                LogRecord::NbQuorum { kind, .. } => s.quorum = Some(*kind),
                LogRecord::ServerJoin { server, .. } => {
                    s.servers.insert(*server);
                }
                LogRecord::ServerUpdate { server, .. } => {
                    s.servers.insert(*server);
                }
                LogRecord::Checkpoint { .. } | LogRecord::ServerSnapshot { .. } => {}
            }
        }

        let mut engine = Engine::sharded(site, config, shard, of);
        engine.bump_family_seq(max_seq + 1);
        let mut out = Vec::new();

        for (fid, s) in scans {
            let mut fam = Family::new(fid);
            fam.servers = s.servers.clone();
            let tid = fam.top_tid();
            if s.ended || (s.aborted && s.commit_subs.is_none()) {
                // Fully resolved (or presumed-abort aborted): nothing
                // to rebuild. Remember outcomes for inquiries.
                if s.aborted {
                    engine.resolutions.insert(fid, Outcome::Aborted);
                } else if s.commit_subs.is_some() {
                    engine.resolutions.insert(fid, Outcome::Committed);
                }
                continue;
            }
            if let Some(subs) = s.commit_subs {
                engine.resolutions.insert(fid, Outcome::Committed);
                if subs.is_empty() {
                    // A subordinate's own (lazy) commit record, or a
                    // local-only commit whose end record was lost:
                    // nothing further owed by us.
                    continue;
                }
                // Coordinator mid-notify: re-announce until acked.
                let awaiting: BTreeSet<SiteId> = if let Some(info) = s.nb_begin {
                    let info = info_from_record(&info);
                    let peers = info.sites.iter().copied().filter(|p| *p != site).collect();
                    fam.role = Role::Takeover(Takeover::gathering(
                        info,
                        NbSiteState::Committed,
                        Some(QuorumKind::Commit),
                        true,
                    ));
                    peers
                } else {
                    let awaiting: BTreeSet<SiteId> = subs.iter().copied().collect();
                    fam.role = Role::Coord2pc(Coord2pc {
                        participants: subs,
                        tally: Tally {
                            local_update: true,
                            yes_subs: awaiting.clone(),
                            ..Tally::default()
                        },
                        phase: CoordPhase::ForcingCommit,
                    });
                    awaiting
                };
                engine.families.insert(fid, fam);
                engine.announce(&mut out, fid, awaiting, Outcome::Committed);
                continue;
            }
            if s.aborted {
                engine.resolutions.insert(fid, Outcome::Aborted);
                continue;
            }
            let in_doubt = if let Some(info) = s.nb_replicate {
                // In-doubt, replicated: quorum member. Take over
                // promptly.
                let info = info_from_record(&info);
                let coordinator = s.nb_prepared.map(|(c, _)| c).unwrap_or(info.sites[0]);
                let mut sub = SubNb::at(coordinator, info, SubPhase::Replicated, true);
                sub.joined = Some(QuorumKind::Commit);
                Some(Role::SubNb(sub))
            } else if let Some((coordinator, sites)) = s.nb_prepared {
                // In-doubt non-blocking subordinate.
                let (vc, va) = crate::nonblocking::quorum_sizes(sites.len());
                let info = NbInfo {
                    sites,
                    yes_votes: vec![],
                    commit_quorum: vc,
                    abort_quorum: va,
                };
                let mut sub = SubNb::at(coordinator, info, SubPhase::Prepared, true);
                sub.joined = s.quorum;
                Some(Role::SubNb(sub))
            } else {
                None
            };
            if let Some(role) = in_doubt {
                fam.role = role;
                engine.families.insert(fid, fam);
                engine.arm_in_doubt_timer(&mut out, fid, CommitMode::NonBlocking);
                continue;
            }
            if let Some(info) = s.nb_begin {
                // The original coordinator, crashed before deciding:
                // it must ask the quorum, not assume.
                let info = info_from_record(&info);
                let takeover = Takeover::gathering(info, NbSiteState::Prepared, s.quorum, true);
                fam.role = Role::Takeover(takeover);
                engine.families.insert(fid, fam);
                engine.begin_gathering(&mut out, fid);
                continue;
            }
            if let Some(coordinator) = s.prepared_2pc {
                // In-doubt 2PC subordinate: blocked until the
                // coordinator answers.
                crate::twophase::prepared_subordinate(&mut fam, coordinator);
                engine.families.insert(fid, fam);
                engine.arm_in_doubt_timer(&mut out, fid, CommitMode::TwoPhase);
                let from = site;
                engine.send(&mut out, coordinator, TmMessage::Inquire { tid, from });
                continue;
            }
            // Active but never prepared: presumed abort.
            out.push(Action::Append {
                rec: LogRecord::Abort { tid },
            });
            engine.resolutions.insert(fid, Outcome::Aborted);
        }
        (engine, out)
    }
}
