//! Restart recovery of transaction-manager protocol state.
//!
//! After a crash, the recovery process reads the stable log and
//! rebuilds the transaction manager's in-memory state: what became of
//! each family is read once, by [`camelot_wal::families`], the same
//! reading the data servers recover from, and only what is still owed
//! is rebuilt (DESIGN §5.8).
//!
//! - **committed** or **aborted**, and no end record: a non-blocking
//!   coordinator (its begin record) re-announces the outcome to every
//!   other site; a non-blocking subordinate keeps its tombstone and
//!   acknowledges again at once, until the forget note (change 4); a
//!   2PC coordinator whose commit record names subordinates
//!   re-announces until every ack arrives.
//! - **in doubt**: a 2PC prepared subordinate inquires (*blocked* until
//!   the coordinator answers — the vulnerability non-blocking
//!   commitment removes); a non-blocking subordinate's outcome timer
//!   drives a takeover; a non-blocking begin record alone rejoins the
//!   original coordinator as a takeover (a quorum may have decided for
//!   it while it was down, so it must ask, not assume).
//! - Anything else, **died** included: nothing is rebuilt or written,
//!   and presumed abort answers for the family — "aborted" to an
//!   inquiry, "unknown" to a takeover, which may then recruit this site
//!   into its abort quorum.

use camelot_net::{Outcome, TmMessage};
use camelot_types::{FamilyId, Lsn, SiteId};
use camelot_wal::record::QuorumKind;
use camelot_wal::{families, FamilyLog, Fate, LogRecord};

use crate::config::{CommitMode, EngineConfig};
use crate::engine::Engine;
use crate::family::{Announcing, Family, Role, Sub2pc, SubNb, SubPhase, Takeover, Tally};
use crate::io::Action;
use crate::nonblocking::info_from_record;

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
        let mut spent = 0u64;
        let fams = families(records.into_iter().map(|(_, rec)| {
            if let LogRecord::Checkpoint { next_family_seq } = rec {
                spent = spent.max(next_family_seq.saturating_sub(1));
            }
            rec
        }));
        let spent = (fams.keys().filter(|fid| fid.origin == site))
            .map(|fid| fid.seq)
            .fold(spent, u64::max);
        let mut engine = Engine::sharded(site, config, shard, of);
        engine.bump_family_seq(spent + 1);
        let mut out = Vec::new();
        for (fid, log) in &fams {
            let decided = match log.fate() {
                Fate::Committed => Some(Outcome::Committed),
                Fate::Aborted => Some(Outcome::Aborted),
                Fate::InDoubt => None,
                Fate::Died => continue,
            };
            if !log.ended {
                engine.rebuild(&mut out, *fid, log, decided);
            }
        }
        (engine, out)
    }

    /// Gives a family that still owes something the role its records
    /// leave it in; `decided` is its outcome here, `None` in doubt.
    fn rebuild(
        &mut self,
        out: &mut Vec<Action>,
        fid: FamilyId,
        log: &FamilyLog,
        decided: Option<Outcome>,
    ) {
        let mut fam = Family::new(fid);
        fam.servers = log.servers.clone();
        fam.joined = match log.nb_replicate {
            Some(_) => Some(QuorumKind::Commit),
            None => log.quorum,
        };
        let (tid, me) = (fam.top_tid(), self.site);
        let phase = match (decided, log.nb_replicate) {
            (Some(_), _) => SubPhase::Resolved,
            // In doubt, replicated: quorum member. Take over promptly.
            (None, Some(_)) => SubPhase::Replicated,
            (None, None) => SubPhase::Prepared,
        };
        let begun = log.nb_begin.map(info_from_record);
        match (decided, begun, nb_subordinate(log, phase), log.prepared) {
            (Some(outcome), Some(info), _, _) => {
                self.families.insert(fid, fam);
                self.announce_to_peers(out, fid, info, outcome);
            }
            (outcome, _, Some(sub), _) => {
                let to = sub.coordinator;
                fam.role = Role::SubNb(SubNb { outcome, ..sub });
                self.families.insert(fid, fam);
                self.arm_in_doubt_timer(out, fid, CommitMode::NonBlocking);
                if outcome.is_some() {
                    self.send(out, to, TmMessage::NbOutcomeAck { tid, from: me });
                }
            }
            (None, Some(info), None, _) => {
                fam.role = Role::Takeover(Takeover::gathering(info, true));
                self.families.insert(fid, fam);
                self.begin_gathering(out, fid);
            }
            (None, None, None, Some(coordinator)) => {
                let tally = Tally {
                    local_update: true,
                    ..Tally::default()
                };
                let phase = SubPhase::Prepared;
                fam.role = Role::Sub2pc(Sub2pc {
                    coordinator,
                    tally,
                    phase,
                });
                self.families.insert(fid, fam);
                self.arm_in_doubt_timer(out, fid, CommitMode::TwoPhase);
                self.send(out, coordinator, TmMessage::Inquire { tid, from: me });
            }
            (Some(outcome), None, None, _) => {
                // A subordinate's own commit record names no subordinates.
                let Some(subs) = log.commit.filter(|subs| !subs.is_empty()) else {
                    return;
                };
                self.families.insert(fid, fam);
                let a = Announcing {
                    nb: None,
                    outcome,
                    awaiting_acks: subs.iter().copied().collect(),
                    forget: vec![],
                };
                self.announce(out, fid, a);
            }
            (None, None, None, None) => {}
        }
    }
}

/// The non-blocking subordinate a restarted log describes, in `phase`:
/// its coordinator and the decision information, from the replication
/// record or else the prepared record.
fn nb_subordinate(log: &FamilyLog, phase: SubPhase) -> Option<SubNb> {
    let (coordinator, info) = if let Some(info) = log.nb_replicate {
        let info = info_from_record(info);
        (log.nb_prepared.map_or(info.sites[0], |(c, _)| c), info)
    } else {
        let (coordinator, sites) = log.nb_prepared?;
        (coordinator, crate::nonblocking::quorum_info(sites.to_vec()))
    };
    Some(SubNb::at(coordinator, info, phase, true))
}
