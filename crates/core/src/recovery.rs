//! Restart recovery of transaction-manager protocol state.
//!
//! After a crash, the recovery process reads the stable log and
//! rebuilds the transaction manager's in-memory state. What became of
//! each family is read once, by [`camelot_wal::families`], the same
//! reading the data servers recover from. For each fate:
//!
//! - **committed** — booked for inquiries. A coordinator's commit
//!   record naming subordinates and no end record means it crashed
//!   mid-notify: resume the notify phase (presumed abort obliges the
//!   coordinator to keep re-announcing until every ack arrives).
//! - **aborted** — booked for inquiries.
//! - **in doubt** — a 2PC prepared record rebuilds the prepared
//!   subordinate, which inquires (it stays *blocked* until the
//!   coordinator answers — the vulnerability non-blocking commitment
//!   removes); a non-blocking prepared or replication record rebuilds
//!   the subordinate, whose outcome timer drives a takeover; a
//!   non-blocking begin record alone means the original coordinator
//!   crashed mid-protocol, and it rejoins as a takeover coordinator
//!   (its own decision may have been made *for* it by a quorum while
//!   it was down, so it must ask, not assume).
//! - **died** — this site's part of the family died in the crash. It
//!   never voted yes, so the family cannot commit with it, and presumed
//!   abort needs no record of that: nothing is rebuilt, booked or
//!   written. A coordinator that inquires is told "aborted" by presumed
//!   abort; a takeover that asks is told "unknown", and may recruit
//!   this site into its abort quorum.

use camelot_net::msg::NbInfo;
use camelot_net::{Outcome, TmMessage};
use camelot_types::{FamilyId, Lsn, SiteId};
use camelot_wal::record::QuorumKind;
use camelot_wal::{families, FamilyLog, Fate, LogRecord};

use crate::config::{CommitMode, EngineConfig};
use crate::engine::Engine;
use crate::family::{Announcing, Family, Role, SubNb, SubPhase, Takeover};
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
            match log.fate() {
                Fate::Committed => {
                    engine.resolutions.insert(*fid, Outcome::Committed);
                    engine.rebuild_notifier(&mut out, *fid, log);
                }
                Fate::Aborted => {
                    engine.resolutions.insert(*fid, Outcome::Aborted);
                }
                Fate::InDoubt => engine.rebuild_in_doubt(&mut out, *fid, log),
                Fate::Died => {}
            }
        }
        (engine, out)
    }

    /// A committed family whose commit record names subordinates and
    /// that has no end record: the coordinator crashed mid-notify and
    /// re-announces until acked. (A subordinate's own lazy commit
    /// record names none; nothing further is owed by us.)
    fn rebuild_notifier(&mut self, out: &mut Vec<Action>, fid: FamilyId, log: &FamilyLog) {
        let subs = log.commit.unwrap_or_default();
        if log.ended || subs.is_empty() {
            return;
        }
        let mut fam = Family::new(fid);
        fam.servers = log.servers.clone();
        self.families.insert(fid, fam);
        let committed = Outcome::Committed;
        match log.nb_begin {
            Some(info) => self.announce_to_peers(out, fid, info_from_record(info), committed),
            None => {
                let announcing = Announcing {
                    nb: None,
                    outcome: committed,
                    awaiting_acks: subs.iter().copied().collect(),
                    forget: Vec::new(),
                };
                self.announce(out, fid, announcing)
            }
        }
    }

    /// An in-doubt family gets back the role its last record left it
    /// in.
    fn rebuild_in_doubt(&mut self, out: &mut Vec<Action>, fid: FamilyId, log: &FamilyLog) {
        let mut fam = Family::new(fid);
        fam.servers = log.servers.clone();
        let tid = fam.top_tid();
        fam.joined = match log.nb_replicate {
            Some(_) => Some(QuorumKind::Commit),
            None => log.quorum,
        };
        let nb_sub = if let Some(info) = log.nb_replicate {
            // In doubt, replicated: quorum member. Take over promptly.
            let info = info_from_record(info);
            let coordinator = log.nb_prepared.map_or(info.sites[0], |(c, _)| c);
            Some(SubNb::at(coordinator, info, SubPhase::Replicated, true))
        } else if let Some((coordinator, sites)) = log.nb_prepared {
            let (vc, va) = crate::nonblocking::quorum_sizes(sites.len());
            let info = NbInfo {
                sites: sites.to_vec(),
                yes_votes: vec![],
                commit_quorum: vc,
                abort_quorum: va,
            };
            Some(SubNb::at(coordinator, info, SubPhase::Prepared, true))
        } else {
            None
        };
        if let Some(sub) = nb_sub {
            fam.role = Role::SubNb(sub);
            self.families.insert(fid, fam);
            self.arm_in_doubt_timer(out, fid, CommitMode::NonBlocking);
        } else if let Some(info) = log.nb_begin {
            // The original coordinator, crashed before deciding: it
            // must ask the quorum, not assume.
            fam.role = Role::Takeover(Takeover::gathering(info_from_record(info), true));
            self.families.insert(fid, fam);
            self.begin_gathering(out, fid);
        } else if let Some(coordinator) = log.prepared {
            // In-doubt 2PC subordinate: blocked until the coordinator
            // answers.
            crate::twophase::prepared_subordinate(&mut fam, coordinator);
            self.families.insert(fid, fam);
            self.arm_in_doubt_timer(out, fid, CommitMode::TwoPhase);
            let from = self.site;
            self.send(out, coordinator, TmMessage::Inquire { tid, from });
        }
    }
}
