//! One reading of the durable log per transaction family.
//!
//! "After a failure ... the recovery process reads the log and
//! instructs servers how to undo or redo updates of interrupted
//! transactions" (paper §2). Both readers of a restarted site's log —
//! the data servers and the transaction manager — take what became of
//! each family from [`families`], and [`FamilyLog::fate`] is the one
//! rule:
//!
//! - a top-level commit record: **committed**;
//! - a top-level abort record: **aborted** (the abort record of a
//!   nested transaction aborts only its subtree);
//! - a prepared, non-blocking prepared, replication or begin record
//!   and no outcome: **in doubt**, since the outcome may have been, or
//!   may yet be, decided elsewhere;
//! - anything else: this site's part **died** in the crash. It never
//!   voted yes, so no family can commit with it; presumed abort needs
//!   no record of that. (An end record and no outcome is a read-only
//!   non-blocking commit that finished: nothing is owed there either.)

use std::collections::{BTreeMap, BTreeSet};

use camelot_types::{FamilyId, ServerId, SiteId, Tid};

use crate::record::{LogRecord, QuorumKind, ReplicationInfo};

/// What the durable log says became of a family at this site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    Committed,
    Aborted,
    InDoubt,
    Died,
}

/// One family's durable records at this site.
#[derive(Debug, Default)]
pub struct FamilyLog<'a> {
    /// The coordinator a 2PC prepared record names.
    pub prepared: Option<SiteId>,
    /// The coordinator and sites a non-blocking prepared record names.
    pub nb_prepared: Option<(SiteId, &'a [SiteId])>,
    /// A non-blocking coordinator's begin record.
    pub nb_begin: Option<&'a ReplicationInfo>,
    /// A non-blocking replication record.
    pub nb_replicate: Option<&'a ReplicationInfo>,
    /// The quorum this site joined.
    pub quorum: Option<QuorumKind>,
    /// The subordinates a top-level commit record names.
    pub commit: Option<&'a [SiteId]>,
    /// A top-level abort record.
    pub aborted: bool,
    /// A coordinator's end record.
    pub ended: bool,
    /// Nested transactions with an abort record: their subtrees'
    /// updates are never redone.
    pub aborted_subtrees: Vec<&'a Tid>,
    /// The servers that logged updates for the family.
    pub servers: BTreeSet<ServerId>,
}

impl FamilyLog<'_> {
    /// The family's fate (see the module documentation).
    pub fn fate(&self) -> Fate {
        if self.commit.is_some() {
            Fate::Committed
        } else if self.aborted {
            Fate::Aborted
        } else if !self.ended
            && (self.prepared.is_some()
                || self.nb_prepared.is_some()
                || self.nb_begin.is_some()
                || self.nb_replicate.is_some())
        {
            Fate::InDoubt
        } else {
            Fate::Died
        }
    }

    /// Whether an update made under `tid` survives a nested abort.
    pub fn keeps(&self, tid: &Tid) -> bool {
        !self
            .aborted_subtrees
            .iter()
            .any(|root| root.is_self_or_ancestor_of(tid))
    }
}

/// Reads `records` (a site's durable log, in order) into one
/// [`FamilyLog`] per family that has a record there.
pub fn families<'a>(
    records: impl IntoIterator<Item = &'a LogRecord>,
) -> BTreeMap<FamilyId, FamilyLog<'a>> {
    let mut fams: BTreeMap<FamilyId, FamilyLog<'a>> = BTreeMap::new();
    for rec in records {
        let Some(tid) = rec.tid() else { continue };
        let log = fams.entry(tid.family).or_default();
        match rec {
            LogRecord::Prepared { coordinator, .. } => log.prepared = Some(*coordinator),
            LogRecord::Commit { tid, subs } if tid.is_top_level() => {
                log.commit = Some(subs.as_slice())
            }
            LogRecord::Abort { tid } if tid.is_top_level() => log.aborted = true,
            LogRecord::Abort { tid } => log.aborted_subtrees.push(tid),
            LogRecord::End { .. } => log.ended = true,
            LogRecord::NbBegin { info, .. } => log.nb_begin = Some(info),
            LogRecord::NbPrepared {
                coordinator, sites, ..
            } => log.nb_prepared = Some((*coordinator, sites.as_slice())),
            LogRecord::NbReplicate { info, .. } => log.nb_replicate = Some(info),
            LogRecord::NbQuorum { kind, .. } => log.quorum = Some(*kind),
            LogRecord::ServerUpdate { server, .. } => {
                log.servers.insert(*server);
            }
            _ => {}
        }
    }
    fams
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_types::ObjectId;

    fn top() -> Tid {
        Tid::top_level(FamilyId {
            origin: SiteId(1),
            seq: 1,
        })
    }

    fn update(tid: &Tid) -> LogRecord {
        LogRecord::ServerUpdate {
            tid: tid.clone(),
            server: ServerId(1),
            object: ObjectId(1),
            old: vec![],
            new: vec![1],
        }
    }

    fn fate_of(log: &[LogRecord]) -> Fate {
        families(log)[&top().family].fate()
    }

    #[test]
    fn each_record_kind_has_its_fate() {
        let t = top();
        let info = ReplicationInfo {
            sites: vec![SiteId(1), SiteId(2)],
            yes_votes: vec![],
            commit_quorum: 2,
            abort_quorum: 1,
        };
        let commit = LogRecord::Commit {
            tid: t.clone(),
            subs: vec![],
        };
        let abort = LogRecord::Abort { tid: t.clone() };
        let in_doubt = [
            LogRecord::Prepared {
                tid: t.clone(),
                coordinator: SiteId(2),
            },
            LogRecord::NbPrepared {
                tid: t.clone(),
                coordinator: SiteId(2),
                sites: vec![],
            },
            LogRecord::NbBegin {
                tid: t.clone(),
                info: info.clone(),
            },
            LogRecord::NbReplicate {
                tid: t.clone(),
                info,
            },
        ];
        for rec in in_doubt.clone() {
            assert_eq!(fate_of(&[update(&t), rec.clone()]), Fate::InDoubt);
            assert_eq!(fate_of(&[rec.clone(), commit.clone()]), Fate::Committed);
            assert_eq!(fate_of(&[rec, abort.clone()]), Fate::Aborted);
        }
        let joined = LogRecord::NbQuorum {
            tid: t.clone(),
            kind: QuorumKind::Abort,
        };
        assert_eq!(fate_of(&[update(&t), joined]), Fate::Died);
        let read_only = [in_doubt[2].clone(), LogRecord::End { tid: t.clone() }];
        assert_eq!(fate_of(&read_only), Fate::Died);
    }

    #[test]
    fn a_nested_abort_aborts_only_its_subtree() {
        let t = top();
        let child = t.child(1);
        let log = [
            update(&child),
            LogRecord::Abort { tid: child.clone() },
            update(&t),
            LogRecord::Prepared {
                tid: t.clone(),
                coordinator: SiteId(2),
            },
        ];
        let fams = families(&log);
        let fam = &fams[&t.family];
        assert_eq!(fam.fate(), Fate::InDoubt);
        assert!(fam.keeps(&t));
        assert!(!fam.keeps(&child) && !fam.keeps(&child.child(1)));
        assert_eq!(fam.servers, BTreeSet::from([ServerId(1)]));
    }
}
