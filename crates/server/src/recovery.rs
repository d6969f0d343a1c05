//! Data-server recovery.
//!
//! "After a failure (of server, site, or disk) or an abort, the
//! recovery process reads the log and instructs servers how to undo
//! or redo updates of interrupted transactions." (paper §2)
//!
//! The scan classifies each family found in the durable log:
//!
//! - **committed** (a commit record exists): *redo* — install every
//!   update's new value;
//! - **aborted**, or active with no prepared record: *undo* — install
//!   nothing (the store never saw uncommitted values; undo means
//!   discarding the updates);
//! - **prepared / replicated but unresolved**: *in doubt* — the
//!   updates are reinstated as uncommitted state with their exclusive
//!   locks re-acquired, until the transaction manager resolves the
//!   outcome (the server then commits or aborts the family normally).

use std::collections::HashMap;

use camelot_types::{FamilyId, ObjectId, ServerId, SiteId, Tid};
use camelot_wal::LogRecord;

use crate::server::DataServer;

/// Result of a server recovery scan.
pub struct RecoveredServer {
    pub server: DataServer,
    /// Families reinstated in doubt (prepared, outcome unknown).
    pub in_doubt: Vec<FamilyId>,
    /// Families redone (committed).
    pub redone: Vec<FamilyId>,
    /// Families undone (aborted or never prepared).
    pub undone: Vec<FamilyId>,
}

#[derive(Default)]
struct FamScan {
    prepared: bool,
    committed: bool,
    aborted: bool,
    /// Subtrees aborted before the crash: their updates must not be
    /// redone even if the family committed. (The engine logs an abort
    /// record per subtree via the abort protocol; here we track
    /// per-tid aborts from `Abort` records of nested tids.)
    aborted_subtrees: Vec<Tid>,
    /// Updates of this server outside the aborted subtrees, kept only
    /// while the family may turn out in doubt.
    live_updates: Vec<(Tid, ObjectId, Vec<u8>, Vec<u8>)>,
    /// Whether any such update exists (undone families drop theirs).
    updated: bool,
}

impl FamScan {
    fn redo(&self) -> bool {
        self.committed && !self.aborted
    }

    fn undo(&self) -> bool {
        !self.redo() && (self.aborted || !self.prepared)
    }
}

/// Rebuilds one data server's state from the durable log records of
/// its site (records of other servers are ignored).
///
/// If the log contains [`LogRecord::ServerSnapshot`] records for this
/// server, the last one becomes the base store; replaying the
/// (value-carrying, hence idempotent) update records on top of it
/// then reconstructs the same state whether or not older records
/// survive — which is what makes pre-checkpoint log truncation safe.
///
/// Two passes over borrowed records: the first classifies every
/// family, the second touches each update once — redone in log order,
/// copied out for an in-doubt family, skipped otherwise.
pub fn recover<'a, I>(site: SiteId, id: ServerId, records: I) -> RecoveredServer
where
    I: IntoIterator<Item = &'a LogRecord> + Clone,
{
    let mut scans: HashMap<FamilyId, FamScan> = HashMap::new();
    let mut snapshot: Option<&[(ObjectId, Vec<u8>)]> = None;
    for rec in records.clone() {
        match rec {
            LogRecord::ServerSnapshot { server, objects } if *server == id => {
                snapshot = Some(objects);
            }
            LogRecord::ServerUpdate { tid, server, .. } if *server == id => {
                scans.entry(tid.family).or_default();
            }
            LogRecord::Prepared { tid, .. }
            | LogRecord::NbPrepared { tid, .. }
            | LogRecord::NbReplicate { tid, .. } => {
                scans.entry(tid.family).or_default().prepared = true;
            }
            LogRecord::Commit { tid, .. } => {
                scans.entry(tid.family).or_default().committed = true;
            }
            LogRecord::Abort { tid } => {
                let s = scans.entry(tid.family).or_default();
                if tid.is_top_level() {
                    s.aborted = true;
                } else {
                    s.aborted_subtrees.push(tid.clone());
                }
            }
            _ => {}
        }
    }

    let mut server = DataServer::new(site, id);
    if let Some(objects) = snapshot {
        for (obj, val) in objects {
            server.install_committed(*obj, val.clone());
        }
    }
    // Redo installs committed new-values exactly in the order they
    // were originally applied, interleaving across families: two
    // committed families touching the same object must redo in *log*
    // order, which family-id order does not preserve.
    for rec in records {
        let LogRecord::ServerUpdate {
            tid,
            server: srv,
            object,
            old,
            new,
        } = rec
        else {
            continue;
        };
        if *srv != id {
            continue;
        }
        let scan = scans.get_mut(&tid.family).expect("classified above");
        if scan
            .aborted_subtrees
            .iter()
            .any(|a| a.is_self_or_ancestor_of(tid))
        {
            continue;
        }
        scan.updated = true;
        if scan.redo() {
            server.install_committed(*object, new.clone());
        } else if !scan.undo() {
            scan.live_updates
                .push((tid.clone(), *object, old.clone(), new.clone()));
        }
    }
    let mut in_doubt = Vec::new();
    let mut redone = Vec::new();
    let mut undone = Vec::new();
    // Deterministic order for the report lists.
    let mut fams: Vec<FamilyId> = scans.keys().copied().collect();
    fams.sort();
    for f in fams {
        let scan = scans.get_mut(&f).expect("key exists");
        if scan.redo() {
            redone.push(f);
        } else if scan.undo() {
            // Undo: nothing to install (the store holds pre-images).
            if scan.updated || scan.aborted {
                undone.push(f);
            }
        } else {
            // In doubt: reinstate uncommitted state + locks.
            server.install_in_doubt(f, std::mem::take(&mut scan.live_updates));
            in_doubt.push(f);
        }
    }
    RecoveredServer {
        server,
        in_doubt,
        redone,
        undone,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_wal::LogRecord as R;

    const SITE: SiteId = SiteId(1);
    const SRV: ServerId = ServerId(1);

    fn fam(n: u64) -> FamilyId {
        FamilyId {
            origin: SITE,
            seq: n,
        }
    }

    fn top(n: u64) -> Tid {
        Tid::top_level(fam(n))
    }

    fn upd(tid: &Tid, obj: u64, old: &[u8], new: &[u8]) -> R {
        R::ServerUpdate {
            tid: tid.clone(),
            server: SRV,
            object: ObjectId(obj),
            old: old.to_vec(),
            new: new.to_vec(),
        }
    }

    #[test]
    fn committed_family_is_redone() {
        let t = top(1);
        let log = vec![
            upd(&t, 7, b"", b"v1"),
            upd(&t, 8, b"", b"v2"),
            R::Commit {
                tid: t.clone(),
                subs: vec![],
            },
        ];
        let r = recover(SITE, SRV, &log);
        assert_eq!(r.server.committed_value(ObjectId(7)), b"v1");
        assert_eq!(r.server.committed_value(ObjectId(8)), b"v2");
        assert_eq!(r.redone, vec![fam(1)]);
        assert!(r.in_doubt.is_empty());
    }

    #[test]
    fn redo_applies_last_value_in_log_order() {
        let t = top(1);
        let log = vec![
            upd(&t, 7, b"", b"first"),
            upd(&t, 7, b"first", b"second"),
            R::Commit {
                tid: t.clone(),
                subs: vec![],
            },
        ];
        let r = recover(SITE, SRV, &log);
        assert_eq!(r.server.committed_value(ObjectId(7)), b"second");
    }

    #[test]
    fn redo_across_families_follows_log_order() {
        // A higher-id family writes an object *before* a lower-id
        // family overwrites it. Replaying in family-id order would
        // resurrect the older value; log order must win.
        let early = top(5);
        let late = top(2);
        let log = vec![
            upd(&early, 7, b"", b"first"),
            R::Commit {
                tid: early.clone(),
                subs: vec![],
            },
            upd(&late, 7, b"first", b"second"),
            R::Commit {
                tid: late.clone(),
                subs: vec![],
            },
        ];
        let r = recover(SITE, SRV, &log);
        assert_eq!(r.server.committed_value(ObjectId(7)), b"second");
        assert_eq!(r.redone.len(), 2);
    }

    #[test]
    fn aborted_and_unprepared_families_are_undone() {
        let t1 = top(1);
        let t2 = top(2);
        let log = vec![
            upd(&t1, 7, b"", b"doomed"),
            R::Abort { tid: t1.clone() },
            upd(&t2, 8, b"", b"crashed-mid-flight"),
            // t2 never prepared: presumed abort.
        ];
        let r = recover(SITE, SRV, &log);
        assert_eq!(r.server.committed_value(ObjectId(7)), b"");
        assert_eq!(r.server.committed_value(ObjectId(8)), b"");
        assert_eq!(r.undone.len(), 2);
    }

    #[test]
    fn prepared_family_is_reinstated_in_doubt_with_locks() {
        let t = top(1);
        let log = vec![
            upd(&t, 7, b"", b"maybe"),
            R::Prepared {
                tid: t.clone(),
                coordinator: SiteId(9),
            },
        ];
        let r = recover(SITE, SRV, &log);
        let mut s = r.server;
        assert_eq!(r.in_doubt, vec![fam(1)]);
        // The committed store is untouched...
        assert_eq!(s.committed_value(ObjectId(7)), b"");
        // ...and the object is still locked against other families.
        let intruder = top(2);
        let fx = s.handle(crate::server::Request::Read {
            req: 1,
            tid: intruder,
            object: ObjectId(7),
        });
        assert!(fx.blocked, "in-doubt data stays locked");
        // Resolution: commit makes the update visible and unblocks.
        let fx = s.commit_family(fam(1));
        assert_eq!(fx.replies.len(), 1);
        assert_eq!(fx.replies[0].value, b"maybe");
        assert_eq!(s.committed_value(ObjectId(7)), b"maybe");
    }

    #[test]
    fn in_doubt_family_can_also_abort() {
        let t = top(1);
        let log = vec![
            upd(&t, 7, b"pre", b"post"),
            R::NbPrepared {
                tid: t.clone(),
                coordinator: SiteId(9),
                sites: vec![],
            },
        ];
        let r = recover(SITE, SRV, &log);
        let mut s = r.server;
        s.abort_family(fam(1));
        assert_eq!(s.committed_value(ObjectId(7)), b"");
        assert_eq!(s.active_families(), 0);
    }

    #[test]
    fn aborted_subtree_updates_are_not_redone() {
        let t = top(1);
        let child = t.child(1);
        let log = vec![
            upd(&t, 7, b"", b"keep"),
            upd(&child, 8, b"", b"undone-subtree"),
            R::Abort { tid: child.clone() },
            R::Commit {
                tid: t.clone(),
                subs: vec![],
            },
        ];
        let r = recover(SITE, SRV, &log);
        assert_eq!(r.server.committed_value(ObjectId(7)), b"keep");
        assert_eq!(r.server.committed_value(ObjectId(8)), b"");
    }

    #[test]
    fn other_servers_records_are_ignored() {
        let t = top(1);
        let log = vec![
            R::ServerUpdate {
                tid: t.clone(),
                server: ServerId(99),
                object: ObjectId(7),
                old: vec![],
                new: b"not-mine".to_vec(),
            },
            R::Commit {
                tid: t.clone(),
                subs: vec![],
            },
        ];
        let r = recover(SITE, SRV, &log);
        assert_eq!(r.server.committed_value(ObjectId(7)), b"");
    }

    #[test]
    fn idempotent_recovery() {
        // Recovering twice from the same log yields the same store.
        let t = top(1);
        let log = vec![
            upd(&t, 7, b"", b"v"),
            R::Commit {
                tid: t.clone(),
                subs: vec![],
            },
        ];
        let a = recover(SITE, SRV, &log);
        let b = recover(SITE, SRV, &log);
        assert_eq!(
            a.server.committed_value(ObjectId(7)),
            b.server.committed_value(ObjectId(7))
        );
    }

    #[test]
    fn snapshot_becomes_the_recovery_base() {
        // The snapshot carries committed state whose originating
        // records are gone (truncated): recovery must still produce it.
        let t = top(5);
        let log = vec![
            R::ServerSnapshot {
                server: SRV,
                objects: vec![(ObjectId(1), b"from-snapshot".to_vec())],
            },
            R::Checkpoint { next_family_seq: 1 },
            // Post-checkpoint transaction overwrites object 2.
            upd(&t, 2, b"", b"after"),
            R::Commit {
                tid: t.clone(),
                subs: vec![],
            },
        ];
        let r = recover(SITE, SRV, &log);
        assert_eq!(r.server.committed_value(ObjectId(1)), b"from-snapshot");
        assert_eq!(r.server.committed_value(ObjectId(2)), b"after");
    }

    #[test]
    fn later_snapshot_wins_and_replay_is_idempotent() {
        let t = top(6);
        let log = vec![
            R::ServerSnapshot {
                server: SRV,
                objects: vec![(ObjectId(1), b"old".to_vec())],
            },
            upd(&t, 1, b"old", b"new"),
            R::Commit {
                tid: t.clone(),
                subs: vec![],
            },
            // Second checkpoint already reflects the commit; the
            // update record before it is replayed anyway (idempotent).
            R::ServerSnapshot {
                server: SRV,
                objects: vec![(ObjectId(1), b"new".to_vec())],
            },
            R::Checkpoint { next_family_seq: 1 },
        ];
        let r = recover(SITE, SRV, &log);
        assert_eq!(r.server.committed_value(ObjectId(1)), b"new");
    }

    #[test]
    fn snapshot_of_other_server_is_ignored() {
        let log = vec![R::ServerSnapshot {
            server: ServerId(99),
            objects: vec![(ObjectId(1), b"not-mine".to_vec())],
        }];
        let r = recover(SITE, SRV, &log);
        assert_eq!(r.server.committed_value(ObjectId(1)), b"");
    }

    #[test]
    fn snapshot_roundtrips_through_data_server() {
        let mut s = DataServer::new(SITE, SRV);
        let t = top(7);
        s.handle(crate::server::Request::Write {
            req: 1,
            tid: t.clone(),
            object: ObjectId(3),
            value: b"v".to_vec(),
        });
        s.commit_family(fam(7));
        let snap = camelot_types::wire::Wire::from_bytes(&s.snapshot()).unwrap();
        let r = recover(SITE, SRV, &[snap]);
        assert_eq!(r.server.committed_value(ObjectId(3)), b"v");
    }

    #[test]
    fn empty_log_recovers_empty_server() {
        let r = recover(SITE, SRV, &[]);
        assert_eq!(r.server.active_families(), 0);
        assert!(r.in_doubt.is_empty() && r.redone.is_empty() && r.undone.is_empty());
    }
}
