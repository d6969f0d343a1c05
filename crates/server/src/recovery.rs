//! Data-server recovery.
//!
//! "After a failure (of server, site, or disk) or an abort, the
//! recovery process reads the log and instructs servers how to undo
//! or redo updates of interrupted transactions." (paper §2)
//!
//! What became of each family is read once, by
//! [`camelot_wal::families`], the same reading the transaction
//! manager recovers from. A server acts on each family's fate:
//!
//! - **committed**: *redo*, installing every update's new value;
//! - **aborted**, or **died** in the crash: *undo*, installing nothing
//!   (the store never saw uncommitted values; undo means discarding
//!   the updates);
//! - **in doubt**: the updates are reinstated as uncommitted state
//!   with their exclusive locks re-acquired, until the transaction
//!   manager resolves the outcome (the server then commits or aborts
//!   the family normally).
//!
//! Updates under a nested transaction that aborted are never redone
//! or reinstated.

use std::collections::BTreeMap;

use camelot_types::{ServerId, SiteId};
use camelot_wal::{families, Fate, LogRecord};

use crate::server::DataServer;

/// Rebuilds one data server's state from the durable log records of
/// its site (records of other servers are ignored).
///
/// If the log contains [`LogRecord::ServerSnapshot`] records for this
/// server, the last one becomes the base store; replaying the
/// (value-carrying, hence idempotent) update records on top of it
/// then reconstructs the same state whether or not older records
/// survive — which is what makes pre-checkpoint log truncation safe.
///
/// The in-doubt families it reinstates are those with its updates:
/// the servers the transaction manager will tell the outcome.
pub fn recover<'a, I>(site: SiteId, id: ServerId, records: I) -> DataServer
where
    I: IntoIterator<Item = &'a LogRecord> + Clone,
{
    let fams = families(records.clone());
    let mut server = DataServer::new(site, id);
    let snapshot = (records.clone().into_iter())
        .filter_map(|rec| match rec {
            LogRecord::ServerSnapshot { server, objects } if *server == id => Some(objects),
            _ => None,
        })
        .last();
    for (obj, val) in snapshot.into_iter().flatten() {
        server.install_committed(*obj, val.clone());
    }
    // Redo installs committed new-values exactly in the order they
    // were originally applied, interleaving across families: two
    // committed families touching the same object must redo in *log*
    // order, which family-id order does not preserve.
    let mut in_doubt = BTreeMap::<_, Vec<_>>::new();
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
        let fam = &fams[&tid.family];
        if *srv != id || !fam.keeps(tid) {
            continue;
        }
        match fam.fate() {
            Fate::Committed => server.install_committed(*object, new.clone()),
            Fate::InDoubt => in_doubt.entry(tid.family).or_default().push((
                tid.clone(),
                *object,
                old.clone(),
                new.clone(),
            )),
            Fate::Aborted | Fate::Died => {}
        }
    }
    for (family, fam) in &fams {
        if fam.fate() == Fate::InDoubt && fam.servers.contains(&id) {
            let updates = in_doubt.remove(family).unwrap_or_default();
            server.install_in_doubt(*family, updates);
        }
    }
    server
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_types::{FamilyId, ObjectId, Tid};
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
        let s = recover(SITE, SRV, &log);
        assert_eq!(s.committed_value(ObjectId(7)), b"v1");
        assert_eq!(s.committed_value(ObjectId(8)), b"v2");
        assert!(s.in_doubt_families().is_empty());
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
        let s = recover(SITE, SRV, &log);
        assert_eq!(s.committed_value(ObjectId(7)), b"second");
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
        let s = recover(SITE, SRV, &log);
        assert_eq!(s.committed_value(ObjectId(7)), b"second");
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
        let s = recover(SITE, SRV, &log);
        assert_eq!(s.committed_value(ObjectId(7)), b"");
        assert_eq!(s.committed_value(ObjectId(8)), b"");
        assert_eq!(s.active_families(), 0);
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
        let mut s = recover(SITE, SRV, &log);
        assert_eq!(s.in_doubt_families(), vec![fam(1)]);
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
        let mut s = recover(SITE, SRV, &log);
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
        let s = recover(SITE, SRV, &log);
        assert_eq!(s.committed_value(ObjectId(7)), b"keep");
        assert_eq!(s.committed_value(ObjectId(8)), b"");
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
        let s = recover(SITE, SRV, &log);
        assert_eq!(s.committed_value(ObjectId(7)), b"");
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
            a.committed_value(ObjectId(7)),
            b.committed_value(ObjectId(7))
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
        let s = recover(SITE, SRV, &log);
        assert_eq!(s.committed_value(ObjectId(1)), b"from-snapshot");
        assert_eq!(s.committed_value(ObjectId(2)), b"after");
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
        let s = recover(SITE, SRV, &log);
        assert_eq!(s.committed_value(ObjectId(1)), b"new");
    }

    #[test]
    fn snapshot_of_other_server_is_ignored() {
        let log = vec![R::ServerSnapshot {
            server: ServerId(99),
            objects: vec![(ObjectId(1), b"not-mine".to_vec())],
        }];
        let s = recover(SITE, SRV, &log);
        assert_eq!(s.committed_value(ObjectId(1)), b"");
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
        let s = recover(SITE, SRV, &[snap]);
        assert_eq!(s.committed_value(ObjectId(3)), b"v");
    }

    #[test]
    fn empty_log_recovers_empty_server() {
        let s = recover(SITE, SRV, &[]);
        assert_eq!(s.active_families(), 0);
        assert!(s.in_doubt_families().is_empty());
    }
}
