//! Typed log records.
//!
//! Two producers write the common log: the **transaction manager**
//! (prepare / commit / abort records of both commitment protocols) and
//! the **data servers** (old/new-value update records, reported to the
//! disk manager "as late as possible" so that in the typical case a
//! transaction needs only one log write to commit — paper Figure 1,
//! step 5).
//!
//! [`RecordBody`] is one `wire_enum!` table: a record kind is its row
//! — tag, then fields in log order — and the codec is derived from it.

use camelot_types::wire::Writer;
use camelot_types::{wire_enum, wire_struct, ObjectId, ServerId, SiteId, Tid};

wire_enum! {
    /// Which quorum a site joined during non-blocking termination
    /// (change 4 of §3.3: a site never joins both).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum QuorumKind {
        0 => Commit,
        1 => Abort,
        _ => "bad quorum kind",
    }
}

wire_struct! {
    /// The information replicated during the non-blocking protocol's
    /// replication phase: everything a takeover coordinator needs to
    /// finish the transaction.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ReplicationInfo {
        /// All participant sites (the coordinator first).
        pub sites: Vec<SiteId>,
        /// Sites that voted to commit (update sites; read-only sites are
        /// excluded from the replication phase).
        pub yes_votes: Vec<SiteId>,
        /// Number of replication records (including the coordinator's own
        /// commit record) required before commit may be decided.
        pub commit_quorum: u32,
        /// Number of sites that must renounce commit before abort may be
        /// decided by a takeover coordinator.
        pub abort_quorum: u32,
    }
}

wire_enum! {
    /// The body of a log record.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum RecordBody {
        // ----- Transaction manager: two-phase commit (presumed abort) -----
        /// Subordinate prepared record, forced before voting yes. Carries
        /// the coordinator so recovery knows whom to ask about the
        /// outcome.
        1 => Prepared { tid: Tid, coordinator: SiteId },
        /// Commit record. At the coordinator this is the commit point
        /// (forced) and `subs` carries the update subordinates that still
        /// owe commit acknowledgements (presumed abort requires the
        /// coordinator to remember the transaction until they all ack, so
        /// recovery must be able to rebuild the list). At a subordinate
        /// under the delayed-commit optimization the record is written
        /// lazily, after locks are dropped, with an empty `subs`.
        2 => Commit { tid: Tid, subs: Vec<SiteId> },
        /// Abort record; never forced (presumed abort).
        3 => Abort { tid: Tid },
        /// Coordinator's end record: all subordinates have acknowledged,
        /// the transaction may be forgotten. Not forced.
        4 => End { tid: Tid },

        // ----- Transaction manager: non-blocking commitment -----
        /// Coordinator's begin-commit record, forced before sending the
        /// prepare message (change 5 of §3.3). Carries the site list and
        /// quorum sizes so a takeover coordinator can reconstruct them.
        5 => NbBegin { tid: Tid, info: ReplicationInfo },
        /// Subordinate prepared record for the non-blocking protocol.
        6 => NbPrepared { tid: Tid, coordinator: SiteId, sites: Vec<SiteId> },
        /// Replication-phase record, forced at a subordinate: the decision
        /// information is now stable here and counts toward the commit
        /// quorum.
        7 => NbReplicate { tid: Tid, info: ReplicationInfo },
        /// A site's quorum-join record (it may join only one kind).
        8 => NbQuorum { tid: Tid, kind: QuorumKind },

        // ----- Data servers -----
        // Tag 9 is retired: a server's join is not logged. Recovery
        // learns a family's servers from its update records.
        /// Old/new value pair for one object update: enough to undo (old)
        /// or redo (new) the update during recovery.
        10 => ServerUpdate {
            tid: Tid,
            server: ServerId,
            object: ObjectId,
            old: Vec<u8>,
            new: Vec<u8>,
        },

        // ----- Housekeeping -----
        /// Checkpoint marker: the [`RecordBody::ServerSnapshot`] records
        /// written just before it carry the servers' state, and once the
        /// marker is durable the log owner may truncate below them. The
        /// marker itself carries the one piece of transaction-manager
        /// state no retained record can rebuild: the lowest family
        /// sequence number this site has not handed out, so a restart
        /// from a truncated log never reuses a family id.
        11 => Checkpoint { next_family_seq: u64 },
        /// A server's committed state at checkpoint time. Recovery uses
        /// the last snapshot as its base store; records before it that
        /// belong to families resolved by then become dead weight the log
        /// owner may truncate.
        12 => ServerSnapshot { server: ServerId, objects: Vec<(ObjectId, Vec<u8>)> },
        _ => "unknown record tag",
    }
}

impl RecordBody {
    /// The transaction this record belongs to, if any.
    pub fn tid(&self) -> Option<&Tid> {
        match self {
            RecordBody::Prepared { tid, .. }
            | RecordBody::Commit { tid, .. }
            | RecordBody::Abort { tid }
            | RecordBody::End { tid }
            | RecordBody::NbBegin { tid, .. }
            | RecordBody::NbPrepared { tid, .. }
            | RecordBody::NbReplicate { tid, .. }
            | RecordBody::NbQuorum { tid, .. }
            | RecordBody::ServerUpdate { tid, .. } => Some(tid),
            RecordBody::Checkpoint { .. } | RecordBody::ServerSnapshot { .. } => None,
        }
    }

    /// True for record kinds the protocols require to be *forced*
    /// before proceeding (used by assertions in tests; the engines
    /// decide when to force).
    pub fn normally_forced(&self) -> bool {
        matches!(
            self,
            RecordBody::Prepared { .. }
                | RecordBody::NbBegin { .. }
                | RecordBody::NbPrepared { .. }
                | RecordBody::NbReplicate { .. }
        )
    }
}

/// The bytes of a [`RecordBody::ServerSnapshot`] of `objects`, encoded
/// straight from the owner's map: a checkpoint would otherwise clone
/// every value into a record only to encode it once. Append with
/// [`Wal::append_encoded`](crate::Wal::append_encoded).
///
/// Written by hand because it streams from an iterator, not from the
/// record's `Vec`; `tests/golden_wire.rs` holds it to the bytes of the
/// table's row 12.
pub fn encode_snapshot<'a>(
    server: ServerId,
    objects: impl ExactSizeIterator<Item = (&'a ObjectId, &'a Vec<u8>)>,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(12);
    w.put(&server);
    w.put_u32(u32::try_from(objects.len()).expect("snapshot too large"));
    for (obj, val) in objects {
        w.put(obj);
        w.put(val);
    }
    w.into_vec()
}

/// Alias kept for readability at call sites: a log record *is* its
/// body; the LSN is assigned by the store on append.
pub type LogRecord = RecordBody;

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_types::wire::Wire;
    use camelot_types::FamilyId;

    fn tid() -> Tid {
        Tid::top_level(FamilyId {
            origin: SiteId(1),
            seq: 42,
        })
        .child(3)
    }

    fn info() -> ReplicationInfo {
        ReplicationInfo {
            sites: vec![SiteId(1), SiteId(2), SiteId(3)],
            yes_votes: vec![SiteId(2), SiteId(3)],
            commit_quorum: 2,
            abort_quorum: 2,
        }
    }

    fn all_variants() -> Vec<RecordBody> {
        vec![
            RecordBody::Prepared {
                tid: tid(),
                coordinator: SiteId(1),
            },
            RecordBody::Commit {
                tid: tid(),
                subs: vec![SiteId(2), SiteId(3)],
            },
            RecordBody::Abort { tid: tid() },
            RecordBody::End { tid: tid() },
            RecordBody::NbBegin {
                tid: tid(),
                info: info(),
            },
            RecordBody::NbPrepared {
                tid: tid(),
                coordinator: SiteId(1),
                sites: vec![SiteId(1), SiteId(2)],
            },
            RecordBody::NbReplicate {
                tid: tid(),
                info: info(),
            },
            RecordBody::NbQuorum {
                tid: tid(),
                kind: QuorumKind::Commit,
            },
            RecordBody::NbQuorum {
                tid: tid(),
                kind: QuorumKind::Abort,
            },
            RecordBody::ServerUpdate {
                tid: tid(),
                server: ServerId(7),
                object: ObjectId(9),
                old: vec![1, 2],
                new: vec![3, 4, 5],
            },
            RecordBody::Checkpoint {
                next_family_seq: 77,
            },
            RecordBody::ServerSnapshot {
                server: ServerId(7),
                objects: vec![(ObjectId(1), vec![9, 9]), (ObjectId(2), vec![])],
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for rec in all_variants() {
            let bytes = rec.to_bytes();
            let back = RecordBody::from_bytes(&bytes).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn tid_accessor() {
        for rec in all_variants() {
            match rec {
                RecordBody::Checkpoint { .. } | RecordBody::ServerSnapshot { .. } => {
                    assert!(rec.tid().is_none())
                }
                _ => assert_eq!(rec.tid(), Some(&tid())),
            }
        }
    }

    #[test]
    fn forced_kinds() {
        assert!(RecordBody::Prepared {
            tid: tid(),
            coordinator: SiteId(1)
        }
        .normally_forced());
        assert!(RecordBody::NbReplicate {
            tid: tid(),
            info: info()
        }
        .normally_forced());
        assert!(!RecordBody::Abort { tid: tid() }.normally_forced());
        assert!(!RecordBody::End { tid: tid() }.normally_forced());
        // The subordinate commit record is the delayed-commit
        // optimization's target: not forced.
        assert!(!RecordBody::Commit {
            tid: tid(),
            subs: vec![]
        }
        .normally_forced());
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(RecordBody::from_bytes(&[200]).is_err());
    }

    #[test]
    fn bad_quorum_kind_rejected() {
        let mut w = Writer::new();
        w.put_u8(8);
        w.put(&tid());
        w.put_u8(9);
        assert!(RecordBody::from_bytes(w.as_slice()).is_err());
    }
}
