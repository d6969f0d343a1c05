//! Typed log records.
//!
//! Two producers write the common log: the **transaction manager**
//! (prepare / commit / abort records of both commitment protocols) and
//! the **data servers** (old/new-value update records, reported to the
//! disk manager "as late as possible" so that in the typical case a
//! transaction needs only one log write to commit — paper Figure 1,
//! step 5).

use camelot_types::wire::{Reader, Wire, Writer};
use camelot_types::{CamelotError, ObjectId, Result, ServerId, SiteId, Tid};

/// Which quorum a site joined during non-blocking termination
/// (change 4 of §3.3: a site never joins both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuorumKind {
    Commit,
    Abort,
}

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

impl Wire for ReplicationInfo {
    fn encode(&self, w: &mut Writer) {
        w.put_seq(&self.sites);
        w.put_seq(&self.yes_votes);
        w.put_u32(self.commit_quorum);
        w.put_u32(self.abort_quorum);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(ReplicationInfo {
            sites: r.get_seq()?,
            yes_votes: r.get_seq()?,
            commit_quorum: r.get_u32()?,
            abort_quorum: r.get_u32()?,
        })
    }
}

/// The body of a log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordBody {
    // ----- Transaction manager: two-phase commit (presumed abort) -----
    /// Subordinate prepared record, forced before voting yes. Carries
    /// the coordinator so recovery knows whom to ask about the
    /// outcome.
    Prepared { tid: Tid, coordinator: SiteId },
    /// Commit record. At the coordinator this is the commit point
    /// (forced) and `subs` carries the update subordinates that still
    /// owe commit acknowledgements (presumed abort requires the
    /// coordinator to remember the transaction until they all ack, so
    /// recovery must be able to rebuild the list). At a subordinate
    /// under the delayed-commit optimization the record is written
    /// lazily, after locks are dropped, with an empty `subs`.
    Commit { tid: Tid, subs: Vec<SiteId> },
    /// Abort record; never forced (presumed abort).
    Abort { tid: Tid },
    /// Coordinator's end record: all subordinates have acknowledged,
    /// the transaction may be forgotten. Not forced.
    End { tid: Tid },

    // ----- Transaction manager: non-blocking commitment -----
    /// Coordinator's begin-commit record, forced before sending the
    /// prepare message (change 5 of §3.3). Carries the site list and
    /// quorum sizes so a takeover coordinator can reconstruct them.
    NbBegin { tid: Tid, info: ReplicationInfo },
    /// Subordinate prepared record for the non-blocking protocol.
    NbPrepared {
        tid: Tid,
        coordinator: SiteId,
        sites: Vec<SiteId>,
    },
    /// Replication-phase record, forced at a subordinate: the decision
    /// information is now stable here and counts toward the commit
    /// quorum.
    NbReplicate { tid: Tid, info: ReplicationInfo },
    /// A site's quorum-join record (it may join only one kind).
    NbQuorum { tid: Tid, kind: QuorumKind },

    // ----- Data servers -----
    /// A server joined a transaction at this site.
    ServerJoin { tid: Tid, server: ServerId },
    /// Old/new value pair for one object update: enough to undo (old)
    /// or redo (new) the update during recovery.
    ServerUpdate {
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
    Checkpoint { next_family_seq: u64 },
    /// A server's committed state at checkpoint time. Recovery uses
    /// the last snapshot as its base store; records before it that
    /// belong to families resolved by then become dead weight the log
    /// owner may truncate.
    ServerSnapshot {
        server: ServerId,
        objects: Vec<(ObjectId, Vec<u8>)>,
    },
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
            | RecordBody::ServerJoin { tid, .. }
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

const TAG_PREPARED: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_ABORT: u8 = 3;
const TAG_END: u8 = 4;
const TAG_NB_BEGIN: u8 = 5;
const TAG_NB_PREPARED: u8 = 6;
const TAG_NB_REPLICATE: u8 = 7;
const TAG_NB_QUORUM: u8 = 8;
const TAG_SERVER_JOIN: u8 = 9;
const TAG_SERVER_UPDATE: u8 = 10;
const TAG_CHECKPOINT: u8 = 11;
const TAG_SERVER_SNAPSHOT: u8 = 12;

fn put_snapshot<'a>(
    w: &mut Writer,
    server: ServerId,
    objects: impl ExactSizeIterator<Item = (&'a ObjectId, &'a Vec<u8>)>,
) {
    w.put_u8(TAG_SERVER_SNAPSHOT);
    w.put(&server);
    w.put_u32(u32::try_from(objects.len()).expect("snapshot too large"));
    for (obj, val) in objects {
        w.put(obj);
        w.put_bytes(val);
    }
}

/// The bytes of a [`RecordBody::ServerSnapshot`] of `objects`, encoded
/// straight from the owner's map: a checkpoint would otherwise clone
/// every value into a record only to encode it once. Append with
/// [`Wal::append_encoded`](crate::Wal::append_encoded).
pub fn encode_snapshot<'a>(
    server: ServerId,
    objects: impl ExactSizeIterator<Item = (&'a ObjectId, &'a Vec<u8>)>,
) -> Vec<u8> {
    let mut w = Writer::new();
    put_snapshot(&mut w, server, objects);
    w.into_vec()
}

impl Wire for RecordBody {
    fn encode(&self, w: &mut Writer) {
        match self {
            RecordBody::Prepared { tid, coordinator } => {
                w.put_u8(TAG_PREPARED);
                w.put(tid);
                w.put(coordinator);
            }
            RecordBody::Commit { tid, subs } => {
                w.put_u8(TAG_COMMIT);
                w.put(tid);
                w.put_seq(subs);
            }
            RecordBody::Abort { tid } => {
                w.put_u8(TAG_ABORT);
                w.put(tid);
            }
            RecordBody::End { tid } => {
                w.put_u8(TAG_END);
                w.put(tid);
            }
            RecordBody::NbBegin { tid, info } => {
                w.put_u8(TAG_NB_BEGIN);
                w.put(tid);
                w.put(info);
            }
            RecordBody::NbPrepared {
                tid,
                coordinator,
                sites,
            } => {
                w.put_u8(TAG_NB_PREPARED);
                w.put(tid);
                w.put(coordinator);
                w.put_seq(sites);
            }
            RecordBody::NbReplicate { tid, info } => {
                w.put_u8(TAG_NB_REPLICATE);
                w.put(tid);
                w.put(info);
            }
            RecordBody::NbQuorum { tid, kind } => {
                w.put_u8(TAG_NB_QUORUM);
                w.put(tid);
                w.put_u8(match kind {
                    QuorumKind::Commit => 0,
                    QuorumKind::Abort => 1,
                });
            }
            RecordBody::ServerJoin { tid, server } => {
                w.put_u8(TAG_SERVER_JOIN);
                w.put(tid);
                w.put(server);
            }
            RecordBody::ServerUpdate {
                tid,
                server,
                object,
                old,
                new,
            } => {
                w.put_u8(TAG_SERVER_UPDATE);
                w.put(tid);
                w.put(server);
                w.put(object);
                w.put_bytes(old);
                w.put_bytes(new);
            }
            RecordBody::Checkpoint { next_family_seq } => {
                w.put_u8(TAG_CHECKPOINT);
                w.put_u64(*next_family_seq);
            }
            RecordBody::ServerSnapshot { server, objects } => {
                put_snapshot(w, *server, objects.iter().map(|(obj, val)| (obj, val)));
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let tag = r.get_u8()?;
        Ok(match tag {
            TAG_PREPARED => RecordBody::Prepared {
                tid: r.get()?,
                coordinator: r.get()?,
            },
            TAG_COMMIT => RecordBody::Commit {
                tid: r.get()?,
                subs: r.get_seq()?,
            },
            TAG_ABORT => RecordBody::Abort { tid: r.get()? },
            TAG_END => RecordBody::End { tid: r.get()? },
            TAG_NB_BEGIN => RecordBody::NbBegin {
                tid: r.get()?,
                info: r.get()?,
            },
            TAG_NB_PREPARED => RecordBody::NbPrepared {
                tid: r.get()?,
                coordinator: r.get()?,
                sites: r.get_seq()?,
            },
            TAG_NB_REPLICATE => RecordBody::NbReplicate {
                tid: r.get()?,
                info: r.get()?,
            },
            TAG_NB_QUORUM => {
                let tid = r.get()?;
                let kind = match r.get_u8()? {
                    0 => QuorumKind::Commit,
                    1 => QuorumKind::Abort,
                    v => return Err(CamelotError::Codec(format!("bad quorum kind {v}"))),
                };
                RecordBody::NbQuorum { tid, kind }
            }
            TAG_SERVER_JOIN => RecordBody::ServerJoin {
                tid: r.get()?,
                server: r.get()?,
            },
            TAG_SERVER_UPDATE => RecordBody::ServerUpdate {
                tid: r.get()?,
                server: r.get()?,
                object: r.get()?,
                old: r.get_bytes()?,
                new: r.get_bytes()?,
            },
            TAG_CHECKPOINT => RecordBody::Checkpoint {
                next_family_seq: r.get_u64()?,
            },
            TAG_SERVER_SNAPSHOT => {
                let server = r.get()?;
                let n = r.get_u32()? as usize;
                let mut objects = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    objects.push((r.get()?, r.get_bytes()?));
                }
                RecordBody::ServerSnapshot { server, objects }
            }
            v => return Err(CamelotError::Codec(format!("unknown record tag {v}"))),
        })
    }
}

/// Alias kept for readability at call sites: a log record *is* its
/// body; the LSN is assigned by the store on append.
pub type LogRecord = RecordBody;

#[cfg(test)]
mod tests {
    use super::*;
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
            RecordBody::ServerJoin {
                tid: tid(),
                server: ServerId(7),
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
        w.put_u8(TAG_NB_QUORUM);
        w.put(&tid());
        w.put_u8(9);
        assert!(RecordBody::from_bytes(w.as_slice()).is_err());
    }
}
