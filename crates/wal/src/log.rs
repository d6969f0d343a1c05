//! The typed log front end.
//!
//! [`Wal`] wraps a [`StableStore`] with record encoding and with the
//! accounting the experiments need: how many records were written, how
//! many forces were issued, and which forces were *new* (moved the
//! durable watermark) versus free.

use camelot_types::wire::Wire;
use camelot_types::{Lsn, Result};

use crate::codec;
use crate::record::LogRecord;
use crate::store::StableStore;

/// Counters describing log activity; the paper's protocol comparisons
/// are stated in log forces per transaction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub records: u64,
    /// Forces requested by callers.
    pub forces_requested: u64,
    /// Forces that actually had to push new bytes to stable storage.
    pub forces_effective: u64,
}

/// Typed write-ahead log over any stable store.
#[derive(Debug)]
pub struct Wal<S: StableStore> {
    store: S,
    stats: WalStats,
}

impl<S: StableStore> Wal<S> {
    pub fn new(store: S) -> Self {
        Wal {
            store,
            stats: WalStats::default(),
        }
    }

    /// Appends a record without forcing. Returns its LSN.
    pub fn append(&mut self, rec: &LogRecord) -> Result<Lsn> {
        self.stats.records += 1;
        self.store.append(&rec.to_bytes())
    }

    /// Appends a record the caller already encoded (see
    /// [`record::encode_snapshot`](crate::record::encode_snapshot)).
    /// Returns its LSN.
    pub fn append_encoded(&mut self, rec: &[u8]) -> Result<Lsn> {
        self.stats.records += 1;
        self.store.append(rec)
    }

    /// Appends and immediately forces — the "force a log record"
    /// primitive of the paper (15 ms on the RT PC).
    pub fn append_force(&mut self, rec: &LogRecord) -> Result<Lsn> {
        let lsn = self.append(rec)?;
        self.force()?;
        Ok(lsn)
    }

    /// Forces everything appended so far.
    pub fn force(&mut self) -> Result<Lsn> {
        self.stats.forces_requested += 1;
        let before = self.store.durable_lsn();
        let after = self.store.force()?;
        if after > before {
            self.stats.forces_effective += 1;
        }
        Ok(after)
    }

    /// Forces the prefix up to `upto` only (see
    /// [`StableStore::force_to`]); appends beyond it stay buffered for
    /// the next write. The pipelined disk manager uses this so one
    /// platter write covers exactly the batch it started with.
    pub fn force_to(&mut self, upto: Lsn) -> Result<Lsn> {
        self.stats.forces_requested += 1;
        let before = self.store.durable_lsn();
        let after = self.store.force_to(upto)?;
        if after > before {
            self.stats.forces_effective += 1;
        }
        Ok(after)
    }

    pub fn durable_lsn(&self) -> Lsn {
        self.store.durable_lsn()
    }

    pub fn end_lsn(&self) -> Lsn {
        self.store.end_lsn()
    }

    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Access to the underlying store (e.g. to crash a `MemStore`).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    pub fn store(&self) -> &S {
        &self.store
    }

    /// LSN of the first retained record (see
    /// [`StableStore::base_lsn`]).
    pub fn base_lsn(&self) -> Lsn {
        self.store.base_lsn()
    }

    /// Discards the durable records below `lsn` (see
    /// [`StableStore::truncate_prefix`]); returns the new base.
    pub fn truncate_prefix(&mut self, lsn: Lsn) -> Result<Lsn> {
        self.store.truncate_prefix(lsn)
    }

    /// Recovery scan: decodes the retained durable records in order,
    /// each straight out of the one durable image.
    pub fn recover(&mut self) -> Result<Vec<(Lsn, LogRecord)>> {
        let base = self.store.base_lsn().0;
        let image = self.store.durable_bytes()?;
        codec::frames(&image)
            .map(|frame| {
                let (off, payload) = frame.map_err(|e| codec::at_lsn(e, base))?;
                Ok((Lsn(base + off), LogRecord::from_bytes(payload)?))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordBody;
    use crate::store::MemStore;
    use camelot_types::{FamilyId, SiteId, Tid};

    fn tid(seq: u64) -> Tid {
        Tid::top_level(FamilyId {
            origin: SiteId(1),
            seq,
        })
    }

    #[test]
    fn append_then_recover() {
        let mut wal = Wal::new(MemStore::new());
        let recs = vec![
            RecordBody::Prepared {
                tid: tid(1),
                coordinator: SiteId(9),
            },
            RecordBody::Commit {
                tid: tid(1),
                subs: vec![SiteId(9)],
            },
            RecordBody::End { tid: tid(1) },
        ];
        let mut lsns = Vec::new();
        for r in &recs {
            lsns.push(wal.append(r).unwrap());
        }
        wal.force().unwrap();
        let back = wal.recover().unwrap();
        assert_eq!(back.len(), 3);
        for ((lsn, rec), (want_lsn, want_rec)) in back.iter().zip(lsns.iter().zip(recs.iter())) {
            assert_eq!(lsn, want_lsn);
            assert_eq!(rec, want_rec);
        }
    }

    #[test]
    fn durability_tracking() {
        let mut wal = Wal::new(MemStore::new());
        let l1 = wal
            .append_force(&RecordBody::Commit {
                tid: tid(1),
                subs: vec![],
            })
            .unwrap();
        let l2 = wal.append(&RecordBody::Abort { tid: tid(2) }).unwrap();
        assert!(l1 < wal.durable_lsn());
        assert!(l2 >= wal.durable_lsn());
        wal.force().unwrap();
        assert!(l2 < wal.durable_lsn());
    }

    #[test]
    fn stats_count_effective_forces() {
        let mut wal = Wal::new(MemStore::new());
        wal.append_force(&RecordBody::Commit {
            tid: tid(1),
            subs: vec![],
        })
        .unwrap();
        wal.force().unwrap(); // Nothing new: requested but not effective.
        let s = wal.stats();
        assert_eq!(s.records, 1);
        assert_eq!(s.forces_requested, 2);
        assert_eq!(s.forces_effective, 1);
    }

    #[test]
    fn crash_discards_unforced_records() {
        let mut wal = Wal::new(MemStore::new());
        wal.append_force(&RecordBody::Commit {
            tid: tid(1),
            subs: vec![],
        })
        .unwrap();
        wal.append(&RecordBody::Commit {
            tid: tid(2),
            subs: vec![],
        })
        .unwrap();
        wal.store_mut().crash();
        let back = wal.recover().unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(
            back[0].1,
            RecordBody::Commit {
                tid: tid(1),
                subs: vec![]
            }
        );
    }

    #[test]
    fn empty_log_recovers_empty() {
        let mut wal = Wal::new(MemStore::new());
        assert!(wal.recover().unwrap().is_empty());
    }

    #[test]
    fn recover_starts_at_the_base_after_truncation() {
        let mut wal = Wal::new(MemStore::new());
        let commit = |seq| RecordBody::Commit {
            tid: tid(seq),
            subs: vec![],
        };
        wal.append(&commit(1)).unwrap();
        let second = wal.append(&commit(2)).unwrap();
        let third = wal.append(&commit(3)).unwrap();
        wal.force().unwrap();
        assert_eq!(wal.truncate_prefix(second).unwrap(), second);
        assert_eq!(wal.base_lsn(), second);
        let back = wal.recover().unwrap();
        assert_eq!(back, vec![(second, commit(2)), (third, commit(3))]);
        assert!(third < wal.durable_lsn());
    }
}
