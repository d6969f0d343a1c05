//! The typed log front end and its one unforced tail.
//!
//! [`Wal`] frames records into an in-memory tail and decides what is
//! forced: [`Wal::force_to`] hands a prefix of the tail to
//! [`StableStore::write`] — one platter write — and the store holds
//! only what is durable. A crash of the owning process is
//! [`Wal::lose_volatile`], which drops the tail. The accounting the
//! experiments need lives here too: how many records were written, how
//! many forces were issued, and which forces were *new* (wrote at least
//! one byte) versus free.

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
    /// Framed records appended but not yet forced; the first byte's
    /// LSN is the store's `durable_lsn`.
    tail: Vec<u8>,
    stats: WalStats,
}

impl<S: StableStore> Wal<S> {
    pub fn new(store: S) -> Self {
        Wal {
            store,
            tail: Vec::new(),
            stats: WalStats::default(),
        }
    }

    /// Appends a record without forcing. Returns its LSN.
    pub fn append(&mut self, rec: &LogRecord) -> Result<Lsn> {
        self.append_encoded(&rec.to_bytes())
    }

    /// Appends a record the caller already encoded (see
    /// [`record::encode_snapshot`](crate::record::encode_snapshot)).
    /// Returns its LSN.
    pub fn append_encoded(&mut self, rec: &[u8]) -> Result<Lsn> {
        let lsn = self.end_lsn();
        self.stats.records += 1;
        codec::frame_onto(&mut self.tail, rec);
        Ok(lsn)
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
        self.force_to(self.end_lsn())
    }

    /// Makes the tail durable up to `upto` with one
    /// [`StableStore::write`], leaving anything appended beyond it for
    /// the next write; returns the new durable watermark. The
    /// pipelined disk manager uses this so one platter write covers
    /// exactly the batch it started with. `upto` must lie on a frame
    /// boundary (an LSN returned by `append`, or `end_lsn` captured
    /// between appends). Forcing at or below the durable watermark is
    /// free.
    pub fn force_to(&mut self, upto: Lsn) -> Result<Lsn> {
        self.stats.forces_requested += 1;
        let n = (upto.0.saturating_sub(self.durable_lsn().0) as usize).min(self.tail.len());
        if n > 0 {
            self.store.write(&self.tail[..n])?;
            self.tail.drain(..n);
            self.stats.forces_effective += 1;
        }
        Ok(self.durable_lsn())
    }

    /// The owning process crashed: everything appended but not yet
    /// forced is lost; durable bytes survive.
    pub fn lose_volatile(&mut self) {
        self.tail.clear();
    }

    pub fn durable_lsn(&self) -> Lsn {
        self.store.durable_lsn()
    }

    /// LSN that the next append will return.
    pub fn end_lsn(&self) -> Lsn {
        Lsn(self.durable_lsn().0 + self.tail.len() as u64)
    }

    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// The durable medium underneath, for its image hooks. A caller
    /// that replaces the image drops the tail first
    /// ([`Wal::lose_volatile`]): the tail's LSNs start at the old
    /// durable end.
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// LSN of the first retained record (see
    /// [`StableStore::base_lsn`]).
    pub fn base_lsn(&self) -> Lsn {
        self.store.base_lsn()
    }

    /// Discards the durable records below `lsn` (see
    /// [`StableStore::truncate_prefix`]); returns the new base. The
    /// tail is never touched.
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
        wal.lose_volatile();
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

    /// A medium that keeps every `write` it is handed, and fails the
    /// next one when told to.
    #[derive(Default)]
    struct Recording {
        inner: MemStore,
        writes: Vec<Vec<u8>>,
        fail_next: bool,
    }

    impl StableStore for Recording {
        fn write(&mut self, frames: &[u8]) -> Result<()> {
            if std::mem::take(&mut self.fail_next) {
                return Err(camelot_types::CamelotError::Log("disk full".into()));
            }
            self.writes.push(frames.to_vec());
            self.inner.write(frames)
        }
        fn durable_lsn(&self) -> Lsn {
            self.inner.durable_lsn()
        }
        fn base_lsn(&self) -> Lsn {
            self.inner.base_lsn()
        }
        fn truncate_prefix(&mut self, lsn: Lsn) -> Result<Lsn> {
            self.inner.truncate_prefix(lsn)
        }
        fn durable_bytes(&mut self) -> Result<Vec<u8>> {
            self.inner.durable_bytes()
        }
        fn set_durable_bytes(&mut self, bytes: &[u8]) -> Result<()> {
            self.inner.set_durable_bytes(bytes)
        }
    }

    fn abort(seq: u64) -> LogRecord {
        RecordBody::Abort { tid: tid(seq) }
    }

    /// An effective force is exactly one store write carrying exactly
    /// the frames below `upto`; a free force hands the store nothing.
    #[test]
    fn each_effective_force_is_one_write_of_exactly_the_prefix() {
        let mut wal = Wal::new(Recording::default());
        wal.append(&abort(1)).unwrap();
        let second = wal.append(&abort(2)).unwrap();
        wal.append(&abort(3)).unwrap();
        let end = wal.end_lsn();
        assert_eq!(wal.force_to(second).unwrap(), second);
        assert_eq!(wal.force_to(second).unwrap(), second);
        assert_eq!(wal.force().unwrap(), end);
        wal.force().unwrap();
        let mut framed = Vec::new();
        for seq in 1..=3 {
            codec::frame_onto(&mut framed, &abort(seq).to_bytes());
        }
        let cut = second.0 as usize;
        assert_eq!(
            wal.store_mut().writes,
            vec![framed[..cut].to_vec(), framed[cut..].to_vec()]
        );
        assert_eq!(
            wal.stats(),
            WalStats {
                records: 3,
                forces_requested: 4,
                forces_effective: 2,
            }
        );
    }

    /// A write the medium refuses leaves the tail whole and the force
    /// uncounted; the next force writes the same bytes.
    #[test]
    fn a_failed_write_keeps_the_tail() {
        let mut wal = Wal::new(Recording::default());
        wal.append(&abort(1)).unwrap();
        let end = wal.end_lsn();
        wal.store_mut().fail_next = true;
        assert!(wal.force().is_err());
        assert_eq!((wal.durable_lsn(), wal.end_lsn()), (Lsn(0), end));
        assert_eq!(wal.stats().forces_effective, 0);
        assert_eq!(wal.force().unwrap(), end);
        assert_eq!(wal.recover().unwrap(), vec![(Lsn(0), abort(1))]);
    }
}
