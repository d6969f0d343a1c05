//! Stable-storage backends for the log.
//!
//! A [`StableStore`] is an append-only byte log with an explicit
//! *durable watermark*: `append` buffers, `force` makes everything
//! appended so far durable. The distinction is the whole point — the
//! paper's protocols are defined by **which records are forced and
//! when** (log forces dominate commit latency, Table 2: 15 ms each).
//!
//! The log also has a *beginning*: [`StableStore::truncate_prefix`]
//! discards durable bytes below an LSN once a checkpoint has made them
//! dead weight. LSNs are positions in the log as it was ever written —
//! they stay monotonic across truncation and across reopen — and
//! [`StableStore::base_lsn`] names the first one still retained.
//!
//! - [`MemStore`] keeps the log in memory and models a crash with
//!   [`MemStore::crash`], which discards the un-forced suffix. Every
//!   failure-injection test uses this to check that a protocol never
//!   depends on un-forced state.
//! - [`FileStore`] appends to a real file and syncs on force; it
//!   reopens after a process restart and tolerates a torn tail.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use camelot_types::wire::crc32;
use camelot_types::{CamelotError, Lsn, Result};

use crate::codec;

/// Append-only stable byte log with force semantics.
pub trait StableStore {
    /// Appends framed bytes; returns the LSN (byte offset) of the
    /// frame. The data is *not* durable until [`StableStore::force`].
    fn append(&mut self, payload: &[u8]) -> Result<Lsn>;

    /// Makes all appended data durable; returns the new durable
    /// watermark (the LSN just past the last durable byte).
    fn force(&mut self) -> Result<Lsn>;

    /// Makes the prefix up to `upto` durable, leaving anything
    /// appended beyond it buffered; returns the new durable watermark.
    /// This is the double-buffered disk manager's write primitive: one
    /// platter write covers exactly the bytes handed to the controller
    /// when it started, while later appends keep filling the other
    /// buffer. `upto` must lie on a frame boundary (an LSN returned by
    /// `append`, or `end_lsn` captured between appends). Forcing at or
    /// below the durable watermark is a no-op.
    fn force_to(&mut self, upto: Lsn) -> Result<Lsn>;

    /// LSN just past the last durable byte.
    fn durable_lsn(&self) -> Lsn;

    /// LSN that the next append will return.
    fn end_lsn(&self) -> Lsn;

    /// LSN of the first retained byte: where the recovery scan starts.
    /// Zero until the first [`StableStore::truncate_prefix`].
    fn base_lsn(&self) -> Lsn;

    /// Discards the durable prefix below `lsn` and returns the new
    /// base. `lsn` must lie on a frame boundary; it is clamped to
    /// `base_lsn..=durable_lsn`, so truncating at or below the base is
    /// a no-op and un-forced bytes are never touched. Durable: after a
    /// crash at any instant of the call the store reopens with either
    /// the old base or the new one, never a mixture.
    fn truncate_prefix(&mut self, lsn: Lsn) -> Result<Lsn>;

    /// Simulates a crash of the owning process: everything appended
    /// but not yet forced is lost; durable bytes survive. (For a
    /// file-backed store this just discards the in-memory buffer — a
    /// real crash could do no worse.)
    fn lose_volatile(&mut self);

    /// Raw image of the retained durable bytes (`base_lsn` to
    /// `durable_lsn`), frames and all: the recovery scan's input, and
    /// the fault-injection hook that lets a harness snapshot the log,
    /// corrupt it, and restore it.
    fn durable_bytes(&mut self) -> Result<Vec<u8>>;

    /// Replaces the retained durable image wholesale (the base stays
    /// where it is) and discards any buffered suffix. Fault-injection
    /// hook — models a medium that bit-rotted or tore while the
    /// process was down. The bytes are *not* validated here; the next
    /// recovery scan judges them.
    fn set_durable_bytes(&mut self, bytes: &[u8]) -> Result<()>;
}

impl<T: StableStore + ?Sized> StableStore for Box<T> {
    fn append(&mut self, payload: &[u8]) -> Result<Lsn> {
        (**self).append(payload)
    }
    fn force(&mut self) -> Result<Lsn> {
        (**self).force()
    }
    fn force_to(&mut self, upto: Lsn) -> Result<Lsn> {
        (**self).force_to(upto)
    }
    fn durable_lsn(&self) -> Lsn {
        (**self).durable_lsn()
    }
    fn end_lsn(&self) -> Lsn {
        (**self).end_lsn()
    }
    fn base_lsn(&self) -> Lsn {
        (**self).base_lsn()
    }
    fn truncate_prefix(&mut self, lsn: Lsn) -> Result<Lsn> {
        (**self).truncate_prefix(lsn)
    }
    fn lose_volatile(&mut self) {
        (**self).lose_volatile()
    }
    fn durable_bytes(&mut self) -> Result<Vec<u8>> {
        (**self).durable_bytes()
    }
    fn set_durable_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        (**self).set_durable_bytes(bytes)
    }
}

/// In-memory store with crash modelling.
#[derive(Debug, Default)]
pub struct MemStore {
    /// LSN of `buf[0]`.
    base: u64,
    buf: Vec<u8>,
    /// Durable length of `buf`.
    durable: usize,
    forces: u64,
}

impl MemStore {
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Number of forces performed (each force of new data would be one
    /// platter write on a real disk).
    pub fn forces(&self) -> u64 {
        self.forces
    }

    /// Simulates a crash: everything not yet forced is lost.
    pub fn crash(&mut self) {
        self.buf.truncate(self.durable);
    }

    /// Retained bytes (durable or not).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl StableStore for MemStore {
    fn append(&mut self, payload: &[u8]) -> Result<Lsn> {
        let lsn = self.end_lsn();
        codec::frame_onto(&mut self.buf, payload);
        Ok(lsn)
    }

    fn force(&mut self) -> Result<Lsn> {
        self.force_to(self.end_lsn())
    }

    fn force_to(&mut self, upto: Lsn) -> Result<Lsn> {
        let target = (upto.0.saturating_sub(self.base) as usize).min(self.buf.len());
        if self.durable < target {
            self.forces += 1;
            self.durable = target;
        }
        Ok(self.durable_lsn())
    }

    fn durable_lsn(&self) -> Lsn {
        Lsn(self.base + self.durable as u64)
    }

    fn end_lsn(&self) -> Lsn {
        Lsn(self.base + self.buf.len() as u64)
    }

    fn base_lsn(&self) -> Lsn {
        Lsn(self.base)
    }

    fn truncate_prefix(&mut self, lsn: Lsn) -> Result<Lsn> {
        let cut = (lsn.0.saturating_sub(self.base) as usize).min(self.durable);
        self.buf.drain(..cut);
        self.durable -= cut;
        self.base += cut as u64;
        Ok(Lsn(self.base))
    }

    fn lose_volatile(&mut self) {
        self.crash();
    }

    fn durable_bytes(&mut self) -> Result<Vec<u8>> {
        Ok(self.buf[..self.durable].to_vec())
    }

    fn set_durable_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        self.buf = bytes.to_vec();
        self.durable = bytes.len();
        Ok(())
    }
}

/// File-backed store. Appends are buffered in memory; `force` writes
/// and syncs. Reopening after a crash recovers the synced prefix and
/// tolerates a torn tail.
///
/// The file is a [`FileStore::HEADER_LEN`]-byte header — magic, the
/// base LSN, a CRC over both — followed by the retained frames, so
/// the byte at file offset `HEADER_LEN + k` has LSN `base + k`.
/// Truncation never edits that header in place: it writes header and
/// retained suffix to `<path>.trunc`, syncs it, and renames it over
/// the log, so the base and the bytes it describes change together.
#[derive(Debug)]
pub struct FileStore {
    path: PathBuf,
    file: File,
    /// LSN of the first frame in the file.
    base: u64,
    /// Bytes appended but not yet written+synced.
    pending: Vec<u8>,
    /// LSN just past the last durable byte on disk.
    durable: u64,
    forces: u64,
}

const MAGIC: [u8; 4] = *b"CWL1";

fn header(base: u64) -> [u8; FileStore::HEADER_LEN] {
    let mut h = [0u8; FileStore::HEADER_LEN];
    h[..4].copy_from_slice(&MAGIC);
    h[4..12].copy_from_slice(&base.to_le_bytes());
    let crc = crc32(&h[..12]);
    h[12..].copy_from_slice(&crc.to_le_bytes());
    h
}

fn io_err(what: &str, e: std::io::Error) -> CamelotError {
    CamelotError::Log(format!("{what}: {e}"))
}

impl FileStore {
    /// Bytes of file header before the first frame.
    pub const HEADER_LEN: usize = 16;

    /// Opens (creating if absent) the log file at `path`. Scans the
    /// existing content to find the valid durable prefix; a torn tail
    /// is truncated away. A leftover `<path>.trunc` is a truncation
    /// that crashed before its rename: the log itself is still whole,
    /// so the leftover is deleted.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(Self::trunc_path(&path));
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err(&format!("open {}", path.display()), e))?;
        let mut existing = Vec::new();
        file.read_to_end(&mut existing)
            .map_err(|e| io_err(&format!("read {}", path.display()), e))?;
        // A header is written whole and synced before anything follows
        // it, so a short one can only be a log that crashed while
        // being created: it never held a frame.
        if existing.len() < Self::HEADER_LEN {
            existing = header(0).to_vec();
            file.set_len(0).map_err(|e| io_err("reset header", e))?;
            file.seek(SeekFrom::Start(0))
                .map_err(|e| io_err("seek", e))?;
            file.write_all(&existing)
                .map_err(|e| io_err("write header", e))?;
            file.sync_data().map_err(|e| io_err("sync", e))?;
        }
        let (head, frames) = existing.split_at(Self::HEADER_LEN);
        let base = u64::from_le_bytes(head[4..12].try_into().expect("8 bytes"));
        if head != header(base) {
            return Err(CamelotError::Corruption { offset: 0 });
        }
        // Find the length of the valid frame prefix.
        let valid = codec::valid_len(frames).map_err(|e| codec::at_lsn(e, base))?;
        let file_len = Self::HEADER_LEN as u64 + valid;
        if valid < frames.len() as u64 {
            file.set_len(file_len)
                .map_err(|e| io_err("truncate torn tail", e))?;
            file.sync_data().map_err(|e| io_err("sync", e))?;
        }
        file.seek(SeekFrom::Start(file_len))
            .map_err(|e| io_err("seek", e))?;
        Ok(FileStore {
            path,
            file,
            base,
            pending: Vec::new(),
            durable: base + valid,
            forces: 0,
        })
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of forces that actually hit the disk.
    pub fn forces(&self) -> u64 {
        self.forces
    }

    fn trunc_path(path: &Path) -> PathBuf {
        let mut name = path.as_os_str().to_owned();
        name.push(".trunc");
        PathBuf::from(name)
    }

    /// Writes and syncs the first `n` pending bytes.
    fn write_pending(&mut self, n: usize) -> Result<()> {
        if n > 0 {
            self.file
                .write_all(&self.pending[..n])
                .map_err(|e| io_err("write", e))?;
            self.file.sync_data().map_err(|e| io_err("sync", e))?;
            self.durable += n as u64;
            self.pending.drain(..n);
            self.forces += 1;
        }
        Ok(())
    }

    /// Reads the durable frames at and above `from`.
    fn read_from(&mut self, from: u64) -> Result<Vec<u8>> {
        let mut f = File::open(&self.path).map_err(|e| io_err("reopen for scan", e))?;
        f.seek(SeekFrom::Start(
            Self::HEADER_LEN as u64 + (from - self.base),
        ))
        .map_err(|e| io_err("seek", e))?;
        let mut buf = vec![0u8; (self.durable - from) as usize];
        f.read_exact(&mut buf).map_err(|e| io_err("scan read", e))?;
        Ok(buf)
    }

    /// First half of a truncation: the log as it will be — header with
    /// the new base, then the retained suffix — written to
    /// `<path>.trunc` and synced. The log itself is untouched.
    fn write_truncated(&mut self, cut: u64) -> Result<File> {
        let retained = self.read_from(cut)?;
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(Self::trunc_path(&self.path))
            .map_err(|e| io_err("create truncated log", e))?;
        tmp.write_all(&header(cut))
            .and_then(|()| tmp.write_all(&retained))
            .and_then(|()| tmp.sync_all())
            .map_err(|e| io_err("write truncated log", e))?;
        Ok(tmp)
    }

    /// Second half: the rename that makes the truncated log *the*
    /// log, and the directory sync that makes the rename durable.
    fn install_truncated(&mut self, tmp: File, cut: u64) -> Result<()> {
        std::fs::rename(Self::trunc_path(&self.path), &self.path)
            .map_err(|e| io_err("install truncated log", e))?;
        if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            File::open(dir)
                .and_then(|d| d.sync_all())
                .map_err(|e| io_err("sync log directory", e))?;
        }
        // `tmp` is positioned at its end, which is the durable end.
        self.file = tmp;
        self.base = cut;
        Ok(())
    }
}

impl StableStore for FileStore {
    fn append(&mut self, payload: &[u8]) -> Result<Lsn> {
        let lsn = self.end_lsn();
        codec::frame_onto(&mut self.pending, payload);
        Ok(lsn)
    }

    fn force(&mut self) -> Result<Lsn> {
        self.write_pending(self.pending.len())?;
        Ok(Lsn(self.durable))
    }

    fn force_to(&mut self, upto: Lsn) -> Result<Lsn> {
        let n = (upto.0.saturating_sub(self.durable) as usize).min(self.pending.len());
        self.write_pending(n)?;
        Ok(Lsn(self.durable))
    }

    fn durable_lsn(&self) -> Lsn {
        Lsn(self.durable)
    }

    fn end_lsn(&self) -> Lsn {
        Lsn(self.durable + self.pending.len() as u64)
    }

    fn base_lsn(&self) -> Lsn {
        Lsn(self.base)
    }

    fn truncate_prefix(&mut self, lsn: Lsn) -> Result<Lsn> {
        let cut = lsn.0.clamp(self.base, self.durable);
        if cut > self.base {
            let tmp = self.write_truncated(cut)?;
            self.install_truncated(tmp, cut)?;
        }
        Ok(Lsn(self.base))
    }

    fn lose_volatile(&mut self) {
        self.pending.clear();
    }

    fn durable_bytes(&mut self) -> Result<Vec<u8>> {
        self.read_from(self.base)
    }

    fn set_durable_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        self.pending.clear();
        self.file
            .set_len(Self::HEADER_LEN as u64)
            .map_err(|e| io_err("truncate for image", e))?;
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek", e))?;
        self.file
            .write_all(bytes)
            .map_err(|e| io_err("image write", e))?;
        self.file.sync_data().map_err(|e| io_err("sync", e))?;
        self.durable = self.base + bytes.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recovery scan: retained durable frames with their LSNs.
    fn read_durable(store: &mut dyn StableStore) -> Result<Vec<(Lsn, Vec<u8>)>> {
        let base = store.base_lsn().0;
        let frames = codec::scan(&store.durable_bytes()?)?;
        Ok(frames
            .into_iter()
            .map(|(o, p)| (Lsn(base + o), p))
            .collect())
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("camelot-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn check_basic(store: &mut dyn StableStore) {
        assert_eq!(store.durable_lsn(), Lsn(0));
        let l1 = store.append(b"alpha").unwrap();
        let l2 = store.append(b"beta").unwrap();
        assert!(l2 > l1);
        assert_eq!(store.durable_lsn(), Lsn(0), "append must not be durable");
        let d = store.force().unwrap();
        assert_eq!(d, store.end_lsn());
        let frames = read_durable(store).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], (l1, b"alpha".to_vec()));
        assert_eq!(frames[1], (l2, b"beta".to_vec()));
    }

    #[test]
    fn mem_store_basics() {
        let mut s = MemStore::new();
        check_basic(&mut s);
        assert_eq!(s.forces(), 1);
    }

    #[test]
    fn mem_store_crash_loses_unforced_suffix() {
        let mut s = MemStore::new();
        s.append(b"kept").unwrap();
        s.force().unwrap();
        s.append(b"lost").unwrap();
        s.crash();
        let frames = read_durable(&mut s).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].1, b"kept");
        // After the crash the store can keep being used.
        s.append(b"post").unwrap();
        s.force().unwrap();
        assert_eq!(read_durable(&mut s).unwrap().len(), 2);
    }

    #[test]
    fn mem_store_force_idempotent_when_clean() {
        let mut s = MemStore::new();
        s.append(b"x").unwrap();
        s.force().unwrap();
        s.force().unwrap();
        s.force().unwrap();
        assert_eq!(s.forces(), 1, "forcing a clean log is free");
    }

    fn check_partial_force(store: &mut dyn StableStore) {
        store.append(b"first").unwrap();
        let boundary = store.end_lsn();
        store.append(b"second").unwrap();
        let d = store.force_to(boundary).unwrap();
        assert_eq!(d, boundary, "exactly the prefix becomes durable");
        assert_eq!(read_durable(store).unwrap().len(), 1);
        assert!(
            store.end_lsn() > store.durable_lsn(),
            "suffix still buffered"
        );
        // Forcing at or below the watermark is free.
        assert_eq!(store.force_to(Lsn(0)).unwrap(), boundary);
        // The buffered suffix survives for the next write.
        let all = store.force().unwrap();
        assert_eq!(all, store.end_lsn());
        assert_eq!(read_durable(store).unwrap().len(), 2);
    }

    #[test]
    fn mem_store_partial_force() {
        let mut s = MemStore::new();
        check_partial_force(&mut s);
        assert_eq!(s.forces(), 2);
    }

    #[test]
    fn file_store_partial_force() {
        let path = scratch("partial.log");
        let mut s = FileStore::open(&path).unwrap();
        check_partial_force(&mut s);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_durable_excludes_unforced() {
        let mut s = MemStore::new();
        s.append(b"a").unwrap();
        s.force().unwrap();
        s.append(b"b").unwrap();
        let frames = read_durable(&mut s).unwrap();
        assert_eq!(frames.len(), 1);
    }

    #[test]
    fn file_store_basics() {
        let path = scratch("basic.log");
        let mut s = FileStore::open(&path).unwrap();
        check_basic(&mut s);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_store_reopen_recovers_synced_prefix() {
        let path = scratch("reopen.log");
        {
            let mut s = FileStore::open(&path).unwrap();
            s.append(b"one").unwrap();
            s.force().unwrap();
            s.append(b"never-synced").unwrap();
            // Dropped without force: pending bytes are lost, as after
            // a process crash.
        }
        {
            let mut s = FileStore::open(&path).unwrap();
            let frames = read_durable(&mut s).unwrap();
            assert_eq!(frames.len(), 1);
            assert_eq!(frames[0].1, b"one");
            // And the log keeps working.
            s.append(b"two").unwrap();
            s.force().unwrap();
            assert_eq!(read_durable(&mut s).unwrap().len(), 2);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_store_truncates_torn_tail() {
        let path = scratch("torn.log");
        {
            let mut s = FileStore::open(&path).unwrap();
            s.append(b"good").unwrap();
            s.force().unwrap();
        }
        // Simulate a torn write: append garbage that looks like a
        // partial frame.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[7, 0, 0, 0]).unwrap(); // Length header only.
        }
        {
            let mut s = FileStore::open(&path).unwrap();
            let frames = read_durable(&mut s).unwrap();
            assert_eq!(frames.len(), 1);
            assert_eq!(frames[0].1, b"good");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_store_reopen_rejects_bitflipped_committed_record() {
        let path = scratch("bitflip.log");
        {
            let mut s = FileStore::open(&path).unwrap();
            s.append(b"committed-one").unwrap();
            s.append(b"committed-two").unwrap();
            s.force().unwrap();
        }
        // Flip one bit inside the first record's payload — a committed
        // (forced) frame, followed by another valid frame, so this is
        // mid-log corruption rather than a torn tail.
        {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[FileStore::HEADER_LEN + codec::FRAME_HEADER + 2] ^= 0x04;
            std::fs::write(&path, &bytes).unwrap();
        }
        // Reopen must surface a typed recovery error — not panic, and
        // not silently truncate away acknowledged data.
        match FileStore::open(&path) {
            Err(CamelotError::Corruption { offset }) => assert_eq!(offset, 0),
            other => panic!("expected Corruption error, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn durable_image_hooks_roundtrip_and_inject_faults() {
        let mut s = MemStore::new();
        s.append(b"one").unwrap();
        s.append(b"two").unwrap();
        s.force().unwrap();
        s.append(b"unforced").unwrap();
        let image = s.durable_bytes().unwrap();
        assert_eq!(codec::scan(&image).unwrap().len(), 2);

        // Torn tail injected through the hook: recovery sees a clean
        // prefix and stops at the tear.
        let mut torn = image.clone();
        torn.extend_from_slice(&[9, 0, 0, 0]); // Partial header.
        s.set_durable_bytes(&torn).unwrap();
        assert_eq!(
            read_durable(&mut s).unwrap().len(),
            2,
            "tear hides nothing durable"
        );

        // Bit flip in a committed frame: recovery errors.
        let mut flipped = image.clone();
        flipped[codec::FRAME_HEADER + 1] ^= 0x10;
        s.set_durable_bytes(&flipped).unwrap();
        match read_durable(&mut s) {
            Err(CamelotError::Corruption { offset: 0 }) => {}
            other => panic!("expected Corruption at offset 0, got {other:?}"),
        }

        // Restoring the pristine image heals the store.
        s.set_durable_bytes(&image).unwrap();
        assert_eq!(read_durable(&mut s).unwrap().len(), 2);
    }

    #[test]
    fn file_store_image_hooks() {
        let path = scratch("image-hooks.log");
        let mut s = FileStore::open(&path).unwrap();
        s.append(b"alpha").unwrap();
        s.force().unwrap();
        s.append(b"pending-only").unwrap();
        let image = s.durable_bytes().unwrap();
        assert_eq!(codec::scan(&image).unwrap().len(), 1);
        let mut flipped = image.clone();
        flipped[codec::FRAME_HEADER] ^= 0x01;
        s.set_durable_bytes(&flipped).unwrap();
        assert!(matches!(
            read_durable(&mut s),
            Err(CamelotError::Corruption { offset: 0 })
        ));
        s.set_durable_bytes(&image).unwrap();
        let frames = read_durable(&mut s).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].1, b"alpha");
        std::fs::remove_file(&path).unwrap();
    }
    /// Truncation discards a durable prefix and nothing else: LSNs
    /// keep counting from where they were, the un-forced tail is
    /// untouched, and the image hooks see the retained suffix only.
    fn check_truncate(store: &mut dyn StableStore) {
        let a = store.append(b"alpha").unwrap();
        let b = store.append(b"beta").unwrap();
        let c = store.append(b"gamma").unwrap();
        store.force_to(c).unwrap();
        assert_eq!(store.base_lsn(), a);
        // Clamped to the durable watermark: `gamma` is not durable.
        assert_eq!(store.truncate_prefix(store.end_lsn()).unwrap(), c);
        assert_eq!(read_durable(store).unwrap(), vec![]);
        assert_eq!(store.durable_lsn(), c);
        store.force().unwrap();
        assert_eq!(read_durable(store).unwrap(), vec![(c, b"gamma".to_vec())]);
        // At or below the base: a no-op.
        assert_eq!(store.truncate_prefix(b).unwrap(), c);
        let d = store.append(b"delta").unwrap();
        assert!(d > c, "LSNs stay monotonic across a truncation");
        assert_eq!(d, store.durable_lsn());
        store.force().unwrap();
        // The image hooks work on the retained suffix and keep the base.
        let image = store.durable_bytes().unwrap();
        assert_eq!(codec::scan(&image).unwrap().len(), 2);
        store.set_durable_bytes(&image[..image.len() - 3]).unwrap();
        assert_eq!(store.base_lsn(), c);
        assert_eq!(read_durable(store).unwrap(), vec![(c, b"gamma".to_vec())]);
        store.set_durable_bytes(&image).unwrap();
        assert_eq!(store.end_lsn().0, c.0 + image.len() as u64);
        assert_eq!(read_durable(store).unwrap().len(), 2);
    }

    #[test]
    fn mem_store_truncate() {
        check_truncate(&mut MemStore::new());
    }

    #[test]
    fn file_store_truncate() {
        let path = scratch("truncate.log");
        check_truncate(&mut FileStore::open(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_store_reopen_after_truncation_keeps_lsns() {
        let path = scratch("truncate-reopen.log");
        let (kept, end) = {
            let mut s = FileStore::open(&path).unwrap();
            s.append(b"dead weight").unwrap();
            let kept = s.append(b"kept").unwrap();
            s.force().unwrap();
            assert_eq!(s.truncate_prefix(kept).unwrap(), kept);
            s.append(b"never-synced").unwrap();
            (kept, s.durable_lsn())
        };
        let mut s = FileStore::open(&path).unwrap();
        assert_eq!(
            (s.base_lsn(), s.durable_lsn(), s.end_lsn()),
            (kept, end, end)
        );
        assert_eq!(
            read_durable(&mut s).unwrap(),
            vec![(kept, b"kept".to_vec())]
        );
        let next = s.append(b"after").unwrap();
        assert_eq!(next, end, "the next LSN continues the old numbering");
        s.force().unwrap();
        drop(s);
        // Torn-tail handling on a truncated file: the tear is cut off
        // and the base survives.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[7, 0, 0, 0]).unwrap();
        }
        let mut s = FileStore::open(&path).unwrap();
        assert_eq!(s.base_lsn(), kept);
        let frames = read_durable(&mut s).unwrap();
        assert_eq!(
            frames,
            vec![(kept, b"kept".to_vec()), (next, b"after".to_vec())]
        );
        // Corruption is reported at its LSN, not its file offset.
        drop(s);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[FileStore::HEADER_LEN + codec::FRAME_HEADER] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match FileStore::open(&path) {
            Err(CamelotError::Corruption { offset }) => assert_eq!(offset, kept.0),
            other => panic!("expected Corruption error, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// The two crash windows of a truncation. Before the rename the
    /// old log is whole and the half-made copy (complete or not) is
    /// discarded; after it the new log is whole. Either way the same
    /// records are recovered from `kept` on.
    #[test]
    fn file_store_truncation_crash_windows() {
        let path = scratch("truncate-crash.log");
        let trunc = FileStore::trunc_path(&path);
        let mut s = FileStore::open(&path).unwrap();
        let first = s.append(b"dead weight").unwrap();
        let kept = s.append(b"kept").unwrap();
        s.force().unwrap();
        // Crash with the copy written and synced but not installed.
        drop(s.write_truncated(kept.0).unwrap());
        drop(s);
        assert!(trunc.exists());
        let mut s = FileStore::open(&path).unwrap();
        assert!(!trunc.exists(), "a leftover copy is deleted");
        assert_eq!(s.base_lsn(), first);
        assert_eq!(read_durable(&mut s).unwrap().len(), 2);
        // Crash with the copy half written.
        drop(s);
        std::fs::write(&trunc, &header(kept.0)[..9]).unwrap();
        let mut s = FileStore::open(&path).unwrap();
        assert_eq!(s.base_lsn(), first);
        assert_eq!(read_durable(&mut s).unwrap().len(), 2);
        // Crash right after the rename.
        let tmp = s.write_truncated(kept.0).unwrap();
        s.install_truncated(tmp, kept.0).unwrap();
        drop(s);
        let mut s = FileStore::open(&path).unwrap();
        assert_eq!(s.base_lsn(), kept);
        assert_eq!(
            read_durable(&mut s).unwrap(),
            vec![(kept, b"kept".to_vec())]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_store_rejects_a_damaged_header() {
        let path = scratch("header.log");
        {
            let mut s = FileStore::open(&path).unwrap();
            s.append(b"one").unwrap();
            s.force().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[5] ^= 0x01; // Inside the base LSN.
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileStore::open(&path),
            Err(CamelotError::Corruption { offset: 0 })
        ));
        // A header cut short is a log that crashed while being
        // created: it reopens empty.
        std::fs::write(&path, &bytes[..7]).unwrap();
        let mut s = FileStore::open(&path).unwrap();
        assert_eq!((s.base_lsn(), s.end_lsn()), (Lsn(0), Lsn(0)));
        assert!(read_durable(&mut s).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
