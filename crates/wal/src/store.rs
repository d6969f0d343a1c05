//! Stable-storage backends for the log.
//!
//! A [`StableStore`] is a durable medium and nothing else: every byte
//! it holds has been forced. [`StableStore::write`] appends whole
//! frames at the durable end and returns once they are durable — one
//! platter write. What is appended but not yet forced is the
//! [`Wal`](crate::Wal)'s tail, the one place that decides which
//! records are forced and when (log forces dominate commit latency,
//! Table 2: 15 ms each).
//!
//! The log also has a *beginning*: [`StableStore::truncate_prefix`]
//! discards durable bytes below an LSN once a checkpoint has made them
//! dead weight. LSNs are positions in the log as it was ever written —
//! they stay monotonic across truncation and across reopen — and
//! [`StableStore::base_lsn`] names the first one still retained.
//!
//! - [`MemStore`] keeps the durable bytes in memory; a crash of its
//!   owner (`Wal::lose_volatile`) leaves them as they are.
//! - [`FileStore`] writes and syncs a real file; it reopens after a
//!   process restart and tolerates a torn tail.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use camelot_types::wire::crc32;
use camelot_types::{CamelotError, Lsn, Result};

use crate::codec;

/// Durable byte log with a movable beginning.
pub trait StableStore {
    /// Appends whole frames at the durable end and returns once they
    /// are durable: one platter write.
    fn write(&mut self, frames: &[u8]) -> Result<()>;

    /// LSN just past the last durable byte.
    fn durable_lsn(&self) -> Lsn;

    /// LSN of the first retained byte: where the recovery scan starts.
    /// Zero until the first [`StableStore::truncate_prefix`].
    fn base_lsn(&self) -> Lsn;

    /// Discards the durable prefix below `lsn` and returns the new
    /// base. `lsn` must lie on a frame boundary; it is clamped to
    /// `base_lsn..=durable_lsn`, so truncating at or below the base is
    /// a no-op. Durable: after a crash at any instant of the call the
    /// store reopens with either the old base or the new one, never a
    /// mixture.
    fn truncate_prefix(&mut self, lsn: Lsn) -> Result<Lsn>;

    /// Raw image of the retained durable bytes (`base_lsn` to
    /// `durable_lsn`), frames and all: the recovery scan's input, and
    /// the fault-injection hook that lets a harness snapshot the log,
    /// corrupt it, and restore it.
    fn durable_bytes(&mut self) -> Result<Vec<u8>>;

    /// Replaces the retained durable image wholesale (the base stays
    /// where it is). Fault-injection hook — models a medium that
    /// bit-rotted or tore while the process was down. The bytes are
    /// *not* validated here; the next recovery scan judges them.
    fn set_durable_bytes(&mut self, bytes: &[u8]) -> Result<()>;
}

impl<T: StableStore + ?Sized> StableStore for Box<T> {
    fn write(&mut self, frames: &[u8]) -> Result<()> {
        (**self).write(frames)
    }
    fn durable_lsn(&self) -> Lsn {
        (**self).durable_lsn()
    }
    fn base_lsn(&self) -> Lsn {
        (**self).base_lsn()
    }
    fn truncate_prefix(&mut self, lsn: Lsn) -> Result<Lsn> {
        (**self).truncate_prefix(lsn)
    }
    fn durable_bytes(&mut self) -> Result<Vec<u8>> {
        (**self).durable_bytes()
    }
    fn set_durable_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        (**self).set_durable_bytes(bytes)
    }
}

/// In-memory durable medium: survives its owner's crash, not its drop.
#[derive(Debug, Default)]
pub struct MemStore {
    /// LSN of `buf[0]`.
    base: u64,
    buf: Vec<u8>,
}

impl MemStore {
    pub fn new() -> Self {
        MemStore::default()
    }
}

impl StableStore for MemStore {
    fn write(&mut self, frames: &[u8]) -> Result<()> {
        self.buf.extend_from_slice(frames);
        Ok(())
    }

    fn durable_lsn(&self) -> Lsn {
        Lsn(self.base + self.buf.len() as u64)
    }

    fn base_lsn(&self) -> Lsn {
        Lsn(self.base)
    }

    fn truncate_prefix(&mut self, lsn: Lsn) -> Result<Lsn> {
        let cut = (lsn.0.saturating_sub(self.base) as usize).min(self.buf.len());
        self.buf.drain(..cut);
        self.base += cut as u64;
        Ok(Lsn(self.base))
    }

    fn durable_bytes(&mut self) -> Result<Vec<u8>> {
        Ok(self.buf.clone())
    }

    fn set_durable_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        self.buf = bytes.to_vec();
        Ok(())
    }
}

/// File-backed store: `write` is `write_all` plus `sync_data`.
/// Reopening after a crash recovers the synced prefix and tolerates a
/// torn tail.
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
    /// LSN just past the last durable byte on disk.
    durable: u64,
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
            durable: base + valid,
        })
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn trunc_path(path: &Path) -> PathBuf {
        let mut name = path.as_os_str().to_owned();
        name.push(".trunc");
        PathBuf::from(name)
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
    fn write(&mut self, frames: &[u8]) -> Result<()> {
        self.file
            .write_all(frames)
            .map_err(|e| io_err("write", e))?;
        self.file.sync_data().map_err(|e| io_err("sync", e))?;
        self.durable += frames.len() as u64;
        Ok(())
    }

    fn durable_lsn(&self) -> Lsn {
        Lsn(self.durable)
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

    fn durable_bytes(&mut self) -> Result<Vec<u8>> {
        self.read_from(self.base)
    }

    fn set_durable_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        self.file
            .set_len(Self::HEADER_LEN as u64)
            .map_err(|e| io_err("truncate for image", e))?;
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek", e))?;
        self.durable = self.base;
        self.write(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Wal;

    /// The recovery scan: retained durable frames with their LSNs.
    fn read_durable<S: StableStore>(wal: &mut Wal<S>) -> Result<Vec<(Lsn, Vec<u8>)>> {
        let base = wal.base_lsn().0;
        let frames = codec::scan(&wal.store_mut().durable_bytes()?)?;
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

    /// Runs a medium-independent check over a fresh log on each store:
    /// in memory, then in a file named `name`, removed afterwards.
    fn on_each_medium(name: &str, check: impl Fn(&mut Wal<Box<dyn StableStore>>)) {
        check(&mut Wal::new(Box::new(MemStore::new())));
        let path = scratch(name);
        check(&mut Wal::new(Box::new(FileStore::open(&path).unwrap())));
        std::fs::remove_file(&path).unwrap();
    }

    fn append<S: StableStore>(wal: &mut Wal<S>, payload: &[u8]) -> Lsn {
        wal.append_encoded(payload).unwrap()
    }

    fn check_basic<S: StableStore>(wal: &mut Wal<S>) {
        assert_eq!(wal.durable_lsn(), Lsn(0));
        let l1 = append(wal, b"alpha");
        let l2 = append(wal, b"beta");
        assert!(l2 > l1);
        assert_eq!(wal.durable_lsn(), Lsn(0), "append must not be durable");
        let d = wal.force().unwrap();
        assert_eq!(d, wal.end_lsn());
        let frames = read_durable(wal).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], (l1, b"alpha".to_vec()));
        assert_eq!(frames[1], (l2, b"beta".to_vec()));
        assert_eq!(wal.stats().forces_effective, 1);
    }

    #[test]
    fn basics() {
        on_each_medium("basic.log", check_basic);
    }

    fn check_crash_loses_exactly_the_tail<S: StableStore>(wal: &mut Wal<S>) {
        append(wal, b"kept");
        wal.force().unwrap();
        let lost = append(wal, b"lost");
        wal.lose_volatile();
        assert_eq!(wal.end_lsn(), wal.durable_lsn());
        let frames = read_durable(wal).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].1, b"kept");
        // After the crash the log can keep being used, from where the
        // lost record began.
        assert_eq!(append(wal, b"post"), lost);
        wal.force().unwrap();
        assert_eq!(read_durable(wal).unwrap().len(), 2);
    }

    #[test]
    fn crash_loses_exactly_the_tail() {
        on_each_medium("crash.log", check_crash_loses_exactly_the_tail);
    }

    fn check_force_free_when_clean<S: StableStore>(wal: &mut Wal<S>) {
        append(wal, b"x");
        wal.force().unwrap();
        wal.force().unwrap();
        wal.force().unwrap();
        let stats = wal.stats();
        assert_eq!(stats.forces_requested, 3);
        assert_eq!(stats.forces_effective, 1, "forcing a clean log is free");
    }

    #[test]
    fn force_idempotent_when_clean() {
        on_each_medium("clean.log", check_force_free_when_clean);
    }

    fn check_partial_force<S: StableStore>(wal: &mut Wal<S>) {
        append(wal, b"first");
        let boundary = wal.end_lsn();
        append(wal, b"second");
        let d = wal.force_to(boundary).unwrap();
        assert_eq!(d, boundary, "exactly the prefix becomes durable");
        assert_eq!(read_durable(wal).unwrap().len(), 1);
        assert!(wal.end_lsn() > wal.durable_lsn(), "suffix still buffered");
        // Forcing at or below the watermark is free.
        assert_eq!(wal.force_to(Lsn(0)).unwrap(), boundary);
        // The buffered suffix survives for the next write.
        let all = wal.force().unwrap();
        assert_eq!(all, wal.end_lsn());
        assert_eq!(read_durable(wal).unwrap().len(), 2);
        assert_eq!(wal.stats().forces_effective, 2);
    }

    #[test]
    fn partial_force() {
        on_each_medium("partial.log", check_partial_force);
    }

    fn check_durable_image_excludes_unforced<S: StableStore>(wal: &mut Wal<S>) {
        append(wal, b"a");
        wal.force().unwrap();
        append(wal, b"b");
        assert_eq!(read_durable(wal).unwrap().len(), 1);
    }

    #[test]
    fn durable_image_excludes_unforced() {
        on_each_medium("unforced.log", check_durable_image_excludes_unforced);
    }

    /// The image hooks a fault harness uses across a restart: snapshot
    /// the durable image, tear it or flip a bit in it, and restore it.
    fn check_image_hooks<S: StableStore>(wal: &mut Wal<S>) {
        let one = append(wal, b"one");
        let two = append(wal, b"two");
        wal.force().unwrap();
        append(wal, b"unforced");
        let image = wal.store_mut().durable_bytes().unwrap();
        assert_eq!(codec::scan(&image).unwrap().len(), 2);
        // The process is down while its medium is edited.
        wal.lose_volatile();

        // Torn tail injected through the hook: recovery sees a clean
        // prefix and stops at the tear.
        let mut torn = image.clone();
        torn.extend_from_slice(&[9, 0, 0, 0]); // Partial header.
        wal.store_mut().set_durable_bytes(&torn).unwrap();
        assert_eq!(
            read_durable(wal).unwrap().len(),
            2,
            "tear hides nothing durable"
        );

        // Bit flip in a committed frame: recovery errors.
        for (at, bit) in [(codec::FRAME_HEADER, 0x01), (codec::FRAME_HEADER + 1, 0x10)] {
            let mut flipped = image.clone();
            flipped[at] ^= bit;
            wal.store_mut().set_durable_bytes(&flipped).unwrap();
            match read_durable(wal) {
                Err(CamelotError::Corruption { offset: 0 }) => {}
                other => panic!("expected Corruption at offset 0, got {other:?}"),
            }
        }

        // Restoring the pristine image heals the store.
        wal.store_mut().set_durable_bytes(&image).unwrap();
        assert_eq!(
            read_durable(wal).unwrap(),
            vec![(one, b"one".to_vec()), (two, b"two".to_vec())]
        );
    }

    #[test]
    fn durable_image_hooks_roundtrip_and_inject_faults() {
        on_each_medium("image-hooks.log", check_image_hooks);
    }

    /// Truncation discards a durable prefix and nothing else: LSNs
    /// keep counting from where they were, the un-forced tail is
    /// untouched, and the image hooks see the retained suffix only.
    fn check_truncate<S: StableStore>(wal: &mut Wal<S>) {
        let a = append(wal, b"alpha");
        let b = append(wal, b"beta");
        let c = append(wal, b"gamma");
        wal.force_to(c).unwrap();
        assert_eq!(wal.base_lsn(), a);
        // Clamped to the durable watermark: `gamma` is not durable.
        assert_eq!(wal.truncate_prefix(wal.end_lsn()).unwrap(), c);
        assert_eq!(read_durable(wal).unwrap(), vec![]);
        assert_eq!(wal.durable_lsn(), c);
        wal.force().unwrap();
        assert_eq!(read_durable(wal).unwrap(), vec![(c, b"gamma".to_vec())]);
        // At or below the base: a no-op.
        assert_eq!(wal.truncate_prefix(b).unwrap(), c);
        let d = append(wal, b"delta");
        assert!(d > c, "LSNs stay monotonic across a truncation");
        assert_eq!(d, wal.durable_lsn());
        wal.force().unwrap();
        // The image hooks work on the retained suffix and keep the base.
        let image = wal.store_mut().durable_bytes().unwrap();
        assert_eq!(codec::scan(&image).unwrap().len(), 2);
        wal.store_mut()
            .set_durable_bytes(&image[..image.len() - 3])
            .unwrap();
        assert_eq!(wal.base_lsn(), c);
        assert_eq!(read_durable(wal).unwrap(), vec![(c, b"gamma".to_vec())]);
        wal.store_mut().set_durable_bytes(&image).unwrap();
        assert_eq!(wal.end_lsn().0, c.0 + image.len() as u64);
        assert_eq!(read_durable(wal).unwrap().len(), 2);
    }

    #[test]
    fn truncate() {
        on_each_medium("truncate.log", check_truncate);
    }

    fn open(path: &Path) -> Wal<FileStore> {
        Wal::new(FileStore::open(path).unwrap())
    }

    #[test]
    fn file_store_reopen_recovers_synced_prefix() {
        let path = scratch("reopen.log");
        {
            let mut wal = open(&path);
            append(&mut wal, b"one");
            wal.force().unwrap();
            append(&mut wal, b"never-synced");
            // Dropped without force: the tail is lost, as after a
            // process crash.
        }
        {
            let mut wal = open(&path);
            let frames = read_durable(&mut wal).unwrap();
            assert_eq!(frames.len(), 1);
            assert_eq!(frames[0].1, b"one");
            // And the log keeps working.
            append(&mut wal, b"two");
            wal.force().unwrap();
            assert_eq!(read_durable(&mut wal).unwrap().len(), 2);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_store_truncates_torn_tail() {
        let path = scratch("torn.log");
        {
            let mut wal = open(&path);
            append(&mut wal, b"good");
            wal.force().unwrap();
        }
        // Simulate a torn write: append garbage that looks like a
        // partial frame.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[7, 0, 0, 0]).unwrap(); // Length header only.
        }
        {
            let mut wal = open(&path);
            let frames = read_durable(&mut wal).unwrap();
            assert_eq!(frames.len(), 1);
            assert_eq!(frames[0].1, b"good");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_store_reopen_rejects_bitflipped_committed_record() {
        let path = scratch("bitflip.log");
        {
            let mut wal = open(&path);
            append(&mut wal, b"committed-one");
            append(&mut wal, b"committed-two");
            wal.force().unwrap();
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
    fn file_store_reopen_after_truncation_keeps_lsns() {
        let path = scratch("truncate-reopen.log");
        let (kept, end) = {
            let mut wal = open(&path);
            append(&mut wal, b"dead weight");
            let kept = append(&mut wal, b"kept");
            wal.force().unwrap();
            assert_eq!(wal.truncate_prefix(kept).unwrap(), kept);
            append(&mut wal, b"never-synced");
            (kept, wal.durable_lsn())
        };
        let mut wal = open(&path);
        assert_eq!(
            (wal.base_lsn(), wal.durable_lsn(), wal.end_lsn()),
            (kept, end, end)
        );
        assert_eq!(
            read_durable(&mut wal).unwrap(),
            vec![(kept, b"kept".to_vec())]
        );
        let next = append(&mut wal, b"after");
        assert_eq!(next, end, "the next LSN continues the old numbering");
        wal.force().unwrap();
        drop(wal);
        // Torn-tail handling on a truncated file: the tear is cut off
        // and the base survives.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[7, 0, 0, 0]).unwrap();
        }
        let mut wal = open(&path);
        assert_eq!(wal.base_lsn(), kept);
        let frames = read_durable(&mut wal).unwrap();
        assert_eq!(
            frames,
            vec![(kept, b"kept".to_vec()), (next, b"after".to_vec())]
        );
        // Corruption is reported at its LSN, not its file offset.
        drop(wal);
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
        let mut wal = open(&path);
        let first = append(&mut wal, b"dead weight");
        let kept = append(&mut wal, b"kept");
        wal.force().unwrap();
        // Crash with the copy written and synced but not installed.
        drop(wal.store_mut().write_truncated(kept.0).unwrap());
        drop(wal);
        assert!(trunc.exists());
        let mut wal = open(&path);
        assert!(!trunc.exists(), "a leftover copy is deleted");
        assert_eq!(wal.base_lsn(), first);
        assert_eq!(read_durable(&mut wal).unwrap().len(), 2);
        // Crash with the copy half written.
        drop(wal);
        std::fs::write(&trunc, &header(kept.0)[..9]).unwrap();
        let mut wal = open(&path);
        assert_eq!(wal.base_lsn(), first);
        assert_eq!(read_durable(&mut wal).unwrap().len(), 2);
        // Crash right after the rename.
        let store = wal.store_mut();
        let tmp = store.write_truncated(kept.0).unwrap();
        store.install_truncated(tmp, kept.0).unwrap();
        drop(wal);
        let mut wal = open(&path);
        assert_eq!(wal.base_lsn(), kept);
        assert_eq!(
            read_durable(&mut wal).unwrap(),
            vec![(kept, b"kept".to_vec())]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_store_rejects_a_damaged_header() {
        let path = scratch("header.log");
        {
            let mut wal = open(&path);
            append(&mut wal, b"one");
            wal.force().unwrap();
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
        let mut wal = open(&path);
        assert_eq!((wal.base_lsn(), wal.end_lsn()), (Lsn(0), Lsn(0)));
        assert!(read_durable(&mut wal).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
