//! Write-ahead log for the Camelot reproduction.
//!
//! In Camelot, atomicity and permanence are implemented with a common
//! stable-storage log; the Disk Manager is the single point of access
//! to it and the place where **group commit** (log batching, paper
//! §3.5) happens. This crate provides:
//!
//! - typed [`record::LogRecord`]s covering transaction management
//!   (prepare / commit / abort, and the non-blocking protocol's
//!   replication records) and data-server updates (old/new value
//!   pairs for undo/redo);
//! - [`fate::families`], the one reading of a restarted site's log
//!   that both the data servers and the transaction manager recover
//!   from: what became of each family there;
//! - a CRC-framed binary [`codec`] that detects torn tails and
//!   corruption on recovery scan;
//! - pluggable [`store::StableStore`] backends that hold only durable
//!   bytes: an in-memory store, and a file-backed store whose one
//!   `write` is a write plus a sync;
//! - a [`log::Wal`] front end that frames records into the one
//!   unforced tail and decides what is forced: `force_to` hands a
//!   prefix of the tail to the store, `lose_volatile` is a crash (it
//!   drops the tail, for failure-injection tests), and the force
//!   accounting lives beside it (the paper's metrics count log forces
//!   per transaction);
//! - a sans-io [`batch::GroupCommitBatcher`] implementing group
//!   commit: force requests that arrive while a platter write is in
//!   flight are coalesced into the next write. Both the simulator and
//!   the real-thread disk manager drive the same batcher.

pub mod batch;
pub mod codec;
pub mod fate;
pub mod log;
pub mod record;
pub mod store;

pub use batch::{BatchPolicy, BatcherAction, GroupCommitBatcher, ReqId};
pub use fate::{families, FamilyLog, Fate};
pub use log::{Wal, WalStats};
pub use record::{LogRecord, RecordBody};
pub use store::{FileStore, MemStore, StableStore};
