//! The Camelot data-server library.
//!
//! "To use Camelot, someone who possesses a database that he wishes to
//! make publicly available writes a data server process that controls
//! the database and allows access to client application processes."
//! (paper §2). A data server manages objects, serializes access by
//! locking, reports old/new value pairs to the disk manager for
//! undo/redo, joins transactions on first touch (Figure 1 step 4), and
//! answers the transaction manager's phase-one vote requests.
//!
//! This crate provides that server as a sans-io library:
//! [`DataServer::handle`] processes read/write operations and returns
//! the [`Effects`] the surrounding runtime must carry out (a
//! join-transaction call, log records for the disk manager, replies,
//! lock waits). The Moss-model lock manager lives in `camelot-locks`.

pub mod recovery;
pub mod server;

pub use recovery::recover;
pub use server::{DataServer, Effects, OpReply, Request, ServerStats};
