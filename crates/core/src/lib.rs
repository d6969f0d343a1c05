//! The Camelot **transaction manager** (TranMan) — the paper's primary
//! contribution.
//!
//! The transaction manager is "essentially a protocol processor; most
//! calls from applications or servers invoke one protocol or another"
//! (paper §3). This crate implements that protocol processor as a
//! **sans-io state machine**: [`Engine::handle`] consumes one
//! [`Input`] (an application call, a server vote, an inter-site
//! datagram, a log-force completion, a timer) and returns the
//! [`Action`]s the surrounding runtime must carry out (send datagrams,
//! force log records, notify servers, arm timers). No clocks, threads
//! or sockets live here, so the deterministic simulator and the
//! real-thread runtime execute *the same protocol code*.
//!
//! Implemented protocols:
//!
//! - **Presumed-abort two-phase commitment** with the paper's §3.2
//!   *delayed-commit optimization*: the subordinate drops its locks as
//!   soon as the commit notice arrives, writes its commit record
//!   lazily (no force), and acknowledges only once the record is
//!   durable — with the acknowledgement piggybacked on later traffic.
//!   The coordinator may not forget the transaction until every
//!   acknowledgement arrives; until then its own commit record
//!   certifies the outcome. Subordinate update sites thus make one
//!   fewer log force per distributed transaction. All three §4.2
//!   variants (optimized / semi-optimized / unoptimized) are
//!   selectable for the Figure-2 experiments, plus the read-only
//!   optimization.
//! - **Non-blocking commitment** (§3.3): a three-phase quorum
//!   protocol — prepare, *replication*, notify — that survives any
//!   single site crash or partition. Subordinates that time out
//!   awaiting the outcome become coordinators themselves; multiple
//!   simultaneous coordinators are tolerated; commit requires a
//!   durable commit quorum and abort an abort quorum, with
//!   `Vc + Va > N` guaranteeing the outcomes exclude each other.
//!   It is written as the paper presents it — two-phase commit plus
//!   five changes: the steps both protocols take (the phase-one vote
//!   tally in [`family::Tally`]; the admission of a commit call, the
//!   subordinate's phase one, the commit point and the collection of
//!   acknowledgements in [`twophase`]; the resolution epilogue, the
//!   announcement of an outcome and the timer helpers in [`engine`])
//!   exist once, and [`nonblocking`] and [`takeover`] hold only the
//!   changes.
//! - The **abort protocol** for (nested, distributed) transactions,
//!   and restart **recovery** of protocol state from the write-ahead
//!   log, including presumed-abort inquiry resolution.
//! - **Nested transactions** (Moss model): subtransaction begin /
//!   commit / abort with propagation of subtree resolution to remote
//!   participants.
//!
//! # Example
//!
//! ```
//! use camelot_core::{Engine, EngineConfig, Input, Action};
//! use camelot_types::{SiteId, Time};
//!
//! let mut tm = Engine::new(SiteId(1), EngineConfig::default());
//! let actions = tm.handle(Input::Begin { req: 1 }, Time::ZERO);
//! match &actions[0] {
//!     Action::Began { req: 1, tid } => assert!(tid.is_top_level()),
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```

pub mod config;
pub mod engine;
pub mod family;
pub mod io;
pub mod nonblocking;
pub mod recovery;
pub mod takeover;
pub mod testkit;
#[cfg(test)]
mod tests_loss;
#[cfg(test)]
mod tests_nonblocking;
#[cfg(test)]
mod tests_piggyback;
#[cfg(test)]
mod tests_recovery;
#[cfg(test)]
mod tests_twophase;
pub mod twophase;

pub use camelot_net::{Outcome, Vote};
pub use config::{CommitMode, EngineConfig, ExecMode, TwoPhaseVariant};
pub use engine::{shard_of_family, shard_of_token, Engine, EngineStats};
pub use family::{FamilyPhase, FamilyView};
pub use io::{Action, CrashPoint, ForceToken, Input, TimerToken};
