//! The engine's boundary: inputs it consumes and actions it emits.
//!
//! The runtime (simulated or real-threaded) is a loop that feeds
//! [`Input`]s to [`crate::Engine::handle`] and executes the returned
//! [`Action`]s. Log forces and timers are correlated with opaque
//! tokens so the engine never blocks.

use camelot_net::{Outcome, TmMessage};
use camelot_types::{AbortReason, Duration, ServerId, SiteId, Tid};
use camelot_wal::LogRecord;

use crate::config::CommitMode;

/// Correlates a [`Action::Force`] / [`Action::AppendNotify`] with its
/// completion input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ForceToken(pub u64);

/// Correlates a [`Action::SetTimer`] with its firing input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

// `CrashPoint` moved to camelot-types so fault plans can travel over
// the control socket without depending on the engine; re-exported here
// to keep `camelot_core::CrashPoint` paths working.
pub use camelot_types::CrashPoint;

/// One event consumed by the transaction manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    // ----- Application interface -----
    /// `begin-transaction`: allocate a new top-level transaction.
    /// `req` is an opaque correlation id echoed in [`Action::Began`].
    Begin {
        req: u64,
    },
    /// Begin a nested transaction under `parent`.
    BeginNested {
        req: u64,
        parent: Tid,
    },
    /// `commit-transaction` for a top-level transaction.
    /// `participants` is the list of remote sites the transaction
    /// spread to, as accumulated by the communication manager.
    CommitTop {
        req: u64,
        tid: Tid,
        mode: CommitMode,
        participants: Vec<SiteId>,
    },
    /// Commit a nested transaction (local decision; resolution is
    /// propagated to `participants` so remote servers inherit).
    CommitNested {
        req: u64,
        tid: Tid,
        participants: Vec<SiteId>,
    },
    /// `abort-transaction` (top-level or nested).
    AbortTx {
        req: u64,
        tid: Tid,
        reason: AbortReason,
        participants: Vec<SiteId>,
    },

    // ----- Data-server interface -----
    /// A local server joined the transaction (first operation it
    /// processes on the transaction's behalf — Figure 1 step 4).
    Join {
        tid: Tid,
        server: ServerId,
    },
    /// A local server's phase-one vote for a top-level commit.
    ServerVote {
        tid: Tid,
        server: ServerId,
        vote: camelot_net::Vote,
    },

    // ----- Network -----
    /// A datagram from another transaction manager (the runtime has
    /// already unwrapped envelopes and filtered duplicates).
    Datagram {
        from: SiteId,
        msg: TmMessage,
    },

    // ----- Log -----
    /// The record force requested with this token is durable.
    LogForced {
        token: ForceToken,
    },
    /// The lazily appended record tracked by this token became
    /// durable (delayed-commit optimization).
    LogDurable {
        token: ForceToken,
    },

    // ----- Timers -----
    TimerFired {
        token: TimerToken,
    },
}

/// One effect the runtime must carry out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    // ----- Replies to the application -----
    /// Answer to [`Input::Begin`] / [`Input::BeginNested`].
    Began {
        req: u64,
        tid: Tid,
    },
    /// A commit or abort call completed with this outcome. For
    /// aborts, `reason` says why.
    Resolved {
        req: u64,
        tid: Tid,
        outcome: Outcome,
        reason: Option<AbortReason>,
    },
    /// The call was illegal in the current state.
    Rejected {
        req: u64,
        tid: Tid,
        detail: &'static str,
    },

    // ----- Commands to local data servers -----
    /// Ask each server for its phase-one vote (Figure 1 step 8).
    AskVote {
        tid: Tid,
        servers: Vec<ServerId>,
    },
    /// A resolution at this site: servers keep or undo the updates
    /// and drop the locks (Figure 1 step 11). A top-level `tid`
    /// resolves the whole family; a nested one only its subtree, whose
    /// locks pass to its parent on commit.
    ServerResolve {
        tid: Tid,
        servers: Vec<ServerId>,
        outcome: Outcome,
    },

    // ----- Network -----
    /// Send one datagram. `piggyback` carries queued off-critical-path
    /// messages for the same destination (message batching, §4.2).
    Send {
        to: SiteId,
        msg: TmMessage,
        piggyback: Vec<TmMessage>,
    },
    /// Send the same message to several sites. The runtime realizes
    /// this as a multicast (one send) or as sequential unicasts
    /// (paying the 1.7 ms datagram cycle time per destination),
    /// depending on its configuration — the §4.2 multicast experiment.
    Broadcast {
        to: Vec<SiteId>,
        msg: TmMessage,
    },
    /// Relay an abort to every site *this* site's communication
    /// manager knows the transaction spread to. The abort protocol
    /// must work "with incomplete knowledge about which sites are
    /// involved": the initiator may only know its direct callees, so
    /// each participant forwards the abort along its own outgoing
    /// calls. The runtime resolves the recipient list from its
    /// CornMan.
    RelayAbort {
        tid: Tid,
    },

    // ----- Log -----
    /// Append without forcing (presumed-abort abort records, end
    /// records).
    Append {
        rec: LogRecord,
    },
    /// Append and force; reply with [`Input::LogForced`] when durable.
    Force {
        rec: LogRecord,
        token: ForceToken,
    },
    /// Append lazily; reply with [`Input::LogDurable`] when some later
    /// platter write makes it durable (the runtime must not schedule a
    /// dedicated force for it).
    AppendNotify {
        rec: LogRecord,
        token: ForceToken,
    },

    // ----- Timers -----
    SetTimer {
        token: TimerToken,
        after: Duration,
    },
    CancelTimer {
        token: TimerToken,
    },
}

impl Action {
    /// Convenience for tests: the destination site if this is a
    /// `Send`.
    pub fn send_to(&self) -> Option<SiteId> {
        match self {
            Action::Send { to, .. } => Some(*to),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_types::{FamilyId, Time};

    #[test]
    fn send_to_helper() {
        let tid = Tid::top_level(FamilyId {
            origin: SiteId(1),
            seq: 1,
        });
        let a = Action::Send {
            to: SiteId(3),
            msg: TmMessage::Commit { tid: tid.clone() },
            piggyback: vec![],
        };
        assert_eq!(a.send_to(), Some(SiteId(3)));
        let b = Action::Append {
            rec: LogRecord::Abort { tid },
        };
        assert_eq!(b.send_to(), None);
        let _ = Time::ZERO; // Silence unused import lint in some cfgs.
    }
}
