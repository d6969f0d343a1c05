//! Named crash instants shared by fault injectors and runtimes.

/// Named instants in the runtime's execution of log actions where a
/// fault injector may kill a site. Each sits on a different side of a
/// durability edge, so a crash there exercises a distinct recovery
/// path.
///
/// Defined here (rather than in the engine crate) because fault plans
/// travel: the in-process runtime consults them around its log
/// pipeline, and a site *process* arms them over the control socket —
/// both ends need the names without depending on the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// After the engine requested a force but before any bytes reach
    /// the platter: the record is lost entirely.
    PreForce,
    /// After the force completed but before the engine processes the
    /// resulting `LogForced` (so before any decision datagrams go
    /// out): the record is durable but nobody was told.
    PostForcePreSend,
    /// Inside a platter write, on whichever thread performs it (the
    /// committing application thread that leads it, or the disk
    /// thread): the write is abandoned and the batch never reports
    /// durable.
    MidPlatterWrite,
    /// Queued execution: a shard-owner worker dies in the middle of
    /// draining a burst of queued jobs — the site is killed with ops
    /// and prepares still parked in its FIFO, so recovery must rebuild
    /// the speculative state it lost.
    QueueMidBurst,
    /// Queued execution: a prepared marker that just parked (waiting
    /// on unresolved dependencies) is lost instead of parked. The
    /// shard never answers its local sub-vote, so the family resolves
    /// only through a timeout — the engine's vote timeout when remote
    /// subordinates are involved, the client's call timeout (plus an
    /// explicit abort) for a purely local family. Unlike the kill
    /// points this corrupts state without taking the site down.
    QueueParkedPrepare,
    /// Inside a checkpoint: the servers' snapshots are appended, the
    /// marker that would license truncating below them is not. The
    /// restart finds a snapshot (if it reached the platter at all) on
    /// top of an untruncated log.
    MidCheckpoint,
    /// Inside a truncation: the checkpoint is durable but the log's
    /// new base is not, so the old prefix is still there. The restart
    /// reads records a completed truncation would have discarded.
    MidTruncate,
    /// Inside a restart: the data servers are rebuilt from the log,
    /// the engine shards are not. Recovery only reads, so restarting
    /// again must end in the same state.
    MidRecovery,
}

impl CrashPoint {
    /// All crash points, for parameterized test matrices.
    pub const ALL: [CrashPoint; 8] = [
        CrashPoint::PreForce,
        CrashPoint::PostForcePreSend,
        CrashPoint::MidPlatterWrite,
        CrashPoint::QueueMidBurst,
        CrashPoint::QueueParkedPrepare,
        CrashPoint::MidCheckpoint,
        CrashPoint::MidTruncate,
        CrashPoint::MidRecovery,
    ];

    /// The points that only fire under queued execution.
    pub const QUEUED: [CrashPoint; 2] = [CrashPoint::QueueMidBurst, CrashPoint::QueueParkedPrepare];

    /// The points on the bounded-recovery path: they fire inside a
    /// checkpoint or a restart, never inside a commit.
    pub const RECOVERY: [CrashPoint; 3] = [
        CrashPoint::MidCheckpoint,
        CrashPoint::MidTruncate,
        CrashPoint::MidRecovery,
    ];

    /// Stable wire tag for the control protocol.
    pub fn to_wire(self) -> u8 {
        match self {
            CrashPoint::PreForce => 0,
            CrashPoint::PostForcePreSend => 1,
            CrashPoint::MidPlatterWrite => 2,
            CrashPoint::QueueMidBurst => 3,
            CrashPoint::QueueParkedPrepare => 4,
            CrashPoint::MidCheckpoint => 5,
            CrashPoint::MidTruncate => 6,
            CrashPoint::MidRecovery => 7,
        }
    }

    /// Inverse of [`CrashPoint::to_wire`].
    pub fn from_wire(v: u8) -> Option<CrashPoint> {
        Some(match v {
            0 => CrashPoint::PreForce,
            1 => CrashPoint::PostForcePreSend,
            2 => CrashPoint::MidPlatterWrite,
            3 => CrashPoint::QueueMidBurst,
            4 => CrashPoint::QueueParkedPrepare,
            5 => CrashPoint::MidCheckpoint,
            6 => CrashPoint::MidTruncate,
            7 => CrashPoint::MidRecovery,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_tags_roundtrip() {
        for p in CrashPoint::ALL {
            assert_eq!(CrashPoint::from_wire(p.to_wire()), Some(p));
        }
        assert_eq!(CrashPoint::from_wire(9), None);
    }
}
