//! Named crash instants shared by fault injectors and runtimes.

crate::wire_enum! {
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
        0 => PreForce,
        /// After the force completed but before the engine processes the
        /// resulting `LogForced` (so before any decision datagrams go
        /// out): the record is durable but nobody was told.
        1 => PostForcePreSend,
        /// Inside a platter write, on whichever thread performs it (the
        /// committing application thread that leads it, or the disk
        /// thread): the write is abandoned and the batch never reports
        /// durable.
        2 => MidPlatterWrite,
        /// Queued execution: a shard-owner worker dies in the middle of
        /// draining a burst of queued jobs — the site is killed with ops
        /// and prepares still parked in its FIFO, so recovery must rebuild
        /// the speculative state it lost.
        3 => QueueMidBurst,
        /// Queued execution: a prepared marker that just parked (waiting
        /// on unresolved dependencies) is lost instead of parked. The
        /// shard never answers its local sub-vote, so the family resolves
        /// only through a timeout — the engine's vote timeout when remote
        /// subordinates are involved, the client's call timeout (plus an
        /// explicit abort) for a purely local family. Unlike the kill
        /// points this corrupts state without taking the site down.
        4 => QueueParkedPrepare,
        /// Inside a checkpoint: the servers' snapshots are appended, the
        /// marker that would license truncating below them is not. The
        /// restart finds a snapshot (if it reached the platter at all) on
        /// top of an untruncated log.
        5 => MidCheckpoint,
        /// Inside a truncation: the checkpoint is durable but the log's
        /// new base is not, so the old prefix is still there. The restart
        /// reads records a completed truncation would have discarded.
        6 => MidTruncate,
        /// Inside a restart: the data servers are rebuilt from the log,
        /// the engine shards are not. Recovery only reads, so restarting
        /// again must end in the same state.
        7 => MidRecovery,
        _ => "bad crash point",
    }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Wire;

    #[test]
    fn wire_tags_roundtrip() {
        for (tag, p) in CrashPoint::ALL.into_iter().enumerate() {
            assert_eq!(p.to_bytes(), [tag as u8], "ALL is in tag order");
            assert_eq!(CrashPoint::from_bytes(&[tag as u8]).unwrap(), p);
        }
        assert!(CrashPoint::from_bytes(&[9]).is_err());
    }
}
