//! Engine configuration: protocol variants and timeouts.

use camelot_types::Duration;

/// Which commitment protocol to run for a top-level commit — "the type
/// of commitment protocol to execute (two-phase versus non-blocking)
/// is specified as an argument to the commit-transaction call" (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommitMode {
    TwoPhase,
    NonBlocking,
}

/// How the runtime executes data operations against server state.
///
/// The paper's lock-based path (and `BENCH_rt_scaling.json`) shows
/// that once group commit relieves the disk, the next scaling ceiling
/// is lock contention: under skewed access the hot object's exclusive
/// lock is held across the whole commitment protocol, so waiters
/// convoy behind it. The queue-oriented mode (after Qadah's
/// queue-oriented transaction-processing paradigm) removes the lock
/// table from the hot path entirely: operations are routed to
/// per-shard FIFO operation queues and executed by single-owner shard
/// workers against speculative state, with commit *ordering* enforced
/// by dependency tracking at phase one instead of by blocking at
/// operation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Moss-model two-phase locking in the data servers (the paper's
    /// own execution model): strict serializability, but hot locks
    /// are held across the commitment protocol.
    LockBased,
    /// Per-shard FIFO operation queues with single-owner workers: no
    /// lock-table acquisition or server-mutex serialization on the
    /// operation path. Conflicting transactions are ordered at commit
    /// time (write-write order per object, cascading aborts for
    /// readers of uncommitted versions); reads of committed state are
    /// read-committed with per-key repeatable reads.
    Queued,
}

impl ExecMode {
    /// Stable snake_case name (JSON keys, bench output).
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::LockBased => "lock_based",
            ExecMode::Queued => "queued",
        }
    }
}

/// Subordinate-side behaviour of two-phase commit — the three write
/// variants measured in §4.2 / Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TwoPhaseVariant {
    /// The §3.2 delayed-commit optimization: locks dropped on receipt
    /// of the commit notice, commit record written lazily (no force),
    /// commit-ack delayed until the record is durable and piggybacked
    /// on later traffic.
    Optimized,
    /// Commit record forced, but the ack still delayed/piggybacked —
    /// the §4.2 "dissection" of the optimization (variation 3).
    SemiOptimized,
    /// Completely unoptimized: commit record forced, locks dropped
    /// only after the force, ack sent immediately in its own datagram.
    Unoptimized,
}

/// Tunables of one transaction-manager engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Two-phase-commit subordinate variant.
    pub variant: TwoPhaseVariant,
    /// Upper bound on how long a queued piggybackable message waits
    /// for a carrier before being flushed in its own datagram.
    pub ack_flush_interval: Duration,
    /// Coordinator timeout collecting phase-one votes before deciding
    /// abort ("if some operation fails to respond, the site that
    /// invoked it should eventually initiate the abort protocol").
    pub vote_timeout: Duration,
    /// Prepared 2PC subordinate's interval between outcome inquiries
    /// to the coordinator.
    pub inquiry_interval: Duration,
    /// Interval at which a coordinator re-sends unacknowledged
    /// commit/outcome notices.
    pub notify_resend_interval: Duration,
    /// Non-blocking subordinate's patience for the outcome before it
    /// becomes a coordinator itself (change 2 of §3.3).
    pub nb_outcome_timeout: Duration,
    /// How long a takeover coordinator collects status replies before
    /// deciding what it can decide.
    pub takeover_window: Duration,
    /// How long a takeover coordinator waits for recruiting
    /// (replication or abort-join) acknowledgements.
    pub recruit_window: Duration,
    /// Pause before a blocked takeover retries from the top.
    pub takeover_retry: Duration,
    /// Ceiling on any backed-off retry interval.
    pub retry_cap: Duration,
    /// Watchdog interval for *orphaned* subordinate families: joined
    /// from a remote coordinator but never prepared. If the abort
    /// relay (or the whole coordinator) is lost before prepare, the
    /// watchdog inquires at the origin; presumed abort answers
    /// "aborted" for a forgotten family, releasing the orphan's locks.
    pub orphan_check_interval: Duration,
    /// **Fault-injection canary — never enable outside tests.** When
    /// set, the 2PC coordinator *appends* its commit record without
    /// forcing it and proceeds as if the commit point were durable.
    /// A coordinator crash before a later platter write then loses the
    /// commit record, recovery presumes abort, and subordinates that
    /// already committed disagree — a deliberate atomicity violation
    /// that the chaos checker (`camelot-chaos`) must detect. Exists
    /// solely to prove the checker is alive.
    pub unsafe_no_commit_force: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            variant: TwoPhaseVariant::Optimized,
            ack_flush_interval: Duration::from_millis(50),
            vote_timeout: Duration::from_secs(5),
            inquiry_interval: Duration::from_secs(10),
            notify_resend_interval: Duration::from_secs(5),
            nb_outcome_timeout: Duration::from_secs(3),
            takeover_window: Duration::from_millis(500),
            recruit_window: Duration::from_millis(500),
            takeover_retry: Duration::from_secs(2),
            retry_cap: Duration::from_secs(60),
            orphan_check_interval: Duration::from_secs(10),
            unsafe_no_commit_force: false,
        }
    }
}

impl EngineConfig {
    /// Configuration matching one Figure-2 protocol variation.
    pub fn for_variant(variant: TwoPhaseVariant) -> Self {
        EngineConfig {
            variant,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_optimized() {
        let c = EngineConfig::default();
        assert_eq!(c.variant, TwoPhaseVariant::Optimized);
    }

    #[test]
    fn for_variant_changes_the_variant_only() {
        // Whether acks piggyback follows from the variant
        // (`Engine::queue_ack`); the timers stay put.
        let c = EngineConfig::for_variant(TwoPhaseVariant::Unoptimized);
        assert_eq!(c.variant, TwoPhaseVariant::Unoptimized);
        let rest = EngineConfig {
            variant: TwoPhaseVariant::Optimized,
            ..c
        };
        assert_eq!(rest, EngineConfig::default());
    }
}
