//! Contention and throughput counters for the real-thread runtime.
//!
//! The paper's performance analysis leans on exactly this kind of
//! instrumentation: where the milliseconds go (§4.1), how large the
//! group-commit batches get (§3.5), and whether the transaction
//! manager or the disk is the bottleneck (conclusion 3). The runtime
//! keeps cheap relaxed atomics on the hot paths and
//! [`Cluster::stats`](crate::Cluster::stats) assembles them — together
//! with the per-shard engine counters and the WAL counters — into one
//! [`ClusterStats`] snapshot.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration as StdDuration;

use camelot_core::EngineStats;
use camelot_obs::{PhaseSnapshot, ProtocolPhaseSnapshot};
use camelot_server::ServerStats;
use camelot_types::SiteId;
use camelot_wal::WalStats;

/// Hot-path counters, one set per site. All updates are relaxed: the
/// values are diagnostics, not synchronization.
#[derive(Default)]
pub(crate) struct SiteCounters {
    /// Nanoseconds workers spent waiting to acquire an engine shard.
    pub lock_wait_ns: AtomicU64,
    /// Inputs the engine shards handled, on whichever thread.
    pub inputs: AtomicU64,
    /// Inputs that crossed `tm_tx` to the worker pool: one thread
    /// hand-off each (datagrams, timer firings, log completions).
    pub worker_inputs: AtomicU64,
    /// Records appended to the WAL (all sources).
    pub appends: AtomicU64,
    /// Platter writes performed, by a leading application thread or
    /// the disk thread.
    pub platter_writes: AtomicU64,
    /// Force requests satisfied by the batcher.
    pub forces_satisfied: AtomicU64,
    /// Largest number of force requests one platter write satisfied.
    pub max_batch: AtomicU64,
    /// Lazy (no-force) appends whose durability notice was delivered.
    pub lazy_drained: AtomicU64,
    /// Checkpoints completed (durable, log truncated below them).
    pub checkpoints: AtomicU64,
    /// Log bytes discarded by truncation.
    pub wal_truncated_bytes: AtomicU64,
    /// Gauge: snapshot bytes the last completed checkpoint wrote.
    pub snapshot_bytes: AtomicU64,
    /// Gauge: how long the last restart took, in microseconds.
    pub last_restart_us: AtomicU64,
    /// Operations executed by queue-shard workers (queued mode).
    pub queue_ops: AtomicU64,
    /// Prepare markers parked waiting on commit-order dependencies.
    pub queue_parked: AtomicU64,
    /// Parked votes that hit the queued vote timeout and voted No.
    pub queue_vote_timeouts: AtomicU64,
    /// Families doomed by a cascading abort of a dirty-read source.
    pub queue_cascades: AtomicU64,
}

impl SiteCounters {
    pub fn note_batch(&self, satisfied: u64) {
        self.forces_satisfied.fetch_add(satisfied, Relaxed);
        self.max_batch.fetch_max(satisfied, Relaxed);
    }
}

/// A point-in-time snapshot of one site's counters.
#[derive(Debug, Clone)]
pub struct SiteStats {
    pub site: SiteId,
    /// Protocol counters, summed over the engine shards.
    pub engine: EngineStats,
    /// Families currently live across all shards.
    pub live_families: usize,
    /// WAL append/force counters.
    pub wal: WalStats,
    /// Total time workers spent blocked on engine-shard locks.
    pub lock_wait: StdDuration,
    /// Inputs the engine shards handled, on whichever thread.
    pub inputs: u64,
    /// Inputs that crossed to the worker pool — the hand-off budget:
    /// application calls, local server votes and the `LogForced` of a
    /// force its caller led run on the thread that produced them, so
    /// only datagrams, timer firings and other log completions count
    /// here.
    pub worker_inputs: u64,
    /// Platter writes performed, by a leading application thread or
    /// the disk thread.
    pub platter_writes: u64,
    /// Force requests satisfied by the batcher.
    pub forces_satisfied: u64,
    /// Largest number of force requests one platter write satisfied.
    pub max_batch: u64,
    /// Lazy appends whose durability notice was delivered.
    pub lazy_drained: u64,
    /// Checkpoints completed: durable, and the log truncated below
    /// them.
    pub checkpoints: u64,
    /// Log bytes discarded by truncation since startup.
    pub wal_truncated_bytes: u64,
    /// Gauge: log bytes a restart would scan right now (base to end).
    pub wal_live_bytes: u64,
    /// Gauge: snapshot bytes the last completed checkpoint wrote — the
    /// other term of the checkpoint trigger, and of the bound on
    /// `wal_live_bytes`.
    pub snapshot_bytes: u64,
    /// Gauge: how long the last [`Cluster::restart`](crate::Cluster::restart)
    /// took (zero before the first); its phases are the `recover_*`
    /// histograms in `phases`.
    pub last_restart: StdDuration,
    /// Operations executed by queue-shard workers (queued mode).
    pub queue_ops: u64,
    /// Prepare markers parked waiting on commit-order dependencies.
    pub queue_parked: u64,
    /// Parked votes that hit the queued vote timeout and voted No.
    pub queue_vote_timeouts: u64,
    /// Families doomed by a cascading abort of a dirty-read source.
    pub queue_cascades: u64,
    /// Data-server counters summed over the site's servers (lock
    /// waits, deadlocks, reads/writes) — the per-policy contention
    /// picture the README results table reports.
    pub servers: ServerStats,
    /// Per-phase latency histograms (client calls, force waits,
    /// platter writes, shard-lock waits) — the §4.1 latency breakdown.
    pub phases: PhaseSnapshot,
    /// The same phase histograms keyed by the commit protocol the
    /// transaction actually ran, so one mixed workload yields
    /// per-protocol p50/p95/p99.
    pub proto_phases: ProtocolPhaseSnapshot,
    /// Trace events this site's ring accepted since startup.
    pub trace_emitted: u64,
    /// Trace events overwritten before being drained. Nonzero drops
    /// invalidate force/datagram audits (the auditor may be counting
    /// a truncated timeline), so bench output and the soak harness
    /// surface this.
    pub trace_dropped: u64,
}

impl SiteStats {
    /// Mean force requests satisfied per platter write — the paper's
    /// group-commit batching factor.
    pub fn mean_batch(&self) -> f64 {
        if self.platter_writes == 0 {
            0.0
        } else {
            self.forces_satisfied as f64 / self.platter_writes as f64
        }
    }
}

/// A point-in-time snapshot of the whole cluster.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    pub sites: Vec<SiteStats>,
    /// Deliveries the router holds right now: live (uncancelled,
    /// unfired) timers plus datagrams in flight. A gauge, not a
    /// counter; it returns to the number of armed timers at rest.
    pub router_pending: u64,
    /// Entries the router *thread* handed to a site since startup:
    /// timers that fired, datagrams that had to wait out a delay. What
    /// is due when it is posted never passes through that thread, so
    /// each of these is one more thread hand-off than `worker_inputs`
    /// counts.
    pub router_delivered: u64,
}

impl ClusterStats {
    /// Commits resolved cluster-wide (coordinator side).
    pub fn total_commits(&self) -> u64 {
        self.sites.iter().map(|s| s.engine.commits).sum()
    }

    /// Platter writes cluster-wide.
    pub fn total_platter_writes(&self) -> u64 {
        self.sites.iter().map(|s| s.platter_writes).sum()
    }

    /// Total worker lock-wait across sites.
    pub fn total_lock_wait(&self) -> StdDuration {
        self.sites.iter().map(|s| s.lock_wait).sum()
    }

    /// Cluster-wide per-phase latency histograms: the element-wise
    /// merge of every site's snapshot (merge is associative and
    /// commutative, so the order of sites does not matter).
    pub fn phases(&self) -> PhaseSnapshot {
        let mut acc = PhaseSnapshot::default();
        for s in &self.sites {
            acc.merge(&s.phases);
        }
        acc
    }

    /// Cluster-wide protocol-keyed phase histograms (element-wise
    /// merge of every site's snapshot).
    pub fn protocol_phases(&self) -> ProtocolPhaseSnapshot {
        let mut acc = ProtocolPhaseSnapshot::default();
        for s in &self.sites {
            acc.merge(&s.proto_phases);
        }
        acc
    }

    /// Trace events dropped cluster-wide (ring overwrites before
    /// drain). Anything nonzero means per-family timelines may be
    /// truncated.
    pub fn total_trace_dropped(&self) -> u64 {
        self.sites.iter().map(|s| s.trace_dropped).sum()
    }

    /// Data-server counters summed cluster-wide.
    pub fn total_server_stats(&self) -> ServerStats {
        let mut acc = ServerStats::default();
        for s in &self.sites {
            add_server_stats(&mut acc, s.servers);
        }
        acc
    }
}

/// Field-wise sum of two engine-shard counter sets.
pub(crate) fn add_engine_stats(acc: &mut EngineStats, s: EngineStats) {
    acc.begins += s.begins;
    acc.nested_begins += s.nested_begins;
    acc.commits += s.commits;
    acc.read_only_commits += s.read_only_commits;
    acc.aborts += s.aborts;
    acc.forces += s.forces;
    acc.lazy_appends += s.lazy_appends;
    acc.datagrams += s.datagrams;
    acc.piggybacked += s.piggybacked;
    acc.takeovers += s.takeovers;
    acc.blocked += s.blocked;
}

/// Field-wise sum of two data-server counter sets.
pub(crate) fn add_server_stats(acc: &mut ServerStats, s: ServerStats) {
    acc.reads += s.reads;
    acc.writes += s.writes;
    acc.lock_waits += s.lock_waits;
    acc.joins += s.joins;
    acc.deadlocks += s.deadlocks;
}
