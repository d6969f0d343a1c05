//! Simulation-world configuration.
//!
//! The world charges the paper's primitive costs (Tables 1–2,
//! `CostModel::rt_pc_mach`) whatever this says; the values here choose
//! the testbed and the experiment. The throughput testbed's CPU charges
//! and the jitter model are constants beside their one reader in
//! `world.rs`, switched on by `threads` and `jitter`.

use camelot_core::EngineConfig;
use camelot_types::Duration;
use camelot_wal::BatchPolicy;

/// Whole-world configuration.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of sites (ids 1..=sites).
    pub sites: u32,
    /// Data servers per site (ids 1..=servers_per_site). The paper's
    /// throughput experiments use one server per application pair so
    /// operation processing is never the bottleneck.
    pub servers_per_site: u32,
    /// Per-site transaction-manager engine configuration (protocol
    /// variant, piggybacking, timeouts).
    pub engine: EngineConfig,
    /// RNG seed.
    pub seed: u64,
    /// Use multicast for coordinator broadcasts (one send slot covers
    /// all destinations) instead of sequential unicast (each send
    /// pays the 1.7 ms cycle time).
    pub multicast: bool,
    /// OS-scheduling jitter on datagrams and remote operations: a
    /// smooth component that grows with the datagrams in flight plus
    /// occasional heavy-tailed spikes. Off, the network is fully
    /// deterministic and the world draws nothing for it.
    pub jitter: bool,
    /// TranMan thread-pool size; `None` = unbounded (latency
    /// experiments). `Some` is the throughput testbed: the pool is held
    /// across synchronous forces, the master CPU serializes local IPC,
    /// the logger charges CPU per record and the platter is the slow
    /// one behind "about 30 log writes per second".
    pub threads: Option<usize>,
    /// Mean of the exponential per-hop CPU overhead (process CPU time
    /// the paper's static analysis ignores — the reason "the addition
    /// of primitive latencies provides an underestimate of the
    /// measured time"). `ZERO` disables it.
    pub hop_overhead_mean: Duration,
    /// Group-commit policy (Immediate = group commit off).
    pub batch: BatchPolicy,
    /// Background flush period for lazily appended records (the
    /// delayed-commit optimization's commit records) when no forced
    /// write carries them sooner.
    pub lazy_flush: Duration,
}

impl WorldConfig {
    /// Configuration for the latency experiments (Figures 2–3):
    /// unbounded compute, jitter on, Table 2's 15 ms log force.
    pub fn latency(sites: u32, engine: EngineConfig, seed: u64) -> Self {
        WorldConfig {
            sites,
            servers_per_site: 1,
            engine,
            seed,
            multicast: false,
            jitter: true,
            threads: None,
            hop_overhead_mean: Duration::ZERO,
            batch: BatchPolicy::Coalesce,
            lazy_flush: Duration::from_millis(100),
        }
    }

    /// Configuration for the throughput experiments (Figures 4–5):
    /// one site, bounded thread pool, slow platter, CPU costs on,
    /// jitter off.
    pub fn throughput(
        threads: usize,
        group_commit: bool,
        servers_per_site: u32,
        seed: u64,
    ) -> Self {
        WorldConfig {
            servers_per_site,
            jitter: false,
            threads: Some(threads),
            batch: if group_commit {
                BatchPolicy::Coalesce
            } else {
                BatchPolicy::Immediate
            },
            ..Self::latency(1, EngineConfig::default(), seed)
        }
    }
}

/// Engine timeouts scaled for localhost runs: protocol recovery (vote
/// timeouts, inquiries, takeovers) in hundreds of milliseconds instead
/// of the paper-scale seconds, so a run that kills a site converges
/// quickly. `camelot-site --fast` and sockbench's in-process baseline
/// both call this, so the two sides of the sockets-vs-inproc
/// comparison cannot run different timer profiles.
pub fn fast_engine() -> EngineConfig {
    EngineConfig {
        vote_timeout: Duration::from_millis(800),
        inquiry_interval: Duration::from_millis(500),
        notify_resend_interval: Duration::from_millis(400),
        nb_outcome_timeout: Duration::from_millis(700),
        takeover_window: Duration::from_millis(300),
        recruit_window: Duration::from_millis(300),
        takeover_retry: Duration::from_millis(600),
        retry_cap: Duration::from_secs(5),
        orphan_check_interval: Duration::from_secs(1),
        ..EngineConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_config_is_unbounded_and_jittered() {
        let c = WorldConfig::latency(3, EngineConfig::default(), 1);
        assert!(c.threads.is_none());
        assert!(c.jitter);
        assert!(!c.multicast);
        assert_eq!(c.batch, BatchPolicy::Coalesce);
    }

    #[test]
    fn throughput_config_bounds_threads_and_turns_jitter_off() {
        let c = WorldConfig::throughput(5, true, 4, 1);
        assert_eq!(c.threads, Some(5));
        assert!(!c.jitter);
        let c2 = WorldConfig::throughput(1, false, 4, 1);
        assert_eq!(c2.servers_per_site, 4);
        assert_eq!(c2.batch, BatchPolicy::Immediate);
    }
}
