//! Simulation-world configuration.

use camelot_core::EngineConfig;
use camelot_types::{CostModel, Duration};
use camelot_wal::BatchPolicy;

/// Network behaviour.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Use multicast for coordinator broadcasts (one send slot covers
    /// all destinations) instead of sequential unicast (each send
    /// pays the 1.7 ms cycle time).
    pub multicast: bool,
    /// Mean of the per-delivery exponential OS-scheduling jitter when
    /// the network is otherwise idle. `ZERO` disables jitter.
    pub jitter_base: Duration,
    /// Additional jitter mean per concurrently in-flight datagram —
    /// this is what makes variance grow with network load.
    pub jitter_per_inflight: Duration,
    /// Probability that a send hits a scheduling *spike* (page fault,
    /// preemption): the heavy tail behind the large standard
    /// deviations of the paper's Figures 2–3.
    pub spike_prob: f64,
    /// Spike magnitude, uniform in `[spike_lo, spike_hi]`.
    pub spike_lo: Duration,
    pub spike_hi: Duration,
    /// Escalation of the spike probability across a burst of
    /// sequential sends from one site: the k-th send of a burst has
    /// probability `spike_prob * (1 + k * spike_burst_escalation)`.
    /// This is the "variance created by the coordinator's repeated
    /// sends" (§4.2); a multicast is a single send and never
    /// escalates.
    pub spike_burst_escalation: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            multicast: false,
            jitter_base: Duration::from_millis_f64(0.7),
            jitter_per_inflight: Duration::from_millis_f64(0.3),
            spike_prob: 0.06,
            spike_lo: Duration::from_millis(15),
            spike_hi: Duration::from_millis(55),
            spike_burst_escalation: 1.0,
        }
    }
}

impl NetConfig {
    /// Fully deterministic network (unit tests, exact static checks).
    pub fn deterministic() -> Self {
        NetConfig {
            multicast: false,
            jitter_base: Duration::ZERO,
            jitter_per_inflight: Duration::ZERO,
            spike_prob: 0.0,
            spike_lo: Duration::ZERO,
            spike_hi: Duration::ZERO,
            spike_burst_escalation: 0.0,
        }
    }
}

/// Transaction-manager process model.
#[derive(Debug, Clone)]
pub struct TmConfig {
    /// Thread-pool size; `None` = unbounded (latency experiments).
    pub threads: Option<usize>,
    /// CPU service per transaction-manager message (throughput mode;
    /// the VAX 8200 testbed's per-message protocol-processing cost).
    pub cpu_per_msg: Duration,
    /// Kernel (master-CPU) service per local IPC hop. The Mach
    /// version of the throughput testbed "had only a single run queue
    /// on one master processor" (§4.5), so IPC serializes there; this
    /// is what caps read throughput when neither the TranMan thread
    /// pool nor the logger does. `ZERO` disables the model.
    pub kernel_per_hop: Duration,
    /// Mean of the exponential per-hop CPU overhead (process CPU time
    /// the paper's static analysis ignores — the reason "the addition
    /// of primitive latencies provides an underestimate of the
    /// measured time"). `ZERO` disables it.
    pub hop_overhead_mean: Duration,
}

impl Default for TmConfig {
    fn default() -> Self {
        TmConfig {
            threads: None,
            cpu_per_msg: Duration::ZERO,
            kernel_per_hop: Duration::ZERO,
            hop_overhead_mean: Duration::ZERO,
        }
    }
}

/// Disk-manager / log model.
#[derive(Debug, Clone)]
pub struct DiskConfig {
    /// Group-commit policy (Immediate = group commit off).
    pub policy: BatchPolicy,
    /// Duration of one platter write (a force). Latency experiments
    /// use Table 2's 15 ms; throughput experiments the ~33 ms value
    /// behind "about 30 log writes per second".
    pub platter: Duration,
    /// Background flush period for lazily appended records (the
    /// delayed-commit optimization's commit records) when no forced
    /// write carries them sooner.
    pub lazy_flush: Duration,
    /// Logger CPU consumed per platter write (throughput mode; the
    /// single-threaded disk manager is the update-test bottleneck).
    pub cpu_per_write: Duration,
    /// Logger CPU consumed per *record batch member*: receiving the
    /// out-of-line record transfer and processing it. Group commit
    /// shares the platter write but not this per-record work, which
    /// is what keeps its gain bounded (Figure 4).
    pub cpu_per_record: Duration,
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig {
            policy: BatchPolicy::Coalesce,
            platter: Duration::from_millis(15),
            lazy_flush: Duration::from_millis(100),
            cpu_per_write: Duration::ZERO,
            cpu_per_record: Duration::ZERO,
        }
    }
}

/// Whole-world configuration.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of sites (ids 1..=sites).
    pub sites: u32,
    /// Data servers per site (ids 1..=servers_per_site). The paper's
    /// throughput experiments use one server per application pair so
    /// operation processing is never the bottleneck.
    pub servers_per_site: u32,
    /// Primitive costs (defaults to the paper's Tables 1–2).
    pub costs: CostModel,
    pub net: NetConfig,
    pub tm: TmConfig,
    pub disk: DiskConfig,
    /// Per-site transaction-manager engine configuration (protocol
    /// variant, piggybacking, timeouts).
    pub engine: EngineConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            sites: 1,
            servers_per_site: 1,
            costs: CostModel::rt_pc_mach(),
            net: NetConfig::default(),
            tm: TmConfig::default(),
            disk: DiskConfig::default(),
            engine: EngineConfig::default(),
            seed: 1,
        }
    }
}

impl WorldConfig {
    /// Configuration for the latency experiments (Figures 2–3).
    pub fn latency(sites: u32, engine: EngineConfig, seed: u64) -> Self {
        WorldConfig {
            sites,
            engine,
            seed,
            ..Self::default()
        }
    }

    /// Configuration for the throughput experiments (Figures 4–5):
    /// one site, bounded thread pool, slow platter, CPU costs on.
    pub fn throughput(threads: usize, group_commit: bool, pairs: u32, seed: u64) -> Self {
        let costs = CostModel::rt_pc_mach();
        WorldConfig {
            sites: 1,
            servers_per_site: pairs,
            net: NetConfig::deterministic(),
            tm: TmConfig {
                threads: Some(threads),
                cpu_per_msg: Duration::from_millis(9),
                kernel_per_hop: Duration::from_millis_f64(3.3),
                hop_overhead_mean: Duration::ZERO,
            },
            disk: DiskConfig {
                policy: if group_commit {
                    camelot_wal::BatchPolicy::Coalesce
                } else {
                    camelot_wal::BatchPolicy::Immediate
                },
                platter: costs.log_platter_write,
                lazy_flush: Duration::from_millis(100),
                cpu_per_write: Duration::ZERO,
                cpu_per_record: Duration::from_millis(70),
            },
            engine: EngineConfig::default(),
            costs,
            seed,
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
    fn defaults_are_latency_oriented() {
        let c = WorldConfig::default();
        assert!(c.tm.threads.is_none());
        assert_eq!(c.disk.platter, Duration::from_millis(15));
        assert!(!c.net.multicast);
    }

    #[test]
    fn throughput_config_bounds_threads_and_slows_platter() {
        let c = WorldConfig::throughput(5, true, 4, 1);
        assert_eq!(c.tm.threads, Some(5));
        assert!(c.disk.platter > Duration::from_millis(30));
        assert_eq!(c.net.jitter_base, Duration::ZERO);
        let c2 = WorldConfig::throughput(1, false, 4, 1);
        assert_eq!(c2.servers_per_site, 4);
        assert_eq!(c2.disk.policy, camelot_wal::BatchPolicy::Immediate);
    }
}
