//! The calibrated cost model: primitive latencies from the paper.
//!
//! The paper's §4 evaluates Camelot on IBM RT PC model 125 machines
//! (2 MIPS) running Mach 2.0 over a 4 Mb/s token ring. Table 1 gives
//! raw machine/kernel benchmarks and Table 2 gives the latencies of the
//! Camelot-level primitives that dominate transaction latency. Those
//! numbers are the *parameters* of our simulator: the simulated network,
//! IPC, disk and lock operations charge exactly these costs, so the
//! static-analysis formulas of the paper's Tables 3 and the measured
//! curves of Figures 2–5 can be regenerated.
//!
//! All values are encapsulated in [`CostModel`] so experiments can
//! perturb them (e.g. "what if RPC were 3x faster?" ablations).

use crate::time::Duration;

/// Primitive latencies charged by the simulator.
///
/// Defaults reproduce the paper's Tables 1 and 2 (IBM RT PC / Mach 2.0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    // ----- Table 2: Camelot primitives -----
    /// Local in-line IPC between two Camelot processes (1.5 ms).
    pub local_ipc: Duration,
    /// Local in-line IPC from application to data server (3 ms): the
    /// operation call path is heavier than plain IPC because arguments
    /// are marshalled and the server-side stub dispatches.
    pub local_ipc_to_server: Duration,
    /// Local out-of-line IPC (5.5 ms): message carrying an out-of-line
    /// data segment, transferred lazily across address spaces.
    pub local_ipc_out_of_line: Duration,
    /// Local one-way in-line message (1 ms).
    pub local_oneway_msg: Duration,
    /// Remote RPC through CornMan + NetMsgServer on both sides (29 ms).
    pub remote_rpc: Duration,
    /// Force of a log record to stable storage (15 ms).
    pub log_force: Duration,
    /// Inter-site datagram between transaction managers (10 ms).
    pub datagram: Duration,
    /// Acquire a lock, uncontended (0.5 ms).
    pub get_lock: Duration,
    /// Release a lock (0.5 ms).
    pub drop_lock: Duration,

    // ----- §4.2: sender-side behaviour -----
    /// Datagram send *cycle time*: a sender can start a new datagram
    /// only every 1.7 ms, so the k-th of a burst of sequential sends
    /// departs (k-1)*1.7 ms after the first. Multicast removes this
    /// serialization (one send reaches every subordinate).
    pub datagram_cycle: Duration,

    // ----- §4.1: RPC decomposition -----
    /// NetMsgServer-to-NetMsgServer portion of a remote RPC (19.1 ms).
    pub netmsg_rpc: Duration,
    /// CornMan CPU per RPC, per site (3.2 ms).
    pub comman_cpu: Duration,

    // ----- Table 1: raw machine/kernel benchmarks (for Table 1 only) -----
    /// Procedure call with 32-byte argument (12 us).
    pub proc_call: Duration,
    /// Fastest kernel call, `getpid()` (149 us).
    pub kernel_call: Duration,
    /// Context switch via `swtch()` (137 us).
    pub context_switch: Duration,
    /// Raw disk write of one track (26.8 ms).
    pub raw_disk_write_track: Duration,
    /// `bcopy()` fixed cost (8.4 us) — the per-KB slope is
    /// [`Self::bcopy_per_kb`].
    pub bcopy_base: Duration,
    /// `bcopy()` per-KB cost (180 us/KB).
    pub bcopy_per_kb: Duration,
    /// Copy data in/out of kernel, fixed part (35 us + copy time).
    pub kernel_copy_base: Duration,

    // ----- §3.5 / §4.4: the log device for throughput tests -----
    /// Rotational latency of the log disk used in the throughput tests.
    /// "a transaction facility cannot do more than about 30 log writes
    /// per second" when the log is a disk, so a platter write costs
    /// about 33 ms. (Table 2's 15 ms force is the latency-test value;
    /// the VAX throughput configuration saw the ~30/s ceiling.)
    pub log_platter_write: Duration,

    // ----- data access -----
    /// Read or write of an in-memory data item: "negligible" in Table 2;
    /// we charge zero and fold residual costs into CPU service times.
    pub data_access: Duration,
}

impl CostModel {
    /// The paper's configuration: IBM RT PC model 125, Mach 2.0,
    /// 4 Mb/s token ring (Tables 1 and 2).
    pub fn rt_pc_mach() -> Self {
        CostModel {
            local_ipc: Duration::from_millis_f64(1.5),
            local_ipc_to_server: Duration::from_millis(3),
            local_ipc_out_of_line: Duration::from_millis_f64(5.5),
            local_oneway_msg: Duration::from_millis(1),
            remote_rpc: Duration::from_millis(29),
            log_force: Duration::from_millis(15),
            datagram: Duration::from_millis(10),
            get_lock: Duration::from_millis_f64(0.5),
            drop_lock: Duration::from_millis_f64(0.5),
            datagram_cycle: Duration::from_millis_f64(1.7),
            netmsg_rpc: Duration::from_millis_f64(19.1),
            comman_cpu: Duration::from_millis_f64(3.2),
            proc_call: Duration::from_micros(12),
            kernel_call: Duration::from_micros(149),
            context_switch: Duration::from_micros(137),
            raw_disk_write_track: Duration::from_millis_f64(26.8),
            bcopy_base: Duration::from_micros(8),
            bcopy_per_kb: Duration::from_micros(180),
            kernel_copy_base: Duration::from_micros(35),
            log_platter_write: Duration::from_millis_f64(33.3),
            data_access: Duration::ZERO,
        }
    }

    /// Latency of one operation call from application to a *local*
    /// server, including locking and data access: the paper charges
    /// 3.5 ms (3 ms operation IPC + 0.5 ms locking and data access)
    /// when deriving transaction-management-only cost (§4.2).
    pub fn local_operation(&self) -> Duration {
        self.local_ipc_to_server + self.get_lock + self.data_access
    }

    /// Latency of one operation call to a *remote* server: 29.5 ms
    /// (28.5–29 ms RPC + 0.5 ms locking and data access) per §4.2.
    pub fn remote_operation(&self) -> Duration {
        self.remote_rpc + self.get_lock + self.data_access
    }

    /// `bcopy()` cost for `kb` kilobytes (Table 1 row "Data copy").
    pub fn bcopy(&self, kb: u64) -> Duration {
        self.bcopy_base + self.bcopy_per_kb * kb
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::rt_pc_mach()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_2() {
        let c = CostModel::rt_pc_mach();
        assert_eq!(c.local_ipc.as_millis_f64(), 1.5);
        assert_eq!(c.local_ipc_to_server.as_millis_f64(), 3.0);
        assert_eq!(c.local_ipc_out_of_line.as_millis_f64(), 5.5);
        assert_eq!(c.local_oneway_msg.as_millis_f64(), 1.0);
        assert_eq!(c.remote_rpc.as_millis_f64(), 29.0);
        assert_eq!(c.log_force.as_millis_f64(), 15.0);
        assert_eq!(c.datagram.as_millis_f64(), 10.0);
        assert_eq!(c.get_lock.as_millis_f64(), 0.5);
        assert_eq!(c.drop_lock.as_millis_f64(), 0.5);
    }

    #[test]
    fn defaults_match_table_1() {
        let c = CostModel::rt_pc_mach();
        assert_eq!(c.proc_call.as_micros(), 12);
        assert_eq!(c.kernel_call.as_micros(), 149);
        assert_eq!(c.context_switch.as_micros(), 137);
        assert_eq!(c.raw_disk_write_track.as_millis_f64(), 26.8);
    }

    #[test]
    fn operation_costs_match_section_4_2() {
        let c = CostModel::rt_pc_mach();
        // "The cost of a local operation is 3.5ms."
        assert_eq!(c.local_operation().as_millis_f64(), 3.5);
        // "The cost of each remote operation is 29.[5]ms."
        assert_eq!(c.remote_operation().as_millis_f64(), 29.5);
    }

    #[test]
    fn bcopy_slope() {
        let c = CostModel::rt_pc_mach();
        assert_eq!(c.bcopy(0).as_micros(), 8);
        assert_eq!(c.bcopy(10).as_micros(), 8 + 1_800);
    }
}
