//! Static (non-empirical) analysis of commitment protocols.
//!
//! "Commitment protocols are amenable to static analysis because
//! serial and parallel portions are clearly separated. [...] the
//! length of the critical path is simply that of the serial portion
//! plus the time of the slowest of each group of parallel operations"
//! (§4.2). These formulas, stated in the paper's primitives, predict
//! the latencies that Figures 2–3 measure; the paper's own instances
//! are 24.5 ms (local update), 9.5 ms (local read), 99.5 ms
//! (1-subordinate update), 150 ms (1-subordinate non-blocking update)
//! and 70 ms (1-subordinate non-blocking read).

use camelot_types::{CostModel, Duration};

/// One term of a static-analysis formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathItem {
    pub label: &'static str,
    pub cost: Duration,
}

/// A static critical-path (or completion-path) estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticPath {
    pub items: Vec<PathItem>,
}

impl StaticPath {
    pub fn total(&self) -> Duration {
        self.items.iter().map(|i| i.cost).sum()
    }

    pub fn total_ms(&self) -> f64 {
        self.total().as_millis_f64()
    }
}

fn item(label: &'static str, cost: Duration) -> PathItem {
    PathItem { label, cost }
}

/// Local (0-subordinate) update transaction: begin + operation +
/// commit call + server vote round + commit-record force = 24.5 ms.
pub fn local_update(c: &CostModel) -> StaticPath {
    StaticPath {
        items: vec![
            item("begin-transaction call", c.local_ipc),
            item("operation (IPC + lock + access)", c.local_operation()),
            item("commit-transaction call", c.local_ipc),
            item("server vote round", c.local_ipc_to_server),
            item("force commit record", c.log_force),
        ],
    }
}

/// Local read transaction: the update path minus the force = 9.5 ms.
pub fn local_read(c: &CostModel) -> StaticPath {
    StaticPath {
        items: vec![
            item("begin-transaction call", c.local_ipc),
            item("operation (IPC + lock + access)", c.local_operation()),
            item("commit-transaction call", c.local_ipc),
            item("server vote round", c.local_ipc_to_server),
        ],
    }
}

/// Two-phase commit, `n >= 1` subordinates, update: the local path
/// plus the serial remote operations plus one (parallel-assumed)
/// prepare/vote/commit exchange = 70.5 + 29.5·n ms (99.5+½ at n = 1,
/// the paper's 99.5 with its 29 ms operation rounding).
pub fn twophase_update(c: &CostModel, n: u32) -> StaticPath {
    assert!(n >= 1);
    let mut items = local_update(c).items;
    items.push(item(
        "remote operations (serial)",
        c.remote_operation() * n as u64,
    ));
    items.push(item("prepare datagram", c.datagram));
    items.push(item("subordinate prepare force", c.log_force));
    items.push(item("vote datagram", c.datagram));
    items.push(item("commit datagram", c.datagram));
    items.push(item("drop locks (both sites)", c.drop_lock * 2));
    StaticPath { items }
}

/// Non-blocking commit, update, completion path: 4 log forces,
/// 4 datagrams, the remote operations, and ~20 ms of local
/// transaction-management messages (the paper's §4.3 accounting,
/// 149–150 ms at n = 1).
pub fn nonblocking_update(c: &CostModel, n: u32) -> StaticPath {
    assert!(n >= 1);
    StaticPath {
        items: vec![
            item("local TM messages", Duration::from_millis(20)),
            item(
                "remote operations (serial)",
                c.remote_operation() * n as u64,
            ),
            item("coordinator begin force", c.log_force),
            item("prepare datagram", c.datagram),
            item("subordinate prepare force", c.log_force),
            item("vote datagram", c.datagram),
            item("replicate datagram", c.datagram),
            item("subordinate replicate force", c.log_force),
            item("replicate-ack datagram", c.datagram),
            item("coordinator commit force", c.log_force),
        ],
    }
}

/// Non-blocking commit, read-only, completion path: two datagrams,
/// the remote operations, 20 ms local messages (70 ms at n = 1).
pub fn nonblocking_read(c: &CostModel, n: u32) -> StaticPath {
    assert!(n >= 1);
    StaticPath {
        items: vec![
            item("local TM messages", Duration::from_millis(20)),
            item(
                "remote operations (serial)",
                c.remote_operation() * n as u64,
            ),
            item("prepare datagram", c.datagram),
            item("vote datagram", c.datagram),
        ],
    }
}

/// The paper's headline primitive counts on the critical path.
pub fn critical_path_counts(nonblocking: bool) -> (u32, u32) {
    if nonblocking {
        (4, 5) // log forces, datagrams
    } else {
        (2, 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c() -> CostModel {
        CostModel::rt_pc_mach()
    }

    #[test]
    fn local_update_is_24_5() {
        assert_eq!(local_update(&c()).total_ms(), 24.5);
    }

    #[test]
    fn local_read_is_9_5() {
        assert_eq!(local_read(&c()).total_ms(), 9.5);
    }

    #[test]
    fn one_sub_update_matches_paper_99_5() {
        // The paper uses 29 ms for the remote operation where our
        // model carries the 0.5 ms lock: 99.5 + 0.5.
        let total = twophase_update(&c(), 1).total_ms();
        assert_eq!(total, 100.0);
        assert!((total - 99.5).abs() <= 0.5);
    }

    #[test]
    fn one_sub_nonblocking_update_matches_paper_150() {
        let total = nonblocking_update(&c(), 1).total_ms();
        assert_eq!(total, 149.5);
        assert!((total - 150.0).abs() <= 0.5);
    }

    #[test]
    fn one_sub_nonblocking_read_matches_paper_70() {
        let total = nonblocking_read(&c(), 1).total_ms();
        assert_eq!(total, 69.5);
        assert!((total - 70.0).abs() <= 0.5);
    }

    #[test]
    fn paths_scale_linearly_with_subordinates() {
        let d = twophase_update(&c(), 2).total_ms() - twophase_update(&c(), 1).total_ms();
        assert_eq!(d, 29.5, "each extra subordinate adds one serial operation");
    }

    #[test]
    fn critical_path_ratio_is_two_to_one_ish() {
        let (f2, m2) = critical_path_counts(false);
        let (f3, m3) = critical_path_counts(true);
        assert_eq!((f2, m2), (2, 3));
        assert_eq!((f3, m3), (4, 5));
    }

    #[test]
    fn nonblocking_forces_cost_double() {
        let nb = nonblocking_update(&c(), 1);
        let forces: Duration = nb
            .items
            .iter()
            .filter(|i| i.label.contains("force"))
            .map(|i| i.cost)
            .sum();
        assert_eq!(forces, Duration::from_millis(60), "4 forces x 15 ms");
    }
}
