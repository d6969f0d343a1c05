//! What the rt test binaries share: waiting on the cluster's state
//! instead of on the clock.

use std::time::{Duration, Instant};

use camelot_rt::Cluster;

/// How long a cluster may take to go quiet before the wait fails.
const QUIET_WITHIN: Duration = Duration::from_secs(10);

/// Waits until every live site's `debug_state` is empty — no family
/// live in an engine or held by a queue shard, no family or lock held
/// by a server, no force waiting for a platter write — and fails with
/// the dumps of the sites still busy if that takes longer than
/// [`QUIET_WITHIN`]. Unlike a fixed sleep it returns as soon as the
/// cluster is quiet, and it asserts that the cluster gets there.
pub fn wait_quiet(cluster: &Cluster) {
    let sites: Vec<_> = cluster.stats().sites.iter().map(|s| s.site).collect();
    let deadline = Instant::now() + QUIET_WITHIN;
    loop {
        let busy: Vec<String> = sites
            .iter()
            .filter(|site| cluster.is_alive(**site))
            .map(|site| cluster.debug_state(*site))
            .filter(|dump| !dump.is_empty())
            .collect();
        if busy.is_empty() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "not quiet after {QUIET_WITHIN:?}: {}",
            busy.join(" | ")
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}
