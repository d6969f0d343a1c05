//! The metric registry: every name the ladder prints, with its unit,
//! direction and (end to end) bound — and `BENCHMARK.json` rendered
//! from it, so the file and the program cannot drift apart (a test
//! holds the committed file against [`benchmark_json`]).

use crate::workload::WORKLOADS;

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system sees. `fail_ratio` is not here: it is 0
/// on a healthy run, and the contract wants metrics that never are; it
/// is `bench.fail_ratio` below and the `failed` count of every run.
///
/// Every bound is the largest the contract allows. Over three sets of
/// ten runs per gated workload the spreads (inter-quartile range over
/// median) came to at most 0.09 / 0.09 / 0.10 / 0.19 / 0.08 in the
/// order below (README, "Calibration"); a bound should be three times
/// the spread it has to tell a regression from, and between a busy
/// and a quiet half hour of this host the same figures have moved by
/// up to 0.22.
pub const END_TO_END: [EndToEnd; 5] = [
    // Begin, operations, commit: latency from the due time in the
    // fixed-rate phase, median. No higher percentile is here: the
    // host stalls the virtual CPU several hundred times a second for
    // 25-70 us, which hits one 40 us transaction in ten to twenty, so
    // p90 and p95 sit on the edge of that shoulder and move two- to
    // fivefold with the host's mood, and the upper quartile of the
    // contended workloads moved by 1.4 between a busy and a quiet half
    // hour whatever it was adjusted by. They are `bench.txn_p75_us`,
    // `bench.txn_p90_us` and `bench.txn_p95_us`.
    EndToEnd {
        name: "txn_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    // Commits per second with both drivers back to back (the paper's
    // Fig. 4/5 measure).
    EndToEnd {
        name: "sat_txn_per_s",
        unit: "txn/s",
        better: "higher",
        bound: 0.25,
    },
    // Process CPU (the ladder and, for `socket_2pc`, its site children)
    // over the fixed-rate phase per commit: fixed work, so it repeats
    // when wall-clock does not.
    EndToEnd {
        name: "cpu_us_per_txn",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    // Crash of site 1 to the first commit it serves again.
    EndToEnd {
        name: "recovery_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    // Construct or spawn the cluster, preload, first commit.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)` of every per-layer metric, `<crate>.<name>`.
pub const PER_LAYER: [(&str, &str, &str); 89] = [
    // core: ladder rows, then counts per commit (the paper's budgets).
    ("core.engine_local_commit_ns", "ns", "lower"),
    ("core.engine_readonly_commit_ns", "ns", "lower"),
    ("core.testkit_dist_2pc_ns", "ns", "lower"),
    ("core.testkit_dist_nb_ns", "ns", "lower"),
    ("core.forces_per_commit", "count", "lower"),
    ("core.lazy_appends_per_commit", "count", "lower"),
    ("core.datagrams_per_commit", "count", "lower"),
    ("core.piggybacked_per_commit", "count", "higher"),
    ("core.inputs_per_commit", "count", "lower"),
    // wal
    ("wal.append_ns", "ns", "lower"),
    ("wal.append_force_mem_ns", "ns", "lower"),
    ("wal.append_force_file_us", "us", "lower"),
    ("wal.batcher_cycle_ns", "ns", "lower"),
    ("wal.recover_us_per_krecord", "us", "lower"),
    ("wal.bytes_per_commit", "bytes", "lower"),
    ("wal.records_per_commit", "count", "lower"),
    ("wal.platter_writes_per_commit", "count", "lower"),
    ("wal.mean_batch", "count", "higher"),
    ("wal.max_batch", "count", "higher"),
    // locks
    ("locks.acquire_release_ns", "ns", "lower"),
    ("locks.shared_acquire_ns", "ns", "lower"),
    ("locks.waits_per_kcommit", "count", "lower"),
    ("locks.deadlocks_per_kcommit", "count", "lower"),
    // server
    ("server.read_ns", "ns", "lower"),
    ("server.write_ns", "ns", "lower"),
    ("server.commit_family_ns", "ns", "lower"),
    ("server.reads_per_commit", "count", "lower"),
    ("server.writes_per_commit", "count", "lower"),
    ("server.joins_per_commit", "count", "lower"),
    // rt: driver spans, the program's phase histograms, counts.
    ("rt.begin_call_p50_us", "us", "lower"),
    ("rt.op_call_p50_us", "us", "lower"),
    ("rt.commit_call_p50_us", "us", "lower"),
    ("rt.commit_call_p95_us", "us", "lower"),
    ("rt.commit_share_pct", "%", "lower"),
    ("rt.force_wait_p50_us", "us", "lower"),
    ("rt.platter_write_p50_us", "us", "lower"),
    ("rt.shard_lock_wait_p50_us", "us", "lower"),
    ("rt.queue_wait_p50_us", "us", "lower"),
    ("rt.queue_ops_per_commit", "count", "lower"),
    ("rt.queue_parked_per_kcommit", "count", "lower"),
    ("rt.queue_cascades_per_kcommit", "count", "lower"),
    ("rt.queue_vote_timeouts", "count", "lower"),
    ("rt.lost_updates", "count", "lower"),
    ("rt.restart_ms", "ms", "lower"),
    // net
    ("net.envelope_encode_ns", "ns", "lower"),
    ("net.envelope_decode_ns", "ns", "lower"),
    ("net.frame_encode_ns", "ns", "lower"),
    ("net.frame_decode_ns", "ns", "lower"),
    ("net.udp_rtt_us", "us", "lower"),
    ("net.tcp_rtt_us", "us", "lower"),
    ("net.sends_per_commit", "count", "lower"),
    ("net.send_failures", "count", "lower"),
    ("net.queue_drops", "count", "lower"),
    ("net.max_queue_depth", "count", "lower"),
    ("net.connects", "count", "lower"),
    // node
    ("node.site_spawn_ms", "ms", "lower"),
    ("node.ctrl_ping_us", "us", "lower"),
    ("node.ctrl_begin_us", "us", "lower"),
    ("node.des_commit_wall_us", "us", "lower"),
    // obs
    ("obs.hist_record_ns", "ns", "lower"),
    ("obs.trace_emit_ns", "ns", "lower"),
    ("obs.trace_overhead_p50_pct", "%", "lower"),
    ("obs.trace_overhead_cpu_pct", "%", "lower"),
    ("obs.trace_dropped", "count", "lower"),
    ("obs.hist_bucket_rel_err_pct", "%", "lower"),
    // scope: critical-path segments of the traced round.
    ("scope.platter_write_p50_us", "us", "lower"),
    ("scope.force_wait_p50_us", "us", "lower"),
    ("scope.prepare_wait_p50_us", "us", "lower"),
    ("scope.net_transit_p50_us", "us", "lower"),
    ("scope.coord_think_p50_us", "us", "lower"),
    ("scope.segment_sum_over_e2e", "ratio", "lower"),
    ("scope.attribute_us_per_family", "us", "lower"),
    // sim
    ("sim.sched_events_per_s", "1/s", "higher"),
    // bench: the instrument's own error.
    ("bench.gen_late_p50_us", "us", "lower"),
    ("bench.gen_late_p95_us", "us", "lower"),
    ("bench.txn_p75_us", "us", "lower"),
    ("bench.txn_p90_us", "us", "lower"),
    ("bench.txn_p95_us", "us", "lower"),
    ("bench.txn_p99_pooled_us", "us", "lower"),
    ("bench.txn_max_us", "us", "lower"),
    ("bench.round_spread_pct", "%", "lower"),
    ("bench.driver_span_ns", "ns", "lower"),
    ("bench.fail_ratio", "ratio", "lower"),
    ("bench.retries_per_ktxn", "count", "lower"),
    ("bench.commit_samples", "count", "higher"),
    ("bench.slowdown", "ratio", "lower"),
    ("bench.paced_slowdown", "ratio", "lower"),
    ("bench.raw_txn_p50_us", "us", "lower"),
    ("bench.raw_cpu_us_per_txn", "us", "lower"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or_else(|| panic!("metric {name} is not in the registry"))
}

/// How long one run measures, seconds, shared out over the
/// warm-up, fixed-rate and saturation phases of its rounds.
pub const RUN_SECONDS: u64 = 12;

/// `BENCHMARK.json`, exactly the keys the contract names.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"ladder/run.sh\"],\n");
    s.push_str("  \"paths\": [\"ladder\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |items: Vec<String>| items.join(",\n");
    s.push_str("  \"workloads\": [\n");
    s.push_str(&rows(
        WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    s.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    s.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|(name, unit, better)| {
                format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}"
                )
            })
            .collect(),
    ));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn registry_respects_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(name_ok(n), "{n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains(['\n', '"'])));
        assert!(PER_LAYER.len() <= 128 && WORKLOADS.len() <= 8);
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `camelot-ladder --emit-benchmark-json > BENCHMARK.json`"
        );
    }
}
