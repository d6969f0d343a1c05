//! TranMan scaling on real threads (conclusion 3).
//!
//! Runs the real-thread runtime — not the simulator — with a
//! distributed-update workload and sweeps the TranMan worker count
//! against the group-commit policy. The paper's conclusion 3 predicts
//! the shape: with group commit **off** the disk is the bottleneck and
//! adding TranMan threads buys nothing (the curve is flat); with group
//! commit **on** the transaction manager is the bottleneck, so
//! throughput rises with the worker count — which it can only do
//! because the engine state is sharded rather than behind one lock.
//!
//! The modeled costs are paper-scale: a 5 ms platter write, a 100 µs
//! datagram, 700 µs of TranMan CPU per input (charged under the shard
//! lock). The sweep runs with the trace ring *enabled* — the bench
//! doubles as the overhead test for the tracing layer — and each run
//! reports per-phase latency percentiles (p50/p95/p99/max) off the
//! always-on phase histograms. After the sweep, a protocol-cost audit
//! phase runs one clean traced transaction per protocol configuration
//! and checks its primitive counts against the paper's budget; a
//! violation fails the bench (exit 1), which is what the CI smoke job
//! keys off. Run with `cargo bench --bench rt_scaling`; `QUICK=1`
//! shrinks the sweep for CI smoke runs. Results land in
//! `BENCH_rt_scaling.json` at the workspace root.

use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use camelot_bench::driver::protocol_audit;
use camelot_core::CommitMode;
use camelot_net::Outcome;
use camelot_rt::{BatchPolicy, Cluster, ExecMode, PhaseSnapshot, RtConfig};
use camelot_types::{Duration, ObjectId, ServerId, SiteId};

const SITES: u32 = 2;
const CLIENTS: usize = 16; // 8 homed per site
const SRV: ServerId = ServerId(1);

struct RunResult {
    policy: &'static str,
    tm_threads: usize,
    commits: u64,
    elapsed_s: f64,
    commits_per_sec: f64,
    platter_writes: u64,
    mean_batch: f64,
    lock_wait_ms: f64,
    server_lock_waits: u64,
    phases: PhaseSnapshot,
    trace_events: u64,
    trace_dropped: u64,
}

fn policy_of(name: &str) -> BatchPolicy {
    match name {
        "immediate" => BatchPolicy::Immediate,
        "coalesce" => BatchPolicy::Coalesce,
        "window" => BatchPolicy::Window(Duration::from_millis(2)),
        other => panic!("unknown policy {other}"),
    }
}

/// One configuration: `CLIENTS` application threads each running
/// `txns` distributed update transactions (write home + write remote,
/// two-phase commit) on distinct objects.
fn run(policy: &'static str, tm_threads: usize, txns: u64) -> RunResult {
    let cfg = RtConfig {
        datagram_delay: StdDuration::from_micros(100),
        platter_delay: StdDuration::from_millis(5),
        batch: policy_of(policy),
        lazy_flush: StdDuration::from_millis(10),
        tm_threads,
        tm_service_time: StdDuration::from_micros(700),
        // Tracing stays ON for the whole sweep: the throughput numbers
        // are the overhead test for the trace ring's hot path.
        trace: true,
        trace_capacity: 64 * 1024,
        ..RtConfig::default()
    };
    let cluster = Arc::new(Cluster::new(SITES, cfg));
    let start = Instant::now();
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let cluster = cluster.clone();
        handles.push(std::thread::spawn(move || {
            let home = SiteId((c as u32 % SITES) + 1);
            let remote = SiteId((c as u32 + 1) % SITES + 1);
            let client = cluster.client(home);
            let obj = ObjectId(100 + c as u64);
            for i in 0..txns {
                let ctx = |what: &str, e| format!("client {c} txn {i}: {what}: {e:?}");
                let tid = client
                    .begin()
                    .unwrap_or_else(|e| panic!("{}", ctx("begin", e)));
                let value = i.to_le_bytes().to_vec();
                client
                    .write(&tid, home, SRV, obj, value.clone())
                    .unwrap_or_else(|e| panic!("{}", ctx("home write", e)));
                client
                    .write(&tid, remote, SRV, obj, value)
                    .unwrap_or_else(|e| panic!("{}", ctx("remote write", e)));
                let out = client
                    .commit(&tid, CommitMode::TwoPhase)
                    .unwrap_or_else(|e| panic!("{}", ctx("commit", e)));
                assert_eq!(out, Outcome::Committed);
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = cluster.stats();
    let commits = CLIENTS as u64 * txns;
    let platter_writes = stats.total_platter_writes();
    let forces: u64 = stats.sites.iter().map(|s| s.forces_satisfied).sum();
    let lock_wait_ms = stats.total_lock_wait().as_secs_f64() * 1e3;
    let server_lock_waits = stats.total_server_stats().lock_waits;
    let trace_events = cluster.drain_trace().len() as u64;
    let trace_dropped = cluster.trace_dropped();
    let cluster = Arc::try_unwrap(cluster).ok().expect("sole owner");
    cluster.shutdown();
    RunResult {
        policy,
        tm_threads,
        commits,
        elapsed_s: elapsed,
        commits_per_sec: commits as f64 / elapsed,
        platter_writes,
        mean_batch: if platter_writes == 0 {
            0.0
        } else {
            forces as f64 / platter_writes as f64
        },
        lock_wait_ms,
        server_lock_waits,
        phases: stats.phases(),
        trace_events,
        trace_dropped,
    }
}

/// JSON object of every non-empty phase's latency summary in `s`.
fn phases_json(s: &PhaseSnapshot) -> String {
    let parts: Vec<String> = s
        .non_empty()
        .map(|(phase, h)| format!("\"{}\": {}", phase.name(), h.summary_json()))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

fn main() {
    let quick = camelot_bench::quick();
    let threads: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let txns: u64 = if quick { 6 } else { 25 };
    let policies = ["immediate", "coalesce", "window"];

    println!("TranMan scaling on real threads ({SITES} sites, {CLIENTS} clients, {txns} distributed update txns each)");
    println!(
        "{:<10} {:>8} {:>9} {:>11} {:>8} {:>7} {:>10}",
        "policy", "threads", "commits", "commits/s", "writes", "batch", "lockwait"
    );
    let mut results: Vec<RunResult> = Vec::new();
    for &policy in &policies {
        for &t in threads {
            let r = run(policy, t, txns);
            println!(
                "{:<10} {:>8} {:>9} {:>11.1} {:>8} {:>7.1} {:>8.1}ms",
                r.policy,
                r.tm_threads,
                r.commits,
                r.commits_per_sec,
                r.platter_writes,
                r.mean_batch,
                r.lock_wait_ms
            );
            results.push(r);
        }
    }

    // The paper-shape check: group commit off => flat in threads;
    // group commit on => scales with threads.
    let tput = |policy: &str, t: usize| {
        results
            .iter()
            .find(|r| r.policy == policy && r.tm_threads == t)
            .map(|r| r.commits_per_sec)
            .unwrap_or(0.0)
    };
    // Both sweeps include 1 and 4 threads, so the ratio is comparable
    // between the smoke run and the full run.
    let hi = 4;
    let mut ratios = Vec::new();
    for &policy in &policies {
        let ratio = tput(policy, hi) / tput(policy, 1);
        println!("{policy}: {hi}-thread/1-thread throughput ratio = {ratio:.2}");
        ratios.push((policy, ratio));
    }

    // Hand-rolled JSON (no serde in the workspace).
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"rt_scaling\",\n");
    let config_text = format!(
        "sites={SITES} clients={CLIENTS} txns={txns} threads={threads:?} \
         policies={policies:?} tm_service_us=700 platter_ms=5"
    );
    json.push_str(&format!(
        "  \"stamp\": {},\n",
        camelot_scope::stamp_json(&config_text)
    ));
    json.push_str(&format!(
        "  \"sites\": {SITES},\n  \"clients\": {CLIENTS},\n  \"txns_per_client\": {txns},\n"
    ));
    json.push_str("  \"tm_service_time_us\": 700,\n  \"platter_delay_ms\": 5,\n");
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"policy\": \"{}\", \"tm_threads\": {}, \"commits\": {}, \"elapsed_s\": {:.3}, \
             \"commits_per_sec\": {:.1}, \"platter_writes\": {}, \"mean_batch\": {:.2}, \
             \"lock_wait_ms\": {:.1}, \"server_lock_waits\": {}, \"trace_events\": {}, \
             \"trace_dropped\": {}, \"phases\": {}}}{}\n",
            r.policy,
            r.tm_threads,
            r.commits,
            r.elapsed_s,
            r.commits_per_sec,
            r.platter_writes,
            r.mean_batch,
            r.lock_wait_ms,
            r.server_lock_waits,
            r.trace_events,
            r.trace_dropped,
            phases_json(&r.phases),
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");

    // Per-policy contention summary (summed over the thread sweep):
    // `shard_lock_wait_ms` is time TranMan workers spent blocked on
    // engine-shard locks, `server_lock_waits` counts data-server lock
    // queue waits — the two layers where the lock-wait ceiling forms.
    println!("\nper-policy lock-wait summary (whole sweep):");
    json.push_str("  \"lock_wait_summary\": {");
    for (i, &policy) in policies.iter().enumerate() {
        let shard_ms: f64 = results
            .iter()
            .filter(|r| r.policy == policy)
            .map(|r| r.lock_wait_ms)
            .sum();
        let srv_waits: u64 = results
            .iter()
            .filter(|r| r.policy == policy)
            .map(|r| r.server_lock_waits)
            .sum();
        println!("  {policy}: shard_lock_wait={shard_ms:.1}ms server_lock_waits={srv_waits}");
        json.push_str(&format!(
            "\"{policy}\": {{\"shard_lock_wait_ms\": {shard_ms:.1}, \
             \"server_lock_waits\": {srv_waits}}}{}",
            if i + 1 == policies.len() { "" } else { ", " }
        ));
    }
    json.push_str("},\n");
    json.push_str(&format!("  \"ratio_threads\": {hi},\n"));
    json.push_str("  \"throughput_ratio_vs_1_thread\": {");
    for (i, (policy, ratio)) in ratios.iter().enumerate() {
        json.push_str(&format!(
            "\"{policy}\": {ratio:.2}{}",
            if i + 1 == ratios.len() { "" } else { ", " }
        ));
    }
    json.push_str("},\n");

    // Cluster-wide per-phase percentiles over the whole sweep (the
    // per-run snapshots merge associatively).
    let mut all_phases = PhaseSnapshot::default();
    for r in &results {
        all_phases.merge(&r.phases);
    }
    json.push_str(&format!(
        "  \"phases_overall\": {},\n",
        phases_json(&all_phases)
    ));
    println!("\nper-phase latency over the whole sweep (µs):");
    println!(
        "{:<16} {:>8} {:>9} {:>9} {:>9} {:>10}",
        "phase", "count", "p50", "p95", "p99", "max"
    );
    for (phase, h) in all_phases.non_empty() {
        println!(
            "{:<16} {:>8} {:>9} {:>9} {:>9} {:>10}",
            phase.name(),
            h.count(),
            h.percentile(50.0),
            h.percentile(95.0),
            h.percentile(99.0),
            h.max_us()
        );
    }

    // Protocol-cost audit: the paper's force/datagram budgets, checked
    // against a clean traced run of each configuration. A violation
    // fails the bench so CI smoke runs catch budget drift.
    println!("\nprotocol-cost audit (paper budgets, Tables 1-2):");
    let (audit_json, audit_ok) = protocol_audit(ExecMode::LockBased);
    json.push_str(&format!("  \"audit\": {audit_json}\n}}\n"));

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_rt_scaling.json");
    std::fs::write(&out, json).expect("write BENCH_rt_scaling.json");
    println!("wrote {}", out.display());
    if !audit_ok {
        eprintln!("protocol-cost audit failed: see violations above");
        std::process::exit(1);
    }
}
