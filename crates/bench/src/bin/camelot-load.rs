//! `camelot-load`: open-loop contention harness for the two execution
//! modes.
//!
//! A closed-loop bench (the simulator's `fig4`) self-throttles: each
//! client waits for its transaction before issuing the next, so past
//! the saturation knee the *offered* load silently drops and the
//! latency blow-up never shows. This harness drives the real-thread
//! runtime **open-loop**: transaction `i` of a run at rate λ is due at
//! `start + i/λ` no matter how the previous ones fared, keys come from
//! a seeded Zipfian distribution, and latency is measured from the
//! *scheduled* arrival — backlog in the harness counts against the
//! system, as it would for real users.
//!
//! For each execution mode ([`ExecMode::LockBased`] and
//! [`ExecMode::Queued`]) the harness sweeps a ladder of offered rates
//! and reports, per point: achieved commits/s, abort counts,
//! total-latency and commit-latency percentiles, and the
//! **commit-overhead %** — the share of a committed transaction's
//! life spent inside the commit call (the paper's §4.1 accounting,
//! applied per transaction). Results land in `BENCH_load_curves.json`
//! at the workspace root, stamped with the git SHA and a config hash.
//!
//! `camelot-load --help` lists the flags. `QUICK=1` shrinks the ladder
//! for CI.

use std::time::Duration as StdDuration;

use camelot_bench::driver::{point_json, rates_from_flags, run_point, Mix, Point};
use camelot_bench::quick;
use camelot_node::session::InProcSession;
use camelot_rt::{Cluster, ExecMode, Histogram, Phase, RtConfig};
use camelot_scope::stamp_json;
use camelot_types::flags::{Tool, Usage};

const SITES: u32 = 2;
const TM_THREADS: usize = 4;

#[derive(Debug, Clone)]
struct Args {
    modes: Vec<ExecMode>,
    rates: Vec<f64>,
    mix: Mix,
    out: Option<String>,
}

impl Args {
    /// Parses `argv` against the flag table; `q` picks the QUICK
    /// sweep's defaults over the full one's.
    fn parse(q: bool, argv: impl IntoIterator<Item = String>) -> Result<Args, Usage> {
        let (rates, duration) = match q {
            true => ("50,150", "1000"),
            false => ("100,200,400,800,1600", "4000"),
        };
        #[rustfmt::skip]
        let flags = [
            ("--mode", "queued|lock|both", "both", "execution modes to sweep"),
            ("--rates", "RATES", rates, "offered txn/s, comma-separated, one point each"),
            ("--theta", "THETA", "0.99", "Zipf skew of the key choice"),
            ("--keys", "N", "256", "keys per site"),
            ("--duration-ms", "MS", duration, "length of one point"),
            ("--read-pct", "N", "40", "share of read-only transactions"),
            ("--dist-pct", "N", "20", "share of distributed updates"),
            ("--nb-pct", "N", "10", "share of those committed non-blocking"),
            ("--seed", "N", "7", "seed of the generated workload"),
            ("--out", "PATH", "", "report file (else BENCH_load_curves.json at the root)"),
        ];
        Tool::new("camelot-load", &flags).parse(argv, |p| {
            Ok(Args {
                modes: match p.get("--mode") {
                    Some("queued") => vec![ExecMode::Queued],
                    Some("lock" | "lock_based") => vec![ExecMode::LockBased],
                    Some("both") => vec![ExecMode::LockBased, ExecMode::Queued],
                    other => return Err(format!("unknown --mode {other:?}")),
                },
                rates: rates_from_flags(p)?,
                mix: Mix::from_flags(p, SITES)?,
                out: p.get("--out").map(String::from),
            })
        })
    }

    /// Canonical config rendering, hashed into the stamp.
    fn config_text(&self) -> String {
        format!(
            "sites={SITES} tm_threads={TM_THREADS} {} rates={:?}",
            self.mix.config_text(),
            self.rates
        )
    }
}

/// One point plus the runtime counters only this bench reads.
struct LoadPoint {
    point: Point,
    lock_wait_ms: f64,
    /// This bench's own report fields, for [`point_json`].
    extras: String,
}

fn rt_config(mode: ExecMode) -> RtConfig {
    RtConfig {
        datagram_delay: StdDuration::from_micros(100),
        platter_delay: StdDuration::from_millis(2),
        lazy_flush: StdDuration::from_millis(10),
        tm_threads: TM_THREADS,
        call_timeout: StdDuration::from_secs(2),
        exec_mode: mode,
        data_shards: 4,
        queued_vote_timeout: StdDuration::from_millis(500),
        ..RtConfig::default()
    }
}

/// Per-protocol commit-latency percentiles from the run's protocol-
/// keyed phase histograms (one mixed workload, broken out by the
/// Tables 1–3 protocol actually run).
fn proto_json(cluster: &Cluster) -> String {
    let snap = cluster.stats().protocol_phases();
    let mut parts = Vec::new();
    for (proto, phases) in snap.non_empty() {
        let mut merged = Histogram::default();
        merged.merge(phases.get(Phase::Commit2pc));
        merged.merge(phases.get(Phase::CommitNb));
        if merged.is_empty() {
            continue;
        }
        parts.push(format!("\"{}\": {}", proto.name(), merged.summary_json()));
    }
    format!("{{{}}}", parts.join(", "))
}

/// One (mode, rate) point: a fresh cluster under the shared driver,
/// then a snapshot of its counters.
fn load_point(args: &Args, mode: ExecMode, rate: f64) -> LoadPoint {
    let cluster = Cluster::new(SITES, rt_config(mode));
    let workers = ((rate / 4.0) as usize).clamp(16, 128);
    let point = run_point(&args.mix, rate, workers, || {
        InProcSession::new(&cluster, SITES)
    });
    let stats = cluster.stats();
    let servers = stats.total_server_stats();
    let sum = |f: fn(&camelot_rt::SiteStats) -> u64| stats.sites.iter().map(f).sum::<u64>();
    let lock_wait_ms = stats.total_lock_wait().as_secs_f64() * 1e3;
    let extras = format!(
        "\"commit_overhead_pct\": {:.1}, \"lock_wait_ms\": {lock_wait_ms:.1}, \
         \"server_lock_waits\": {}, \"deadlocks\": {}, \"queue_ops\": {}, \
         \"queue_vote_timeouts\": {}, \"queue_cascades\": {}, \"queue_wait_p95_us\": {}, \
         \"protocol_phases\": {}",
        point.commit_overhead_pct,
        servers.lock_waits,
        servers.deadlocks,
        sum(|s| s.queue_ops),
        sum(|s| s.queue_vote_timeouts),
        sum(|s| s.queue_cascades),
        stats.phases().get(Phase::QueueWait).percentile(95.0),
        proto_json(&cluster),
    );
    cluster.shutdown();
    LoadPoint {
        point,
        lock_wait_ms,
        extras,
    }
}

fn main() {
    let args = Args::parse(quick(), std::env::args().skip(1)).unwrap_or_else(|u| u.exit());
    println!("camelot-load: open-loop, {}", args.mix);
    let mut mode_sections = Vec::new();
    let mut saturation: Vec<(ExecMode, f64)> = Vec::new();
    for &mode in &args.modes {
        println!("\n== mode: {} ==", mode.name());
        println!(
            "{:>9} {:>9} {:>8} {:>7} {:>10} {:>10} {:>10} {:>9}",
            "offered/s",
            "commits/s",
            "aborts",
            "errors",
            "p95_tot",
            "p95_cmt",
            "overhead%",
            "lockwait"
        );
        let mut points = Vec::new();
        for &rate in &args.rates {
            let p = load_point(&args, mode, rate);
            println!(
                "{:>9.0} {:>9.1} {:>8} {:>7} {:>8}us {:>8}us {:>9.1}% {:>7.1}ms",
                p.point.offered_per_sec,
                p.point.achieved_commits_per_sec,
                p.point.aborts,
                p.point.errors,
                p.point.total_lat.percentile(95.0),
                p.point.commit_lat.percentile(95.0),
                p.point.commit_overhead_pct,
                p.lock_wait_ms
            );
            points.push(p);
        }
        let sat = points
            .iter()
            .map(|p| p.point.achieved_commits_per_sec)
            .fold(0.0f64, f64::max);
        println!("saturation: {sat:.1} commits/s");
        saturation.push((mode, sat));
        let body = points
            .iter()
            .map(|p| point_json(&p.point, &p.extras))
            .collect::<Vec<_>>()
            .join(",\n");
        mode_sections.push(format!(
            "  {{\"mode\": \"{}\", \"saturation_commits_per_sec\": {:.1}, \"points\": [\n{}\n  ]}}",
            mode.name(),
            sat,
            body
        ));
    }

    // The headline ratio: queued vs lock-based saturation throughput.
    let sat_of = |m: ExecMode| {
        saturation
            .iter()
            .find(|(mode, _)| *mode == m)
            .map(|(_, s)| *s)
    };
    let ratio = match (sat_of(ExecMode::Queued), sat_of(ExecMode::LockBased)) {
        (Some(q), Some(l)) if l > 0.0 => {
            let r = q / l;
            println!("\nqueued/lock_based saturation ratio: {r:.2}x");
            Some(r)
        }
        _ => None,
    };

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"load_curves\",\n");
    json.push_str(&format!(
        "  \"stamp\": {},\n",
        stamp_json(&args.config_text())
    ));
    json.push_str(&format!(
        "  \"config\": {{\"sites\": {SITES}, \"tm_threads\": {TM_THREADS}, {}}},\n",
        args.mix.config_json()
    ));
    json.push_str("  \"modes\": [\n");
    json.push_str(&mode_sections.join(",\n"));
    json.push_str("\n  ],\n");
    let ratio = ratio.map_or("null".to_string(), |r| format!("{r:.2}"));
    json.push_str(&format!("  \"queued_over_lock_saturation\": {ratio}\n}}\n"));

    let out = args.out.clone().unwrap_or_else(|| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_load_curves.json")
            .to_string_lossy()
            .into_owned()
    });
    std::fs::write(&out, json).expect("write BENCH_load_curves.json");
    println!("wrote {out}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_scope::config_hash;

    /// The stamp of the committed `BENCH_load_curves.json`: if the
    /// config text drifts, the nightly knee gate has no comparable
    /// baseline — re-record it in the same change.
    #[test]
    fn full_config_hash_matches_the_committed_baseline() {
        let text = Args::parse(false, []).unwrap().config_text();
        assert_eq!(config_hash(&text), "2fafc5e734c3c83c", "{text}");
    }
}
