//! `camelot-sockbench`: the same open-loop offered-rate ladder as
//! `camelot-load`, driven against three deployments of the same
//! protocol stack:
//!
//! - **inproc** — the in-process real-thread runtime (`camelot-rt`
//!   `Cluster`), where inter-site datagrams are channel handoffs;
//! - **udp** — a localhost cluster of `camelot-site` OS processes
//!   moving datagrams over kernel UDP sockets, one datagram per
//!   envelope, a lost one recovered by the engine's timers;
//! - **tcp** — the same cluster over framed TCP streams.
//!
//! Every transport sees the *same* seeded workload from the same
//! driver (`camelot_bench::driver`, shared with `camelot-load`), paced
//! open-loop so backlog counts against the system, and reports saturation
//! throughput plus p50/p95/p99 total and commit latency per offered
//! rate. The gap between inproc and the socket rows is the paper's
//! conclusion-5 quantity made concrete for this codebase: the
//! serialization + syscall + kernel-buffering tax of real transports
//! (plus, for the socket rows, the control-plane round trips the
//! multi-process deployment needs to drive operations at all —
//! `commit_latency` is the cleaner cross-deployment comparison since
//! it brackets exactly one control round trip around the distributed
//! commit).
//!
//! Socket rows also snapshot each site's `TransportStats` (sends,
//! send failures, reconnects, queue drops/depths), so a ladder that
//! saturates shows *where* it saturated.
//!
//! Results land in `BENCH_socket.json`, stamped with git SHA + config
//! hash. `QUICK=1` shrinks everything for CI smoke. The
//! `camelot-site` binary is found next to this one (override with
//! `CAMELOT_SITE_BIN`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use camelot_bench::driver::{point_json, rates_from_flags, run_point, Mix, Point};
use camelot_bench::quick;
use camelot_net::TransportStats;
use camelot_node::config::fast_engine;
use camelot_node::procs::{sibling_site_bin, Supervisor, SupervisorConfig};
use camelot_node::session::{CtrlSession, InProcSession};
use camelot_rt::{Cluster, RtConfig};
use camelot_scope::{
    attribute, merge_skew_aware, parse_jsonl, stamp_json, Collector, ScrapeTarget,
};
use camelot_types::flags::{Tool, Usage};
use camelot_types::SiteId;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transport {
    Inproc,
    Udp,
    Tcp,
}

impl Transport {
    fn name(self) -> &'static str {
        match self {
            Transport::Inproc => "inproc",
            Transport::Udp => "udp",
            Transport::Tcp => "tcp",
        }
    }
}

/// The sweep: the in-process baseline, then each socket transport.
const TRANSPORTS: [Transport; 3] = [Transport::Inproc, Transport::Udp, Transport::Tcp];

#[derive(Debug, Clone)]
struct Args {
    rates: Vec<f64>,
    mix: Mix,
    out: Option<String>,
}

impl Args {
    /// Parses `argv` against the flag table; `q` picks the QUICK
    /// sweep's defaults over the full one's.
    fn parse(q: bool, argv: impl IntoIterator<Item = String>) -> Result<Args, Usage> {
        let (sites, rates, duration) = match q {
            true => ("2", "30,60", "800"),
            false => ("3", "100,200,400,600,800", "3000"),
        };
        #[rustfmt::skip]
        let flags = [
            ("--sites", "N", sites, "sites per deployment, at least 2"),
            ("--rates", "RATES", rates, "offered txn/s, comma-separated, one point each"),
            ("--theta", "THETA", "0.99", "Zipf skew of the key choice"),
            ("--keys", "N", "64", "keys per site"),
            ("--duration-ms", "MS", duration, "length of one point"),
            ("--read-pct", "N", "40", "share of read-only transactions"),
            ("--dist-pct", "N", "20", "share of distributed updates"),
            ("--nb-pct", "N", "10", "share of those committed non-blocking"),
            ("--seed", "N", "7", "seed of the generated workload"),
            ("--out", "PATH", "", "report file (else BENCH_socket.json at the root)"),
        ];
        Tool::new("camelot-sockbench", &flags).parse(argv, |p| {
            let args = Args {
                rates: rates_from_flags(p)?,
                mix: Mix::from_flags(p, p.int("--sites")?)?,
                out: p.get("--out").map(String::from),
            };
            if args.mix.sites < 2 {
                return Err("need at least 2 sites".into());
            }
            Ok(args)
        })
    }

    /// Canonical config rendering, hashed into the stamp. The sweep is
    /// fixed but stays in the text: the committed baselines' hashes
    /// cover it.
    fn config_text(&self) -> String {
        format!(
            "sites={} {} rates={:?} transports={:?}",
            self.mix.sites,
            self.mix.config_text(),
            self.rates,
            TRANSPORTS
        )
    }
}

/// One point plus what only the socket transports can report.
struct SockPoint {
    point: Point,
    /// Scrape snapshots taken on a cadence during the point —
    /// appended to the `*_scrape.jsonl` next to the report.
    scrape: Option<String>,
    /// This bench's own report fields, for [`point_json`]: summed
    /// per-site transport counters, and the critical-path
    /// decomposition of the point's committed families from the merged
    /// cluster trace (`"scope"`).
    extras: String,
}

/// Inproc runtime config: identical engine/WAL/server shape to the
/// site processes (`camelot-site --fast` runs the same
/// [`fast_engine`]), but datagrams cost nothing beyond the channel
/// handoff — that zero is exactly the baseline the socket rows are
/// measured against.
fn inproc_config() -> RtConfig {
    RtConfig {
        datagram_delay: StdDuration::ZERO,
        call_timeout: StdDuration::from_secs(2),
        trace: true,
        engine: fast_engine(),
        ..RtConfig::default()
    }
}

fn worker_count(rate: f64) -> usize {
    ((rate / 4.0) as usize).clamp(8, 64)
}

/// One point against the in-process runtime.
fn run_point_inproc(args: &Args, rate: f64) -> SockPoint {
    let cluster = Cluster::new(args.mix.sites, inproc_config());
    let point = run_point(&args.mix, rate, worker_count(rate), || {
        InProcSession::new(&cluster, args.mix.sites)
    });
    cluster.shutdown();
    SockPoint {
        point,
        scrape: None,
        extras: "\"transport\": null, \"scope\": null".to_string(),
    }
}

/// One point against a freshly spawned cluster of site processes.
fn run_point_sockets(args: &Args, transport: Transport, rate: f64) -> SockPoint {
    let bin = sibling_site_bin().unwrap_or_else(|e| {
        eprintln!("camelot-sockbench: {e}");
        std::process::exit(1);
    });
    // No log directory: every site keeps its WAL in memory, as the
    // committed baselines were measured.
    let mut cfg = SupervisorConfig::new(bin, args.mix.sites, transport.name(), None);
    cfg.extra = vec![
        "--call-timeout-ms".to_string(),
        "2000".to_string(),
        // Big enough that a whole point's trace survives un-drained;
        // the post-point drain feeds the latency attribution.
        "--trace-capacity".to_string(),
        "262144".to_string(),
    ];
    let mut sup = Supervisor::start(cfg).unwrap_or_else(|e| {
        eprintln!("camelot-sockbench: start cluster: {e}");
        std::process::exit(1);
    });
    let board = sup.board();

    // Scrape the cluster on a cadence for the whole point; the series
    // lands next to BENCH_socket.json so a ladder knee can be read
    // against queue depths and phase histograms, not just end counts.
    let targets = ScrapeTarget::from_board(&board, args.mix.sites);
    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scrape_handle = {
        let stop = Arc::clone(&scrape_stop);
        std::thread::spawn(move || {
            let mut collector = Collector::new();
            let mut series = String::new();
            loop {
                let snap = collector.scrape(&targets);
                series.push_str(&snap.to_json());
                series.push('\n');
                if stop.load(Ordering::Acquire) {
                    return series;
                }
                std::thread::sleep(StdDuration::from_millis(250));
            }
        })
    };

    // Each worker holds its own control connection to every site: the
    // control plane itself must not serialize the ladder.
    let point = run_point(&args.mix, rate, worker_count(rate), || {
        CtrlSession::new(board.clone())
    });

    // Let in-flight outcomes land, then read the counters. A
    // cluster that does not settle (a site died, or work is stuck)
    // would give a point covering only part of it: none is recorded.
    if let Err(busy) = sup.quiesce(StdDuration::from_secs(10)) {
        eprintln!("camelot-sockbench: cluster did not quiesce [{busy}]");
        sup.shutdown();
        std::process::exit(1);
    }
    let mut agg = TransportStats::default();
    for site in (1..=args.mix.sites).map(SiteId) {
        if let Some(Ok(st)) = sup.ctrl(site).map(|c| c.transport_stats()) {
            agg.sends += st.sends;
            agg.send_failures += st.send_failures;
            agg.connects += st.connects;
            agg.connect_failures += st.connect_failures;
            agg.enqueued += st.enqueued;
            agg.queue_drops += st.queue_drops;
            agg.queue_depth += st.queue_depth;
            agg.max_queue_depth = agg.max_queue_depth.max(st.max_queue_depth);
        }
    }
    // Final scrape (the stop flag forces one last sample), then drain
    // every ring and attribute the point's commit latency.
    scrape_stop.store(true, Ordering::Release);
    let scrape = scrape_handle.join().ok();
    let traces = sup.drain_traces().into_iter();
    let events = traces
        .filter_map(|(_, t)| t.ok())
        .flat_map(|t| parse_jsonl(&t))
        .collect();
    let attribution = attribute(&merge_skew_aware(events).events);
    sup.shutdown();
    SockPoint {
        point,
        scrape,
        extras: format!(
            "\"transport\": {}, \"scope\": {}",
            transport_json(&agg),
            attribution.to_json()
        ),
    }
}

fn transport_json(t: &TransportStats) -> String {
    format!(
        "{{\"sends\": {}, \"send_failures\": {}, \"connects\": {}, \"connect_failures\": {}, \
         \"enqueued\": {}, \"queue_drops\": {}, \"queue_depth\": {}, \"max_queue_depth\": {}}}",
        t.sends,
        t.send_failures,
        t.connects,
        t.connect_failures,
        t.enqueued,
        t.queue_drops,
        t.queue_depth,
        t.max_queue_depth
    )
}

fn main() {
    let args = Args::parse(quick(), std::env::args().skip(1)).unwrap_or_else(|u| u.exit());
    println!("camelot-sockbench: {}", args.mix);

    let mut sections = Vec::new();
    let mut saturation: Vec<(Transport, f64, u64)> = Vec::new();
    let mut scrape_series = format!("{}\n", Collector::header_json(&args.config_text()));
    let mut scraped_points = 0usize;
    for transport in TRANSPORTS {
        println!("\n== transport: {} ==", transport.name());
        println!(
            "{:>9} {:>9} {:>8} {:>7} {:>10} {:>10} {:>10}",
            "offered/s", "commits/s", "aborts", "errors", "p95_tot", "p50_cmt", "p95_cmt"
        );
        let mut points = Vec::new();
        for &rate in &args.rates {
            let p = match transport {
                Transport::Inproc => run_point_inproc(&args, rate),
                Transport::Udp | Transport::Tcp => run_point_sockets(&args, transport, rate),
            };
            println!(
                "{:>9.0} {:>9.1} {:>8} {:>7} {:>8}us {:>8}us {:>8}us",
                p.point.offered_per_sec,
                p.point.achieved_commits_per_sec,
                p.point.aborts,
                p.point.errors,
                p.point.total_lat.percentile(95.0),
                p.point.commit_lat.percentile(50.0),
                p.point.commit_lat.percentile(95.0),
            );
            if let Some(series) = &p.scrape {
                scrape_series.push_str(&format!(
                    "{{\"point\":{{\"transport\":\"{}\",\"offered_per_sec\":{:.1}}}}}\n",
                    transport.name(),
                    rate
                ));
                scrape_series.push_str(series);
                scraped_points += 1;
            }
            points.push(p);
        }
        let sat = points
            .iter()
            .map(|p| p.point.achieved_commits_per_sec)
            .fold(0.0f64, f64::max);
        // Commit p95 at the lowest offered rate: the uncontended
        // transport cost, before queueing noise.
        let base_p95 = points
            .first()
            .map(|p| p.point.commit_lat.percentile(95.0))
            .unwrap_or(0);
        println!("saturation: {sat:.1} commits/s");
        saturation.push((transport, sat, base_p95));
        let body = points
            .iter()
            .map(|p| point_json(&p.point, &p.extras))
            .collect::<Vec<_>>()
            .join(",\n");
        sections.push(format!(
            "  {{\"transport\": \"{}\", \"saturation_commits_per_sec\": {:.1}, \
             \"points\": [\n{}\n  ]}}",
            transport.name(),
            sat,
            body
        ));
    }

    // The headline: socket tax relative to the in-process baseline.
    let find = |t: Transport| saturation.iter().find(|(tr, _, _)| *tr == t);
    let mut tax_parts = Vec::new();
    if let Some((_, inproc_sat, inproc_p95)) = find(Transport::Inproc) {
        for t in [Transport::Udp, Transport::Tcp] {
            if let Some((_, sat, p95)) = find(t) {
                let sat_ratio = if *sat > 0.0 { inproc_sat / sat } else { 0.0 };
                let lat_ratio = if *inproc_p95 > 0 {
                    *p95 as f64 / *inproc_p95 as f64
                } else {
                    0.0
                };
                println!(
                    "{} tax: {:.2}x saturation, {:.2}x low-rate p95 commit latency",
                    t.name(),
                    sat_ratio,
                    lat_ratio
                );
                tax_parts.push(format!(
                    "\"{}\": {{\"saturation_ratio_inproc_over_socket\": {:.2}, \
                     \"low_rate_p95_commit_ratio_socket_over_inproc\": {:.2}}}",
                    t.name(),
                    sat_ratio,
                    lat_ratio
                ));
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"socket_transports\",\n");
    json.push_str(&format!(
        "  \"stamp\": {},\n",
        stamp_json(&args.config_text())
    ));
    json.push_str(&format!(
        "  \"config\": {{\"sites\": {}, {}}},\n",
        args.mix.sites,
        args.mix.config_json()
    ));
    json.push_str("  \"transports\": [\n");
    json.push_str(&sections.join(",\n"));
    json.push_str("\n  ],\n");
    json.push_str(&format!("  \"tax\": {{{}}}\n}}\n", tax_parts.join(", ")));

    let out = args.out.clone().unwrap_or_else(|| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_socket.json")
            .to_string_lossy()
            .into_owned()
    });
    std::fs::write(&out, json).expect("write BENCH_socket.json");
    println!("wrote {out}");

    // The scrape series rides alongside the bench JSON: one header,
    // then a point-tag line followed by that point's snapshots.
    if scraped_points > 0 {
        let scrape_out = if let Some(stripped) = out.strip_suffix(".json") {
            format!("{stripped}_scrape.jsonl")
        } else {
            format!("{out}.scrape.jsonl")
        };
        std::fs::write(&scrape_out, scrape_series).expect("write scrape series");
        println!("wrote {scrape_out} ({scraped_points} scraped points)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_scope::config_hash;

    /// The stamps of the committed `BENCH_socket_quick.json` (the CI
    /// knee gate's baseline) and `BENCH_socket.json`: if a config text
    /// drifts, the gate has no comparable baseline — re-record it in
    /// the same change.
    #[test]
    fn config_hashes_match_the_committed_baselines() {
        let quick = Args::parse(true, []).unwrap().config_text();
        assert_eq!(config_hash(&quick), "17a3889f948ba7ea", "{quick}");
        let full = Args::parse(false, []).unwrap().config_text();
        assert_eq!(config_hash(&full), "8e9d2ce99ad7d9fe", "{full}");
    }
}
