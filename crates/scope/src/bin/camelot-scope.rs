//! Cluster observability driver.
//!
//! ```text
//! camelot-scope scrape --ctrl 1=ADDR [--ctrl 2=ADDR ...] [--supervisor ADDR]
//!                      [--every-ms 250] [--for-ms 5000] [--out FILE]
//! camelot-scope merge  [--out FILE] TRACE.jsonl...
//! camelot-scope attrib [--out FILE] TRACE.jsonl...
//! camelot-scope smoke  [--sites 3] [--transport udp] [--txns 240]
//!                      [--out-dir DIR]
//! ```
//!
//! `scrape` polls the given sites on a cadence and appends one JSON
//! snapshot per tick (header line first). `merge` rebases per-site
//! trace files into one skew-corrected cluster timeline. `attrib`
//! merges and then decomposes commit latency into critical-path
//! segments. `smoke` is the self-contained CI check: it spawns a real
//! socket cluster, drives a mixed workload, and asserts the whole
//! plane end to end — well-formed scrapes with nonzero phase counts,
//! zero trace drops, a clean happens-before merge, and per-protocol
//! segment medians that sum to within tolerance of the measured
//! end-to-end commit p50.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use camelot_node::procs::{
    distribute_peers, sibling_site_bin, wait_quiesce, AddrBoard, SiteProc, SpawnSpec,
};
use camelot_node::session::{CommitMode, CtrlSession, Session};
use camelot_obs::Phase;
use camelot_scope::{
    attribute, merge_skew_aware, parse_jsonl, Attribution, Collector, MergedTimeline,
    ScrapeSnapshot, ScrapeTarget,
};
use camelot_types::{ObjectId, SiteId};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("scrape") => cmd_scrape(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("attrib") => cmd_attrib(&args[1..]),
        Some("smoke") => cmd_smoke(&args[1..]),
        _ => {
            eprintln!(
                "usage: camelot-scope scrape --ctrl SITE=ADDR... [--supervisor ADDR] \
                 [--every-ms N] [--for-ms N] [--out FILE]\n\
                 \x20      camelot-scope merge  [--out FILE] TRACE.jsonl...\n\
                 \x20      camelot-scope attrib [--out FILE] TRACE.jsonl...\n\
                 \x20      camelot-scope smoke  [--sites N] [--transport udp|tcp] \
                 [--txns N] [--out-dir DIR]"
            );
            2
        }
    };
    std::process::exit(code);
}

/// `--flag value` lookup over a raw arg slice.
fn opt(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// All values of a repeatable `--flag value`.
fn opts(args: &[String], flag: &str) -> Vec<String> {
    args.windows(2)
        .filter(|w| w[0] == flag)
        .map(|w| w[1].clone())
        .collect()
}

/// Positional (non-flag) arguments.
fn positionals(args: &[String]) -> Vec<String> {
    let flags_with_value = [
        "--ctrl",
        "--supervisor",
        "--every-ms",
        "--for-ms",
        "--out",
        "--out-dir",
        "--sites",
        "--transport",
        "--txns",
    ];
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if flags_with_value.contains(&a.as_str()) {
            skip = true;
            continue;
        }
        if !a.starts_with("--") {
            out.push(a.clone());
        }
    }
    out
}

fn parse_targets(args: &[String]) -> Result<Vec<ScrapeTarget>, String> {
    let mut targets = Vec::new();
    for spec in opts(args, "--ctrl") {
        let (site, addr) = spec
            .split_once('=')
            .ok_or_else(|| format!("--ctrl wants SITE=ADDR, got {spec}"))?;
        targets.push(ScrapeTarget {
            site: site.parse().map_err(|_| format!("bad site id {site}"))?,
            addr: addr.parse().map_err(|_| format!("bad address {addr}"))?,
        });
    }
    if targets.is_empty() {
        return Err("at least one --ctrl SITE=ADDR is required".into());
    }
    Ok(targets)
}

fn write_out(out: Option<String>, content: &str) -> i32 {
    match out {
        Some(path) => {
            if let Some(dir) = Path::new(&path).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(e) = std::fs::write(&path, content) {
                eprintln!("camelot-scope: write {path}: {e}");
                return 1;
            }
            0
        }
        None => {
            print!("{content}");
            0
        }
    }
}

fn cmd_scrape(args: &[String]) -> i32 {
    let targets = match parse_targets(args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("camelot-scope: {e}");
            return 2;
        }
    };
    let supervisor: Option<SocketAddr> = opt(args, "--supervisor").and_then(|s| s.parse().ok());
    let every_ms: u64 = opt(args, "--every-ms")
        .and_then(|s| s.parse().ok())
        .unwrap_or(250);
    let for_ms: u64 = opt(args, "--for-ms")
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);
    let config = format!("scrape targets={} every_ms={every_ms}", targets.len());
    let mut series = Collector::header_json(&config);
    series.push('\n');
    let mut collector = Collector::new();
    let deadline = Instant::now() + Duration::from_millis(for_ms);
    loop {
        let snap = collector.scrape(&targets, supervisor);
        series.push_str(&snap.to_json());
        series.push('\n');
        if Instant::now() + Duration::from_millis(every_ms) > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(every_ms));
    }
    write_out(opt(args, "--out"), &series)
}

fn read_traces(files: &[String]) -> Result<Vec<camelot_scope::ScopeEvent>, String> {
    if files.is_empty() {
        return Err("no trace files given".into());
    }
    let mut events = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("read {f}: {e}"))?;
        events.extend(parse_jsonl(&text));
    }
    Ok(events)
}

fn cmd_merge(args: &[String]) -> i32 {
    match read_traces(&positionals(args)) {
        Ok(events) => {
            let merged = merge_skew_aware(events);
            eprintln!(
                "camelot-scope: merged {} events from {} sites into frame of site {}",
                merged.events.len(),
                merged.maps.len(),
                merged.reference
            );
            write_out(opt(args, "--out"), &merged.to_jsonl())
        }
        Err(e) => {
            eprintln!("camelot-scope: {e}");
            2
        }
    }
}

fn cmd_attrib(args: &[String]) -> i32 {
    match read_traces(&positionals(args)) {
        Ok(events) => {
            let merged = merge_skew_aware(events);
            let attr = attribute(&merged.events);
            if attr.protocols.is_empty() {
                eprintln!("camelot-scope: no committed families in the trace");
            }
            let mut out = attr.to_json();
            out.push('\n');
            write_out(opt(args, "--out"), &out)
        }
        Err(e) => {
            eprintln!("camelot-scope: {e}");
            2
        }
    }
}

/// One smoke transaction over the control plane: read-only every 5th,
/// non-blocking every 3rd, everything else a distributed two-site
/// blind write — one of every protocol class the attribution splits
/// out.
fn smoke_txn(s: &mut CtrlSession, sites: u32, i: u64) -> bool {
    let home = SiteId(i as u32 % sites + 1);
    let remote = SiteId(home.0 % sites + 1);
    let read_only = i.is_multiple_of(5);
    let mode = if i % 3 == 1 {
        CommitMode::NonBlocking
    } else {
        CommitMode::TwoPhase
    };
    let (key, key2) = (ObjectId(i % 32), ObjectId((i * 7 + 3) % 32));
    let spread = [home, remote];
    let participants: &[SiteId] = if read_only || remote == home {
        &[]
    } else {
        &spread
    };
    let Ok(tid) = s.begin(home) else {
        return false;
    };
    let body = (|| {
        if read_only {
            s.read(&tid, home, key)?;
            s.read(&tid, home, key2)?;
        } else {
            s.write(&tid, home, key, i.to_le_bytes().to_vec())?;
            if remote != home {
                s.write(&tid, remote, key2, i.to_le_bytes().to_vec())?;
            }
        }
        camelot_types::Result::Ok(())
    })();
    if body.is_err() {
        let _ = s.abort(&tid, participants);
        return false;
    }
    s.commit(&tid, mode, participants).unwrap_or_else(|_| {
        let _ = s.abort(&tid, participants);
        false
    })
}

struct SmokeFailure(String);

fn check_snapshot(snap: &ScrapeSnapshot, want_sites: usize) -> Result<(), SmokeFailure> {
    if snap.sites.len() != want_sites {
        return Err(SmokeFailure(format!(
            "scrape saw {} sites, want {want_sites}",
            snap.sites.len()
        )));
    }
    for s in &snap.sites {
        if !s.up {
            return Err(SmokeFailure(format!("site {} down during scrape", s.site)));
        }
        if s.stats.is_none() || s.phases.is_none() {
            return Err(SmokeFailure(format!("site {} scrape incomplete", s.site)));
        }
    }
    Ok(())
}

fn run_smoke(args: &[String]) -> Result<String, SmokeFailure> {
    let sites: u32 = opt(args, "--sites")
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let transport = opt(args, "--transport").unwrap_or_else(|| "udp".to_string());
    let txns: u64 = opt(args, "--txns")
        .and_then(|s| s.parse().ok())
        .unwrap_or(240);
    let out_dir = PathBuf::from(
        opt(args, "--out-dir").unwrap_or_else(|| "target/tmp/scope-smoke".to_string()),
    );
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| SmokeFailure(format!("create {}: {e}", out_dir.display())))?;

    let bin = sibling_site_bin().map_err(|e| SmokeFailure(e.to_string()))?;
    let extra = vec![
        "--call-timeout-ms".to_string(),
        "2000".to_string(),
        "--trace-capacity".to_string(),
        "65536".to_string(),
    ];
    let mut procs: Vec<SiteProc> = Vec::new();
    for i in 1..=sites {
        procs.push(
            SiteProc::spawn(&SpawnSpec {
                bin: &bin,
                site: SiteId(i),
                transport: &transport,
                log_dir: None,
                fast: true,
                extra: &extra,
            })
            .map_err(|e| SmokeFailure(format!("spawn site {i}: {e}")))?,
        );
    }
    distribute_peers(&mut procs).map_err(|e| SmokeFailure(format!("distribute peers: {e}")))?;
    let targets: Vec<ScrapeTarget> = procs
        .iter()
        .map(|p| ScrapeTarget {
            site: p.id.0,
            addr: p.handshake.ctrl,
        })
        .collect();
    let mut session = CtrlSession::new(AddrBoard::fixed(&procs));

    // Workload in thirds with a scrape between each, so the series
    // shows rates ramping rather than one final dump.
    let mut collector = Collector::new();
    let config = format!("smoke sites={sites} transport={transport} txns={txns}");
    let mut series = Collector::header_json(&config);
    series.push('\n');
    let mut snapshots: Vec<ScrapeSnapshot> = Vec::new();
    let mut commits = 0u64;
    for chunk in 0..3u64 {
        let lo = txns * chunk / 3;
        let hi = txns * (chunk + 1) / 3;
        for i in lo..hi {
            if smoke_txn(&mut session, sites, i) {
                commits += 1;
            }
        }
        let snap = collector.scrape(&targets, None);
        series.push_str(&snap.to_json());
        series.push('\n');
        snapshots.push(snap);
    }
    wait_quiesce(&mut procs, Duration::from_secs(10));
    let final_snap = collector.scrape(&targets, None);
    series.push_str(&final_snap.to_json());
    series.push('\n');
    std::fs::write(out_dir.join("scrape.jsonl"), &series)
        .map_err(|e| SmokeFailure(format!("write scrape.jsonl: {e}")))?;

    // Scrape assertions: every snapshot well-formed, final one shows
    // the workload in the phase histograms and no trace drops.
    for snap in snapshots.iter().chain(std::iter::once(&final_snap)) {
        check_snapshot(snap, procs.len())?;
    }
    if commits < txns / 2 {
        return Err(SmokeFailure(format!(
            "only {commits}/{txns} transactions committed"
        )));
    }
    let commit_samples: u64 = final_snap
        .sites
        .iter()
        .filter_map(|s| s.phases.as_ref())
        .map(|p| p.get(Phase::Commit2pc).count() + p.get(Phase::CommitNb).count())
        .sum();
    if commit_samples == 0 {
        return Err(SmokeFailure(
            "no commit phase samples in the final scrape".into(),
        ));
    }
    if final_snap.total_trace_dropped() > 0 {
        return Err(SmokeFailure(format!(
            "{} trace events dropped — raise --trace-capacity",
            final_snap.total_trace_dropped()
        )));
    }

    // Drain every ring (chunked under the hood), merge, attribute.
    let mut events = Vec::new();
    for p in procs.iter_mut() {
        let jsonl = p
            .ctrl
            .drain_trace()
            .map_err(|e| SmokeFailure(format!("drain trace: {e}")))?;
        events.extend(parse_jsonl(&jsonl));
    }
    let merged = merge_skew_aware(events);
    std::fs::write(out_dir.join("cluster-timeline.jsonl"), merged.to_jsonl())
        .map_err(|e| SmokeFailure(format!("write timeline: {e}")))?;
    if merged.happens_before_violations() > 0 {
        return Err(SmokeFailure(format!(
            "{} happens-before violations after merge",
            merged.happens_before_violations()
        )));
    }
    let attr = attribute(&merged.events);
    std::fs::write(out_dir.join("attribution.json"), attr.to_json())
        .map_err(|e| SmokeFailure(format!("write attribution: {e}")))?;

    for p in procs {
        p.shutdown();
    }
    summarize(&merged, &attr, commits, txns)
}

/// The acceptance check plus a human-readable summary: for every
/// protocol with a meaningful sample, summed segment medians must
/// land within 10% of the end-to-end commit p50 (with a small
/// absolute floor so a sub-millisecond p50 doesn't demand
/// microsecond-exact medians).
fn summarize(
    merged: &MergedTimeline,
    attr: &Attribution,
    commits: u64,
    txns: u64,
) -> Result<String, SmokeFailure> {
    if attr.protocols.is_empty() {
        return Err(SmokeFailure(
            "attribution found no committed families".into(),
        ));
    }
    let mut lines = vec![format!(
        "camelot-scope smoke: {commits}/{txns} committed, {} merged events, {} protocols",
        merged.events.len(),
        attr.protocols.len()
    )];
    let mut checked = 0;
    for p in &attr.protocols {
        let sum = p.median_sum();
        let p50 = p.e2e.p50;
        let tolerance = (p50 / 10).max(250);
        let delta = sum.abs_diff(p50);
        lines.push(format!(
            "  {:<17} families={:<4} e2e_p50={}us segment_median_sum={}us delta={}us",
            p.protocol, p.families, p50, sum, delta
        ));
        if p.families >= 20 {
            checked += 1;
            if delta > tolerance {
                return Err(SmokeFailure(format!(
                    "{}: segment medians sum to {sum}us but e2e p50 is {p50}us \
                     (delta {delta}us > tolerance {tolerance}us)",
                    p.protocol
                )));
            }
        }
    }
    if checked == 0 {
        return Err(SmokeFailure(
            "no protocol reached 20 families; attribution check is vacuous".into(),
        ));
    }
    Ok(lines.join("\n"))
}

fn cmd_smoke(args: &[String]) -> i32 {
    match run_smoke(args) {
        Ok(summary) => {
            println!("{summary}");
            0
        }
        Err(SmokeFailure(msg)) => {
            eprintln!("camelot-scope smoke: FAIL: {msg}");
            1
        }
    }
}
