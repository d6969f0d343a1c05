//! Cluster observability driver.
//!
//! Four subcommands, `scrape`, `merge`, `attrib` and `smoke`;
//! `camelot-scope <subcommand> --help` lists each one's flags.
//!
//! `scrape` polls the given sites on a cadence and appends one JSON
//! snapshot per tick (header line first). `merge` sorts per-site
//! trace files, all stamped on the host clock, into one cluster
//! timeline and reports how many message receives precede their send.
//! `attrib` merges and then decomposes commit latency into
//! critical-path segments. `smoke` is the self-contained CI check: it
//! spawns a real socket cluster, drives a mixed workload, and asserts
//! the whole plane end to end — well-formed scrapes with nonzero phase
//! counts, zero trace drops, zero happens-before violations with no
//! repair, and per-protocol segment medians that sum to within
//! tolerance of the measured end-to-end commit p50.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use camelot_node::procs::{sibling_site_bin, Supervisor, SupervisorConfig};
use camelot_node::session::{CommitMode, CtrlSession, Session};
use camelot_obs::Phase;
use camelot_scope::{
    attribute, merge_skew_aware, parse_jsonl, Attribution, Collector, MergedTimeline,
    ScrapeSnapshot, ScrapeTarget,
};
use camelot_types::flags::{subcommand, Parsed, Tool, REQUIRED};
use camelot_types::{ObjectId, SiteId};

type Cmd = fn(&Parsed) -> Result<i32, String>;

#[rustfmt::skip]
const SUBCOMMANDS: [(Tool, Cmd); 4] = [
    (Tool::new("camelot-scope scrape", &[
        ("--ctrl", "SITE=ADDR...", REQUIRED, "a site's control address; once per site"),
        ("--every-ms", "MS", "250", "time between scrapes"),
        ("--for-ms", "MS", "5000", "how long to keep scraping"),
        ("--out", "FILE", "", "where the series goes (else stdout)"),
    ]), cmd_scrape),
    (Tool { name: "camelot-scope merge", positional: "TRACE.jsonl...", flags: &[
        ("--out", "FILE", "", "where the merged timeline goes (else stdout)"),
    ]}, cmd_merge),
    (Tool { name: "camelot-scope attrib", positional: "TRACE.jsonl...", flags: &[
        ("--out", "FILE", "", "where the attribution goes (else stdout)"),
    ]}, cmd_attrib),
    (Tool::new("camelot-scope smoke", &[
        ("--sites", "N", "3", "sites to spawn"),
        ("--transport", "udp|tcp", "udp", "data-plane socket kind"),
        ("--txns", "N", "240", "transactions to drive"),
        ("--out-dir", "DIR", "target/tmp/scope-smoke", "where the artifacts go"),
    ]), cmd_smoke),
];

fn main() {
    let mut args = std::env::args().skip(1);
    let tools: Vec<&Tool> = SUBCOMMANDS.iter().map(|(tool, _)| tool).collect();
    let code = subcommand(&tools, args.next().as_deref())
        .and_then(|i| SUBCOMMANDS[i].0.parse(args, SUBCOMMANDS[i].1))
        .unwrap_or_else(|u| u.exit());
    std::process::exit(code);
}

fn write_out(out: Option<&str>, content: &str) -> i32 {
    match out {
        Some(path) => {
            if let Some(dir) = Path::new(path).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(e) = std::fs::write(path, content) {
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

fn cmd_scrape(p: &Parsed) -> Result<i32, String> {
    let targets = ScrapeTarget::from_flags(p)?;
    let every_ms: u64 = p.int("--every-ms")?;
    let for_ms: u64 = p.int("--for-ms")?;
    let config = format!("scrape targets={} every_ms={every_ms}", targets.len());
    let mut series = Collector::header_json(&config);
    series.push('\n');
    let mut collector = Collector::new();
    let deadline = Instant::now() + Duration::from_millis(for_ms);
    loop {
        let snap = collector.scrape(&targets);
        series.push_str(&snap.to_json());
        series.push('\n');
        if Instant::now() + Duration::from_millis(every_ms) > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(every_ms));
    }
    Ok(write_out(p.get("--out"), &series))
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

fn cmd_merge(p: &Parsed) -> Result<i32, String> {
    let merged = merge_skew_aware(read_traces(&p.positionals)?);
    eprintln!(
        "camelot-scope: merged {} events, {} happens-before violations",
        merged.events.len(),
        merged.happens_before_violations()
    );
    Ok(write_out(p.get("--out"), &merged.to_jsonl()))
}

fn cmd_attrib(p: &Parsed) -> Result<i32, String> {
    let merged = merge_skew_aware(read_traces(&p.positionals)?);
    let attr = attribute(&merged.events);
    if attr.protocols.is_empty() {
        eprintln!("camelot-scope: no committed families in the trace");
    }
    let mut out = attr.to_json();
    out.push('\n');
    Ok(write_out(p.get("--out"), &out))
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

fn run_smoke(
    sites: u32,
    transport: &str,
    txns: u64,
    out_dir: &Path,
) -> Result<String, SmokeFailure> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| SmokeFailure(format!("create {}: {e}", out_dir.display())))?;

    let bin = sibling_site_bin().map_err(|e| SmokeFailure(e.to_string()))?;
    // No log directory: the in-memory WAL the socket baselines use.
    let mut cfg = SupervisorConfig::new(bin, sites, transport, None);
    cfg.extra = ["--call-timeout-ms", "2000", "--trace-capacity", "65536"]
        .map(String::from)
        .into();
    let mut sup =
        Supervisor::start(cfg).map_err(|e| SmokeFailure(format!("start cluster: {e}")))?;
    let targets = ScrapeTarget::from_board(&sup.board(), sites);
    let mut session = CtrlSession::new(sup.board());

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
        let snap = collector.scrape(&targets);
        series.push_str(&snap.to_json());
        series.push('\n');
        snapshots.push(snap);
    }
    sup.quiesce(Duration::from_secs(10))
        .map_err(|busy| SmokeFailure(format!("cluster did not quiesce [{busy}]")))?;
    let final_snap = collector.scrape(&targets);
    series.push_str(&final_snap.to_json());
    series.push('\n');
    std::fs::write(out_dir.join("scrape.jsonl"), &series)
        .map_err(|e| SmokeFailure(format!("write scrape.jsonl: {e}")))?;

    // Scrape assertions: every snapshot well-formed, final one shows
    // the workload in the phase histograms and no trace drops.
    for snap in snapshots.iter().chain(std::iter::once(&final_snap)) {
        check_snapshot(snap, sites as usize)?;
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
    for (site, trace) in sup.drain_traces() {
        let jsonl = trace.map_err(|e| SmokeFailure(format!("drain trace site {}: {e}", site.0)))?;
        events.extend(parse_jsonl(&jsonl));
    }
    let merged = merge_skew_aware(events);
    std::fs::write(out_dir.join("cluster-timeline.jsonl"), merged.to_jsonl())
        .map_err(|e| SmokeFailure(format!("write timeline: {e}")))?;
    let violations = merged.happens_before_violations();
    if violations > 0 {
        return Err(SmokeFailure(format!(
            "{violations} happens-before violations: a receive stamped at or before its send"
        )));
    }
    let attr = attribute(&merged.events);
    std::fs::write(out_dir.join("attribution.json"), attr.to_json())
        .map_err(|e| SmokeFailure(format!("write attribution: {e}")))?;

    sup.shutdown();
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

fn cmd_smoke(p: &Parsed) -> Result<i32, String> {
    let out_dir: PathBuf = p.val("--out-dir")?;
    let transport: String = p.val("--transport")?;
    let (sites, txns) = (p.int("--sites")?, p.int("--txns")?);
    Ok(match run_smoke(sites, &transport, txns, &out_dir) {
        Ok(summary) => {
            println!("{summary}");
            0
        }
        Err(SmokeFailure(msg)) => {
            eprintln!("camelot-scope smoke: FAIL: {msg}");
            1
        }
    })
}
