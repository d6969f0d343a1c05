//! `camelot-top` — a one-screen live view of a running cluster.
//!
//! Redraws a per-site table every tick: liveness, commit/abort/force/
//! datagram rates (derived by the collector from counter deltas),
//! send-queue depth, trace-ring drops, and commit latency percentiles
//! from the phase histograms. `--iters N` stops after N refreshes (0
//! runs until interrupted) so scripts and smoke tests can take a
//! bounded number of frames.

use std::time::Duration;

use camelot_obs::Phase;
use camelot_scope::{Collector, ScrapeTarget};
use camelot_types::flags::{Row, Tool, REQUIRED};

#[rustfmt::skip]
const FLAGS: &[Row] = &[
    ("--ctrl", "SITE=ADDR...", REQUIRED, "a site's control address; once per site"),
    ("--every-ms", "MS", "1000", "time between refreshes"),
    ("--iters", "N", "0", "stop after N refreshes; 0 runs until interrupted"),
];
const TOOL: Tool = Tool::new("camelot-top", FLAGS);

fn main() {
    let (targets, every_ms, iters): (_, u64, u64) = TOOL.from_env(|p| {
        Ok((
            ScrapeTarget::from_flags(p)?,
            p.int("--every-ms")?,
            p.int("--iters")?,
        ))
    });

    let mut collector = Collector::new();
    let mut tick = 0u64;
    loop {
        let snap = collector.scrape(&targets);
        // ANSI clear + home; a dumb terminal just sees frames appended.
        print!("\x1b[2J\x1b[H");
        println!(
            "camelot-top  t=+{:.1}s  {} sites",
            snap.at_ms as f64 / 1000.0,
            snap.sites.len()
        );
        println!(
            "{:>4} {:>4} {:>9} {:>9} {:>9} {:>9} {:>7} {:>6} {:>10} {:>10} {:>9} {:>10}",
            "SITE",
            "UP",
            "COMMIT/s",
            "ABORT/s",
            "FORCE/s",
            "DGRAM/s",
            "QDEPTH",
            "DROPS",
            "2PC_P50us",
            "NB_P50us",
            "WAL_KiB",
            "RESTART_ms"
        );
        for s in &snap.sites {
            let (p2pc, pnb) = s
                .phases
                .as_ref()
                .map(|p| {
                    (
                        p.get(Phase::Commit2pc).percentile(0.50),
                        p.get(Phase::CommitNb).percentile(0.50),
                    )
                })
                .unwrap_or((0, 0));
            // Live WAL is what a restart would scan now; the restart
            // time is the site's last recovery (of the log it was
            // respawned on).
            let (wal_kib, restart_ms) = s
                .stats
                .as_ref()
                .map(|st| (st.wal_live_bytes / 1024, st.last_restart_us as f64 / 1e3))
                .unwrap_or((0, 0.0));
            println!(
                "{:>4} {:>4} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>7} {:>6} {:>10} {:>10} {:>9} {:>10.2}",
                s.site,
                if s.up { "yes" } else { "NO" },
                s.rate("commits"),
                s.rate("aborts"),
                s.rate("forces"),
                s.rate("datagrams"),
                s.transport.as_ref().map(|t| t.queue_depth).unwrap_or(0),
                s.stats.as_ref().map(|st| st.trace_dropped).unwrap_or(0),
                p2pc,
                pnb,
                wal_kib,
                restart_ms
            );
        }
        tick += 1;
        if iters > 0 && tick >= iters {
            break;
        }
        std::thread::sleep(Duration::from_millis(every_ms));
    }
}
