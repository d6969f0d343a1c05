//! The metrics scraper: polls every site over the ctrl protocol on a
//! fixed cadence and renders git-SHA-stamped time-series JSONL
//! snapshots.
//!
//! Sites export cheap monotonic counters and histograms; *rates* are
//! derived here by differencing consecutive scrapes, so the data
//! plane never pays for rate bookkeeping. A counter that moves
//! backwards means the site restarted between scrapes — the collector
//! flags the sample and clamps the delta to zero instead of emitting
//! a huge negative rate.
//!
//! Connections are opened fresh (with a short retry) on every scrape:
//! a supervisor restart re-binds a site's ctrl port, so cached
//! connections would silently go stale. Callers re-resolve the target
//! list each scrape (e.g. from the supervisor's address board).

use std::collections::HashMap;
use std::fmt::Write as FmtWrite;
use std::net::SocketAddr;
use std::time::Instant;

use camelot_net::{FaultStats, TransportStats};
use camelot_node::ctrl::{CtrlClient, SiteStatsWire};
use camelot_node::procs::AddrBoard;
use camelot_obs::{PhaseSnapshot, ProtocolPhaseSnapshot};

use camelot_types::flags::{parse_int, Parsed};
use camelot_types::SiteId;

use crate::stamp::stamp_json;

/// One site to scrape.
#[derive(Debug, Clone, Copy)]
pub struct ScrapeTarget {
    pub site: u32,
    pub addr: SocketAddr,
}

impl ScrapeTarget {
    /// Every `--ctrl SITE=ADDR` of a command line.
    pub fn from_flags(p: &Parsed) -> Result<Vec<ScrapeTarget>, String> {
        p.all("--ctrl")
            .into_iter()
            .map(|spec| {
                let (site, addr) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--ctrl wants SITE=ADDR, got {spec}"))?;
                Ok(ScrapeTarget {
                    site: parse_int(site)
                        .and_then(|n| n.try_into().ok())
                        .ok_or_else(|| format!("bad site id {site}"))?,
                    addr: addr.parse().map_err(|_| format!("bad address {addr}"))?,
                })
            })
            .collect()
    }

    /// Sites `1..=sites` at their last-known control addresses on a
    /// supervisor's board.
    pub fn from_board(board: &AddrBoard, sites: u32) -> Vec<ScrapeTarget> {
        (1..=sites)
            .filter_map(|site| {
                let addr = board.ctrl_addr(SiteId(site))?;
                Some(ScrapeTarget { site, addr })
            })
            .collect()
    }
}

/// One site's sample within a scrape. `up == false` means the ctrl
/// connection failed (site down or restarting); the remaining fields
/// are then empty.
#[derive(Debug, Clone, Default)]
pub struct SiteScrape {
    pub site: u32,
    pub up: bool,
    /// Counter went backwards since the previous scrape — the site
    /// restarted and its counters reset.
    pub restarted: bool,
    pub stats: Option<SiteStatsWire>,
    /// Per-second rates derived from counter deltas, keyed by the
    /// counter names of [`SiteStatsWire::fields`].
    pub rates: Vec<(&'static str, f64)>,
    pub phases: Option<PhaseSnapshot>,
    pub proto_phases: Option<ProtocolPhaseSnapshot>,
    pub transport: Option<TransportStats>,
    pub faults: Option<FaultStats>,
}

impl SiteScrape {
    /// A derived rate by counter name (events per second).
    pub fn rate(&self, name: &str) -> f64 {
        self.rates
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    }
}

/// One collector tick across the whole cluster.
#[derive(Debug, Clone, Default)]
pub struct ScrapeSnapshot {
    /// Milliseconds since the collector started.
    pub at_ms: u64,
    pub sites: Vec<SiteScrape>,
    /// Supervisor restart counts `(site, restarts)`, filled in by a
    /// harness that owns the supervisor.
    pub restarts: Option<Vec<(u32, u32)>>,
}

impl ScrapeSnapshot {
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        let _ = write!(s, "{{\"at_ms\":{},\"sites\":[", self.at_ms);
        for (i, site) in self.sites.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"site\":{},\"up\":{},\"restarted\":{}",
                site.site, site.up, site.restarted
            );
            if let Some(stats) = &site.stats {
                s.push_str(",\"counters\":{");
                for (j, (name, value)) in stats.fields().iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "\"{name}\":{value}");
                }
                s.push('}');
            }
            if !site.rates.is_empty() {
                s.push_str(",\"rates\":{");
                for (j, (name, rate)) in site.rates.iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "\"{name}\":{rate:.1}");
                }
                s.push('}');
            }
            if let Some(phases) = &site.phases {
                s.push_str(",\"phases\":{");
                for (j, (phase, hist)) in phases.non_empty().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "\"{}\":{}", phase.name(), hist.summary_json());
                }
                s.push('}');
            }
            if let Some(proto) = &site.proto_phases {
                s.push_str(",\"protocols\":{");
                for (j, (protocol, snap)) in proto.non_empty().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "\"{}\":{{", protocol.name());
                    for (k, (phase, hist)) in snap.non_empty().enumerate() {
                        if k > 0 {
                            s.push(',');
                        }
                        let _ = write!(s, "\"{}\":{}", phase.name(), hist.summary_json());
                    }
                    s.push('}');
                }
                s.push('}');
            }
            if let Some(t) = &site.transport {
                let _ = write!(
                    s,
                    ",\"transport\":{{\"sends\":{},\"send_failures\":{},\"connects\":{},\
                     \"connect_failures\":{},\"enqueued\":{},\"queue_drops\":{},\
                     \"queue_depth\":{},\"max_queue_depth\":{}}}",
                    t.sends,
                    t.send_failures,
                    t.connects,
                    t.connect_failures,
                    t.enqueued,
                    t.queue_drops,
                    t.queue_depth,
                    t.max_queue_depth
                );
            }
            if let Some(f) = &site.faults {
                let _ = write!(
                    s,
                    ",\"faults\":{{\"drops\":{},\"delays\":{},\"duplicates\":{},\"crashes\":{},\
                     \"partition_drops\":{},\"skewed_timers\":{}}}",
                    f.drops, f.delays, f.duplicates, f.crashes, f.partition_drops, f.skewed_timers
                );
            }
            s.push('}');
        }
        s.push(']');
        if let Some(restarts) = &self.restarts {
            s.push_str(",\"supervisor\":{\"restarts\":[");
            for (i, (site, n)) in restarts.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{{\"site\":{site},\"restarts\":{n}}}");
            }
            s.push_str("]}");
        }
        s.push('}');
        s
    }

    /// Total trace-ring drops across all scraped sites — the
    /// protocol-cost auditor and soak treat nonzero as a defect
    /// (dropped events mean unauditable transactions).
    pub fn total_trace_dropped(&self) -> u64 {
        self.sites
            .iter()
            .filter_map(|s| s.stats.as_ref())
            .map(|s| s.trace_dropped)
            .sum()
    }
}

/// Derives per-second rates from two counter snapshots. Returns the
/// rates and whether any counter moved backwards (restart between
/// scrapes); negative deltas are clamped to zero. A falling gauge
/// ([`SiteStatsWire::GAUGES`]) is not a restart.
pub fn derive_rates(
    prev: &SiteStatsWire,
    cur: &SiteStatsWire,
    dt_secs: f64,
) -> (Vec<(&'static str, f64)>, bool) {
    let mut restarted = false;
    let mut rates = Vec::with_capacity(32);
    if dt_secs <= 0.0 {
        return (rates, false);
    }
    for ((name, p), (_, c)) in prev.fields().iter().zip(cur.fields().iter()) {
        let delta = if c >= p {
            c - p
        } else {
            restarted |= !SiteStatsWire::GAUGES.contains(name);
            0
        };
        rates.push((*name, delta as f64 / dt_secs));
    }
    (rates, restarted)
}

/// The stateful scraper: remembers the previous counters per site so
/// each [`Collector::scrape`] yields rates.
pub struct Collector {
    started: Instant,
    last_scrape: Option<Instant>,
    prev: HashMap<u32, SiteStatsWire>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    pub fn new() -> Collector {
        Collector {
            started: Instant::now(),
            last_scrape: None,
            prev: HashMap::new(),
        }
    }

    /// The JSONL header line opening a scrape series: provenance
    /// stamp plus the target description the series was taken with.
    pub fn header_json(config_text: &str) -> String {
        format!(
            "{{\"scrape_series\":{{\"stamp\":{}}}}}",
            stamp_json(config_text)
        )
    }

    /// Polls every target once (fresh connections, short retry).
    /// Unreachable sites appear with `up: false` rather than vanishing
    /// from the series.
    pub fn scrape(&mut self, targets: &[ScrapeTarget]) -> ScrapeSnapshot {
        let now = Instant::now();
        let dt = self
            .last_scrape
            .map(|t| now.duration_since(t).as_secs_f64())
            .unwrap_or(0.0);
        self.last_scrape = Some(now);
        let mut snap = ScrapeSnapshot {
            at_ms: now.duration_since(self.started).as_millis() as u64,
            ..Default::default()
        };
        for t in targets {
            let mut site = SiteScrape {
                site: t.site,
                ..Default::default()
            };
            if let Ok(mut ctrl) = CtrlClient::connect_with(t.addr, 2) {
                if let Ok(stats) = ctrl.engine_stats() {
                    site.up = true;
                    if let Some(prev) = self.prev.get(&t.site) {
                        let (rates, restarted) = derive_rates(prev, &stats, dt);
                        site.rates = rates;
                        site.restarted = restarted;
                    }
                    self.prev.insert(t.site, stats);
                    site.stats = Some(stats);
                    if let Ok((phases, proto)) = ctrl.phase_stats() {
                        site.phases = Some(phases);
                        site.proto_phases = Some(proto);
                    }
                    site.transport = ctrl.transport_stats().ok();
                    site.faults = ctrl.fault_stats().ok();
                }
            }
            snap.sites.push(site);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_types::{Reader, SiteId, Wire};

    fn stats_with(commits: u64, datagrams: u64) -> SiteStatsWire {
        // All-zero counters: decode as many zero bytes as the layout takes.
        let mut s = SiteStatsWire::decode(&mut Reader::new(&[0; 1024])).unwrap();
        s.site = SiteId(1);
        s.commits = commits;
        s.datagrams = datagrams;
        s
    }

    #[test]
    fn rates_are_per_second_deltas() {
        let (rates, restarted) = derive_rates(&stats_with(100, 1000), &stats_with(150, 1400), 2.0);
        assert!(!restarted);
        let rate = |name: &str| {
            rates
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(rate("commits"), 25.0);
        assert_eq!(rate("datagrams"), 200.0);
        assert_eq!(rate("aborts"), 0.0);
    }

    #[test]
    fn counter_reset_flags_restart_and_clamps() {
        let (rates, restarted) = derive_rates(&stats_with(100, 1000), &stats_with(5, 1400), 1.0);
        assert!(restarted, "backwards counter means the site restarted");
        let commits = rates.iter().find(|(k, _)| *k == "commits").unwrap().1;
        assert_eq!(commits, 0.0, "negative delta clamps to zero");
        // A gauge falls in normal operation: the router drained.
        let mut busy = stats_with(100, 1000);
        busy.router_pending = 40;
        let (_, restarted) = derive_rates(&busy, &stats_with(150, 1400), 1.0);
        assert!(!restarted, "a falling gauge is not a restart");
    }

    #[test]
    fn snapshot_json_is_wellformed_for_down_sites() {
        let snap = ScrapeSnapshot {
            at_ms: 1500,
            sites: vec![SiteScrape {
                site: 3,
                ..Default::default()
            }],
            restarts: Some(vec![(3, 2)]),
        };
        let json = snap.to_json();
        assert_eq!(
            json,
            "{\"at_ms\":1500,\"sites\":[{\"site\":3,\"up\":false,\"restarted\":false}],\
             \"supervisor\":{\"restarts\":[{\"site\":3,\"restarts\":2}]}}"
        );
    }

    #[test]
    fn header_carries_a_stamp() {
        let h = Collector::header_json("3 sites");
        assert!(
            h.starts_with("{\"scrape_series\":{\"stamp\":{\"git_sha\""),
            "{h}"
        );
    }
}
