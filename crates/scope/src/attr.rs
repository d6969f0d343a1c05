//! Critical-path latency attribution.
//!
//! The paper accounts for transaction response time by *costing* each
//! protocol's constituent operations (datagrams, log forces, platter
//! writes — Tables 1–3). This module produces the measured analogue
//! from a merged cluster timeline: for every committed family it
//! decomposes the commit window (`commit_call` → `resolved` at the
//! coordinator) into named segments, then reports per-protocol
//! percentiles per segment.
//!
//! The decomposition is an *exact partition*: segment intervals are
//! clipped to the commit window and swept in priority order, so every
//! microsecond of the window is charged to exactly one segment and
//! the per-family segment sum always equals the end-to-end latency.
//! Priorities (highest first):
//!
//! 1. `platter_write` — site-level `batch_start`→`batch_durable`
//!    windows that overlap one of the family's force windows (the
//!    disk was the reason the force waited);
//! 2. `force_wait`   — non-lazy `log_enqueue`→`log_durable`, i.e.
//!    time blocked on durability beyond the platter write itself
//!    (batch formation, group-commit queueing);
//! 3. `prepare_wait` — subordinate-side `datagram_recv`→`server_vote`
//!    (shard lock acquisition and prepare processing, including
//!    parked prepares under queued execution);
//! 4. `net_transit`  — matched `datagram_send`→`datagram_recv` pairs;
//! 5. `coord_think`  — the unclaimed remainder: coordinator-side
//!    protocol bookkeeping and scheduler time.
//!
//! A sixth segment from the paper's taxonomy, queue wait *before*
//! `commit_call`, is outside the commit window by construction; it is
//! scraped directly from the sites' `Phase::QueueWait` histograms by
//! [`crate::collect`] rather than re-derived here.

use std::collections::BTreeMap;
use std::fmt::Write as FmtWrite;

use crate::event::ScopeEvent;
use crate::merge::match_pairs;

/// Trace-derived segment names, in sweep priority order.
pub const SEGMENTS: [&str; 5] = [
    "platter_write",
    "force_wait",
    "prepare_wait",
    "net_transit",
    "coord_think",
];

/// Percentile summary of one sample set (µs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegStats {
    pub n: usize,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub mean: u64,
    pub max: u64,
}

impl SegStats {
    fn from_samples(samples: &mut [u64]) -> SegStats {
        if samples.is_empty() {
            return SegStats {
                n: 0,
                p50: 0,
                p95: 0,
                p99: 0,
                mean: 0,
                max: 0,
            };
        }
        samples.sort_unstable();
        let pct = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
        SegStats {
            n: samples.len(),
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            mean: samples.iter().sum::<u64>() / samples.len() as u64,
            max: *samples.last().unwrap(),
        }
    }

    fn json_body(&self) -> String {
        format!(
            "\"n\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"mean_us\":{},\"max_us\":{}",
            self.n, self.p50, self.p95, self.p99, self.mean, self.max
        )
    }
}

/// One protocol's decomposition: end-to-end commit latency plus the
/// per-segment stats, over every committed family classified as this
/// protocol.
#[derive(Debug, Clone)]
pub struct ProtocolAttribution {
    pub protocol: &'static str,
    pub families: usize,
    pub e2e: SegStats,
    /// `(segment name, stats)` in [`SEGMENTS`] order.
    pub segments: Vec<(&'static str, SegStats)>,
}

impl ProtocolAttribution {
    /// Sum of the per-segment medians — the acceptance check compares
    /// this against the end-to-end p50 (exact for means by the
    /// partition property; medians track closely on the tight
    /// localhost distributions the benches produce).
    pub fn median_sum(&self) -> u64 {
        self.segments.iter().map(|(_, s)| s.p50).sum()
    }
}

/// Cluster-wide attribution: one entry per protocol observed.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    pub protocols: Vec<ProtocolAttribution>,
}

impl Attribution {
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"attribution\":[");
        for (i, p) in self.protocols.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"protocol\":\"{}\",\"families\":{},\"e2e\":{{{}}},\"median_sum_us\":{},\"segments\":[",
                p.protocol,
                p.families,
                p.e2e.json_body(),
                p.median_sum()
            );
            for (j, (name, st)) in p.segments.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{{\"segment\":\"{name}\",{}}}", st.json_body());
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }
}

/// A candidate interval on the host time axis with its sweep
/// priority (lower wins).
struct Iv {
    start: u64,
    end: u64,
    prio: usize,
}

/// Classifies a committed family the same way the protocol-cost
/// auditor does: commit mode from `commit_call`, then force count.
fn classify(mode: &str, forces: usize, lazies: usize) -> &'static str {
    match mode {
        "2pc" if forces == 0 => "read_only",
        "2pc" if lazies > 0 => "2pc_delayed",
        "2pc" => "2pc_standard",
        _ if forces <= 1 => "non_blocking_read",
        _ => "non_blocking",
    }
}

/// Decomposes every committed family in a merged timeline. Expects
/// host-time events (site-level batch events included — they carry
/// the platter windows); families without a `commit_call`/`resolved`
/// pair at one site are skipped (aborted, in flight, or truncated by
/// the ring).
pub fn attribute(events: &[ScopeEvent]) -> Attribution {
    // Site-level platter windows: batch_start paired with the next
    // batch_durable at the same site, in host time order.
    let mut batch_windows: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    {
        let mut open: BTreeMap<u32, u64> = BTreeMap::new();
        let mut site_events: Vec<&ScopeEvent> = events
            .iter()
            .filter(|e| e.ev == "batch_start" || e.ev == "batch_durable")
            .collect();
        site_events.sort_by_key(|e| (e.us, e.seq));
        for e in site_events {
            match e.ev.as_str() {
                "batch_start" => {
                    open.insert(e.site, e.us);
                }
                _ => {
                    if let Some(start) = open.remove(&e.site) {
                        batch_windows.entry(e.site).or_default().push((start, e.us));
                    }
                }
            }
        }
    }

    let mut families: BTreeMap<&str, Vec<&ScopeEvent>> = BTreeMap::new();
    for e in events {
        if let Some(f) = &e.family {
            families.entry(f).or_default().push(e);
        }
    }

    // Per-(protocol, segment) samples; one sample per family.
    let mut e2e_samples: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut seg_samples: BTreeMap<(&'static str, &'static str), Vec<u64>> = BTreeMap::new();

    for evs in families.values() {
        let mut evs: Vec<&ScopeEvent> = evs.clone();
        evs.sort_by_key(|e| (e.us, e.site, e.seq));
        let Some(call) = evs.iter().find(|e| e.ev == "commit_call") else {
            continue;
        };
        let Some(resolved) = evs
            .iter()
            .find(|e| e.ev == "resolved" && e.site == call.site && e.us >= call.us)
        else {
            continue;
        };
        // The tracer renders the Outcome enum's Debug form
        // ("Committed"); synthetic traces tend to write lowercase.
        if !resolved
            .str_field("outcome")
            .is_some_and(|o| o.eq_ignore_ascii_case("committed"))
        {
            continue;
        }
        let (t0, t1) = (call.us, resolved.us);
        if t1 <= t0 {
            continue;
        }
        let mode = call.str_field("mode").unwrap_or("2pc").to_string();

        let mut ivs: Vec<Iv> = Vec::new();

        // Force windows (priority 1), matched k-th enqueue to k-th
        // durable per (site, purpose); only non-lazy forces block.
        let mut force_windows: Vec<(u32, u64, u64)> = Vec::new();
        let mut forces = 0usize;
        let mut lazies = 0usize;
        {
            let mut opens: BTreeMap<(u32, String), Vec<u64>> = BTreeMap::new();
            for e in &evs {
                let lazy = e
                    .field("lazy")
                    .map(|v| v == &crate::event::Value::Bool(true));
                match e.ev.as_str() {
                    "log_enqueue" if lazy == Some(true) => lazies += 1,
                    "log_enqueue" if lazy == Some(false) => {
                        forces += 1;
                        let purpose = e.str_field("purpose").unwrap_or("").to_string();
                        opens.entry((e.site, purpose)).or_default().push(e.us);
                    }
                    "log_durable" if lazy == Some(false) => {
                        let purpose = e.str_field("purpose").unwrap_or("").to_string();
                        if let Some(starts) = opens.get_mut(&(e.site, purpose)) {
                            if !starts.is_empty() {
                                let start = starts.remove(0);
                                force_windows.push((e.site, start, e.us));
                                ivs.push(Iv {
                                    start,
                                    end: e.us,
                                    prio: 1,
                                });
                            }
                        }
                    }
                    _ => {}
                }
            }
        }

        // Platter windows (priority 0): batch windows on any site
        // that overlap one of this family's force windows.
        for &(site, fs, fe) in &force_windows {
            if let Some(wins) = batch_windows.get(&site) {
                for &(bs, be) in wins {
                    if bs < fe && be > fs {
                        ivs.push(Iv {
                            start: bs,
                            end: be,
                            prio: 0,
                        });
                    }
                }
            }
        }

        // Prepare wait (priority 2): each subordinate server_vote,
        // charged from the latest datagram_recv at that site before
        // it (the request whose processing produced the vote).
        for (i, e) in evs.iter().enumerate() {
            if e.ev != "server_vote" {
                continue;
            }
            if let Some(recv) = evs[..i]
                .iter()
                .rev()
                .find(|r| r.ev == "datagram_recv" && r.site == e.site)
            {
                ivs.push(Iv {
                    start: recv.us,
                    end: e.us,
                    prio: 2,
                });
            }
        }

        // Network transit (priority 3): matched send/recv pairs.
        let owned: Vec<ScopeEvent> = evs.iter().map(|e| (*e).clone()).collect();
        for (s, r) in match_pairs(&owned) {
            ivs.push(Iv {
                start: owned[s].us,
                end: owned[r].us,
                prio: 3,
            });
        }

        // Priority sweep over [t0, t1]: at every elementary interval
        // the highest-priority covering segment wins; uncovered time
        // is coordinator think time. This partitions the window
        // exactly, so the family's segment sum equals t1 − t0.
        let mut cuts: Vec<u64> = vec![t0, t1];
        for iv in &ivs {
            cuts.push(iv.start.clamp(t0, t1));
            cuts.push(iv.end.clamp(t0, t1));
        }
        cuts.sort_unstable();
        cuts.dedup();
        let mut totals = [0u64; 5];
        for w in cuts.windows(2) {
            let (a, b) = (w[0], w[1]);
            let seg = ivs
                .iter()
                .filter(|iv| iv.start <= a && iv.end >= b)
                .map(|iv| iv.prio)
                .min()
                .unwrap_or(4);
            totals[seg] += b - a;
        }

        let proto = classify(&mode, forces, lazies);
        e2e_samples.entry(proto).or_default().push(t1 - t0);
        for (i, name) in SEGMENTS.iter().enumerate() {
            seg_samples
                .entry((proto, name))
                .or_default()
                .push(totals[i]);
        }
    }

    let mut out = Attribution::default();
    for (proto, mut e2e) in e2e_samples {
        let segments = SEGMENTS
            .iter()
            .map(|name| {
                let mut v = seg_samples.remove(&(proto, name)).unwrap_or_default();
                (*name, SegStats::from_samples(&mut v))
            })
            .collect();
        out.protocols.push(ProtocolAttribution {
            protocol: proto,
            families: e2e.len(),
            e2e: SegStats::from_samples(&mut e2e),
            segments,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_jsonl;

    /// One hand-built 2PC family with known interval geometry:
    ///   commit window [1000, 11000] at site 1 (e2e 10000);
    ///   Prepare 1200→1500 to site 2 (net 300);
    ///   prepare processing 1500→1800 (prepare_wait 300);
    ///   vote 1800→2100 back (net 300);
    ///   force 2200→5000 at site 1, with a platter batch 3000→4500
    ///   overlapping it (platter 1500, force_wait 1300);
    ///   remainder 6300 is coordinator think time.
    fn one_family() -> &'static str {
        "{\"seq\":0,\"site\":1,\"us\":900,\"family\":\"F1.0\",\"ev\":\"begin\"}\n\
         {\"seq\":1,\"site\":1,\"us\":1000,\"family\":\"F1.0\",\"ev\":\"commit_call\",\"mode\":\"2pc\"}\n\
         {\"seq\":2,\"site\":1,\"us\":1200,\"family\":\"F1.0\",\"ev\":\"datagram_send\",\"to\":2,\"msg\":\"Prepare\",\"piggyback\":0}\n\
         {\"seq\":0,\"site\":2,\"us\":1500,\"family\":\"F1.0\",\"ev\":\"datagram_recv\",\"from\":1,\"msg\":\"Prepare\"}\n\
         {\"seq\":1,\"site\":2,\"us\":1800,\"family\":\"F1.0\",\"ev\":\"server_vote\",\"server\":2,\"vote\":\"commit\"}\n\
         {\"seq\":2,\"site\":2,\"us\":1800,\"family\":\"F1.0\",\"ev\":\"datagram_send\",\"to\":1,\"msg\":\"VoteCommit\",\"piggyback\":0}\n\
         {\"seq\":3,\"site\":1,\"us\":2200,\"family\":\"F1.0\",\"ev\":\"log_enqueue\",\"purpose\":\"commit\",\"lazy\":false}\n\
         {\"seq\":4,\"site\":1,\"us\":2100,\"family\":\"F1.0\",\"ev\":\"datagram_recv\",\"from\":2,\"msg\":\"VoteCommit\"}\n\
         {\"seq\":5,\"site\":1,\"us\":3000,\"ev\":\"batch_start\",\"upto\":10}\n\
         {\"seq\":6,\"site\":1,\"us\":4500,\"ev\":\"batch_durable\",\"upto\":10}\n\
         {\"seq\":7,\"site\":1,\"us\":5000,\"family\":\"F1.0\",\"ev\":\"log_durable\",\"purpose\":\"commit\",\"lazy\":false}\n\
         {\"seq\":8,\"site\":1,\"us\":11000,\"family\":\"F1.0\",\"ev\":\"resolved\",\"outcome\":\"committed\"}\n"
    }

    #[test]
    fn partitions_the_commit_window_exactly() {
        let attr = attribute(&parse_jsonl(one_family()));
        assert_eq!(attr.protocols.len(), 1);
        let p = &attr.protocols[0];
        assert_eq!(p.protocol, "2pc_standard");
        assert_eq!(p.families, 1);
        assert_eq!(p.e2e.p50, 10_000);
        let seg = |name: &str| {
            p.segments
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| s.p50)
                .unwrap()
        };
        assert_eq!(seg("net_transit"), 600);
        assert_eq!(seg("prepare_wait"), 300);
        assert_eq!(seg("platter_write"), 1_500);
        assert_eq!(seg("force_wait"), 1_300);
        assert_eq!(seg("coord_think"), 6_300);
        // The partition property: segment sum == end-to-end, exactly.
        assert_eq!(p.median_sum(), p.e2e.p50);
        let json = attr.to_json();
        assert!(json.contains("\"protocol\":\"2pc_standard\""), "{json}");
        assert!(json.contains("\"median_sum_us\":10000"), "{json}");
    }

    #[test]
    fn classifies_protocols_from_the_trace() {
        assert_eq!(classify("2pc", 0, 0), "read_only");
        assert_eq!(classify("2pc", 2, 1), "2pc_delayed");
        assert_eq!(classify("2pc", 2, 0), "2pc_standard");
        assert_eq!(classify("nb", 1, 0), "non_blocking_read");
        assert_eq!(classify("nb", 3, 0), "non_blocking");
    }

    #[test]
    fn skips_aborted_and_incomplete_families() {
        let text = "{\"seq\":0,\"site\":1,\"us\":100,\"family\":\"F1.1\",\"ev\":\"commit_call\",\"mode\":\"2pc\"}\n\
                    {\"seq\":1,\"site\":1,\"us\":300,\"family\":\"F1.1\",\"ev\":\"resolved\",\"outcome\":\"aborted\"}\n\
                    {\"seq\":0,\"site\":2,\"us\":50,\"family\":\"F1.2\",\"ev\":\"begin\"}\n";
        assert!(attribute(&parse_jsonl(text)).protocols.is_empty());
    }
}
