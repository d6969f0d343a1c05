//! From rounds to named metrics.
//!
//! Every end-to-end metric is computed per round and reported as the
//! median of the rounds, with the quartiles beside it. Per-layer
//! metrics are medians over the rounds that can supply them: counts
//! from every round, spans and critical-path segments from the traced
//! rounds, tracing overhead from traced against untraced rounds.

use std::time::Instant;

use camelot_obs::{Histogram, Phase};
use camelot_scope::{attribute, merge_skew_aware, ProtocolAttribution, ScopeEvent};

use crate::round::{RoundResult, Span};
use crate::stats;
use crate::workload::{Host, Workload};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Per-round values the median was taken over (empty for a ladder
    /// row, which is a best-of-batches figure).
    pub rounds: Vec<f64>,
    /// Samples behind one round's value (latencies, commits…).
    pub samples: usize,
}

impl Metric {
    /// The median of `rounds`; 0 when no round could supply the
    /// metric (spans and segments outside a traced run).
    fn of_rounds(name: &'static str, rounds: Vec<f64>, samples: usize) -> Metric {
        Metric {
            name,
            value: if rounds.is_empty() {
                0.0
            } else {
                stats::median(&rounds)
            },
            rounds,
            samples,
        }
    }

    pub fn quartiles(&self) -> Option<(f64, f64)> {
        (self.rounds.len() >= 2).then(|| stats::quartiles(&self.rounds))
    }
}

fn per_round<'a>(
    name: &'static str,
    rounds: impl IntoIterator<Item = &'a RoundResult>,
    samples: usize,
    f: impl Fn(&RoundResult) -> f64,
) -> Metric {
    Metric::of_rounds(name, rounds.into_iter().map(f).collect(), samples)
}

fn cpu_us_per_txn(r: &RoundResult) -> f64 {
    r.fixed_cpu_ns as f64 / 1e3 / r.fixed_commits as f64
}

/// The end-to-end metrics of one workload, over its untraced rounds.
///
/// Times and rates that are bound by the CPU are reported at the
/// box's nominal speed: a round's value is divided (a rate multiplied)
/// by that round's slowdown — [`RoundResult::fixed_slowdown`] for what
/// the paced fixed-rate phase measures, [`RoundResult::slowdown`] for
/// what runs back to back. That is every metric of an in-process
/// workload on the in-memory log, where nothing ever sleeps on purpose.
/// The site processes of `socket_2pc` sleep 4 ms per platter write and
/// `fsync_update` waits for the host's disk, which no slowdown of the
/// box's CPU stretches, so only their CPU per commit is adjusted.
pub fn end_to_end(w: &Workload, rounds: &[RoundResult]) -> Vec<Metric> {
    let n = rounds.iter().map(|r| r.lat_us.len()).min().unwrap_or(0);
    let cpu_bound = w.host == Host::InProcess;
    let slow = move |r: &RoundResult| if cpu_bound { r.slowdown } else { 1.0 };
    vec![
        per_round("txn_p50_us", rounds, n, |r| {
            r.p(50.0) / if cpu_bound { r.fixed_slowdown() } else { 1.0 }
        }),
        per_round(
            "sat_txn_per_s",
            rounds,
            rounds
                .iter()
                .map(|r| r.sat_commits as usize)
                .min()
                .unwrap_or(0),
            |r| r.sat_commits as f64 / r.sat_elapsed.as_secs_f64() * slow(r),
        ),
        per_round("cpu_us_per_txn", rounds, n, |r| {
            cpu_us_per_txn(r) / r.fixed_slowdown()
        }),
        per_round("recovery_ms", rounds, 1, |r| r.recovery_ms / slow(r)),
        per_round("setup_s", rounds, 1, |r| r.setup_s / slow(r)),
    ]
}

fn durations_us<'a>(spans: &'a [Span], names: &'a [&str]) -> Vec<f64> {
    stats::sorted(
        spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect(),
    )
}

fn pct_or_zero(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        stats::percentile(sorted, p)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The protocol most of the traced commits ran, from
/// `camelot_scope::attribute`, and how long the attribution took per
/// family, µs.
fn attribution(w: &Workload, trace: &[ScopeEvent]) -> (Option<ProtocolAttribution>, f64) {
    if trace.is_empty() {
        return (None, 0.0);
    }
    // Site processes stamp against their own clocks; in-process sites
    // share one epoch and need no correction.
    let events = if w.host == Host::Sockets {
        merge_skew_aware(trace.to_vec()).events
    } else {
        let mut events = trace.to_vec();
        events.sort_by_key(|e| (e.us, e.site, e.seq));
        events
    };
    let t = Instant::now();
    let att = attribute(&events);
    let took_us = t.elapsed().as_secs_f64() * 1e6;
    let families: usize = att.protocols.iter().map(|p| p.families).sum();
    let main = att.protocols.into_iter().max_by_key(|p| p.families);
    (main, ratio(took_us, families as f64))
}

fn commit_hist(r: &RoundResult) -> Histogram {
    let mut h = r.phases.get(Phase::Commit2pc).clone();
    h.merge(r.phases.get(Phase::CommitNb));
    h
}

/// The workload-dependent per-layer metrics. `plain` are untraced
/// rounds, `traced` rounds with the program's trace ring and the
/// driver's spans on; counts use both.
pub fn per_layer(w: &Workload, plain: &[RoundResult], traced: &[RoundResult]) -> Vec<Metric> {
    let all = || plain.iter().chain(traced);
    let mut out = Vec::new();
    let mut count = |name: &'static str, f: &dyn Fn(&RoundResult) -> f64| {
        out.push(per_round(name, all(), 0, f));
    };
    let per_commit = |num: fn(&RoundResult) -> u64| {
        move |r: &RoundResult| num(r) as f64 / r.fixed_commits as f64
    };
    let per_k = |num: fn(&RoundResult) -> u64| {
        move |r: &RoundResult| 1e3 * num(r) as f64 / r.fixed_commits as f64
    };

    count("core.forces_per_commit", &per_commit(|r| r.fixed.forces));
    count(
        "core.lazy_appends_per_commit",
        &per_commit(|r| r.fixed.lazy_appends),
    );
    count(
        "core.datagrams_per_commit",
        &per_commit(|r| r.fixed.datagrams),
    );
    count(
        "core.piggybacked_per_commit",
        &per_commit(|r| r.fixed.piggybacked),
    );
    count("core.inputs_per_commit", &per_commit(|r| r.fixed.inputs));
    count("wal.bytes_per_commit", &per_commit(|r| r.fixed.wal_bytes));
    count(
        "wal.records_per_commit",
        &per_commit(|r| r.fixed.wal_records),
    );
    count(
        "wal.platter_writes_per_commit",
        &per_commit(|r| r.fixed.platter_writes),
    );
    count("wal.mean_batch", &|r| {
        ratio(
            r.fixed.forces_satisfied as f64,
            r.fixed.platter_writes as f64,
        )
    });
    count("wal.max_batch", &|r| r.fixed.max_batch as f64);
    count("locks.waits_per_kcommit", &per_k(|r| r.fixed.lock_waits));
    count("locks.deadlocks_per_kcommit", &per_k(|r| r.fixed.deadlocks));
    count("server.reads_per_commit", &per_commit(|r| r.fixed.reads));
    count("server.writes_per_commit", &per_commit(|r| r.fixed.writes));
    count("server.joins_per_commit", &per_commit(|r| r.fixed.joins));
    let phase_p50 =
        |phase: Phase| move |r: &RoundResult| r.phases.get(phase).percentile(50.0) as f64;
    count("rt.force_wait_p50_us", &phase_p50(Phase::ForceWait));
    count("rt.platter_write_p50_us", &phase_p50(Phase::PlatterWrite));
    count(
        "rt.shard_lock_wait_p50_us",
        &phase_p50(Phase::ShardLockWait),
    );
    count("rt.queue_wait_p50_us", &phase_p50(Phase::QueueWait));
    count(
        "rt.queue_ops_per_commit",
        &per_commit(|r| r.fixed.queue_ops),
    );
    count(
        "rt.queue_parked_per_kcommit",
        &per_k(|r| r.fixed.queue_parked),
    );
    count(
        "rt.queue_cascades_per_kcommit",
        &per_k(|r| r.fixed.queue_cascades),
    );
    count("rt.queue_vote_timeouts", &|r| {
        r.total.queue_vote_timeouts as f64
    });
    count("rt.lost_updates", &|r| {
        r.after_recovery.lost.max(r.at_end.lost) as f64
    });
    count("rt.restart_ms", &|r| r.restart_ms);
    count("net.sends_per_commit", &per_commit(|r| r.net.sends));
    count("net.send_failures", &|r| r.net.send_failures as f64);
    count("net.queue_drops", &|r| r.net.queue_drops as f64);
    count("net.max_queue_depth", &|r| r.net.max_queue_depth as f64);
    count("net.connects", &|r| r.net.connects as f64);
    count("bench.gen_late_p50_us", &|r| pct_or_zero(&r.late_us, 50.0));
    count("bench.gen_late_p95_us", &|r| pct_or_zero(&r.late_us, 95.0));
    // As timed. Not end-to-end metrics: they follow the host's
    // stalls, not the program (see `metrics::END_TO_END`).
    count("bench.txn_p75_us", &|r| r.p(75.0));
    count("bench.txn_p90_us", &|r| r.p(90.0));
    count("bench.txn_p95_us", &|r| r.p(95.0));
    count("bench.fail_ratio", &|r| {
        r.failed() as f64 / r.attempted as f64
    });
    count("bench.retries_per_ktxn", &|r| {
        1e3 * r.retries as f64 / r.attempted as f64
    });
    count("bench.commit_samples", &|r| r.lat_us.len() as f64);
    count("bench.slowdown", &|r| r.slowdown);
    count("bench.paced_slowdown", &|r| r.paced_slowdown);
    // The end-to-end figures are speed-adjusted; these are as timed.
    count("bench.raw_txn_p50_us", &|r| r.p(50.0));
    count("bench.raw_cpu_us_per_txn", &cpu_us_per_txn);

    // Pooled tails: one stall of the box poisons them, which is why
    // they are not end-to-end metrics.
    let pooled = stats::sorted(all().flat_map(|r| r.lat_us.iter().copied()).collect());
    let single = |name: &'static str, value: f64, samples: usize| Metric {
        name,
        value,
        rounds: Vec::new(),
        samples,
    };
    out.push(single(
        "bench.txn_p99_pooled_us",
        pct_or_zero(&pooled, 99.0),
        pooled.len(),
    ));
    out.push(single(
        "bench.txn_max_us",
        pooled.last().copied().unwrap_or(0.0),
        pooled.len(),
    ));
    let p50s: Vec<f64> = all().map(|r| r.p(50.0)).collect();
    out.push(single(
        "bench.round_spread_pct",
        100.0 * stats::spread(&p50s),
        p50s.len(),
    ));

    // Driver spans around the calls into rt / node::ctrl.
    let span_metric = |name: &'static str, f: &dyn Fn(&RoundResult) -> f64| {
        let samples = traced.iter().map(|r| r.spans.len()).min().unwrap_or(0);
        per_round(name, traced, samples, f)
    };
    let span_pct = |names: &'static [&'static str], p: f64| {
        move |r: &RoundResult| pct_or_zero(&durations_us(&r.spans, names), p)
    };
    out.push(span_metric(
        "rt.begin_call_p50_us",
        &span_pct(&["rt.begin"], 50.0),
    ));
    out.push(span_metric(
        "rt.op_call_p50_us",
        &span_pct(&["rt.read", "rt.write"], 50.0),
    ));
    out.push(span_metric(
        "rt.commit_call_p50_us",
        &span_pct(&["rt.commit"], 50.0),
    ));
    out.push(span_metric(
        "rt.commit_call_p95_us",
        &span_pct(&["rt.commit"], 95.0),
    ));
    out.push(span_metric("rt.commit_share_pct", &|r| {
        let sum = |name: &str| -> f64 { durations_us(&r.spans, &[name]).iter().sum() };
        100.0 * ratio(sum("rt.commit"), sum("txn"))
    }));
    // The program's own commit histogram against the driver's exact
    // figure for the same calls: the error of power-of-two buckets.
    out.push(span_metric("obs.hist_bucket_rel_err_pct", &|r| {
        let exact = pct_or_zero(&durations_us(&r.spans, &["rt.commit"]), 50.0);
        100.0
            * ratio(
                (commit_hist(r).percentile(50.0) as f64 - exact).abs(),
                exact,
            )
    }));

    // Tracing overhead: traced over untraced medians.
    let overhead = |f: &dyn Fn(&RoundResult) -> f64| {
        if plain.is_empty() || traced.is_empty() {
            return 0.0;
        }
        let med = |rs: &[RoundResult]| stats::median(&rs.iter().map(f).collect::<Vec<_>>());
        100.0 * (med(traced) / med(plain) - 1.0)
    };
    let pairs = plain.len().min(traced.len());
    out.push(single(
        "obs.trace_overhead_p50_pct",
        overhead(&|r| r.p(50.0)),
        pairs,
    ));
    out.push(single(
        "obs.trace_overhead_cpu_pct",
        overhead(&cpu_us_per_txn),
        pairs,
    ));
    out.push(single(
        "obs.trace_dropped",
        traced.iter().map(|r| r.fixed.trace_dropped).sum::<u64>() as f64,
        traced.len(),
    ));

    // Critical-path segments of the traced rounds.
    let attributions: Vec<(Option<ProtocolAttribution>, f64)> =
        traced.iter().map(|r| attribution(w, &r.trace)).collect();
    let segment = |name: &'static str, seg: &'static str| {
        let values: Vec<f64> = attributions
            .iter()
            .filter_map(|(a, _)| a.as_ref())
            .filter_map(|a| a.segments.iter().find(|(n, _)| *n == seg))
            .map(|(_, s)| s.p50 as f64)
            .collect();
        Metric::of_rounds(name, values, 0)
    };
    out.push(segment("scope.platter_write_p50_us", "platter_write"));
    out.push(segment("scope.force_wait_p50_us", "force_wait"));
    out.push(segment("scope.prepare_wait_p50_us", "prepare_wait"));
    out.push(segment("scope.net_transit_p50_us", "net_transit"));
    out.push(segment("scope.coord_think_p50_us", "coord_think"));
    let attributed: Vec<&ProtocolAttribution> = attributions
        .iter()
        .filter_map(|(a, _)| a.as_ref())
        .collect();
    let families = attributed.iter().map(|a| a.families).min().unwrap_or(0);
    out.push(Metric::of_rounds(
        "scope.segment_sum_over_e2e",
        attributed
            .iter()
            .map(|a| ratio(a.median_sum() as f64, a.e2e.p50 as f64))
            .collect(),
        families,
    ));
    out.push(Metric::of_rounds(
        "scope.attribute_us_per_family",
        attributions
            .iter()
            .filter(|(a, _)| a.is_some())
            .map(|(_, us)| *us)
            .collect(),
        families,
    ));
    out
}

/// Spans and program events of one traced round as JSON Lines: first
/// the driver's spans `{span, id, parent, start_ns, end_ns, txn}`,
/// then the program's drained trace ring in its own rendering.
pub fn trace_jsonl(r: &RoundResult) -> String {
    let mut s = String::new();
    for sp in &r.spans {
        let opt = |v: Option<String>| v.unwrap_or_else(|| "null".into());
        s.push_str(&format!(
            "{{\"span\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"txn\":{}}}\n",
            sp.name,
            sp.id,
            opt(sp.parent.map(|p| p.to_string())),
            sp.start_ns,
            sp.end_ns,
            opt(sp.family.map(|f| format!("\"{f}\""))),
        ));
    }
    for ev in &r.trace {
        s.push_str(&ev.to_json());
        s.push('\n');
    }
    s
}

/// Self time of every `txn` span: its duration minus its children,
/// summed — what the driver itself spends between calls, ns.
pub fn txn_self_ns(spans: &[Span]) -> u64 {
    let total = |pred: &dyn Fn(&Span) -> bool| -> u64 {
        spans
            .iter()
            .filter(|s| pred(s))
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    };
    total(&|s| s.parent.is_none()).saturating_sub(total(&|s| s.parent.is_some()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            family: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(1, None, "txn", 0, 1000),
            span(2, Some(1), "rt.begin", 10, 110),
            span(3, Some(1), "rt.commit", 200, 900),
        ];
        assert_eq!(txn_self_ns(&spans), 200);
        assert_eq!(durations_us(&spans, &["rt.commit"]), vec![0.7]);
        assert_eq!(
            durations_us(&spans, &["rt.begin", "rt.commit"]),
            vec![0.1, 0.7]
        );
    }

    #[test]
    fn ratios_of_nothing_are_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(pct_or_zero(&[], 50.0), 0.0);
    }
}
