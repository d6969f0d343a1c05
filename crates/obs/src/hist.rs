//! Fixed-bucket latency histograms per commit phase.
//!
//! Buckets are powers of two of microseconds: bucket 0 holds exact
//! zeros, bucket `k` (k ≥ 1) holds `[2^(k-1), 2^k)` µs. Because the
//! bucket layout is fixed and position-indexed, histograms recorded at
//! different sites (or in different runs) merge by element-wise
//! addition — merging is associative and commutative, so cluster-wide
//! percentiles are exact over the merged counts regardless of merge
//! order. Percentile reads return the upper bound of the bucket the
//! rank falls in (clamped to the observed maximum), so a reported p99
//! never understates the true p99 by more than one bucket width.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration as StdDuration;

use camelot_types::wire::{Reader, Wire, Writer};
use camelot_types::{CamelotError, Result};

use crate::audit::AuditProtocol;

/// Number of buckets; bucket 39 is open-ended above ~2^38 µs (≈ 76 h).
pub const BUCKETS: usize = 40;

fn bucket_of(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        (64 - us.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive-exclusive `[lo, hi)` bounds of bucket `i` in µs (the top
/// bucket's `hi` is `u64::MAX`).
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS);
    match i {
        0 => (0, 1),
        _ if i == BUCKETS - 1 => (1 << (i - 1), u64::MAX),
        _ => (1 << (i - 1), 1 << i),
    }
}

/// Write side: relaxed atomics only, safe to hammer from every
/// runtime thread.
pub struct AtomicHistogram {
    counts: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    pub fn record_us(&self, us: u64) {
        self.counts[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    pub fn record(&self, d: StdDuration) {
        self.record_us(d.as_micros() as u64);
    }

    /// A plain mergeable copy of the current counts.
    pub fn snapshot(&self) -> Histogram {
        Histogram {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// Read side: a plain snapshot. Merge snapshots from many sites, then
/// read percentiles off the combined counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    sum_us: u64,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl Histogram {
    /// Element-wise addition; associative and commutative.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.sum_us += other.sum_us;
        self.max_us = self.max_us.max(other.max_us);
    }

    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count()).unwrap_or(0)
    }

    /// Latency at percentile `p` (0 < p ≤ 100) in µs: the upper bound
    /// of the bucket containing that rank, clamped to the observed
    /// maximum. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let (_, hi) = bucket_bounds(i);
                return hi.saturating_sub(1).min(self.max_us);
            }
        }
        self.max_us
    }

    /// Compact JSON summary (`{"count":..,"p50_us":..,"p95_us":..,
    /// "p99_us":..,"mean_us":..,"max_us":..}`) — the one histogram
    /// shape every bench report and scope scrape emits.
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"count\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"mean_us\":{},\
             \"max_us\":{}}}",
            self.count(),
            self.percentile(50.0),
            self.percentile(95.0),
            self.percentile(99.0),
            self.mean_us(),
            self.max_us()
        )
    }
}

/// Sparse wire encoding: most phase histograms have a handful of hot
/// buckets out of [`BUCKETS`], so we ship `(index, count)` pairs for
/// the nonzero buckets only, then `sum_us`/`max_us`. Decode rejects
/// out-of-range bucket indices so a corrupt frame cannot index out of
/// bounds.
impl Wire for Histogram {
    fn encode(&self, w: &mut Writer) {
        let nonzero: Vec<(u8, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c != 0)
            .map(|(i, c)| (i as u8, *c))
            .collect();
        w.put_u8(nonzero.len() as u8);
        for (i, c) in nonzero {
            w.put_u8(i);
            w.put_u64(c);
        }
        w.put_u64(self.sum_us);
        w.put_u64(self.max_us);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.get_u8()?;
        let mut h = Histogram::default();
        for _ in 0..n {
            let i = r.get_u8()? as usize;
            if i >= BUCKETS {
                return Err(CamelotError::Codec(format!(
                    "histogram bucket {i} out of range"
                )));
            }
            h.counts[i] = r.get_u64()?;
        }
        h.sum_us = r.get_u64()?;
        h.max_us = r.get_u64()?;
        Ok(h)
    }
}

/// The commit phases the runtime times. Client-visible call phases
/// (begin / operation / commit) reproduce the paper's Table 3 latency
/// breakdown; the pipeline phases (force wait, platter write, shard
/// lock wait) attribute where inside the TranMan that time went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// `begin_transaction` call, client-observed.
    BeginCall,
    /// One read/write server operation, client-observed (includes lock
    /// acquisition at the owning server).
    OpCall,
    /// Top-level commit under two-phase commitment, client-observed.
    Commit2pc,
    /// Top-level commit under non-blocking commitment,
    /// client-observed.
    CommitNb,
    /// Force enqueue → batcher reports it durable (group-commit
    /// residence, paper §3.5).
    ForceWait,
    /// One platter write, by a leading application thread or the disk
    /// thread.
    PlatterWrite,
    /// Wait to acquire an engine shard's lock in a TranMan worker.
    ShardLockWait,
    /// Queued execution mode: residence of a job in its data shard's
    /// FIFO operation queue (enqueue → dequeue by the shard worker).
    QueueWait,
    /// Queued execution mode: *depth* of the target shard queue
    /// observed at enqueue time. Samples are counts of queued jobs,
    /// not microseconds — percentiles read as "jobs ahead of this
    /// one", reusing the power-of-two bucket layout.
    QueueDepth,
    /// Restart: reading and decoding the retained durable log.
    RecoverScan,
    /// Restart: rebuilding the data servers (snapshot base, redo,
    /// in-doubt reinstatement).
    RecoverServers,
    /// Restart: rebuilding the engine shards.
    RecoverEngine,
}

/// Number of [`Phase`] variants (array sizes below).
const NPHASES: usize = 12;

impl Phase {
    pub const ALL: [Phase; NPHASES] = [
        Phase::BeginCall,
        Phase::OpCall,
        Phase::Commit2pc,
        Phase::CommitNb,
        Phase::ForceWait,
        Phase::PlatterWrite,
        Phase::ShardLockWait,
        Phase::QueueWait,
        Phase::QueueDepth,
        Phase::RecoverScan,
        Phase::RecoverServers,
        Phase::RecoverEngine,
    ];

    /// Stable snake_case name (JSON keys, bench output).
    pub fn name(self) -> &'static str {
        match self {
            Phase::BeginCall => "begin_call",
            Phase::OpCall => "op_call",
            Phase::Commit2pc => "commit_2pc",
            Phase::CommitNb => "commit_nb",
            Phase::ForceWait => "force_wait",
            Phase::PlatterWrite => "platter_write",
            Phase::ShardLockWait => "shard_lock_wait",
            Phase::QueueWait => "queue_wait",
            Phase::QueueDepth => "queue_depth",
            Phase::RecoverScan => "recover_scan",
            Phase::RecoverServers => "recover_servers",
            Phase::RecoverEngine => "recover_engine",
        }
    }

    fn index(self) -> usize {
        Phase::ALL.iter().position(|p| *p == self).unwrap()
    }
}

/// One atomic histogram per [`Phase`]; lives in each site's shared
/// state.
#[derive(Default)]
pub struct PhaseHistograms {
    hists: [AtomicHistogram; NPHASES],
}

impl PhaseHistograms {
    pub fn record_us(&self, phase: Phase, us: u64) {
        self.hists[phase.index()].record_us(us);
    }

    pub fn record(&self, phase: Phase, d: StdDuration) {
        self.hists[phase.index()].record(d);
    }

    pub fn snapshot(&self) -> PhaseSnapshot {
        PhaseSnapshot {
            hists: std::array::from_fn(|i| self.hists[i].snapshot()),
        }
    }
}

/// Plain per-phase snapshot; merges element-wise like [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseSnapshot {
    hists: [Histogram; NPHASES],
}

impl PhaseSnapshot {
    pub fn get(&self, phase: Phase) -> &Histogram {
        &self.hists[phase.index()]
    }

    pub fn merge(&mut self, other: &PhaseSnapshot) {
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
    }

    /// Phases with at least one sample, in declaration order.
    pub fn non_empty(&self) -> impl Iterator<Item = (Phase, &Histogram)> {
        Phase::ALL
            .iter()
            .map(|p| (*p, self.get(*p)))
            .filter(|(_, h)| !h.is_empty())
    }
}

impl Wire for PhaseSnapshot {
    fn encode(&self, w: &mut Writer) {
        for h in &self.hists {
            w.put(h);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let mut s = PhaseSnapshot::default();
        for h in s.hists.iter_mut() {
            *h = r.get()?;
        }
        Ok(s)
    }
}

/// Phase histograms keyed by the [`AuditProtocol`] a transaction
/// committed under, so one mixed workload yields per-protocol
/// p50/p95/p99 breakdowns instead of a single blended commit
/// distribution. Only client-observed commit phases are keyed (the
/// protocol of a force or platter write is not knowable at record
/// time).
#[derive(Default)]
pub struct ProtocolPhaseHistograms {
    per: [PhaseHistograms; 5],
}

impl ProtocolPhaseHistograms {
    pub fn record(&self, protocol: AuditProtocol, phase: Phase, d: StdDuration) {
        self.per[protocol.index()].record(phase, d);
    }

    pub fn record_us(&self, protocol: AuditProtocol, phase: Phase, us: u64) {
        self.per[protocol.index()].record_us(phase, us);
    }

    pub fn snapshot(&self) -> ProtocolPhaseSnapshot {
        ProtocolPhaseSnapshot {
            per: std::array::from_fn(|i| self.per[i].snapshot()),
        }
    }
}

/// Plain snapshot of [`ProtocolPhaseHistograms`]; merges element-wise.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProtocolPhaseSnapshot {
    per: [PhaseSnapshot; 5],
}

impl ProtocolPhaseSnapshot {
    pub fn get(&self, protocol: AuditProtocol) -> &PhaseSnapshot {
        &self.per[protocol.index()]
    }

    pub fn merge(&mut self, other: &ProtocolPhaseSnapshot) {
        for (a, b) in self.per.iter_mut().zip(other.per.iter()) {
            a.merge(b);
        }
    }

    /// Protocols with at least one sample in any phase, in
    /// [`AuditProtocol::ALL`] order.
    pub fn non_empty(&self) -> impl Iterator<Item = (AuditProtocol, &PhaseSnapshot)> {
        AuditProtocol::ALL
            .iter()
            .map(|p| (*p, self.get(*p)))
            .filter(|(_, s)| s.non_empty().next().is_some())
    }
}

impl Wire for ProtocolPhaseSnapshot {
    fn encode(&self, w: &mut Writer) {
        for s in &self.per {
            w.put(s);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let mut p = ProtocolPhaseSnapshot::default();
        for s in p.per.iter_mut() {
            *s = r.get()?;
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        for i in 1..BUCKETS - 1 {
            let (lo, hi) = bucket_bounds(i);
            // Every boundary value lands where the bounds claim.
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi - 1), i);
            assert_eq!(bucket_of(hi), i + 1);
        }
    }

    #[test]
    fn percentiles_bound_the_true_value() {
        let h = AtomicHistogram::default();
        for us in 1..=1000u64 {
            h.record_us(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.max_us(), 1000);
        // True p50 = 500; bucket [512,1024) upper bound clamps to max.
        let p50 = s.percentile(50.0);
        assert!((500..=1000).contains(&p50), "p50 {p50}");
        assert!(s.percentile(99.0) >= 990);
        assert_eq!(s.percentile(100.0), 1000);
        assert!(s.mean_us() >= 499 && s.mean_us() <= 501);
    }

    #[test]
    fn merge_is_associative_and_order_insensitive() {
        let mk = |vals: &[u64]| {
            let h = AtomicHistogram::default();
            for v in vals {
                h.record_us(*v);
            }
            h.snapshot()
        };
        let a = mk(&[1, 5, 9000]);
        let b = mk(&[2, 2, 700]);
        let c = mk(&[0, 123_456]);
        // (a+b)+c == a+(b+c)
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        // and equals recording everything into one histogram.
        let all = mk(&[1, 5, 9000, 2, 2, 700, 0, 123_456]);
        assert_eq!(ab_c, all);
        assert_eq!(ab_c.count(), 8);
        assert_eq!(ab_c.max_us(), 123_456);
    }

    #[test]
    fn protocol_keyed_histograms_stay_separate_and_merge() {
        let a = ProtocolPhaseHistograms::default();
        a.record_us(AuditProtocol::TwoPhaseDelayed, Phase::Commit2pc, 100);
        a.record_us(AuditProtocol::ReadOnly, Phase::Commit2pc, 10);
        let b = ProtocolPhaseHistograms::default();
        b.record_us(AuditProtocol::TwoPhaseDelayed, Phase::Commit2pc, 300);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(
            s.get(AuditProtocol::TwoPhaseDelayed)
                .get(Phase::Commit2pc)
                .count(),
            2
        );
        assert_eq!(
            s.get(AuditProtocol::ReadOnly).get(Phase::Commit2pc).count(),
            1
        );
        assert!(s
            .get(AuditProtocol::NonBlocking)
            .get(Phase::Commit2pc)
            .is_empty());
        let names: Vec<&str> = s.non_empty().map(|(p, _)| p.name()).collect();
        assert_eq!(names, vec!["2pc_delayed", "read_only"]);
    }

    #[test]
    fn histogram_wire_roundtrip_is_lossless() {
        let h = AtomicHistogram::default();
        for us in [0, 1, 17, 900, 900, 1_000_000, u64::MAX] {
            h.record_us(us);
        }
        let s = h.snapshot();
        let back = Histogram::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.percentile(50.0), s.percentile(50.0));
        // Empty histograms roundtrip too.
        let e = Histogram::default();
        assert_eq!(Histogram::from_bytes(&e.to_bytes()).unwrap(), e);
    }

    #[test]
    fn histogram_wire_rejects_bad_bucket_index() {
        let mut w = camelot_types::wire::Writer::new();
        w.put_u8(1);
        w.put_u8(BUCKETS as u8); // out of range
        w.put_u64(3);
        w.put_u64(0);
        w.put_u64(0);
        assert!(Histogram::from_bytes(w.as_slice()).is_err());
    }

    #[test]
    fn snapshot_wire_roundtrips() {
        let ph = PhaseHistograms::default();
        ph.record_us(Phase::Commit2pc, 420);
        ph.record_us(Phase::ForceWait, 69);
        let s = ph.snapshot();
        assert_eq!(PhaseSnapshot::from_bytes(&s.to_bytes()).unwrap(), s);

        let pp = ProtocolPhaseHistograms::default();
        pp.record_us(AuditProtocol::NonBlocking, Phase::CommitNb, 1234);
        pp.record_us(AuditProtocol::ReadOnly, Phase::Commit2pc, 5);
        let s = pp.snapshot();
        assert_eq!(ProtocolPhaseSnapshot::from_bytes(&s.to_bytes()).unwrap(), s);
    }

    #[test]
    fn summary_json_shape() {
        let h = AtomicHistogram::default();
        h.record_us(100);
        let j = h.snapshot().summary_json();
        assert_eq!(
            j,
            "{\"count\":1,\"p50_us\":100,\"p95_us\":100,\"p99_us\":100,\"mean_us\":100,\
             \"max_us\":100}"
        );
    }

    #[test]
    fn phase_snapshot_merges_per_phase() {
        let a = PhaseHistograms::default();
        a.record_us(Phase::Commit2pc, 100);
        a.record_us(Phase::ForceWait, 10);
        let b = PhaseHistograms::default();
        b.record_us(Phase::Commit2pc, 200);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.get(Phase::Commit2pc).count(), 2);
        assert_eq!(s.get(Phase::ForceWait).count(), 1);
        assert!(s.get(Phase::CommitNb).is_empty());
        let names: Vec<&str> = s.non_empty().map(|(p, _)| p.name()).collect();
        assert_eq!(names, vec!["commit_2pc", "force_wait"]);
    }
}
