//! Skew-aware cross-process trace merge.
//!
//! Rings created by one in-process cluster share an epoch, but each
//! `camelot-site` *process* creates its own — so raw `us` values from
//! different processes differ by arbitrary epoch offsets, and a PR 9
//! `set_skew` fault means clocks can differ in *rate* too. Merging by
//! raw timestamp would interleave nonsense.
//!
//! The fix is the classic NTP-style estimator, applied offline to the
//! traffic the protocol already traced. Every matched datagram pair
//! (the k-th `datagram_send` from site A to site B for a family/msg
//! matches the k-th `datagram_recv` at B from A) gives one delay
//! sample per direction:
//!
//! ```text
//! forward:  recv_B − send_A =  off + transit
//! backward: recv_A − send_B = −off + transit
//! ```
//!
//! Minimum-filtering each direction cancels queueing noise, and the
//! half-difference cancels (symmetric) transit, leaving the offset.
//! Estimating that offset in an early and a late time window gives
//! its drift rate, i.e. an affine map `corrected = scale·local +
//! offset` per site — which is exactly what a rate-skewed clock
//! needs. Sites with no direct traffic to the reference compose maps
//! along a BFS of the who-talked-to-whom graph.
//!
//! After rebasing, residual inversions that message edges prove
//! impossible (a receive before its send) are repaired by clamping
//! receives forward and restoring per-site sequence monotonicity, so
//! downstream consumers can rely on happens-before order.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt::Write as FmtWrite;

use crate::event::ScopeEvent;

/// An affine map from one site's local clock into the reference
/// site's frame: `corrected_us = scale * local_us + offset_us`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockMap {
    pub site: u32,
    pub scale: f64,
    pub offset_us: f64,
    /// Matched datagram pairs that fed the estimate (0 means the site
    /// was unreachable in the message graph and kept its local clock).
    pub pairs: usize,
}

impl ClockMap {
    fn identity(site: u32) -> ClockMap {
        ClockMap {
            site,
            scale: 1.0,
            offset_us: 0.0,
            pairs: 0,
        }
    }

    fn apply(&self, us: u64) -> u64 {
        (self.scale * us as f64 + self.offset_us).max(0.0).round() as u64
    }

    /// `self ∘ inner`: first `inner` (y → x), then `self` (x → ref).
    fn compose(&self, inner: &ClockMap) -> ClockMap {
        ClockMap {
            site: inner.site,
            scale: self.scale * inner.scale,
            offset_us: self.scale * inner.offset_us + self.offset_us,
            pairs: inner.pairs,
        }
    }
}

/// The merged cluster timeline: events in corrected happens-before
/// order plus the clock maps that produced it.
#[derive(Debug, Clone)]
pub struct MergedTimeline {
    /// Site whose clock frame everyone was rebased into.
    pub reference: u32,
    pub maps: Vec<ClockMap>,
    pub events: Vec<ScopeEvent>,
}

impl MergedTimeline {
    /// A JSON header describing the merge (reference frame and
    /// per-site clock estimates).
    pub fn header_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"merge\":{{\"reference\":{},\"sites\":[",
            self.reference
        );
        for (i, m) in self.maps.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"site\":{},\"scale\":{:.6},\"offset_us\":{:.1},\"pairs\":{}}}",
                m.site, m.scale, m.offset_us, m.pairs
            );
        }
        let _ = write!(s, "]}}}}");
        s
    }

    /// Header line plus one corrected event per line — the single
    /// cluster timeline artifact soak and chaos dump on violation.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(64 + self.events.len() * 96);
        s.push_str(&self.header_json());
        s.push('\n');
        for e in &self.events {
            s.push_str(&e.to_json());
            s.push('\n');
        }
        s
    }

    /// Matched message edges whose corrected receive is not strictly
    /// after its send. The merge repairs these to a fixpoint, so
    /// nonzero here means the trace itself is inconsistent (e.g. two
    /// drains interleaved) — smoke and soak assert zero.
    pub fn happens_before_violations(&self) -> usize {
        match_pairs(&self.events)
            .into_iter()
            .filter(|&(s, r)| self.events[r].us <= self.events[s].us)
            .count()
    }
}

/// One direction's delay samples between a site pair, indexed by the
/// frame-owner side's local time so windows split consistently.
#[derive(Default)]
struct PairSamples {
    /// `(t_x_local, recv_y_local − send_x_local)` for x→y messages.
    forward: Vec<(f64, f64)>,
    /// `(t_x_local, recv_x_local − send_y_local)` for y→x messages.
    backward: Vec<(f64, f64)>,
}

/// Matched `(send_index, recv_index)` pairs into an event slice.
/// Shared with [`crate::attr`], which charges the same pairs to the
/// `net_transit` segment.
pub(crate) fn match_pairs(events: &[ScopeEvent]) -> Vec<(usize, usize)> {
    // k-th send ↔ k-th recv per (family, from, to, msg). Events
    // arrive in arbitrary order; sort each side by (site seq) first
    // so "k-th" means emission order.
    type Key = (Option<String>, u32, u32, String);
    let mut sends: HashMap<Key, Vec<usize>> = HashMap::new();
    let mut recvs: HashMap<Key, Vec<usize>> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        match e.ev.as_str() {
            "datagram_send" => {
                if let (Some(to), Some(msg)) = (e.u64_field("to"), e.str_field("msg")) {
                    sends
                        .entry((e.family.clone(), e.site, to as u32, msg.to_string()))
                        .or_default()
                        .push(i);
                }
            }
            "datagram_recv" => {
                if let (Some(from), Some(msg)) = (e.u64_field("from"), e.str_field("msg")) {
                    recvs
                        .entry((e.family.clone(), from as u32, e.site, msg.to_string()))
                        .or_default()
                        .push(i);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    for (key, mut s) in sends {
        let Some(mut r) = recvs.remove(&key) else {
            continue;
        };
        s.sort_by_key(|&i| events[i].seq);
        r.sort_by_key(|&i| events[i].seq);
        out.extend(s.into_iter().zip(r));
    }
    out
}

/// Offset of y relative to x from one window's samples:
/// `off = (min forward − min backward) / 2` when both directions are
/// present; a single direction assumes near-zero transit (biased but
/// better than nothing).
fn window_offset(fwd: &[f64], bwd: &[f64]) -> Option<f64> {
    let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
    match (fwd.is_empty(), bwd.is_empty()) {
        (false, false) => Some((min(fwd) - min(bwd)) / 2.0),
        (false, true) => Some(min(fwd)),
        (true, false) => Some(-min(bwd)),
        (true, true) => None,
    }
}

/// Estimates the affine map taking y-local µs into x's frame from the
/// pair's delay samples, or `None` without any samples.
fn estimate_map(y: u32, samples: &PairSamples) -> Option<ClockMap> {
    let npairs = samples.forward.len() + samples.backward.len();
    if npairs == 0 {
        return None;
    }
    // Split on the median x-time into an early and a late window; a
    // per-window offset estimate needs samples on both sides to see
    // drift, otherwise fall back to one constant offset.
    let mut times: Vec<f64> = samples
        .forward
        .iter()
        .chain(samples.backward.iter())
        .map(|(t, _)| *t)
        .collect();
    times.sort_by(f64::total_cmp);
    let mid = times[times.len() / 2];
    let split = |v: &[(f64, f64)]| -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let (mut d_lo, mut d_hi, mut t_lo, mut t_hi) = (vec![], vec![], vec![], vec![]);
        for (t, d) in v {
            if *t < mid {
                d_lo.push(*d);
                t_lo.push(*t);
            } else {
                d_hi.push(*d);
                t_hi.push(*t);
            }
        }
        (d_lo, d_hi, t_lo, t_hi)
    };
    let (f_lo, f_hi, ft_lo, ft_hi) = split(&samples.forward);
    let (b_lo, b_hi, bt_lo, bt_hi) = split(&samples.backward);
    let mean = |a: &[f64], b: &[f64]| -> Option<f64> {
        let n = a.len() + b.len();
        (n > 0).then(|| (a.iter().sum::<f64>() + b.iter().sum::<f64>()) / n as f64)
    };
    let lo = window_offset(&f_lo, &b_lo).zip(mean(&ft_lo, &bt_lo));
    let hi = window_offset(&f_hi, &b_hi).zip(mean(&ft_hi, &bt_hi));
    // Drift-aware path: offsets at two well-separated window centres
    // give the offset's slope m in x-time; inverting
    // `y = t + o1 + m (t − T1)` yields the affine y→x map.
    if let (Some((o1, t1)), Some((o2, t2))) = (lo, hi) {
        if t2 - t1 > 1.0 {
            let m = (o2 - o1) / (t2 - t1);
            let denom = 1.0 + m;
            // A slope near −1 would mean y's clock is frozen; that's
            // estimator noise, not physics — fall back to constant.
            if denom.abs() > 0.1 {
                return Some(ClockMap {
                    site: y,
                    scale: 1.0 / denom,
                    offset_us: -(o1 - m * t1) / denom,
                    pairs: npairs,
                });
            }
        }
    }
    let off = window_offset(
        &samples.forward.iter().map(|(_, d)| *d).collect::<Vec<_>>(),
        &samples.backward.iter().map(|(_, d)| *d).collect::<Vec<_>>(),
    )?;
    Some(ClockMap {
        site: y,
        scale: 1.0,
        offset_us: -off,
        pairs: npairs,
    })
}

/// Merges per-site trace events (site-local timestamps) into one
/// timeline in the reference site's clock frame, ordered by corrected
/// time with message-edge happens-before repaired. The reference is
/// the lowest site id present.
pub fn merge_skew_aware(mut events: Vec<ScopeEvent>) -> MergedTimeline {
    let sites: BTreeSet<u32> = events.iter().map(|e| e.site).collect();
    let Some(&reference) = sites.iter().next() else {
        return MergedTimeline {
            reference: 0,
            maps: vec![],
            events,
        };
    };
    let pairs = match_pairs(&events);

    // Delay samples per unordered site pair, indexed by the
    // lower-site ("x") local time.
    let mut samples: BTreeMap<(u32, u32), PairSamples> = BTreeMap::new();
    for &(s, r) in &pairs {
        let (send, recv) = (&events[s], &events[r]);
        let (a, b) = (send.site, recv.site);
        if a == b {
            continue;
        }
        let (x, y) = (a.min(b), a.max(b));
        let entry = samples.entry((x, y)).or_default();
        if a == x {
            // x → y message: x-side time is the send stamp.
            entry
                .forward
                .push((send.us as f64, recv.us as f64 - send.us as f64));
        } else {
            // y → x message: x-side time is the recv stamp.
            entry
                .backward
                .push((recv.us as f64, recv.us as f64 - send.us as f64));
        }
    }

    // BFS from the reference, composing pairwise maps along the way.
    let mut maps: BTreeMap<u32, ClockMap> = BTreeMap::new();
    maps.insert(reference, ClockMap::identity(reference));
    let mut queue = VecDeque::from([reference]);
    while let Some(x) = queue.pop_front() {
        let x_map = maps[&x];
        for (&(lo, hi), pair) in &samples {
            let y = if lo == x {
                hi
            } else if hi == x {
                lo
            } else {
                continue;
            };
            if maps.contains_key(&y) {
                continue;
            }
            // `samples` is keyed with the lower id as the frame
            // owner; when x is the higher id, flip the estimate by
            // inverting the affine map.
            let est = if lo == x {
                estimate_map(y, pair)
            } else {
                estimate_map(lo, pair).map(|m| ClockMap {
                    site: y,
                    scale: 1.0 / m.scale,
                    offset_us: -m.offset_us / m.scale,
                    pairs: m.pairs,
                })
            };
            if let Some(m) = est {
                maps.insert(y, x_map.compose(&m));
                queue.push_back(y);
            }
        }
    }
    // Unreachable sites (no matched traffic) keep their local clock.
    for &s in &sites {
        maps.entry(s).or_insert_with(|| ClockMap::identity(s));
    }

    // Rebase.
    for e in events.iter_mut() {
        e.us = maps[&e.site].apply(e.raw_us);
    }

    // Per-site emission order is ground truth: corrected time must
    // be monotone in seq at each site.
    let site_monotone = |events: &mut [ScopeEvent]| {
        let mut order: Vec<usize> = (0..events.len()).collect();
        order.sort_by_key(|&i| (events[i].site, events[i].seq));
        let mut last: HashMap<u32, u64> = HashMap::new();
        for i in order {
            let e = &mut events[i];
            let floor = last.entry(e.site).or_insert(0);
            if e.us < *floor {
                e.us = *floor;
            }
            *floor = e.us;
        }
    };
    site_monotone(&mut events);

    // Message edges prove happens-before: a receive at or before its
    // send is residual estimator error. Clamp receives forward, then
    // restore per-site monotonicity, to a bounded fixpoint.
    for _ in 0..10 {
        let mut changed = false;
        for &(s, r) in &pairs {
            let floor = events[s].us + 1;
            if events[r].us < floor {
                events[r].us = floor;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        site_monotone(&mut events);
    }

    events.sort_by_key(|e| (e.us, e.site, e.seq));
    MergedTimeline {
        reference,
        maps: maps.into_values().collect(),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_jsonl;

    fn map_for(merged: &MergedTimeline, site: u32) -> Option<&ClockMap> {
        merged.maps.iter().find(|m| m.site == site)
    }

    /// Deterministic pseudo-random transit in [lo, hi) µs.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self, lo: u64, hi: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lo + (self.0 >> 33) % (hi - lo)
        }
    }

    /// Builds a three-site trace in "true" (reference) time, then
    /// stamps each site's events through its local clock:
    ///   site 1: local = t                      (reference)
    ///   site 2: local = t + 2_000_000         (constant offset)
    ///   site 3: local = 2 t + 500_000         (2× fast, PR 9 set_skew style)
    /// Returns the shuffled site-local events plus the matched
    /// (send, recv) true-time pairs for order checks.
    fn synthetic_traces() -> Vec<ScopeEvent> {
        let local = |site: u32, t: u64| -> u64 {
            match site {
                1 => t,
                2 => t + 2_000_000,
                3 => 2 * t + 500_000,
                _ => unreachable!(),
            }
        };
        let mut seqs = [0u64; 4];
        let mut lines = Vec::new();
        let mut emit = |site: u32, t: u64, family: &str, body: &str| {
            let seq = seqs[site as usize];
            seqs[site as usize] += 1;
            lines.push(format!(
                "{{\"seq\":{seq},\"site\":{site},\"us\":{},\"family\":\"{family}\",{body}}}",
                local(site, t)
            ));
        };
        let mut rng = Lcg(42);
        // 40 two-phase families spread over ~2 s so the estimator's
        // two windows get real separation; each family runs
        // coordinator site 1 against subordinates 2 and 3.
        for f in 0..40u64 {
            let t0 = 10_000 + f * 50_000;
            let fam = format!("F1.{f}");
            emit(1, t0, &fam, "\"ev\":\"begin\"");
            emit(1, t0 + 200, &fam, "\"ev\":\"commit_call\",\"mode\":\"2pc\"");
            for sub in [2u32, 3u32] {
                let send = t0 + 300 + sub as u64;
                let transit = rng.next(200, 1500);
                emit(
                    1,
                    send,
                    &fam,
                    &format!(
                        "\"ev\":\"datagram_send\",\"to\":{sub},\"msg\":\"Prepare\",\"piggyback\":0"
                    ),
                );
                let recv = send + transit;
                emit(
                    sub,
                    recv,
                    &fam,
                    "\"ev\":\"datagram_recv\",\"from\":1,\"msg\":\"Prepare\"",
                );
                let vote_send = recv + rng.next(100, 900);
                let vote_transit = rng.next(200, 1500);
                emit(
                    sub,
                    vote_send,
                    &fam,
                    "\"ev\":\"datagram_send\",\"to\":1,\"msg\":\"VoteCommit\",\"piggyback\":0",
                );
                emit(
                    1,
                    vote_send + vote_transit,
                    &fam,
                    &format!("\"ev\":\"datagram_recv\",\"from\":{sub},\"msg\":\"VoteCommit\""),
                );
            }
            emit(
                1,
                t0 + 9_000,
                &fam,
                "\"ev\":\"resolved\",\"outcome\":\"committed\"",
            );
        }
        let mut events = parse_jsonl(&lines.join("\n"));
        // Shuffle deterministically: merge must not depend on input order.
        let mut rng = Lcg(7);
        for i in (1..events.len()).rev() {
            let j = (rng.next(0, (i + 1) as u64)) as usize;
            events.swap(i, j);
        }
        events
    }

    #[test]
    fn recovers_injected_offsets_and_rate() {
        let merged = merge_skew_aware(synthetic_traces());
        assert_eq!(merged.reference, 1);
        let m2 = map_for(&merged, 2).expect("site 2 mapped");
        let m3 = map_for(&merged, 3).expect("site 3 mapped");
        assert!(m2.pairs > 0 && m3.pairs > 0);
        // Site 2: local = t + 2e6 → corrected = local − 2e6.
        assert!(
            (m2.scale - 1.0).abs() < 0.02,
            "site 2 scale {} should be ~1",
            m2.scale
        );
        assert!(
            (m2.offset_us + 2_000_000.0).abs() < 5_000.0,
            "site 2 offset {} should be ~-2e6",
            m2.offset_us
        );
        // Site 3: local = 2t + 5e5 → corrected = local/2 − 2.5e5.
        assert!(
            (m3.scale - 0.5).abs() < 0.025,
            "site 3 scale {} should be ~0.5 (2x fast clock)",
            m3.scale
        );
        assert!(
            (m3.offset_us + 250_000.0).abs() < 15_000.0,
            "site 3 offset {} should be ~-2.5e5",
            m3.offset_us
        );
    }

    #[test]
    fn merged_order_respects_happens_before() {
        let merged = merge_skew_aware(synthetic_traces());
        // Every matched message edge: corrected recv strictly after
        // corrected send.
        let pairs = match_pairs(&merged.events);
        assert!(
            pairs.len() >= 150,
            "expected matched pairs, got {}",
            pairs.len()
        );
        for (s, r) in pairs {
            assert!(
                merged.events[s].us < merged.events[r].us,
                "recv before send after merge: {} !< {}",
                merged.events[s].to_json(),
                merged.events[r].to_json()
            );
        }
        // Per-family lifecycle order on the corrected timeline.
        for f in 0..40u64 {
            let fam = format!("F1.{f}");
            let evs: Vec<&ScopeEvent> = merged
                .events
                .iter()
                .filter(|e| e.family.as_deref() == Some(fam.as_str()))
                .collect();
            let pos = |name: &str| evs.iter().position(|e| e.ev == name).unwrap();
            assert!(pos("begin") < pos("commit_call"));
            assert!(pos("commit_call") < pos("resolved"));
        }
        // Events sorted by corrected time.
        assert!(merged.events.windows(2).all(|w| w[0].us <= w[1].us));
        // The artifact carries the merge header.
        let out = merged.to_jsonl();
        assert!(out.starts_with("{\"merge\":{\"reference\":1,"), "{out}");
    }

    #[test]
    fn sites_without_traffic_keep_local_clocks() {
        let events = parse_jsonl(
            "{\"seq\":0,\"site\":5,\"us\":10,\"ev\":\"crash\"}\n{\"seq\":0,\"site\":9,\"us\":4,\"ev\":\"restart\"}",
        );
        let merged = merge_skew_aware(events);
        assert_eq!(merged.reference, 5);
        assert_eq!(map_for(&merged, 9).unwrap().pairs, 0);
        assert_eq!(merged.events.len(), 2);
    }
}
