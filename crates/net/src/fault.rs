//! Fault injection for real transports.
//!
//! A [`FaultPlan`] is shared by every thread of a runtime (the
//! in-process real-thread cluster or a socket transport) and consulted
//! from the datagram send path:
//!
//! - **Link faults** — every outgoing datagram asks
//!   [`FaultPlan::link_decision`], which can drop it, deliver it late
//!   (later traffic overtakes it, i.e. reordering), or duplicate it.
//!   Decisions are drawn from a seeded SplitMix64 stream, so a
//!   campaign seed reproduces the same fault *mix* (exact interleaving
//!   with real threads is inherently nondeterministic — the chaos
//!   runner treats a seed as statistically, not bitwise, replayable).
//! - **Crash points** — [`FaultPlan::arm_crash`] schedules a one-shot
//!   site kill at a named [`CrashPoint`] in the log pipeline: before
//!   the commit-record force is appended, after the force completed
//!   but before the decision datagrams go out, or mid platter write
//!   (on the leading application thread or the disk thread).
//! - **Scripted link faults** — [`FaultPlan::script_fault`] targets
//!   one exact datagram: "the Nth datagram on link A→B suffers this
//!   fault". Unlike the seeded stream, which is statistically
//!   replayable, a script keys off a per-link ordinal counter, so the
//!   *same logical message* is hit on every run of a deterministic
//!   workload regardless of thread interleaving elsewhere.
//! - **Partitions** — [`FaultPlan::partition`] cuts the links between
//!   two named site groups *symmetrically*: every datagram crossing
//!   the cut, in either direction, is dropped until [`FaultPlan::heal`].
//!   In a multi-process deployment each site only rolls its own
//!   outbound traffic, so the launcher installs the same partition on
//!   every site's plan and both directions go dark together.
//! - **Clock skew** — [`FaultPlan::set_skew`] stretches or shrinks a
//!   site's *timer deliveries* (vote timeouts, inquiry, notify
//!   resends — the protocol's retransmission machinery) by a
//!   per-mille factor: 1500 fires timers 50% late, 500 fires them
//!   twice as fast. The runtime passes every engine timer through
//!   [`FaultPlan::skew_timer`] before scheduling it.
//!
//! This module lives in `camelot-net` (rather than the runtime crate
//! where it started) so the same plan drives faults at two layers: the
//! in-process router of `camelot-rt`, and the socket transport, where
//! a "drop" really discards a UDP datagram bound for a kernel socket.
//! WAL corruption faults do not live here: they go through the
//! store-level image hooks the runtime exposes, so a harness
//! snapshots, corrupts, and restores durable bytes while a site is
//! down.
//!
//! [`FaultPlan::heal`] turns every remaining fault off; the chaos heal
//! phase calls it before asserting invariants.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::Duration as StdDuration;

use std::sync::Mutex;

use camelot_types::{splitmix64, wire_struct, CrashPoint, SiteId};

/// What to do with one outgoing datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDecision {
    /// Deliver normally.
    Deliver,
    /// Drop silently.
    Drop,
    /// Deliver after an extra delay (reordering: later datagrams on
    /// the link overtake this one).
    Delay(StdDuration),
    /// Deliver now *and* again after an extra delay.
    Duplicate(StdDuration),
}

wire_struct! {
    /// Counts of injected faults, for reporting. Carried over the control
    /// protocol so harnesses assert injected-fault counts per site instead
    /// of inferring them from protocol behavior.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct FaultStats {
        pub drops: u64,
        pub delays: u64,
        pub duplicates: u64,
        pub crashes: u64,
        /// Datagrams dropped because they crossed an installed partition.
        pub partition_drops: u64,
        /// Timer deliveries rescheduled by a clock-skew factor.
        pub skewed_timers: u64,
    }
}

/// One link's pending scripted faults, as `(ordinal, fault)` pairs.
type LinkScript = Vec<(u64, LinkDecision)>;

/// A fault-injection plan shared by every runtime thread.
pub struct FaultPlan {
    /// Master switch; [`FaultPlan::heal`] clears it.
    enabled: AtomicBool,
    seed: u64,
    /// Index of the next link decision in the seeded stream.
    counter: AtomicU64,
    drop_per_mille: u32,
    delay_per_mille: u32,
    dup_per_mille: u32,
    extra_delay: StdDuration,
    /// Remaining link faults; once exhausted the links run clean even
    /// before heal. Keeps a campaign's fault dose bounded so the heal
    /// phase converges.
    budget: AtomicI64,
    /// One-shot crash points, armed per site.
    crash_points: Mutex<HashMap<SiteId, CrashPoint>>,
    /// Scripted per-link faults: `(from, to) -> [(ordinal, fault)]`,
    /// consulted before the random stream. Ordinals are 0-based over
    /// the link's own datagram count.
    scripts: Mutex<HashMap<(SiteId, SiteId), LinkScript>>,
    /// Datagrams seen per link, feeding the scripts' ordinals.
    link_seen: Mutex<HashMap<(SiteId, SiteId), u64>>,
    /// Cheap flag sparing clean runs the `link_seen` lock: set once
    /// the first script is installed, never cleared (ordinals keep
    /// counting after heal so re-armed scripts stay meaningful).
    scripted: AtomicBool,
    /// Symmetric partitions as site-group pairs: any datagram whose
    /// endpoints fall on opposite sides of a pair is dropped, both
    /// directions. Cleared by [`FaultPlan::heal`], *not* gated on the
    /// master switch, so a harness can partition/heal repeatedly on
    /// one plan.
    partitions: Mutex<Vec<(Vec<SiteId>, Vec<SiteId>)>>,
    /// Cheap flag sparing clean runs the `partitions` lock.
    partitioned: AtomicBool,
    /// Per-site timer skew, per mille of nominal (1000 = no skew).
    /// Cleared by [`FaultPlan::heal`].
    skews: Mutex<HashMap<SiteId, u32>>,
    skewed: AtomicBool,
    drops: AtomicU64,
    delays: AtomicU64,
    duplicates: AtomicU64,
    crashes: AtomicU64,
    partition_drops: AtomicU64,
    skewed_timers: AtomicU64,
}

impl FaultPlan {
    /// A plan that injects nothing (the default for ordinary
    /// clusters). Crash points can still be armed on it.
    pub fn disabled() -> FaultPlan {
        FaultPlan::new(0, 0, 0, 0, StdDuration::ZERO, 0)
    }

    /// A plan drawing link faults from `seed`. Rates are per mille per
    /// datagram; `budget` bounds the total number of injected link
    /// faults.
    pub fn new(
        seed: u64,
        drop_per_mille: u32,
        delay_per_mille: u32,
        dup_per_mille: u32,
        extra_delay: StdDuration,
        budget: u64,
    ) -> FaultPlan {
        FaultPlan {
            enabled: AtomicBool::new(true),
            seed,
            counter: AtomicU64::new(0),
            drop_per_mille,
            delay_per_mille,
            dup_per_mille,
            extra_delay,
            budget: AtomicI64::new(budget.min(i64::MAX as u64) as i64),
            crash_points: Mutex::new(HashMap::new()),
            scripts: Mutex::new(HashMap::new()),
            link_seen: Mutex::new(HashMap::new()),
            scripted: AtomicBool::new(false),
            partitions: Mutex::new(Vec::new()),
            partitioned: AtomicBool::new(false),
            skews: Mutex::new(HashMap::new()),
            skewed: AtomicBool::new(false),
            drops: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            partition_drops: AtomicU64::new(0),
            skewed_timers: AtomicU64::new(0),
        }
    }

    /// Arms a one-shot crash of `site` at `point`. Re-arming replaces
    /// the previous point.
    pub fn arm_crash(&self, site: SiteId, point: CrashPoint) {
        self.crash_points.lock().unwrap().insert(site, point);
    }

    /// Scripts `fault` for the `nth` datagram (0-based) ever sent on
    /// the link `from -> to`. Scripts fire exactly once, are consulted
    /// before the random stream, ignore the fault budget (the caller
    /// asked for precisely this fault), and work even when every
    /// random rate is zero — so a test can say "drop the second
    /// Prepare on 1→2" and nothing else. Ordinals count from the
    /// moment the first script is installed on the plan (install
    /// before traffic starts for "Nth datagram ever"). Scripting the
    /// same ordinal twice replaces the earlier fault.
    pub fn script_fault(&self, from: SiteId, to: SiteId, nth: u64, fault: LinkDecision) {
        self.scripted.store(true, Ordering::SeqCst);
        let mut scripts = self.scripts.lock().unwrap();
        let entry = scripts.entry((from, to)).or_default();
        match entry.iter_mut().find(|(n, _)| *n == nth) {
            Some(slot) => slot.1 = fault,
            None => entry.push((nth, fault)),
        }
    }

    /// Installs a symmetric partition between site groups `a` and `b`:
    /// every datagram from a site in `a` to a site in `b` — or the
    /// reverse — is dropped until [`FaultPlan::heal`]. Partitions
    /// stack; installing a second pair cuts additional links. Works
    /// even after a previous heal (the master switch gates only the
    /// seeded stream and scripts), so a soak scheduler can
    /// partition/heal in cycles on one shared plan.
    pub fn partition(&self, a: &[SiteId], b: &[SiteId]) {
        if a.is_empty() || b.is_empty() {
            return;
        }
        self.partitions
            .lock()
            .unwrap()
            .push((a.to_vec(), b.to_vec()));
        self.partitioned.store(true, Ordering::SeqCst);
    }

    /// True if `from -> to` crosses any installed partition (in either
    /// group order — partitions are symmetric).
    pub fn is_partitioned(&self, from: SiteId, to: SiteId) -> bool {
        if !self.partitioned.load(Ordering::SeqCst) {
            return false;
        }
        let parts = self.partitions.lock().unwrap();
        parts.iter().any(|(a, b)| {
            (a.contains(&from) && b.contains(&to)) || (b.contains(&from) && a.contains(&to))
        })
    }

    /// Sets `site`'s timer skew to `per_mille` of nominal: 1500 fires
    /// its timers 50% late, 500 twice as fast, 1000 (or
    /// [`FaultPlan::heal`]) restores nominal.
    pub fn set_skew(&self, site: SiteId, per_mille: u32) {
        let mut skews = self.skews.lock().unwrap();
        if per_mille == 1000 {
            skews.remove(&site);
        } else {
            skews.insert(site, per_mille);
        }
        self.skewed.store(!skews.is_empty(), Ordering::SeqCst);
    }

    /// Applies `site`'s clock skew to one timer interval. The runtime
    /// calls this on every engine timer (vote timeout, inquiry, notify
    /// resend, takeover) before scheduling its delivery.
    pub fn skew_timer(&self, site: SiteId, nominal: StdDuration) -> StdDuration {
        if !self.skewed.load(Ordering::SeqCst) {
            return nominal;
        }
        let Some(&pm) = self.skews.lock().unwrap().get(&site) else {
            return nominal;
        };
        self.skewed_timers.fetch_add(1, Ordering::Relaxed);
        nominal.mul_f64(pm as f64 / 1000.0)
    }

    /// Stops all further injection: links run clean, partitions and
    /// skews lift, and pending crash points are dropped. Already-dead
    /// sites stay dead — restart them explicitly.
    pub fn heal(&self) {
        self.enabled.store(false, Ordering::SeqCst);
        self.crash_points.lock().unwrap().clear();
        self.scripts.lock().unwrap().clear();
        self.partitions.lock().unwrap().clear();
        self.partitioned.store(false, Ordering::SeqCst);
        self.skews.lock().unwrap().clear();
        self.skewed.store(false, Ordering::SeqCst);
    }

    /// Injection counts so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            drops: self.drops.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
            partition_drops: self.partition_drops.load(Ordering::Relaxed),
            skewed_timers: self.skewed_timers.load(Ordering::Relaxed),
        }
    }

    /// Consumes the crash point armed for `(site, point)`, if any.
    /// The runtime calls this exactly at the named instant and kills
    /// the site when it returns true. Not gated on the master switch:
    /// heal clears *pending* points, but a point armed after a heal
    /// still fires (supervision harnesses kill and heal in cycles).
    pub fn should_crash(&self, site: SiteId, point: CrashPoint) -> bool {
        let mut points = self.crash_points.lock().unwrap();
        if points.get(&site) == Some(&point) {
            points.remove(&site);
            self.crashes.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Decides the fate of one datagram on `from -> to`. Partitions
    /// drop first (unbudgeted — a cut link delivers nothing); then
    /// scripted faults for the link's current ordinal (once each,
    /// exempt from the budget); otherwise the seeded stream rolls.
    pub fn link_decision(&self, from: SiteId, to: SiteId) -> LinkDecision {
        if self.is_partitioned(from, to) {
            self.partition_drops.fetch_add(1, Ordering::Relaxed);
            return LinkDecision::Drop;
        }
        if self.scripted.load(Ordering::SeqCst) {
            let ordinal = {
                let mut seen = self.link_seen.lock().unwrap();
                let c = seen.entry((from, to)).or_insert(0);
                let ordinal = *c;
                *c += 1;
                ordinal
            };
            if self.enabled.load(Ordering::SeqCst) {
                let scripted = {
                    let mut scripts = self.scripts.lock().unwrap();
                    scripts.get_mut(&(from, to)).and_then(|entry| {
                        entry
                            .iter()
                            .position(|(n, _)| *n == ordinal)
                            .map(|i| entry.swap_remove(i).1)
                    })
                };
                if let Some(fault) = scripted {
                    match fault {
                        LinkDecision::Drop => self.drops.fetch_add(1, Ordering::Relaxed),
                        LinkDecision::Delay(_) => self.delays.fetch_add(1, Ordering::Relaxed),
                        LinkDecision::Duplicate(_) => {
                            self.duplicates.fetch_add(1, Ordering::Relaxed)
                        }
                        LinkDecision::Deliver => 0,
                    };
                    return fault;
                }
            }
        }
        if !self.enabled.load(Ordering::SeqCst)
            || (self.drop_per_mille == 0 && self.delay_per_mille == 0 && self.dup_per_mille == 0)
        {
            return LinkDecision::Deliver;
        }
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let x = splitmix64(
            self.seed
                .wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add((from.0 as u64) << 32 | to.0 as u64),
        );
        let roll = (x % 1000) as u32;
        let decision = if roll < self.drop_per_mille {
            LinkDecision::Drop
        } else if roll < self.drop_per_mille + self.delay_per_mille {
            LinkDecision::Delay(self.extra_delay)
        } else if roll < self.drop_per_mille + self.delay_per_mille + self.dup_per_mille {
            LinkDecision::Duplicate(self.extra_delay)
        } else {
            return LinkDecision::Deliver;
        };
        // Spend budget only on actual faults.
        if self.budget.fetch_sub(1, Ordering::Relaxed) <= 0 {
            return LinkDecision::Deliver;
        }
        match decision {
            LinkDecision::Drop => self.drops.fetch_add(1, Ordering::Relaxed),
            LinkDecision::Delay(_) => self.delays.fetch_add(1, Ordering::Relaxed),
            LinkDecision::Duplicate(_) => self.duplicates.fetch_add(1, Ordering::Relaxed),
            LinkDecision::Deliver => 0,
        };
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_types::wire::Wire;

    #[test]
    fn disabled_plan_never_injects() {
        let p = FaultPlan::disabled();
        for _ in 0..100 {
            assert_eq!(p.link_decision(SiteId(1), SiteId(2)), LinkDecision::Deliver);
        }
        assert!(!p.should_crash(SiteId(1), CrashPoint::PreForce));
        assert_eq!(p.stats(), FaultStats::default());
    }

    #[test]
    fn seeded_plan_injects_within_budget_and_heals() {
        let p = FaultPlan::new(42, 500, 200, 100, StdDuration::from_millis(5), 10);
        let mut injected = 0;
        for _ in 0..1000 {
            if p.link_decision(SiteId(1), SiteId(2)) != LinkDecision::Deliver {
                injected += 1;
            }
        }
        assert!(
            injected > 0,
            "an 80% fault rate must fire within 1000 rolls"
        );
        assert!(injected <= 10, "budget bounds the dose, got {injected}");
        let s = p.stats();
        assert_eq!(s.drops + s.delays + s.duplicates, injected);
        p.heal();
        for _ in 0..100 {
            assert_eq!(p.link_decision(SiteId(1), SiteId(2)), LinkDecision::Deliver);
        }
    }

    #[test]
    fn crash_points_are_one_shot_per_site() {
        let p = FaultPlan::disabled();
        p.arm_crash(SiteId(2), CrashPoint::MidPlatterWrite);
        assert!(
            !p.should_crash(SiteId(2), CrashPoint::PreForce),
            "wrong point"
        );
        assert!(
            !p.should_crash(SiteId(1), CrashPoint::MidPlatterWrite),
            "wrong site"
        );
        assert!(p.should_crash(SiteId(2), CrashPoint::MidPlatterWrite));
        assert!(
            !p.should_crash(SiteId(2), CrashPoint::MidPlatterWrite),
            "consumed"
        );
        assert_eq!(p.stats().crashes, 1);
        // heal() drops pending points.
        p.arm_crash(SiteId(3), CrashPoint::PostForcePreSend);
        p.heal();
        assert!(!p.should_crash(SiteId(3), CrashPoint::PostForcePreSend));
    }

    #[test]
    fn scripted_fault_hits_exactly_the_nth_datagram_on_its_link() {
        // All random rates zero: only the script can inject.
        let p = FaultPlan::disabled();
        p.script_fault(SiteId(1), SiteId(2), 2, LinkDecision::Drop);
        p.script_fault(
            SiteId(1),
            SiteId(2),
            4,
            LinkDecision::Delay(StdDuration::from_millis(7)),
        );
        let fates: Vec<LinkDecision> = (0..6)
            .map(|_| p.link_decision(SiteId(1), SiteId(2)))
            .collect();
        assert_eq!(
            fates,
            vec![
                LinkDecision::Deliver,
                LinkDecision::Deliver,
                LinkDecision::Drop,
                LinkDecision::Deliver,
                LinkDecision::Delay(StdDuration::from_millis(7)),
                LinkDecision::Deliver,
            ]
        );
        assert_eq!(p.stats().drops, 1);
        assert_eq!(p.stats().delays, 1);
    }

    #[test]
    fn scripted_faults_are_per_link_and_one_shot() {
        let p = FaultPlan::disabled();
        p.script_fault(SiteId(1), SiteId(2), 0, LinkDecision::Drop);
        // The reverse link is a different link: its datagrams never
        // consume the 1→2 script.
        assert_eq!(p.link_decision(SiteId(2), SiteId(1)), LinkDecision::Deliver);
        assert_eq!(p.link_decision(SiteId(1), SiteId(2)), LinkDecision::Drop);
        // One-shot: ordinal 0 already fired; later traffic runs clean.
        for _ in 0..20 {
            assert_eq!(p.link_decision(SiteId(1), SiteId(2)), LinkDecision::Deliver);
        }
        // Re-scripting an ordinal before it fires replaces the fault.
        p.script_fault(SiteId(3), SiteId(4), 1, LinkDecision::Drop);
        p.script_fault(
            SiteId(3),
            SiteId(4),
            1,
            LinkDecision::Duplicate(StdDuration::from_millis(3)),
        );
        assert_eq!(p.link_decision(SiteId(3), SiteId(4)), LinkDecision::Deliver);
        assert_eq!(
            p.link_decision(SiteId(3), SiteId(4)),
            LinkDecision::Duplicate(StdDuration::from_millis(3))
        );
    }

    #[test]
    fn heal_clears_pending_scripts() {
        let p = FaultPlan::disabled();
        p.script_fault(SiteId(1), SiteId(2), 0, LinkDecision::Drop);
        p.heal();
        assert_eq!(p.link_decision(SiteId(1), SiteId(2)), LinkDecision::Deliver);
    }

    #[test]
    fn same_seed_same_link_decision_sequence() {
        let mk = || FaultPlan::new(0xFEED, 200, 200, 200, StdDuration::from_millis(3), 1 << 30);
        let (a, b) = (mk(), mk());
        let links = [(1u32, 2u32), (2, 1), (1, 3), (3, 2)];
        let roll = |p: &FaultPlan| -> Vec<LinkDecision> {
            (0..400)
                .map(|i| {
                    let (f, t) = links[i % links.len()];
                    p.link_decision(SiteId(f), SiteId(t))
                })
                .collect()
        };
        let sa = roll(&a);
        assert_eq!(sa, roll(&b), "same seed must replay the same stream");
        assert!(
            sa.iter().any(|d| *d != LinkDecision::Deliver),
            "a 60% rate must inject within 400 rolls"
        );
        // A different seed diverges (the stream actually depends on it).
        let c = FaultPlan::new(0xBEEF, 200, 200, 200, StdDuration::from_millis(3), 1 << 30);
        assert_ne!(sa, roll(&c));
    }

    #[test]
    fn partition_drops_both_directions_and_spares_the_rest() {
        let p = FaultPlan::disabled();
        p.partition(&[SiteId(1), SiteId(2)], &[SiteId(3)]);
        // Both directions across the cut drop.
        assert_eq!(p.link_decision(SiteId(1), SiteId(3)), LinkDecision::Drop);
        assert_eq!(p.link_decision(SiteId(3), SiteId(1)), LinkDecision::Drop);
        assert_eq!(p.link_decision(SiteId(2), SiteId(3)), LinkDecision::Drop);
        assert_eq!(p.link_decision(SiteId(3), SiteId(2)), LinkDecision::Drop);
        // Links inside a group are untouched.
        assert_eq!(p.link_decision(SiteId(1), SiteId(2)), LinkDecision::Deliver);
        assert_eq!(p.link_decision(SiteId(2), SiteId(1)), LinkDecision::Deliver);
        assert_eq!(p.stats().partition_drops, 4);
    }

    #[test]
    fn heal_lifts_partitions_and_later_partitions_still_bite() {
        let p = FaultPlan::disabled();
        p.partition(&[SiteId(1)], &[SiteId(2)]);
        assert_eq!(p.link_decision(SiteId(1), SiteId(2)), LinkDecision::Drop);
        p.heal();
        assert_eq!(p.link_decision(SiteId(1), SiteId(2)), LinkDecision::Deliver);
        // Partition/heal cycles on one plan: a post-heal install works.
        p.partition(&[SiteId(1)], &[SiteId(2)]);
        assert_eq!(p.link_decision(SiteId(2), SiteId(1)), LinkDecision::Drop);
        p.heal();
        assert_eq!(p.link_decision(SiteId(2), SiteId(1)), LinkDecision::Deliver);
    }

    #[test]
    fn skew_scales_timers_per_site_until_heal() {
        let p = FaultPlan::disabled();
        let nominal = StdDuration::from_millis(800);
        assert_eq!(p.skew_timer(SiteId(2), nominal), nominal);
        p.set_skew(SiteId(2), 1500);
        assert_eq!(
            p.skew_timer(SiteId(2), nominal),
            StdDuration::from_millis(1200)
        );
        // Other sites stay nominal.
        assert_eq!(p.skew_timer(SiteId(1), nominal), nominal);
        p.set_skew(SiteId(1), 500);
        assert_eq!(
            p.skew_timer(SiteId(1), nominal),
            StdDuration::from_millis(400)
        );
        assert_eq!(p.stats().skewed_timers, 2);
        // 1000 per mille clears a site's skew; heal clears them all.
        p.set_skew(SiteId(1), 1000);
        assert_eq!(p.skew_timer(SiteId(1), nominal), nominal);
        p.heal();
        assert_eq!(p.skew_timer(SiteId(2), nominal), nominal);
    }

    #[test]
    fn crash_points_armed_after_heal_still_fire() {
        let p = FaultPlan::disabled();
        p.heal();
        p.arm_crash(SiteId(1), CrashPoint::PreForce);
        assert!(p.should_crash(SiteId(1), CrashPoint::PreForce));
    }

    #[test]
    fn fault_stats_roundtrip_on_the_wire() {
        let s = FaultStats {
            drops: 1,
            delays: 2,
            duplicates: 3,
            crashes: 4,
            partition_drops: 5,
            skewed_timers: 6,
        };
        assert_eq!(FaultStats::from_bytes(&s.to_bytes()).unwrap(), s);
        assert!(FaultStats::from_bytes(&s.to_bytes()[..12]).is_err());
    }
}
