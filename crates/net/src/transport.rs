//! Datagram bookkeeping: sequence numbers and duplicate detection.
//!
//! Transaction managers communicate with unreliable datagrams and are
//! themselves "responsible for implementing mechanisms such as
//! timeout/retry and duplicate detection" (paper §4.2, footnote 1).
//! Timeout/retry is the commit protocols' own: the engine's vote
//! timeout, inquiries, notify resend and takeover timers recover every
//! lost datagram, in-process and over either socket mode. What is left
//! for the transport is numbering what it sends and suppressing what it
//! has already delivered:
//!
//! - [`SeqAlloc`] numbers each outgoing `(src, dst)` stream, from a
//!   per-incarnation base.
//! - [`DupFilter`] suppresses re-deliveries using per-sender sequence
//!   numbers with a sliding window.

use std::collections::HashMap;

use camelot_types::SiteId;

/// Sliding-window duplicate detection per sender.
///
/// Accepts each (sender, seq) at most once. Sequence numbers may
/// arrive out of order within a window of `window` entries; anything
/// older than the window's trailing edge is assumed to be a duplicate
/// (the sender only reuses numbers after `u64` wrap, which is never).
#[derive(Debug)]
pub struct DupFilter {
    window: u64,
    /// Per sender: highest seq seen and a bitmap of the window below
    /// it (bit i set = `highest - i` seen).
    state: HashMap<SiteId, (u64, u128)>,
}

impl DupFilter {
    pub fn new(window: u64) -> Self {
        assert!((1..=128).contains(&window), "window must be 1..=128");
        DupFilter {
            window,
            state: HashMap::new(),
        }
    }

    /// Returns true exactly once per (sender, seq): on first sight.
    pub fn accept(&mut self, from: SiteId, seq: u64) -> bool {
        match self.state.get_mut(&from) {
            None => {
                self.state.insert(from, (seq, 1));
                true
            }
            Some((highest, bitmap)) => {
                if seq > *highest {
                    let shift = seq - *highest;
                    *bitmap = if shift >= 128 { 0 } else { *bitmap << shift };
                    *bitmap |= 1;
                    *highest = seq;
                    true
                } else {
                    let age = *highest - seq;
                    if age >= self.window {
                        return false; // Too old: treat as duplicate.
                    }
                    let mask = 1u128 << age;
                    if *bitmap & mask != 0 {
                        false
                    } else {
                        *bitmap |= mask;
                        true
                    }
                }
            }
        }
    }
}

/// Per-destination sequence number allocator for outgoing envelopes.
#[derive(Debug)]
pub struct SeqAlloc {
    base: u64,
    next: HashMap<SiteId, u64>,
}

impl SeqAlloc {
    /// An allocator whose per-destination counters start at `base`.
    ///
    /// Sequence numbers never wrap (u64), but they *restart*: a site
    /// process that crashes and comes back would allocate from 0
    /// again, and its first `window` datagrams would land inside the
    /// peers' [`DupFilter`] windows — silently swallowed as
    /// duplicates. Real transports therefore derive `base` from a
    /// monotonic incarnation marker (e.g. wall-clock time at boot,
    /// shifted well past any per-incarnation send volume), the same
    /// trick TCP's initial sequence numbers use.
    pub fn starting_at(base: u64) -> Self {
        SeqAlloc {
            base,
            next: HashMap::new(),
        }
    }

    /// Allocates the next sequence number for messages to `dst`.
    pub fn next(&mut self, dst: SiteId) -> u64 {
        let n = self.next.entry(dst).or_insert(self.base);
        let v = *n;
        *n += 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dup_filter_accepts_once() {
        let mut f = DupFilter::new(64);
        assert!(f.accept(SiteId(1), 0));
        assert!(!f.accept(SiteId(1), 0));
        assert!(f.accept(SiteId(1), 1));
        assert!(!f.accept(SiteId(1), 1));
    }

    #[test]
    fn dup_filter_handles_reordering_within_window() {
        let mut f = DupFilter::new(64);
        assert!(f.accept(SiteId(1), 10));
        assert!(f.accept(SiteId(1), 8)); // Late but new.
        assert!(!f.accept(SiteId(1), 8)); // Duplicate of the late one.
        assert!(f.accept(SiteId(1), 9));
    }

    #[test]
    fn dup_filter_rejects_beyond_window() {
        let mut f = DupFilter::new(4);
        assert!(f.accept(SiteId(1), 100));
        assert!(!f.accept(SiteId(1), 96), "age 4 >= window 4");
        assert!(f.accept(SiteId(1), 97), "age 3 < window");
    }

    #[test]
    fn dup_filter_big_jump_clears_bitmap() {
        let mut f = DupFilter::new(64);
        assert!(f.accept(SiteId(1), 0));
        assert!(f.accept(SiteId(1), 1_000));
        assert!(f.accept(SiteId(1), 999));
    }

    #[test]
    fn dup_filter_per_sender_independence() {
        let mut f = DupFilter::new(64);
        assert!(f.accept(SiteId(1), 5));
        assert!(f.accept(SiteId(2), 5));
        assert!(!f.accept(SiteId(1), 5));
        assert!(!f.accept(SiteId(2), 5));
    }

    #[test]
    fn seq_alloc_is_per_destination() {
        let mut a = SeqAlloc::starting_at(0);
        assert_eq!(a.next(SiteId(1)), 0);
        assert_eq!(a.next(SiteId(1)), 1);
        assert_eq!(a.next(SiteId(2)), 0);
    }

    #[test]
    fn seq_alloc_base_applies_to_every_destination() {
        let mut a = SeqAlloc::starting_at(1 << 32);
        assert_eq!(a.next(SiteId(1)), 1 << 32);
        assert_eq!(a.next(SiteId(1)), (1 << 32) + 1);
        assert_eq!(a.next(SiteId(2)), 1 << 32);
    }

    /// The restart hazard `starting_at` exists for: a sender that
    /// comes back allocating from 0 is mistaken for its own past self
    /// and filtered; one that comes back past the old window is heard.
    #[test]
    fn restarted_sender_with_fresh_base_survives_dup_filter() {
        let mut f = DupFilter::new(64);
        // First incarnation sent seqs 0..=40.
        for s in 0..=40 {
            assert!(f.accept(SiteId(1), s));
        }
        // Naive restart from 0: everything inside the window is eaten.
        assert!(!f.accept(SiteId(1), 0), "restart from 0 is swallowed");
        // ISN-style restart beyond the old incarnation's numbers.
        let mut a = SeqAlloc::starting_at(1_000_000);
        assert!(f.accept(SiteId(1), a.next(SiteId(1))));
        assert!(f.accept(SiteId(1), a.next(SiteId(1))));
    }
}
