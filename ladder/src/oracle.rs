//! The counter oracle.
//!
//! Every key is a counter that starts at 0 and that every committed
//! read-modify-write raises by one, so after any number of
//! transactions the value of a key must lie between the commits the
//! driver saw acknowledged and that count plus the commits whose
//! outcome it never learned (a commit call that timed out). A value
//! below the range is a *lost update*, one above it a *phantom
//! commit*. The check needs no log of the run, only two counts per
//! key, and it survives a crash: it is read again after recovery.

use crate::workload::Txn;

/// Per-(site, key) commit counts, as seen by the driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ledger {
    keys_per_site: usize,
    /// `[site - 1][key]` commits acknowledged as committed.
    acked: Vec<Vec<u64>>,
    /// `[site - 1][key]` commits whose outcome is unknown.
    unknown: Vec<Vec<u64>>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Sum over keys of `acked - value` where the value fell short.
    pub lost: u64,
    /// Sum over keys of `value - (acked + unknown)` where it overshot.
    pub phantom: u64,
    /// Keys with either defect.
    pub bad_keys: u64,
}

impl Verdict {
    pub fn violations(&self) -> u64 {
        self.lost + self.phantom
    }
}

impl Ledger {
    pub fn new(sites: u32, keys_per_site: u64) -> Ledger {
        let table = vec![vec![0u64; keys_per_site as usize]; sites as usize];
        Ledger {
            keys_per_site: keys_per_site as usize,
            acked: table.clone(),
            unknown: table,
        }
    }

    pub fn committed(&mut self, txn: &Txn) {
        Self::bump(&mut self.acked, txn);
    }

    pub fn unknown_outcome(&mut self, txn: &Txn) {
        Self::bump(&mut self.unknown, txn);
    }

    fn bump(table: &mut [Vec<u64>], txn: &Txn) {
        for op in txn.ops.iter().filter(|o| o.rmw) {
            table[op.site as usize - 1][op.key as usize] += 1;
        }
    }

    /// Adds another driver thread's counts.
    pub fn merge(&mut self, other: &Ledger) {
        for (mine, theirs) in [
            (&mut self.acked, &other.acked),
            (&mut self.unknown, &other.unknown),
        ] {
            for (m, t) in mine.iter_mut().zip(theirs) {
                for (a, b) in m.iter_mut().zip(t) {
                    *a += b;
                }
            }
        }
    }

    /// Checks the values read back from the cluster: `values[site -
    /// 1][key]`.
    pub fn check(&self, values: &[Vec<u64>]) -> Verdict {
        let mut v = Verdict::default();
        for (s, site_values) in values.iter().enumerate() {
            assert_eq!(site_values.len(), self.keys_per_site);
            for (k, &value) in site_values.iter().enumerate() {
                let lo = self.acked[s][k];
                let hi = lo + self.unknown[s][k];
                if value < lo {
                    v.lost += lo - value;
                    v.bad_keys += 1;
                } else if value > hi {
                    v.phantom += value - hi;
                    v.bad_keys += 1;
                }
            }
        }
        v
    }
}

/// A counter as stored: little-endian `u64`; a key never written
/// reads back empty and counts as 0.
pub fn decode(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    let n = bytes.len().min(8);
    b[..n].copy_from_slice(&bytes[..n]);
    u64::from_le_bytes(b)
}

pub fn encode(v: u64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Op;
    use camelot_core::CommitMode;

    fn rmw(site: u32, key: u64) -> Txn {
        Txn {
            home: site,
            ops: vec![
                Op {
                    site,
                    key,
                    rmw: true,
                },
                Op {
                    site,
                    key: 0,
                    rmw: false,
                },
            ],
            mode: CommitMode::TwoPhase,
        }
    }

    #[test]
    fn exact_counts_pass_and_reads_do_not_count() {
        let mut l = Ledger::new(2, 4);
        l.committed(&rmw(1, 2));
        l.committed(&rmw(1, 2));
        l.committed(&rmw(2, 3));
        let ok = vec![vec![0, 0, 2, 0], vec![0, 0, 0, 1]];
        assert_eq!(l.check(&ok), Verdict::default());
    }

    #[test]
    fn shortfall_is_lost_and_overshoot_is_phantom() {
        let mut l = Ledger::new(1, 3);
        for _ in 0..5 {
            l.committed(&rmw(1, 0));
        }
        l.committed(&rmw(1, 1));
        let v = l.check(&[vec![3, 4, 0]]);
        assert_eq!(
            v,
            Verdict {
                lost: 2,
                phantom: 3,
                bad_keys: 2
            }
        );
        assert_eq!(v.violations(), 5);
    }

    #[test]
    fn unknown_outcomes_widen_the_range_upward_only() {
        let mut l = Ledger::new(1, 1);
        l.committed(&rmw(1, 0));
        l.unknown_outcome(&rmw(1, 0));
        l.unknown_outcome(&rmw(1, 0));
        for (value, lost, phantom) in [(0, 1, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 1)] {
            let v = l.check(&[vec![value]]);
            assert_eq!((v.lost, v.phantom), (lost, phantom), "value {value}");
        }
    }

    #[test]
    fn merge_adds_thread_ledgers() {
        let mut a = Ledger::new(1, 2);
        let mut b = Ledger::new(1, 2);
        a.committed(&rmw(1, 1));
        b.committed(&rmw(1, 1));
        b.unknown_outcome(&rmw(1, 0));
        a.merge(&b);
        assert_eq!(a.check(&[vec![1, 2]]), Verdict::default());
        assert_eq!(a.check(&[vec![2, 2]]).phantom, 1);
    }

    #[test]
    fn counters_round_trip_and_empty_is_zero() {
        assert_eq!(decode(&[]), 0);
        assert_eq!(decode(&encode(77)), 77);
        assert_eq!(decode(&[1, 0, 0]), 1);
    }
}
