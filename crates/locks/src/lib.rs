//! Moss-model lock manager for nested transactions.
//!
//! Camelot data servers "must serialize access to [their] data by
//! locking" (paper §2); the runtime library provides shared/exclusive
//! mode locking. Transactions are nested in the Moss model, which
//! refines two-phase locking with an *ancestor rule*:
//!
//! - a transaction may acquire a lock in **exclusive** mode if every
//!   other transaction holding the lock (in any mode) is one of its
//!   ancestors;
//! - a transaction may acquire a lock in **shared** mode if every
//!   other transaction holding the lock in exclusive mode is one of
//!   its ancestors;
//! - when a subtransaction commits, its locks are **inherited** by its
//!   parent (so siblings remain excluded until the family resolves);
//! - when a (sub)transaction aborts, locks held by it and by its
//!   descendants are released.
//!
//! The manager is sans-time: an acquisition either succeeds or is
//! queued FIFO, and release-type operations return the requests that
//! became grantable so the runtime can wake the waiters (and apply
//! its own timeout policy).
//!
//! # Examples
//!
//! ```
//! use camelot_locks::{LockManager, Mode, Acquire};
//! use camelot_types::{FamilyId, ObjectId, SiteId, Tid};
//!
//! let mut lm = LockManager::new();
//! let fam = FamilyId { origin: SiteId(1), seq: 1 };
//! let top = Tid::top_level(fam);
//! let child = top.child(1);
//!
//! assert_eq!(lm.acquire(ObjectId(1), &child, Mode::Exclusive), Acquire::Granted);
//! // Sibling is blocked...
//! let sib = top.child(2);
//! assert_eq!(lm.acquire(ObjectId(1), &sib, Mode::Shared), Acquire::Queued);
//! // ...until the child commits to the parent and the parent's lock
//! // is released with the family.
//! lm.commit_subtransaction(&child);
//! let granted = lm.release_family(fam.clone());
//! assert!(granted.is_empty()); // Waiter was in the same family: also gone.
//! ```

use std::collections::HashMap;

use camelot_types::{FamilyId, ObjectId, Tid};

/// Lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    Shared,
    Exclusive,
}

/// Result of an acquisition attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// The lock is held (now, or already).
    Granted,
    /// The request conflicts and was queued FIFO; the caller will be
    /// told via the return value of a release-type call when it is
    /// granted.
    Queued,
}

/// A request that became grantable after a release-type operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Granted {
    pub object: ObjectId,
    pub tid: Tid,
    pub mode: Mode,
}

#[derive(Debug, Default)]
struct Entry {
    /// Current holders with their strongest mode.
    holders: Vec<(Tid, Mode)>,
    /// FIFO wait queue.
    waiters: Vec<(Tid, Mode)>,
}

impl Entry {
    fn is_free(&self) -> bool {
        self.holders.is_empty() && self.waiters.is_empty()
    }

    fn holder_mode(&self, tid: &Tid) -> Option<Mode> {
        self.holders.iter().find(|(t, _)| t == tid).map(|(_, m)| *m)
    }

    /// The Moss compatibility check: may `tid` hold the lock in
    /// `mode`, given the other current holders?
    fn compatible(&self, tid: &Tid, mode: Mode) -> bool {
        self.holders.iter().all(|(holder, held_mode)| {
            if holder == tid {
                return true; // Own holding never conflicts with itself.
            }
            match mode {
                // Exclusive: every other holder must be an ancestor.
                Mode::Exclusive => holder.is_ancestor_of(tid),
                // Shared: every other *exclusive* holder must be an
                // ancestor.
                Mode::Shared => *held_mode == Mode::Shared || holder.is_ancestor_of(tid),
            }
        })
    }

    fn grant(&mut self, tid: &Tid, mode: Mode) {
        match self.holders.iter_mut().find(|(t, _)| t == tid) {
            Some((_, m)) => {
                if *m == Mode::Shared && mode == Mode::Exclusive {
                    *m = Mode::Exclusive; // Upgrade.
                }
            }
            None => self.holders.push((tid.clone(), mode)),
        }
    }

    /// Grants queued requests from the head while they are compatible
    /// (FIFO fairness: stop at the first blocked waiter).
    fn pump(&mut self, object: ObjectId, granted: &mut Vec<Granted>) {
        while !self.waiters.is_empty() {
            let (tid, mode) = &self.waiters[0];
            if self.compatible(tid, *mode) {
                let (tid, mode) = self.waiters.remove(0);
                self.grant(&tid, mode);
                granted.push(Granted { object, tid, mode });
            } else {
                break;
            }
        }
    }
}

/// The lock manager of one data server.
#[derive(Debug, Default)]
pub struct LockManager {
    table: HashMap<ObjectId, Entry>,
}

impl LockManager {
    pub fn new() -> Self {
        LockManager::default()
    }

    /// Requests `object` in `mode` for `tid`. Re-entrant: a holder
    /// asking for a mode it already covers is granted immediately; a
    /// shared holder asking for exclusive is upgraded when permitted.
    ///
    /// An upgrade request that must wait is queued like any other
    /// request (Camelot's runtime library offers plain
    /// shared/exclusive locks, not upgrade priority).
    pub fn acquire(&mut self, object: ObjectId, tid: &Tid, mode: Mode) -> Acquire {
        let entry = self.table.entry(object).or_default();
        // Already held strongly enough?
        if let Some(held) = entry.holder_mode(tid) {
            if held == Mode::Exclusive || mode == Mode::Shared {
                return Acquire::Granted;
            }
        }
        // FIFO fairness: if others are already waiting, a *new* (non-
        // upgrade) request must queue behind them even if momentarily
        // compatible. Upgrades by a current holder may jump the queue
        // only if immediately compatible — otherwise they queue too.
        let is_holder = entry.holder_mode(tid).is_some();
        let must_queue = !entry.waiters.is_empty() && !is_holder;
        if !must_queue && entry.compatible(tid, mode) {
            entry.grant(tid, mode);
            Acquire::Granted
        } else {
            entry.waiters.push((tid.clone(), mode));
            Acquire::Queued
        }
    }

    /// Mode in which `tid` currently holds `object`, if any.
    pub fn held_mode(&self, object: ObjectId, tid: &Tid) -> Option<Mode> {
        self.table.get(&object).and_then(|e| e.holder_mode(tid))
    }

    /// All current holders of `object`.
    pub fn holders(&self, object: ObjectId) -> Vec<(Tid, Mode)> {
        self.table
            .get(&object)
            .map(|e| e.holders.clone())
            .unwrap_or_default()
    }

    /// Number of queued waiters on `object`.
    pub fn waiters(&self, object: ObjectId) -> usize {
        self.table
            .get(&object)
            .map(|e| e.waiters.len())
            .unwrap_or(0)
    }

    /// Removes a queued request (lock-wait timeout / waiter abort).
    /// Returns true if a queued request was removed. Removing a
    /// waiter can unblock those behind it.
    pub fn cancel_wait(&mut self, object: ObjectId, tid: &Tid) -> (bool, Vec<Granted>) {
        let mut granted = Vec::new();
        let mut removed = false;
        if let Some(entry) = self.table.get_mut(&object) {
            let before = entry.waiters.len();
            entry.waiters.retain(|(t, _)| t != tid);
            removed = entry.waiters.len() != before;
            entry.pump(object, &mut granted);
            if entry.is_free() {
                self.table.remove(&object);
            }
        }
        (removed, granted)
    }

    /// Subtransaction commit: `tid`'s locks are inherited by its
    /// parent (Moss anti-inheritance). Queued requests by `tid` are
    /// re-attributed to the parent as well. No locks become free, but
    /// inheritance can still grant waiters (an aunt waiting on a lock
    /// now held only by her ancestor).
    ///
    /// # Panics
    ///
    /// Panics if `tid` is a top-level transaction — top-level commit
    /// must go through the commitment protocol and then
    /// [`LockManager::release_family`].
    pub fn commit_subtransaction(&mut self, tid: &Tid) -> Vec<Granted> {
        let parent = tid
            .parent()
            .expect("commit_subtransaction needs a nested tid");
        let mut granted = Vec::new();
        for (object, entry) in self.table.iter_mut() {
            let mut changed = false;
            // Inherit holdings.
            if let Some(pos) = entry.holders.iter().position(|(t, _)| t == tid) {
                let (_, mode) = entry.holders.remove(pos);
                entry.grant(&parent, mode);
                changed = true;
            }
            // Re-attribute queued requests.
            for (t, _) in entry.waiters.iter_mut() {
                if t == tid {
                    *t = parent.clone();
                    changed = true;
                }
            }
            if changed {
                entry.pump(*object, &mut granted);
            }
        }
        granted
    }

    /// Abort of `tid`: releases locks and queued requests of `tid`
    /// and of all its descendants. Returns newly grantable requests.
    pub fn abort_transaction(&mut self, tid: &Tid) -> Vec<Granted> {
        let mut granted = Vec::new();
        self.table.retain(|object, entry| {
            let before_h = entry.holders.len();
            let before_w = entry.waiters.len();
            entry
                .holders
                .retain(|(t, _)| !tid.is_self_or_ancestor_of(t));
            entry
                .waiters
                .retain(|(t, _)| !tid.is_self_or_ancestor_of(t));
            if entry.holders.len() != before_h || entry.waiters.len() != before_w {
                entry.pump(*object, &mut granted);
            }
            !entry.is_free()
        });
        granted
    }

    /// Family commit (or family abort cleanup): drops every lock and
    /// queued request belonging to any member of `family`. This is
    /// the "drop the locks held by the transaction" step of the
    /// commitment protocols (Figure 1, step 11).
    pub fn release_family(&mut self, family: FamilyId) -> Vec<Granted> {
        let mut granted = Vec::new();
        self.table.retain(|object, entry| {
            let before_h = entry.holders.len();
            let before_w = entry.waiters.len();
            entry.holders.retain(|(t, _)| t.family != family);
            entry.waiters.retain(|(t, _)| t.family != family);
            if entry.holders.len() != before_h || entry.waiters.len() != before_w {
                entry.pump(*object, &mut granted);
            }
            !entry.is_free()
        });
        granted
    }

    /// Number of objects with lock state.
    pub fn locked_objects(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camelot_types::SiteId;

    fn fam(n: u64) -> FamilyId {
        FamilyId {
            origin: SiteId(1),
            seq: n,
        }
    }

    fn obj(n: u64) -> ObjectId {
        ObjectId(n)
    }

    #[test]
    fn shared_locks_are_compatible_across_families() {
        let mut lm = LockManager::new();
        let a = Tid::top_level(fam(1));
        let b = Tid::top_level(fam(2));
        assert_eq!(lm.acquire(obj(1), &a, Mode::Shared), Acquire::Granted);
        assert_eq!(lm.acquire(obj(1), &b, Mode::Shared), Acquire::Granted);
        assert_eq!(lm.holders(obj(1)).len(), 2);
    }

    #[test]
    fn exclusive_conflicts_across_families() {
        let mut lm = LockManager::new();
        let a = Tid::top_level(fam(1));
        let b = Tid::top_level(fam(2));
        assert_eq!(lm.acquire(obj(1), &a, Mode::Exclusive), Acquire::Granted);
        assert_eq!(lm.acquire(obj(1), &b, Mode::Shared), Acquire::Queued);
        assert_eq!(lm.acquire(obj(1), &b, Mode::Exclusive), Acquire::Queued);
        assert_eq!(lm.waiters(obj(1)), 2);
    }

    #[test]
    fn release_family_grants_fifo_waiters() {
        let mut lm = LockManager::new();
        let a = Tid::top_level(fam(1));
        let b = Tid::top_level(fam(2));
        let c = Tid::top_level(fam(3));
        lm.acquire(obj(1), &a, Mode::Exclusive);
        lm.acquire(obj(1), &b, Mode::Shared);
        lm.acquire(obj(1), &c, Mode::Shared);
        let granted = lm.release_family(fam(1));
        assert_eq!(granted.len(), 2, "both shared waiters wake together");
        assert_eq!(granted[0].tid, b);
        assert_eq!(granted[1].tid, c);
        assert_eq!(lm.held_mode(obj(1), &b), Some(Mode::Shared));
    }

    #[test]
    fn fifo_fairness_blocks_later_compatible_request() {
        // a holds S; b waits for X; c's S request must queue behind b,
        // or b could starve.
        let mut lm = LockManager::new();
        let a = Tid::top_level(fam(1));
        let b = Tid::top_level(fam(2));
        let c = Tid::top_level(fam(3));
        lm.acquire(obj(1), &a, Mode::Shared);
        assert_eq!(lm.acquire(obj(1), &b, Mode::Exclusive), Acquire::Queued);
        assert_eq!(lm.acquire(obj(1), &c, Mode::Shared), Acquire::Queued);
        let granted = lm.release_family(fam(1));
        // b (X) first; c remains queued behind it.
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].tid, b);
        assert_eq!(lm.waiters(obj(1)), 1);
        let granted = lm.release_family(fam(2));
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].tid, c);
    }

    #[test]
    fn child_may_acquire_what_ancestor_holds() {
        let mut lm = LockManager::new();
        let top = Tid::top_level(fam(1));
        let child = top.child(1);
        lm.acquire(obj(1), &top, Mode::Exclusive);
        assert_eq!(
            lm.acquire(obj(1), &child, Mode::Exclusive),
            Acquire::Granted
        );
        assert_eq!(lm.acquire(obj(1), &child, Mode::Shared), Acquire::Granted);
    }

    #[test]
    fn sibling_conflicts_within_family() {
        let mut lm = LockManager::new();
        let top = Tid::top_level(fam(1));
        let c1 = top.child(1);
        let c2 = top.child(2);
        lm.acquire(obj(1), &c1, Mode::Exclusive);
        assert_eq!(lm.acquire(obj(1), &c2, Mode::Exclusive), Acquire::Queued);
    }

    #[test]
    fn subcommit_inherits_to_parent_and_unblocks_relatives() {
        let mut lm = LockManager::new();
        let top = Tid::top_level(fam(1));
        let c1 = top.child(1);
        let gc = c1.child(1);
        let c2 = top.child(2);
        lm.acquire(obj(1), &gc, Mode::Exclusive);
        // c2 is the grandchild's aunt: blocked (gc not its ancestor).
        assert_eq!(lm.acquire(obj(1), &c2, Mode::Exclusive), Acquire::Queued);
        // gc commits: c1 inherits. Still blocks c2 (sibling).
        let g = lm.commit_subtransaction(&gc);
        assert!(g.is_empty());
        assert_eq!(lm.held_mode(obj(1), &c1), Some(Mode::Exclusive));
        // c1 commits: top inherits. Top is c2's ancestor — c2 wakes!
        let g = lm.commit_subtransaction(&c1);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].tid, c2);
        assert_eq!(lm.held_mode(obj(1), &c2), Some(Mode::Exclusive));
    }

    #[test]
    fn subcommit_merges_modes_x_wins() {
        let mut lm = LockManager::new();
        let top = Tid::top_level(fam(1));
        let c = top.child(1);
        lm.acquire(obj(1), &top, Mode::Shared);
        lm.acquire(obj(1), &c, Mode::Exclusive);
        lm.commit_subtransaction(&c);
        assert_eq!(lm.held_mode(obj(1), &top), Some(Mode::Exclusive));
        assert_eq!(lm.holders(obj(1)).len(), 1);
    }

    #[test]
    fn abort_releases_subtree() {
        let mut lm = LockManager::new();
        let top = Tid::top_level(fam(1));
        let c = top.child(1);
        let gc = c.child(1);
        let other = Tid::top_level(fam(2));
        lm.acquire(obj(1), &gc, Mode::Exclusive);
        lm.acquire(obj(2), &c, Mode::Exclusive);
        lm.acquire(obj(3), &top, Mode::Exclusive);
        assert_eq!(lm.acquire(obj(1), &other, Mode::Shared), Acquire::Queued);
        let granted = lm.abort_transaction(&c);
        // gc's lock (descendant of c) released -> other granted.
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].tid, other);
        // c's own lock gone; top's lock untouched.
        assert_eq!(lm.held_mode(obj(2), &c), None);
        assert_eq!(lm.held_mode(obj(3), &top), Some(Mode::Exclusive));
    }

    #[test]
    fn abort_removes_queued_requests_of_subtree() {
        let mut lm = LockManager::new();
        let a = Tid::top_level(fam(1));
        let b = Tid::top_level(fam(2)).child(1);
        lm.acquire(obj(1), &a, Mode::Exclusive);
        lm.acquire(obj(1), &b, Mode::Exclusive);
        assert_eq!(lm.waiters(obj(1)), 1);
        lm.abort_transaction(&Tid::top_level(fam(2)));
        assert_eq!(lm.waiters(obj(1)), 0);
    }

    #[test]
    fn upgrade_shared_to_exclusive_when_sole_holder() {
        let mut lm = LockManager::new();
        let a = Tid::top_level(fam(1));
        lm.acquire(obj(1), &a, Mode::Shared);
        assert_eq!(lm.acquire(obj(1), &a, Mode::Exclusive), Acquire::Granted);
        assert_eq!(lm.held_mode(obj(1), &a), Some(Mode::Exclusive));
    }

    #[test]
    fn upgrade_waits_when_other_sharers_exist() {
        let mut lm = LockManager::new();
        let a = Tid::top_level(fam(1));
        let b = Tid::top_level(fam(2));
        lm.acquire(obj(1), &a, Mode::Shared);
        lm.acquire(obj(1), &b, Mode::Shared);
        assert_eq!(lm.acquire(obj(1), &a, Mode::Exclusive), Acquire::Queued);
        let granted = lm.release_family(fam(2));
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].mode, Mode::Exclusive);
        assert_eq!(lm.held_mode(obj(1), &a), Some(Mode::Exclusive));
    }

    #[test]
    fn reacquire_held_lock_is_cheap_grant() {
        let mut lm = LockManager::new();
        let a = Tid::top_level(fam(1));
        lm.acquire(obj(1), &a, Mode::Exclusive);
        assert_eq!(lm.acquire(obj(1), &a, Mode::Exclusive), Acquire::Granted);
        assert_eq!(lm.acquire(obj(1), &a, Mode::Shared), Acquire::Granted);
        assert_eq!(lm.holders(obj(1)).len(), 1);
    }

    #[test]
    fn cancel_wait_unblocks_queue_behind() {
        let mut lm = LockManager::new();
        let a = Tid::top_level(fam(1));
        let b = Tid::top_level(fam(2));
        let c = Tid::top_level(fam(3));
        lm.acquire(obj(1), &a, Mode::Shared);
        lm.acquire(obj(1), &b, Mode::Exclusive);
        lm.acquire(obj(1), &c, Mode::Shared);
        // b gives up (timeout): c is compatible with a and wakes.
        let (removed, granted) = lm.cancel_wait(obj(1), &b);
        assert!(removed);
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].tid, c);
        let (removed, _) = lm.cancel_wait(obj(1), &b);
        assert!(!removed, "second cancel is a no-op");
    }

    #[test]
    fn table_is_garbage_collected() {
        let mut lm = LockManager::new();
        let a = Tid::top_level(fam(1));
        lm.acquire(obj(1), &a, Mode::Exclusive);
        assert_eq!(lm.locked_objects(), 1);
        lm.release_family(fam(1));
        assert_eq!(lm.locked_objects(), 0);
    }

    #[test]
    #[should_panic(expected = "commit_subtransaction needs a nested tid")]
    fn subcommit_of_top_level_panics() {
        let mut lm = LockManager::new();
        lm.commit_subtransaction(&Tid::top_level(fam(1)));
    }

    #[test]
    fn paper_contention_scenario() {
        // §4.2: back-to-back transactions lock and update the same
        // data element; the second must wait until the first's locks
        // drop at commit.
        let mut lm = LockManager::new();
        let t1 = Tid::top_level(fam(1));
        let t2 = Tid::top_level(fam(2));
        assert_eq!(lm.acquire(obj(42), &t1, Mode::Exclusive), Acquire::Granted);
        assert_eq!(lm.acquire(obj(42), &t2, Mode::Exclusive), Acquire::Queued);
        let granted = lm.release_family(fam(1));
        assert_eq!(
            granted,
            vec![Granted {
                object: obj(42),
                tid: t2,
                mode: Mode::Exclusive
            }]
        );
    }
}
