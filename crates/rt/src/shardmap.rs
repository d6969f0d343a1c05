//! Sharded completion tables.
//!
//! An application-level call (begin, commit, read, write) whose reply
//! comes from another thread parks a one-shot channel in a completion
//! table keyed by request id and waits for that thread to complete
//! it; a reply produced on the calling thread never comes here. The
//! table belongs to the site whose threads answer: a TM call parks at
//! its home site, a data operation at its target site. A crash of that
//! site clears the table, and every parked caller wakes at once to a
//! closed channel; a call that would park at a site already down gets
//! a closed one to begin with. With a single `Mutex<HashMap>` every
//! parked call serializes on that one lock twice. Request ids are
//! allocated from one atomic counter, so striping the table by
//! `req % N` spreads those acquisitions evenly with no cross-shard
//! coordination at all.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;

/// A completion table striped over `N` independently locked shards.
pub(crate) struct ShardedMap<V> {
    shards: Vec<Mutex<HashMap<u64, Sender<V>>>>,
}

impl<V> ShardedMap<V> {
    pub fn new(shards: usize) -> Self {
        ShardedMap {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, Sender<V>>> {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// Parks a one-shot completion under `key` if `open` is set, and
    /// otherwise returns a closed one, on which a wait fails at once.
    /// `open` is read under the shard's lock, so a thread that clears
    /// `open` and then calls [`ShardedMap::clear`] either finds the
    /// completion parked or makes this call see `open` cleared.
    pub fn park(&self, key: u64, open: &AtomicBool) -> Receiver<V> {
        let (tx, rx) = bounded(1);
        let mut shard = self.shard(key).lock();
        if open.load(Ordering::SeqCst) {
            shard.insert(key, tx);
        }
        rx
    }

    /// Completes `key` with `value` if a caller is (still) parked on
    /// it; a reply nobody waits for is dropped.
    pub fn complete(&self, key: u64, value: V) -> bool {
        let tx = self.shard(key).lock().remove(&key);
        tx.is_some_and(|tx| tx.send(value).is_ok())
    }

    /// Withdraws a parked completion (its caller gave up or got its
    /// reply another way).
    pub fn cancel(&self, key: u64) {
        self.shard(key).lock().remove(&key);
    }

    /// Drops every parked completion: each waiting caller wakes at
    /// once to a closed channel.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_complete_roundtrip_across_shards() {
        let open = AtomicBool::new(true);
        let m: ShardedMap<u64> = ShardedMap::new(4);
        let rxs: Vec<_> = (0..32u64).map(|k| (k, m.park(k, &open))).collect();
        for (k, rx) in rxs {
            assert!(m.complete(k, k));
            assert_eq!(rx.recv().unwrap(), k);
            assert!(!m.complete(k, k), "complete is take");
        }
        let rx = m.park(99, &open);
        m.cancel(99);
        assert!(!m.complete(99, 0), "cancelled completions are gone");
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn clear_wakes_every_parked_receiver_and_a_closed_map_parks_none() {
        let open = AtomicBool::new(true);
        let m = std::sync::Arc::new(ShardedMap::<u64>::new(4));
        let waiters: Vec<_> = (0..8u64)
            .map(|k| {
                let rx = m.park(k, &open);
                std::thread::spawn(move || rx.recv_timeout(std::time::Duration::from_secs(30)))
            })
            .collect();
        let started = std::time::Instant::now();
        open.store(false, Ordering::SeqCst);
        m.clear();
        for waiter in waiters {
            assert!(waiter.join().unwrap().is_err(), "woken without a value");
        }
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
        assert!((0..8u64).all(|k| !m.complete(k, k)), "nothing left parked");
        let rx = m.park(99, &open);
        assert!(!m.complete(99, 99), "a closed map parks nothing");
        assert!(rx.recv().is_err(), "and its completion is closed at once");
    }

    #[test]
    fn concurrent_use_is_linearizable_per_key() {
        let m = std::sync::Arc::new(ShardedMap::<u64>::new(8));
        let open = std::sync::Arc::new(AtomicBool::new(true));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let (m, open) = (m.clone(), open.clone());
            handles.push(std::thread::spawn(move || {
                for i in 0..256u64 {
                    let k = t * 1000 + i;
                    let rx = m.park(k, &open);
                    assert!(m.complete(k, k));
                    assert_eq!(rx.recv().unwrap(), k);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
