//! Sharded completion tables.
//!
//! An application-level call (begin, commit, read, write) whose reply
//! comes from another thread parks a one-shot channel in a completion
//! table keyed by request id and waits for that thread to complete
//! it; a reply produced on the calling thread never comes here. With
//! a single `Mutex<HashMap>` every parked call on every site
//! serializes on that one lock twice. Request ids are allocated from
//! one atomic counter, so striping the table by `req % N` spreads
//! those acquisitions evenly with no cross-shard coordination at all.

use std::collections::HashMap;

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

    /// Parks a one-shot completion under `key`.
    pub fn park(&self, key: u64) -> Receiver<V> {
        let (tx, rx) = bounded(1);
        self.shard(key).lock().insert(key, tx);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_complete_roundtrip_across_shards() {
        let m: ShardedMap<u64> = ShardedMap::new(4);
        let rxs: Vec<_> = (0..32u64).map(|k| (k, m.park(k))).collect();
        for (k, rx) in rxs {
            assert!(m.complete(k, k));
            assert_eq!(rx.recv().unwrap(), k);
            assert!(!m.complete(k, k), "complete is take");
        }
        let rx = m.park(99);
        m.cancel(99);
        assert!(!m.complete(99, 0), "cancelled completions are gone");
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn concurrent_use_is_linearizable_per_key() {
        let m = std::sync::Arc::new(ShardedMap::<u64>::new(8));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..256u64 {
                    let k = t * 1000 + i;
                    let rx = m.park(k);
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
