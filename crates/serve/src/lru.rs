//! The service's snapshot and compiled-query caches: one [`LruCache`]
//! behind one lock each.  A hit holds the lock for one hash lookup and
//! one `Arc` clone, which is short next to a request's hand-off, so the
//! pool's workers have nothing to gain from splitting a cache further.
//!
//! Lookups clone the value out (`V: Clone` — the service stores `Arc`s,
//! so a clone is a refcount bump) and release the lock immediately;
//! expensive misses (snapshot mapping, query compilation) are computed
//! *outside* the lock by the caller.  Two workers racing on the same
//! cold key may both compute — that duplicated work is accepted in
//! exchange for never holding the lock across I/O or compilation.
//!
//! The cache is immune to lock poisoning: a worker that panics while
//! holding the lock (a `Clone` that panics, or injected chaos) may leave
//! the map half-updated, but cache contents are by definition
//! reconstructible — recovery clears the poison *and drops every
//! entry*, since no single entry can be trusted, and every later hit or
//! miss proceeds normally (asserted by
//! `poisoned_cache_recovers_and_keeps_serving`).

use crate::sync::{Mutex, MutexGuard};
use minctx_core::LruCache;
use std::hash::Hash;

pub struct SharedLru<K, V> {
    cache: Mutex<LruCache<K, V>>,
}

impl<K: Eq + Hash + Clone, V: Clone> SharedLru<K, V> {
    /// A cache of at most `capacity` entries (clamped to at least 1).
    pub fn new(capacity: usize) -> SharedLru<K, V> {
        SharedLru {
            cache: Mutex::new(LruCache::new(capacity)),
        }
    }

    /// Locks the cache, recovering from poisoning.  The previous holder
    /// panicked mid-operation, so the contents may be half-mutated —
    /// but a cache entry is always re-derivable, so the safe recovery
    /// is to drop them all and carry on empty.
    fn lock(&self) -> MutexGuard<'_, LruCache<K, V>> {
        match self.cache.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                // (loom's mutex has no clear_poison; its models never
                // panic under the lock, so recovery is unreachable.)
                #[cfg(not(loom))]
                self.cache.clear_poison();
                let mut g = poisoned.into_inner();
                g.clear();
                g
            }
        }
    }

    pub fn get(&self, key: &K) -> Option<V> {
        let mut cache = self.lock();
        crate::chaos::tick(crate::chaos::Site::Shard);
        cache.get(key).cloned()
    }

    pub fn insert(&self, key: K, value: V) {
        self.lock().insert(key, value);
    }

    /// Resident entries (racy; diagnostics only).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn get_returns_what_insert_stored() {
        let c = SharedLru::new(64);
        for i in 0..10u32 {
            c.insert(i, i * 10);
        }
        assert_eq!(c.len(), 10);
        for i in 0..10u32 {
            assert_eq!(c.get(&i), Some(i * 10));
        }
        assert_eq!(c.get(&99), None);
    }

    #[test]
    fn capacity_bounds_total_residency() {
        let c = SharedLru::new(8);
        for i in 0..1000u32 {
            c.insert(i, i);
        }
        assert_eq!(c.len(), 8);
        // The eight most recent keys are the residents.
        for i in 992..1000u32 {
            assert_eq!(c.get(&i), Some(i));
        }
    }

    /// A value whose `Clone` panics while armed — which happens inside
    /// `get`, i.e. while the lock is held, poisoning the mutex.
    #[derive(Debug)]
    struct Bomb(&'static AtomicBool);

    impl Clone for Bomb {
        fn clone(&self) -> Bomb {
            if self.0.swap(false, Ordering::SeqCst) {
                panic!("bomb: clone panicked under the cache lock");
            }
            Bomb(self.0)
        }
    }

    #[test]
    fn poisoned_cache_recovers_and_keeps_serving() {
        static ARMED: AtomicBool = AtomicBool::new(false);
        let c: SharedLru<u32, Bomb> = SharedLru::new(8);
        for k in 0..4u32 {
            c.insert(k, Bomb(&ARMED));
        }
        ARMED.store(true, Ordering::SeqCst);
        let boom = catch_unwind(AssertUnwindSafe(|| c.get(&0)));
        assert!(boom.is_err(), "armed clone must panic");

        // The lock was poisoned mid-get; recovery drops every (suspect)
        // entry, not just the one the panicking holder touched, and
        // clears the poison — no later call may panic.
        assert_eq!(c.len(), 0);
        for k in 0..4u32 {
            assert!(c.get(&k).is_none(), "suspect entry {k} must be dropped");
        }
        c.insert(5, Bomb(&ARMED));
        assert!(c.get(&5).is_some(), "the cache must serve after recovery");
        assert_eq!(c.len(), 1);
    }
}
