//! A sharded LRU: the service's snapshot and compiled-query caches are
//! read-mostly and shared by every worker, so a single mutex would
//! serialize the pool.  Keys hash to one of N independently locked
//! [`LruCache`] shards; workers contend only when they touch the same
//! shard at the same instant.
//!
//! Lookups clone the value out (`V: Clone` — the service stores `Arc`s,
//! so a clone is a refcount bump) and release the lock immediately;
//! expensive misses (snapshot mapping, query compilation) are computed
//! *outside* any lock by the caller.  Two workers racing on the same
//! cold key may both compute — that duplicated work is accepted in
//! exchange for never holding a shard lock across I/O or compilation.
//!
//! The cache is immune to lock poisoning: a worker that panics while
//! holding a shard (a `Clone` that panics, or injected chaos) leaves
//! the shard's contents suspect, but cache contents are by definition
//! reconstructible — recovery clears the poison *and* the shard, and
//! every later hit or miss proceeds normally.
//!
//! # The drop-all recovery invariant
//!
//! Poison recovery deliberately drops **every** entry of the poisoned
//! shard, not just the entry the panicking holder touched: the LRU's
//! intrusive recency list may be half-relinked at the panic point, so
//! no individual entry can be trusted.  The invariant is exactly
//! shard-scoped, in both directions:
//!
//! * **everything in the poisoned shard goes** — a later `get` of any
//!   key hashing there misses (asserted by
//!   `poisoned_shard_recovers_and_keeps_serving`);
//! * **nothing outside it goes** — entries in the other `N − 1` shards
//!   are untouched, because recovery runs entirely under the one
//!   poisoned lock (asserted by
//!   `poisoning_one_shard_leaves_other_shards_intact`).

use crate::sync::{Mutex, MutexGuard};
use minctx_core::LruCache;
use std::hash::{BuildHasher, Hash, RandomState};

pub struct ShardedLru<K, V> {
    shards: Box<[Mutex<LruCache<K, V>>]>,
    hasher: RandomState,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedLru<K, V> {
    /// A cache of ~`capacity` total entries spread over at most `shards`
    /// locks.  Both are clamped to at least 1, and the shard count is
    /// lowered until every shard holds at least two entries (8 entries
    /// asked over 8 shards become 4 shards of 2): a one-entry shard makes
    /// any two keys that hash to it evict each other on every alternation,
    /// however much room the cache has overall.
    pub fn new(capacity: usize, shards: usize) -> ShardedLru<K, V> {
        let shards = shards.clamp(1, (capacity / 2).max(1));
        let per_shard = capacity.div_ceil(shards).max(1);
        ShardedLru {
            shards: (0..shards)
                .map(|_| Mutex::new(LruCache::new(per_shard)))
                .collect(),
            hasher: RandomState::new(),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<LruCache<K, V>> {
        &self.shards[self.shard_index(key)]
    }

    /// Which shard `key` lives in.  Diagnostics and tests only — the
    /// mapping is stable for the life of this cache but differs between
    /// instances (the hasher is randomly seeded).
    pub fn shard_index(&self, key: &K) -> usize {
        let h = self.hasher.hash_one(key) as usize;
        h % self.shards.len()
    }

    /// Locks a shard, recovering from poisoning.  The previous holder
    /// panicked mid-operation, so its contents may be half-mutated —
    /// but a cache entry is always re-derivable, so the safe recovery
    /// is to drop them all and carry on empty (the shard-scoped
    /// drop-all invariant; see the module docs).
    fn lock(m: &Mutex<LruCache<K, V>>) -> MutexGuard<'_, LruCache<K, V>> {
        match m.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                // (loom's mutex has no clear_poison; its models never
                // panic under the lock, so recovery is unreachable.)
                #[cfg(not(loom))]
                m.clear_poison();
                let mut g = poisoned.into_inner();
                g.clear();
                g
            }
        }
    }

    pub fn get(&self, key: &K) -> Option<V> {
        let mut shard = Self::lock(self.shard(key));
        crate::chaos::tick(crate::chaos::Site::Shard);
        shard.get(key).cloned()
    }

    pub fn insert(&self, key: K, value: V) {
        Self::lock(self.shard(&key)).insert(key, value);
    }

    /// Total resident entries across all shards (racy; diagnostics only).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn get_returns_what_insert_stored() {
        // Capacity 64 over 4 shards = 16 per shard: even if RandomState
        // sends all 10 keys to one shard, nothing can evict.
        let c = ShardedLru::new(64, 4);
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
        // 8 entries over 4 shards = 2 per shard; hammering one value
        // range can never exceed shards * per_shard residents.
        let c = ShardedLru::new(8, 4);
        for i in 0..1000u32 {
            c.insert(i, i);
        }
        assert!(c.len() <= 8, "len {} exceeds capacity", c.len());
    }

    #[test]
    fn shard_and_capacity_floors() {
        let c: ShardedLru<u32, u32> = ShardedLru::new(0, 0);
        assert_eq!(c.shard_count(), 1);
        c.insert(1, 1);
        assert_eq!(c.get(&1), Some(1));
        // Shards are given up until each holds two entries; a geometry
        // that already does is taken as asked.
        assert_eq!(ShardedLru::<u32, u32>::new(8, 8).shard_count(), 4);
        assert_eq!(ShardedLru::<u32, u32>::new(16, 8).shard_count(), 8);
        assert_eq!(ShardedLru::<u32, u32>::new(256, 8).shard_count(), 8);
        assert_eq!(ShardedLru::<u32, u32>::new(1, 8).shard_count(), 1);
    }

    #[test]
    fn colliding_keys_do_not_evict_each_other() {
        // The service default (8 entries asked over 8 shards) used to
        // hold one entry per shard: two snapshots whose stamps share a
        // shard then re-opened on every switch.  Whatever the hasher's
        // seed, some pair among nine keys shares one of ≤ 8 shards.
        let c: ShardedLru<u32, u32> = ShardedLru::new(8, 8);
        let (a, b) = (0..9u32)
            .flat_map(|a| (a + 1..9).map(move |b| (a, b)))
            .find(|(a, b)| c.shard_index(a) == c.shard_index(b))
            .expect("nine keys over at most eight shards collide");
        c.insert(a, 10);
        c.insert(b, 20);
        for round in 0..100 {
            assert_eq!(c.get(&a), Some(10), "round {round}: {a} evicted by {b}");
            assert_eq!(c.get(&b), Some(20), "round {round}: {b} evicted by {a}");
        }
        assert_eq!(c.len(), 2);
    }

    /// A value whose `Clone` panics while armed — which happens inside
    /// `get`, i.e. while the shard lock is held, poisoning the mutex.
    #[derive(Debug)]
    struct Bomb(&'static AtomicBool);

    impl Clone for Bomb {
        fn clone(&self) -> Bomb {
            if self.0.swap(false, Ordering::SeqCst) {
                panic!("bomb: clone panicked under the shard lock");
            }
            Bomb(self.0)
        }
    }

    #[test]
    fn poisoned_shard_recovers_and_keeps_serving() {
        static ARMED: AtomicBool = AtomicBool::new(false);
        // One shard, so the poisoned lock is the only lock.
        let c: ShardedLru<u32, Bomb> = ShardedLru::new(8, 1);
        c.insert(1, Bomb(&ARMED));
        ARMED.store(true, Ordering::SeqCst);
        let boom = catch_unwind(AssertUnwindSafe(|| c.get(&1)));
        assert!(boom.is_err(), "armed clone must panic");

        // The shard was poisoned mid-get; recovery drops the (suspect)
        // contents and clears the poison — no later call may panic.
        assert_eq!(c.len(), 0);
        assert!(c.get(&1).is_none(), "suspect contents must be dropped");
        c.insert(2, Bomb(&ARMED));
        assert!(c.get(&2).is_some(), "shard must serve after recovery");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn poisoning_one_shard_leaves_other_shards_intact() {
        static ARMED: AtomicBool = AtomicBool::new(false);
        // Plenty of capacity so nothing is ever evicted; enough keys
        // that with 4 shards some land outside the victim shard.
        let c: ShardedLru<u32, Bomb> = ShardedLru::new(64, 4);
        for k in 0..16u32 {
            c.insert(k, Bomb(&ARMED));
        }
        assert_eq!(c.len(), 16);
        let victim_key = 0u32;
        let victim_shard = c.shard_index(&victim_key);
        let cohabitants: Vec<u32> = (0..16)
            .filter(|k| c.shard_index(k) == victim_shard)
            .collect();
        let survivors: Vec<u32> = (0..16)
            .filter(|k| c.shard_index(k) != victim_shard)
            .collect();
        assert!(
            !survivors.is_empty(),
            "16 keys over 4 shards cannot all collide"
        );

        // Poison exactly the victim shard.
        ARMED.store(true, Ordering::SeqCst);
        let boom = catch_unwind(AssertUnwindSafe(|| c.get(&victim_key)));
        assert!(boom.is_err(), "armed clone must panic");

        // Drop-all is shard-scoped: every cohabitant of the poisoned
        // shard is gone, every entry elsewhere survives.
        for k in &cohabitants {
            assert!(
                c.get(k).is_none(),
                "key {k} in poisoned shard must be dropped"
            );
        }
        for k in &survivors {
            assert!(
                c.get(k).is_some(),
                "key {k} in a healthy shard must survive"
            );
        }
        assert_eq!(c.len(), survivors.len());
    }
}
