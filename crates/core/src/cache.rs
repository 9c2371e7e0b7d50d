//! A small least-recently-used map, shared by the [`Engine`](crate::Engine)'s
//! compiled-query cache and the two `minctx-serve` caches.
//!
//! Deliberately simple (std-only, no intrusive list): entries carry a
//! monotone use tick and eviction scans for the minimum.  Lookups and
//! hits are `O(1)`; eviction is `O(len)` — fine for the capacities these
//! caches run at (tens to a few hundred entries), where eviction is rare
//! and a scan over a small flat map is cheaper than maintaining linked
//! structure on every hit.  The previous `Engine` policy — clear the
//! whole map when full — threw away every hot compilation whenever churn
//! (ad-hoc query strings, rotating corpora) filled the cache; LRU keeps
//! the hot set resident instead.

use std::collections::HashMap;
use std::hash::Hash;

/// A bounded map evicting the least-recently-used entry on overflow.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, Entry<V>>,
    capacity: usize,
    tick: u64,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    used: u64,
}

impl<K: Eq + Hash, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries (clamped to a
    /// minimum of 1 — a zero-capacity cache would make every insert a
    /// self-eviction).
    pub fn new(capacity: usize) -> LruCache<K, V> {
        let capacity = capacity.max(1);
        LruCache {
            map: HashMap::with_capacity(capacity.min(1024)),
            capacity,
            tick: 0,
        }
    }

    /// Looks up `key`, marking the entry most-recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.used = tick;
            &e.value
        })
    }

    /// Whether `key` is resident, without touching its recency.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

// `insert` needs to clone the evicted key out of the map before removal,
// hence the extra `Clone` bound.
impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Inserts (or replaces) `key`, evicting the least-recently-used
    /// entry first when at capacity.
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&lru);
            }
        }
        self.map.insert(
            key,
            Entry {
                value,
                used: self.tick,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // refresh a; b is now LRU
        c.insert("c", 3);
        assert_eq!(c.len(), 2);
        assert!(c.contains(&"a"));
        assert!(!c.contains(&"b"));
        assert!(c.contains(&"c"));
    }

    #[test]
    fn replacing_a_resident_key_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"a"), Some(&10));
        assert!(c.contains(&"b"));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut c = LruCache::new(0);
        assert_eq!(c.capacity(), 1);
        c.insert(1, "x");
        c.insert(2, "y");
        assert_eq!(c.len(), 1);
        assert!(c.contains(&2));
    }

    #[test]
    fn clear_empties() {
        let mut c = LruCache::new(4);
        c.insert(1, 1);
        assert!(!c.is_empty());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
    }
}
