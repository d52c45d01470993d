//! A bounded LRU response cache.
//!
//! Std-only: one LRU behind one mutex, backed by a slab
//! (`Vec<Option<Node>>` + free list) with intrusive prev/next indices —
//! no per-entry allocation churn and no unsafe. It holds at most
//! `capacity` entries and evicts its least recently used entry only
//! when it is full.
//!
//! Values are validated at read time: [`Lru::get_valid`] takes a
//! predicate and treats a failing entry as a miss, removing it. The
//! router uses this to reject entries whose recorded shard generation
//! or routing epoch no longer matches, which is what makes the cache
//! safe across hot reloads (see `router` module docs for the full
//! protocol).
//!
//! Capacity 0 disables the cache entirely: `get*` always misses and
//! `insert` is a no-op, so the serving path needs no special casing.
//!
//! The cache keeps no counters of its own. Its outcomes reach the
//! caller — `get_valid` calls its predicate only on a stored entry,
//! `insert` returns what it evicted, `invalidate` drops exactly the
//! entries its predicate accepts — and the router counts them into its
//! per-shard registry series, the one source of cache stats.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Sentinel slab index meaning "no node".
const NIL: usize = usize::MAX;

struct Node<V> {
    key: String,
    value: V,
    prev: usize,
    next: usize,
}

/// The LRU list threaded through a slab; [`Lru`] guards it.
struct List<V> {
    map: HashMap<String, usize>,
    slab: Vec<Option<Node<V>>>,
    free: Vec<usize>,
    /// Most-recently-used node, `NIL` when empty.
    head: usize,
    /// Least-recently-used node, `NIL` when empty.
    tail: usize,
}

impl<V> List<V> {
    fn node(&self, i: usize) -> &Node<V> {
        self.slab[i].as_ref().expect("live slab index")
    }

    fn node_mut(&mut self, i: usize) -> &mut Node<V> {
        self.slab[i].as_mut().expect("live slab index")
    }

    /// Unlinks node `i` from the LRU list (leaves the slab slot live).
    fn unlink(&mut self, i: usize) {
        let (prev, next) = {
            let n = self.node(i);
            (n.prev, n.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.node_mut(prev).next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.node_mut(next).prev = prev;
        }
    }

    /// Links node `i` at the head (most recently used).
    fn link_front(&mut self, i: usize) {
        let old = self.head;
        {
            let n = self.node_mut(i);
            n.prev = NIL;
            n.next = old;
        }
        if old != NIL {
            self.node_mut(old).prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Removes node `i` entirely, returning its slot to the free list
    /// and its value to the caller.
    fn remove(&mut self, i: usize) -> V {
        self.unlink(i);
        let node = self.slab[i].take().expect("live slab index");
        self.map.remove(&node.key);
        self.free.push(i);
        node.value
    }

    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
    }
}

/// A bounded LRU map behind one mutex.
pub struct Lru<V> {
    inner: Mutex<List<V>>,
    /// At most this many entries; 0 disables the cache.
    capacity: usize,
}

impl<V: Clone> Lru<V> {
    /// A cache holding at most `capacity` entries. Capacity 0 disables
    /// caching.
    pub fn new(capacity: usize) -> Lru<V> {
        Lru {
            inner: Mutex::new(List {
                map: HashMap::new(),
                slab: Vec::new(),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
            }),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, List<V>> {
        self.inner.lock().expect("cache lock poisoned: a cache operation panicked")
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&self, key: &str) -> Option<V> {
        self.get_valid(key, |_| true)
    }

    /// Looks up `key`, but only returns the entry when `valid` accepts
    /// it; a stale entry is removed and the lookup misses. `valid` runs
    /// only on a stored entry, so a caller counting stale entries
    /// counts in it.
    pub fn get_valid(&self, key: &str, valid: impl FnOnce(&V) -> bool) -> Option<V> {
        if self.capacity == 0 {
            return None;
        }
        let mut s = self.lock();
        let &i = s.map.get(key)?;
        if !valid(&s.node(i).value) {
            s.remove(i);
            return None;
        }
        s.touch(i);
        Some(s.node(i).value.clone())
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used
    /// entry when the cache already holds `capacity` entries. Returns
    /// the evicted value, if any, so the caller can attribute the
    /// eviction (the router charges it to the evicted answer's shard).
    /// No-op (and `None`) at capacity 0.
    pub fn insert(&self, key: &str, value: V) -> Option<V> {
        if self.capacity == 0 {
            return None;
        }
        let mut s = self.lock();
        if let Some(&i) = s.map.get(key) {
            s.node_mut(i).value = value;
            s.touch(i);
            return None;
        }
        let evicted = if s.map.len() >= self.capacity {
            let lru = s.tail;
            Some(s.remove(lru))
        } else {
            None
        };
        let node = Node { key: key.to_string(), value, prev: NIL, next: NIL };
        let i = match s.free.pop() {
            Some(i) => {
                s.slab[i] = Some(node);
                i
            }
            None => {
                s.slab.push(Some(node));
                s.slab.len() - 1
            }
        };
        s.map.insert(key.to_string(), i);
        s.link_front(i);
        evicted
    }

    /// Removes every entry whose value matches `stale`, returning how
    /// many were dropped.
    pub fn invalidate(&self, stale: impl Fn(&V) -> bool) -> u64 {
        let mut s = self.lock();
        let stale_idx: Vec<usize> =
            s.map.values().copied().filter(|&i| stale(&s.node(i).value)).collect();
        for &i in &stale_idx {
            s.remove(i);
        }
        stale_idx.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_follows_recency_not_insertion() {
        let c = Lru::new(3);
        assert_eq!(c.insert("a", 1), None);
        assert_eq!(c.insert("b", 2), None);
        assert_eq!(c.insert("c", 3), None);
        // Touch a so b becomes the LRU entry.
        assert_eq!(c.get("a"), Some(1));
        assert_eq!(c.insert("d", 4), Some(2), "b was least recently used");
        assert_eq!(c.get("b"), None);
        assert_eq!(c.get("a"), Some(1));
        assert_eq!(c.get("c"), Some(3));
        assert_eq!(c.get("d"), Some(4));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn overwrite_refreshes_without_evicting() {
        let c = Lru::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.insert("a", 10), None, "a refresh evicts nothing");
        assert_eq!(c.len(), 2);
        c.insert("c", 3); // b is now LRU
        assert_eq!(c.get("b"), None);
        assert_eq!(c.get("a"), Some(10));
    }

    #[test]
    fn insert_returns_the_evicted_value() {
        let c = Lru::new(2);
        assert_eq!(c.insert("a", 1), None);
        assert_eq!(c.insert("b", 2), None);
        assert_eq!(c.insert("a", 10), None, "refresh displaces nothing");
        assert_eq!(c.insert("c", 3), Some(2), "b was least recently used");
    }

    /// The bound is exact: a cache of capacity K holds min(K, inserted)
    /// distinct keys, and an insert evicts exactly when K entries were
    /// already held, returning the least recently used value.
    #[test]
    fn holds_at_most_capacity_and_evicts_only_when_full() {
        for capacity in 0..=20usize {
            let c = Lru::new(capacity);
            for i in 0..64u32 {
                let held = c.len();
                let evicted = c.insert(&format!("host{i}.example.net"), i);
                let inserted = i as usize + 1;
                assert_eq!(c.len(), capacity.min(inserted), "capacity {capacity}, insert {i}");
                if capacity > 0 && held == capacity {
                    // Distinct keys, never read: the oldest is the LRU.
                    assert_eq!(evicted, Some(i - capacity as u32), "capacity {capacity}");
                } else {
                    assert_eq!(evicted, None, "capacity {capacity}, insert {i} held {held}");
                }
            }
        }
    }

    #[test]
    fn capacity_zero_disables_everything() {
        let c = Lru::new(0);
        assert_eq!(c.capacity(), 0);
        assert_eq!(c.insert("a", 1), None);
        assert_eq!(c.get("a"), None);
        assert!(c.get_valid("a", |_| panic!("nothing is stored to validate")).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn get_valid_drops_stale_entries() {
        let c = Lru::new(4);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get_valid("a", |&v| v > 1), None, "failed validation is a miss");
        assert_eq!(c.len(), 1, "stale entry was removed");
        assert!(c.get_valid("a", |_| panic!("a is gone")).is_none());
        assert_eq!(c.get_valid("b", |&v| v == 2), Some(2));
    }

    #[test]
    fn invalidate_by_predicate() {
        let c = Lru::new(100);
        for i in 0..20u32 {
            c.insert(&format!("k{i}"), i);
        }
        assert_eq!(c.invalidate(|&v| v % 2 == 0), 10);
        assert_eq!(c.len(), 10);
        assert_eq!(c.invalidate(|_| true), 10);
        assert!(c.is_empty());
    }

    #[test]
    fn slab_slots_are_reused() {
        let c = Lru::new(2);
        let evictions = (0..100u32).filter(|i| c.insert(&format!("k{i}"), *i).is_some()).count();
        assert_eq!(c.len(), 2);
        assert_eq!(evictions, 98);
        // The slab never grew past capacity: evicted slots were reused.
        assert!(c.lock().slab.len() <= 2);
    }
}
