//! A bounded, sharded LRU response cache.
//!
//! Std-only: the map is striped across mutex-guarded segments selected
//! by an FNV-1a hash of the key, so concurrent lookups on different
//! keys rarely contend. Each segment is an independent LRU of capacity
//! `ceil(capacity / segments)` backed by a slab (`Vec<Option<Node>>` +
//! free list) with intrusive prev/next indices — no per-entry
//! allocation churn and no unsafe.
//!
//! Values are validated at read time: [`ShardedLru::get_valid`] takes
//! a predicate and treats a failing entry as a miss, removing it. The
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
use std::sync::Mutex;

/// Sentinel slab index meaning "no node".
const NIL: usize = usize::MAX;

/// Default number of mutex stripes.
const DEFAULT_SEGMENTS: usize = 8;

struct Node<V> {
    key: String,
    value: V,
    prev: usize,
    next: usize,
}

/// One mutex stripe: an LRU list threaded through a slab.
struct Segment<V> {
    /// Per-segment capacity; 0 disables the segment.
    capacity: usize,
    map: HashMap<String, usize>,
    slab: Vec<Option<Node<V>>>,
    free: Vec<usize>,
    /// Most-recently-used node, `NIL` when empty.
    head: usize,
    /// Least-recently-used node, `NIL` when empty.
    tail: usize,
}

impl<V> Segment<V> {
    fn new(capacity: usize) -> Segment<V> {
        Segment {
            capacity,
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

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

    /// Inserts or overwrites; returns the value displaced by capacity
    /// pressure, if any (so the caller can attribute the eviction).
    fn insert(&mut self, key: &str, value: V) -> Option<V> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&i) = self.map.get(key) {
            self.node_mut(i).value = value;
            self.touch(i);
            return None;
        }
        let mut evicted = None;
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            evicted = Some(self.remove(lru));
        }
        let node = Node { key: key.to_string(), value, prev: NIL, next: NIL };
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Some(node);
                i
            }
            None => {
                self.slab.push(Some(node));
                self.slab.len() - 1
            }
        };
        self.map.insert(key.to_string(), i);
        self.link_front(i);
        evicted
    }
}

/// A bounded LRU map striped across mutex-guarded segments.
pub struct ShardedLru<V> {
    segments: Vec<Mutex<Segment<V>>>,
    capacity: usize,
}

/// FNV-1a, the same cheap stable hash the engine's benchmarks use for
/// key spreading; segment choice only needs decent low-bit diffusion.
fn fnv1a(key: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in key.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl<V: Clone> ShardedLru<V> {
    /// A cache holding at most `capacity` entries total, striped over
    /// the default segment count. Capacity 0 disables caching.
    pub fn new(capacity: usize) -> ShardedLru<V> {
        ShardedLru::with_segments(capacity, DEFAULT_SEGMENTS)
    }

    /// As [`ShardedLru::new`] with an explicit stripe count (rounded up
    /// to a power of two so segment selection is a mask).
    pub fn with_segments(capacity: usize, segments: usize) -> ShardedLru<V> {
        let nsegs = segments.max(1).next_power_of_two();
        let per_seg = if capacity == 0 { 0 } else { capacity.div_ceil(nsegs) };
        ShardedLru {
            segments: (0..nsegs).map(|_| Mutex::new(Segment::new(per_seg))).collect(),
            capacity,
        }
    }

    fn segment(&self, key: &str) -> &Mutex<Segment<V>> {
        &self.segments[(fnv1a(key) as usize) & (self.segments.len() - 1)]
    }

    /// Total configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of cached entries across all segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.lock().unwrap().map.len()).sum()
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
        let mut seg = self.segment(key).lock().unwrap();
        let &i = seg.map.get(key)?;
        if !valid(&seg.node(i).value) {
            seg.remove(i);
            return None;
        }
        seg.touch(i);
        Some(seg.node(i).value.clone())
    }

    /// Inserts (or refreshes) `key`, evicting the segment's LRU entry
    /// if it is full. Returns the evicted value, if any, so the caller
    /// can attribute the eviction (the router charges it to the
    /// evicted answer's shard). No-op (and `None`) at capacity 0.
    pub fn insert(&self, key: &str, value: V) -> Option<V> {
        if self.capacity == 0 {
            return None;
        }
        self.segment(key).lock().unwrap().insert(key, value)
    }

    /// Removes every entry whose value matches `stale`, returning how
    /// many were dropped.
    pub fn invalidate(&self, stale: impl Fn(&V) -> bool) -> u64 {
        let mut dropped = 0u64;
        for seg in &self.segments {
            let mut seg = seg.lock().unwrap();
            let stale_idx: Vec<usize> =
                seg.map.values().copied().filter(|&i| stale(&seg.node(i).value)).collect();
            for i in stale_idx {
                seg.remove(i);
                dropped += 1;
            }
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One segment so eviction order is observable.
    fn lru(capacity: usize) -> ShardedLru<u32> {
        ShardedLru::with_segments(capacity, 1)
    }

    #[test]
    fn eviction_follows_recency_not_insertion() {
        let c = lru(3);
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
        let c = lru(2);
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
        let c = lru(2);
        assert_eq!(c.insert("a", 1), None);
        assert_eq!(c.insert("b", 2), None);
        assert_eq!(c.insert("a", 10), None, "refresh displaces nothing");
        assert_eq!(c.insert("c", 3), Some(2), "b was least recently used");
    }

    #[test]
    fn capacity_zero_disables_everything() {
        let c = lru(0);
        assert_eq!(c.capacity(), 0);
        assert_eq!(c.insert("a", 1), None);
        assert_eq!(c.get("a"), None);
        assert!(c.get_valid("a", |_| panic!("nothing is stored to validate")).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn get_valid_drops_stale_entries() {
        let c = lru(4);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get_valid("a", |&v| v > 1), None, "failed validation is a miss");
        assert_eq!(c.len(), 1, "stale entry was removed");
        assert!(c.get_valid("a", |_| panic!("a is gone")).is_none());
        assert_eq!(c.get_valid("b", |&v| v == 2), Some(2));
    }

    #[test]
    fn invalidate_by_predicate() {
        let c = ShardedLru::with_segments(100, 4);
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
        let c = lru(2);
        let evictions = (0..100u32).filter(|i| c.insert(&format!("k{i}"), *i).is_some()).count();
        assert_eq!(c.len(), 2);
        assert_eq!(evictions, 98);
        // The slab never grew past capacity: evicted slots were reused.
        let seg = c.segments[0].lock().unwrap();
        assert!(seg.slab.len() <= 2);
    }

    #[test]
    fn keys_spread_across_segments() {
        let c: ShardedLru<u32> = ShardedLru::with_segments(1024, 8);
        for i in 0..256u32 {
            c.insert(&format!("host{i}.example.com"), i);
        }
        let occupied = c.segments.iter().filter(|s| !s.lock().unwrap().map.is_empty()).count();
        assert!(occupied >= 4, "FNV spread only reached {occupied}/8 segments");
        for i in 0..256u32 {
            assert_eq!(c.get(&format!("host{i}.example.com")), Some(i));
        }
    }
}
