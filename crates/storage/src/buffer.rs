//! LRU buffer pool with exact hit/miss accounting.
//!
//! The pool does not hold page bytes — rows live in the heaps — it holds
//! *residency metadata*: which logical pages would currently be cached in a
//! node's RAM. This is what the reproduction needs: the paper's super-linear
//! speedups come entirely from whether a node's virtual partition fits in
//! its 2 GB of memory ("after the first query execution, no page faults
//! occur"), and that is a pure function of the access sequence and the pool
//! capacity, not of the page contents.
//!
//! Implementation: a hash map from page key to slot plus an intrusive
//! doubly-linked LRU list over a slab of slots, giving O(1) access and
//! eviction without per-access allocation.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::TableId;

/// Identifies one logical page: a table plus a page number within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageKey {
    pub table: TableId,
    pub page: u64,
}

/// How a page was reached — sequential scans and random (index) probes have
/// very different disk costs, and the cost model charges them differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Sequential,
    Random,
}

/// Counters accumulated by the pool. The engine snapshots and diffs these
/// around each statement to attribute I/O to queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Page requests satisfied from the pool.
    pub hits: u64,
    /// Sequential-access misses (table scan order).
    pub misses_seq: u64,
    /// Random-access misses (index probes).
    pub misses_rand: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

impl BufferStats {
    /// Total page faults.
    pub fn misses(&self) -> u64 {
        self.misses_seq + self.misses_rand
    }

    /// Total page requests.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses()
    }

    /// Component-wise difference (`self - earlier`), used to attribute I/O
    /// to a single statement.
    pub fn since(&self, earlier: &BufferStats) -> BufferStats {
        BufferStats {
            hits: self.hits - earlier.hits,
            misses_seq: self.misses_seq - earlier.misses_seq,
            misses_rand: self.misses_rand - earlier.misses_rand,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

/// Multiply-mix hasher for the page map. Its keys are a table id and a
/// page number the engine computed — never input — so the map does not need
/// SipHash's resistance to chosen keys, and a scan looks a page up for
/// every page it enters.
#[derive(Default)]
struct PageHasher(u64);

impl PageHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the low bits weakest; fold the high half in,
        // since the table indexes buckets by them.
        self.0 ^ (self.0 >> 32)
    }
}

const NIL: u32 = u32::MAX;

/// Pages a new pool has room for before its map and slab first grow.
const INITIAL_PAGES: usize = 1 << 10;

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: PageKey,
    prev: u32,
    next: u32,
}

/// Fixed-capacity LRU set of pages.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    map: HashMap<PageKey, u32, BuildHasherDefault<PageHasher>>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    stats: BufferStats,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages. A capacity of zero
    /// means "nothing is ever cached" (every access is a miss); use
    /// [`BufferPool::unbounded`] for a pure in-memory engine.
    pub fn new(capacity: usize) -> Self {
        // Sized for a small pool and grown on demand: an unbounded pool
        // pre-sized for its capacity maps tens of megabytes to hold a few
        // thousand pages, each looked up on a memory page of its own.
        let initial = capacity.min(INITIAL_PAGES);
        BufferPool {
            capacity,
            map: HashMap::with_capacity_and_hasher(initial, Default::default()),
            slots: Vec::with_capacity(initial),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: BufferStats::default(),
        }
    }

    /// A pool so large it never evicts — models the in-memory composer
    /// (the paper's HSQLDB) and unit tests that want no I/O effects.
    pub fn unbounded() -> Self {
        BufferPool::new(usize::MAX / 2)
    }

    /// Maximum number of resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently resident pages.
    pub fn resident(&self) -> usize {
        self.map.len()
    }

    /// Accumulated counters.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Touches a page: returns `true` on a hit, `false` on a fault (in which
    /// case the page is brought in, evicting the LRU page if full).
    pub fn access(&mut self, key: PageKey, kind: AccessKind) -> bool {
        if let Some(&slot) = self.map.get(&key) {
            self.stats.hits += 1;
            self.move_to_front(slot);
            return true;
        }
        match kind {
            AccessKind::Sequential => self.stats.misses_seq += 1,
            AccessKind::Random => self.stats.misses_rand += 1,
        }
        if self.capacity == 0 {
            return false;
        }
        if self.map.len() >= self.capacity {
            self.evict_lru();
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Slot {
                    key,
                    prev: NIL,
                    next: NIL,
                };
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot {
                    key,
                    prev: NIL,
                    next: NIL,
                });
                s
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        false
    }

    /// Drops every page belonging to `table` (used when a table is bulk
    /// reloaded or dropped).
    pub fn invalidate_table(&mut self, table: TableId) {
        let keys: Vec<PageKey> = self
            .map
            .keys()
            .filter(|k| k.table == table)
            .copied()
            .collect();
        for k in keys {
            if let Some(slot) = self.map.remove(&k) {
                self.unlink(slot);
                self.free.push(slot);
            }
        }
    }

    /// Changes the capacity, evicting LRU pages if shrinking. Used when a
    /// node's RAM budget is derived from the size of the loaded database
    /// (the paper's 2 GB RAM : 11 GB database ratio).
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.map.len() > capacity {
            self.evict_lru();
        }
    }

    /// Empties the pool (cold-cache experiments) without resetting counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Resets the counters (start of a measured run).
    pub fn reset_stats(&mut self) {
        self.stats = BufferStats::default();
    }

    fn evict_lru(&mut self) {
        let victim = self.tail;
        debug_assert_ne!(victim, NIL, "evict called on empty pool");
        let key = self.slots[victim as usize].key;
        self.unlink(victim);
        self.map.remove(&key);
        self.free.push(victim);
        self.stats.evictions += 1;
    }

    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[slot as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn move_to_front(&mut self, slot: u32) {
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.push_front(slot);
    }

    /// Returns true if the page is currently resident (no stats impact).
    pub fn contains(&self, key: PageKey) -> bool {
        self.map.contains_key(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(p: u64) -> PageKey {
        PageKey { table: 1, page: p }
    }

    #[test]
    fn miss_then_hit() {
        let mut pool = BufferPool::new(4);
        assert!(!pool.access(key(1), AccessKind::Sequential));
        assert!(pool.access(key(1), AccessKind::Sequential));
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses_seq, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut pool = BufferPool::new(2);
        pool.access(key(1), AccessKind::Sequential);
        pool.access(key(2), AccessKind::Sequential);
        pool.access(key(1), AccessKind::Sequential); // 1 now MRU
        pool.access(key(3), AccessKind::Sequential); // evicts 2
        assert!(pool.contains(key(1)));
        assert!(!pool.contains(key(2)));
        assert!(pool.contains(key(3)));
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn capacity_zero_never_caches() {
        let mut pool = BufferPool::new(0);
        assert!(!pool.access(key(1), AccessKind::Random));
        assert!(!pool.access(key(1), AccessKind::Random));
        assert_eq!(pool.stats().misses_rand, 2);
        assert_eq!(pool.resident(), 0);
    }

    #[test]
    fn scan_larger_than_pool_thrashes() {
        // A repeated sequential scan over more pages than fit must miss
        // every time under LRU (the classic sequential-flooding behaviour
        // the paper's 1-node configuration suffers from).
        let mut pool = BufferPool::new(10);
        for _round in 0..3 {
            for p in 0..20 {
                pool.access(key(p), AccessKind::Sequential);
            }
        }
        assert_eq!(pool.stats().hits, 0);
        assert_eq!(pool.stats().misses_seq, 60);
    }

    #[test]
    fn scan_fitting_in_pool_warms_up() {
        // The paper's n>=4 virtual partitions: second and later scans are
        // all hits.
        let mut pool = BufferPool::new(32);
        for p in 0..20 {
            pool.access(key(p), AccessKind::Sequential);
        }
        for p in 0..20 {
            assert!(pool.access(key(p), AccessKind::Sequential));
        }
        assert_eq!(pool.stats().misses_seq, 20);
        assert_eq!(pool.stats().hits, 20);
    }

    #[test]
    fn invalidate_table_only_touches_that_table() {
        let mut pool = BufferPool::new(8);
        pool.access(PageKey { table: 1, page: 0 }, AccessKind::Sequential);
        pool.access(PageKey { table: 2, page: 0 }, AccessKind::Sequential);
        pool.invalidate_table(1);
        assert!(!pool.contains(PageKey { table: 1, page: 0 }));
        assert!(pool.contains(PageKey { table: 2, page: 0 }));
    }

    #[test]
    fn stats_since_diff() {
        let mut pool = BufferPool::new(4);
        pool.access(key(1), AccessKind::Sequential);
        let snap = pool.stats();
        pool.access(key(1), AccessKind::Sequential);
        pool.access(key(2), AccessKind::Random);
        let d = pool.stats().since(&snap);
        assert_eq!(d.hits, 1);
        assert_eq!(d.misses_rand, 1);
        assert_eq!(d.misses_seq, 0);
    }

    #[test]
    fn clear_keeps_counters() {
        let mut pool = BufferPool::new(4);
        pool.access(key(1), AccessKind::Sequential);
        pool.clear();
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.stats().misses_seq, 1);
        assert!(!pool.access(key(1), AccessKind::Sequential));
    }

    /// An unbounded pool starts small and grows: taking more pages than it
    /// was created with room for evicts nothing, and every hit and miss is
    /// the one a set of the pages seen so far predicts.
    #[test]
    fn unbounded_pool_grows_past_its_initial_capacity() {
        let mut pool = BufferPool::unbounded();
        assert!(pool.slots.capacity() <= INITIAL_PAGES);
        let pages = 5 * INITIAL_PAGES as u64 + 7;
        let mut seen = std::collections::HashSet::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        // A stride coprime with the page count visits every page; the
        // second lap hits all of them.
        for i in 0..2 * pages {
            let page = (i * 7919) % pages;
            let kind = if i % 3 == 0 {
                AccessKind::Random
            } else {
                AccessKind::Sequential
            };
            let hit = pool.access(key(page), kind);
            assert_eq!(hit, !seen.insert(page), "access {i} of page {page}");
            hits += hit as u64;
            misses += !hit as u64;
        }
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses()), (hits, misses));
        assert_eq!((hits, misses), (pages, pages));
        assert_eq!(stats.evictions, 0);
        assert_eq!(pool.resident() as u64, pages);
        assert!(pool.slots.capacity() as u64 >= pages);
    }

    #[test]
    fn slot_reuse_after_eviction() {
        let mut pool = BufferPool::new(2);
        for p in 0..100 {
            pool.access(key(p), AccessKind::Sequential);
        }
        // Slab must not grow beyond capacity.
        assert!(pool.slots.len() <= 3);
        assert_eq!(pool.resident(), 2);
    }
}
