//! The kernel buffer cache.
//!
//! An LRU cache of (inode, file-block) entries with a *pending* state:
//! a block whose disk read is in flight is pinned in the cache so
//! concurrent readers of the same block share one I/O instead of
//! duplicating it. Capacity is counted in blocks, sized from the machine's
//! RAM (the paper's server has 256 MB, which is why its 1.5 GB benchmark
//! working set defeats caching, §4.3.1).
//!
//! Eviction is exact LRU over valid blocks without a per-entry index: one
//! pass over the map collects a batch of the oldest valid `(stamp, key)`
//! pairs, and evictions pop that batch until it runs dry. Stamps are
//! unique and only grow, so every block left out of a batch is newer than
//! every block in it, and a candidate whose block has since been looked
//! up, removed, marked pending or filled again carries a stale stamp and is
//! skipped.

use std::collections::{BinaryHeap, HashMap};

/// Cache key: inode number and file-block index.
pub type BlockKey = (u64, u64);

/// State of a cached block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Contents valid.
    Valid,
    /// Disk read in flight; pinned (not evictable).
    Pending,
}

#[derive(Debug)]
struct Entry {
    state: State,
    stamp: u64,
}

/// LRU buffer cache with pending-block pinning.
#[derive(Debug)]
pub struct BufferCache {
    capacity: usize,
    map: HashMap<BlockKey, Entry>,
    /// Eviction candidates, newest first so `pop` yields the oldest.
    victims: Vec<(u64, BlockKey)>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl BufferCache {
    /// Creates a cache holding up to `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        BufferCache {
            capacity,
            map: HashMap::new(),
            victims: Vec::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of resident blocks (valid + pending).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Hit/miss counters (lookups only).
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Approximate heap bytes behind this cache (hash-map backing store,
    /// estimated from its capacity, plus the eviction candidate list).
    /// Used for fleet-scale memory accounting; excludes
    /// `size_of::<BufferCache>()` itself.
    pub fn approx_heap_bytes(&self) -> usize {
        self.map.capacity()
            * (std::mem::size_of::<BlockKey>()
                + std::mem::size_of::<Entry>()
                + std::mem::size_of::<u64>())
            + self.victims.capacity() * std::mem::size_of::<(u64, BlockKey)>()
    }

    /// Looks up a block for a read, bumping LRU on hit.
    /// Returns `true` if the block is valid in cache.
    pub fn lookup(&mut self, key: BlockKey) -> bool {
        self.clock += 1;
        match self.map.get_mut(&key) {
            Some(e) if e.state == State::Valid => {
                e.stamp = self.clock;
                self.hits += 1;
                true
            }
            _ => {
                self.misses += 1;
                false
            }
        }
    }

    /// Whether a read for this block is already in flight.
    pub fn is_pending(&self, key: BlockKey) -> bool {
        matches!(self.map.get(&key), Some(e) if e.state == State::Pending)
    }

    /// Whether the block is valid, without touching LRU or counters.
    pub fn peek(&self, key: BlockKey) -> bool {
        matches!(self.map.get(&key), Some(e) if e.state == State::Valid)
    }

    /// Marks a block as having a read in flight (pins it).
    pub fn mark_pending(&mut self, key: BlockKey) {
        self.clock += 1;
        self.evict_if_needed();
        self.map.insert(
            key,
            Entry {
                state: State::Pending,
                stamp: self.clock,
            },
        );
    }

    /// Completes a pending read: the block becomes valid.
    /// Inserting a block that was never pending is also allowed (e.g.
    /// read-ahead data arriving for a block nobody asked about yet).
    pub fn fill(&mut self, key: BlockKey) {
        self.clock += 1;
        if !self.map.contains_key(&key) {
            self.evict_if_needed();
        }
        self.map.insert(
            key,
            Entry {
                state: State::Valid,
                stamp: self.clock,
            },
        );
    }

    /// Invalidates one block (e.g. overwritten by a write that bypasses the
    /// cache in our model). Pending blocks stay pending.
    pub fn invalidate(&mut self, key: BlockKey) {
        if let Some(e) = self.map.get(&key) {
            if e.state == State::Valid {
                self.map.remove(&key);
            }
        }
    }

    /// Removes a block regardless of state, releasing a pending mark whose
    /// fill will never come (the fetching RPC timed out). The block can be
    /// requested afresh afterwards.
    pub fn discard(&mut self, key: BlockKey) {
        self.map.remove(&key);
    }

    /// Empties the cache of valid blocks (benchmark flush discipline);
    /// pending blocks survive because their I/O is still in flight.
    pub fn flush(&mut self) {
        self.map.retain(|_, e| e.state == State::Pending);
    }

    fn evict_if_needed(&mut self) {
        while self.map.len() >= self.capacity {
            // Evict the least recently used *valid* entry.
            match self.next_victim() {
                Some(k) => {
                    self.map.remove(&k);
                }
                // Everything is pending; allow temporary overflow rather
                // than dropping in-flight state.
                None => break,
            }
        }
    }

    /// The least recently used valid block, or `None` if every resident
    /// block is pending.
    fn next_victim(&mut self) -> Option<BlockKey> {
        loop {
            while let Some((stamp, key)) = self.victims.pop() {
                // Every call that keeps a block restamps it, so an
                // unchanged stamp means still valid and still this old.
                if self.map.get(&key).is_some_and(|e| e.stamp == stamp) {
                    return Some(key);
                }
            }
            self.refill_victims();
            if self.victims.is_empty() {
                return None;
            }
        }
    }

    /// Refills the candidate list with the oldest valid blocks, one pass
    /// over the map keeping a bounded max-heap of the batch so far.
    fn refill_victims(&mut self) {
        let batch = (self.capacity / 16).clamp(1, 4_096);
        let mut heap = BinaryHeap::from(std::mem::take(&mut self.victims));
        heap.reserve_exact(batch);
        for (k, e) in &self.map {
            if e.state != State::Valid {
                continue;
            }
            if heap.len() < batch {
                heap.push((e.stamp, *k));
            } else if let Some(mut newest) = heap.peek_mut() {
                if e.stamp < newest.0 {
                    *newest = (e.stamp, *k);
                }
            }
        }
        self.victims = heap.into_sorted_vec();
        self.victims.reverse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = BufferCache::new(8);
        assert!(!c.lookup((1, 0)));
        c.fill((1, 0));
        assert!(c.lookup((1, 0)));
        assert_eq!(c.hit_miss(), (1, 1));
    }

    #[test]
    fn pending_blocks_are_not_valid_yet() {
        let mut c = BufferCache::new(8);
        c.mark_pending((1, 0));
        assert!(!c.lookup((1, 0)));
        assert!(c.is_pending((1, 0)));
        c.fill((1, 0));
        assert!(c.lookup((1, 0)));
        assert!(!c.is_pending((1, 0)));
    }

    #[test]
    fn lru_evicts_oldest_valid() {
        let mut c = BufferCache::new(2);
        c.fill((1, 0));
        c.fill((1, 1));
        assert!(c.lookup((1, 0))); // Bump block 0.
        c.fill((1, 2)); // Evicts block 1.
        assert!(c.peek((1, 0)));
        assert!(!c.peek((1, 1)));
        assert!(c.peek((1, 2)));
    }

    #[test]
    fn pending_blocks_are_pinned() {
        let mut c = BufferCache::new(2);
        c.mark_pending((1, 0));
        c.mark_pending((1, 1));
        // Cache is full of pending blocks; a new fill overflows rather than
        // dropping in-flight state.
        c.fill((1, 2));
        assert!(c.is_pending((1, 0)));
        assert!(c.is_pending((1, 1)));
        assert!(c.peek((1, 2)));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn flush_keeps_pending() {
        let mut c = BufferCache::new(8);
        c.fill((1, 0));
        c.mark_pending((1, 1));
        c.flush();
        assert!(!c.peek((1, 0)));
        assert!(c.is_pending((1, 1)));
    }

    #[test]
    fn invalidate_removes_valid_only() {
        let mut c = BufferCache::new(8);
        c.fill((1, 0));
        c.mark_pending((1, 1));
        c.invalidate((1, 0));
        c.invalidate((1, 1));
        assert!(!c.peek((1, 0)));
        assert!(c.is_pending((1, 1)));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = BufferCache::new(0);
    }

    #[test]
    fn distinct_inodes_do_not_collide() {
        let mut c = BufferCache::new(8);
        c.fill((1, 5));
        assert!(!c.lookup((2, 5)));
        assert!(c.lookup((1, 5)));
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = BufferCache::new(100);
        // Cyclically touch 150 blocks twice: second pass still misses.
        for pass in 0..2 {
            for b in 0..150u64 {
                if !c.lookup((1, b)) {
                    c.fill((1, b));
                }
            }
            let _ = pass;
        }
        let (hits, misses) = c.hit_miss();
        assert_eq!(hits, 0, "LRU cycling gives zero hits");
        assert_eq!(misses, 300);
    }

    /// A full cache of 32 valid blocks, 0..32 in LRU order; 32 blocks make
    /// a candidate batch of two.
    fn full_32() -> BufferCache {
        let mut c = BufferCache::new(32);
        for b in 0..32 {
            c.fill((1, b));
        }
        c
    }

    #[test]
    fn candidate_touched_since_its_batch_is_skipped() {
        let mut c = full_32();
        c.fill((1, 32)); // Batch {0, 1}; evicts 0.
        assert_eq!(c.victims, vec![(2, (1, 1))]);
        assert!(c.lookup((1, 1))); // Block 1 is now the newest.
        c.fill((1, 33)); // Skips stale 1, refills {2, 3}, evicts 2.
        assert!(c.peek((1, 1)));
        assert!(!c.peek((1, 2)));
        assert!(c.peek((1, 3)));
        assert_eq!(c.len(), 32);
    }

    #[test]
    fn mark_pending_on_the_lru_block_evicts_it_first() {
        let mut c = BufferCache::new(2);
        c.fill((1, 0));
        c.fill((1, 1));
        // Block 0 is the LRU valid block: it is evicted, then re-inserted
        // as pending, so block 1 survives.
        c.mark_pending((1, 0));
        assert!(c.is_pending((1, 0)));
        assert!(c.peek((1, 1)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn all_pending_with_stale_candidates_overflows_by_one() {
        let mut c = full_32();
        c.fill((1, 32)); // Leaves candidate 1 in the list.
        for b in 1..=32 {
            c.invalidate((1, b));
        }
        for b in 1..=32 {
            c.mark_pending((1, b)); // Candidate 1 is now a pending block.
        }
        assert!(!c.victims.is_empty());
        c.fill((1, 99));
        assert_eq!(c.len(), 33);
        assert!((1..=32).all(|b| c.is_pending((1, b))));
        assert!(c.peek((1, 99)));
    }

    #[test]
    fn heap_books_count_the_candidate_list() {
        let mut c = full_32();
        let before = c.approx_heap_bytes();
        c.fill((1, 32));
        assert!(c.approx_heap_bytes() > before);
    }
}
