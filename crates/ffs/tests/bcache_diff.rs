//! Differential test of the buffer cache's eviction against the full-scan
//! LRU it replaced.
//!
//! `reference::BufferCache` keeps the original victim choice verbatim: on
//! every evicting insert, scan the whole map for the valid entry with the
//! smallest stamp. Both caches are driven with the same seeded random
//! sequences of every mutating call over a key domain a little larger than
//! the capacity, so re-fills, stale candidates, all-pending overflow and
//! flushes all occur, and every observable answer must agree after every
//! step.

use ffs::{BlockKey, BufferCache};
use simcore::SimRng;

mod reference {
    use std::collections::HashMap;

    use ffs::BlockKey;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum State {
        Valid,
        Pending,
    }

    #[derive(Debug)]
    struct Entry {
        state: State,
        stamp: u64,
    }

    /// The buffer cache with a full scan for the LRU victim on every
    /// evicting insert.
    #[derive(Debug)]
    pub struct BufferCache {
        capacity: usize,
        map: HashMap<BlockKey, Entry>,
        clock: u64,
        hits: u64,
        misses: u64,
    }

    impl BufferCache {
        pub fn new(capacity: usize) -> Self {
            assert!(capacity > 0, "cache capacity must be non-zero");
            BufferCache {
                capacity,
                map: HashMap::new(),
                clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        pub fn len(&self) -> usize {
            self.map.len()
        }

        pub fn hit_miss(&self) -> (u64, u64) {
            (self.hits, self.misses)
        }

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

        pub fn is_pending(&self, key: BlockKey) -> bool {
            matches!(self.map.get(&key), Some(e) if e.state == State::Pending)
        }

        pub fn peek(&self, key: BlockKey) -> bool {
            matches!(self.map.get(&key), Some(e) if e.state == State::Valid)
        }

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

        pub fn invalidate(&mut self, key: BlockKey) {
            if let Some(e) = self.map.get(&key) {
                if e.state == State::Valid {
                    self.map.remove(&key);
                }
            }
        }

        pub fn discard(&mut self, key: BlockKey) {
            self.map.remove(&key);
        }

        pub fn flush(&mut self) {
            self.map.retain(|_, e| e.state == State::Pending);
        }

        fn evict_if_needed(&mut self) {
            while self.map.len() >= self.capacity {
                // Evict the least recently used *valid* entry.
                let victim = self
                    .map
                    .iter()
                    .filter(|(_, e)| e.state == State::Valid)
                    .min_by_key(|(_, e)| e.stamp)
                    .map(|(k, _)| *k);
                match victim {
                    Some(k) => {
                        self.map.remove(&k);
                    }
                    // Everything is pending; allow temporary overflow rather
                    // than dropping in-flight state.
                    None => break,
                }
            }
        }
    }
}

const STEPS: usize = 10_000;

/// Runs `STEPS` random calls on a cache of `capacity` blocks and on the
/// reference, checking they agree after each one. Returns how many steps
/// left the cache above capacity (all-pending overflow).
fn drive(capacity: usize) -> usize {
    let seed = 0xBCAC_4E00 + capacity as u64;
    let mut rng = SimRng::new(seed);
    let mut new = BufferCache::new(capacity);
    let mut old = reference::BufferCache::new(capacity);
    // Two inodes, a few more blocks in all than the cache holds.
    let blocks = capacity as u64 / 2 + 3;
    let domain: Vec<BlockKey> = (1..=2u64)
        .flat_map(|ino| (0..blocks).map(move |b| (ino, b)))
        .collect();
    let mut overflowed = 0;
    for step in 0..STEPS {
        let key = *rng.choose(&domain).expect("non-empty domain");
        match rng.gen_range(0..1_000u64) {
            0..=299 => assert_eq!(
                new.lookup(key),
                old.lookup(key),
                "capacity {capacity}, step {step}: lookup {key:?}"
            ),
            300..=549 => {
                new.mark_pending(key);
                old.mark_pending(key);
            }
            550..=879 => {
                new.fill(key);
                old.fill(key);
            }
            880..=939 => {
                new.invalidate(key);
                old.invalidate(key);
            }
            940..=994 => {
                new.discard(key);
                old.discard(key);
            }
            _ => {
                new.flush();
                old.flush();
            }
        }
        assert_eq!(new.len(), old.len(), "capacity {capacity}, step {step}");
        assert_eq!(new.hit_miss(), old.hit_miss(), "capacity {capacity}");
        for &k in &domain {
            assert_eq!(
                (new.peek(k), new.is_pending(k)),
                (old.peek(k), old.is_pending(k)),
                "capacity {capacity}, step {step}: state of {k:?}"
            );
        }
        if new.len() > capacity {
            overflowed += 1;
        }
    }
    overflowed
}

// Capacities up to 16 take candidate batches of one block; 64 and 256
// take batches of 4 and 16, so candidates can go stale in the list.

#[test]
fn matches_full_scan_at_capacity_1() {
    assert!(drive(1) > 0, "the all-pending overflow never happened");
}

#[test]
fn matches_full_scan_at_capacity_2() {
    assert!(drive(2) > 0, "the all-pending overflow never happened");
}

#[test]
fn matches_full_scan_at_capacity_3() {
    assert!(drive(3) > 0, "the all-pending overflow never happened");
}

#[test]
fn matches_full_scan_at_capacity_16() {
    drive(16);
}

#[test]
fn matches_full_scan_at_capacity_64() {
    drive(64);
}

#[test]
fn matches_full_scan_at_capacity_256() {
    drive(256);
}

/// A working set larger than the cache, touched in a skewed pattern with
/// re-reads, so evictions run through many refills of a large batch.
#[test]
fn skewed_rereads_match_the_full_scan() {
    let capacity = 512;
    let mut rng = SimRng::new(0x5CE7);
    let mut new = BufferCache::new(capacity);
    let mut old = reference::BufferCache::new(capacity);
    for step in 0..20_000 {
        // Half the touches go to a hot set of 128 blocks.
        let blk = if rng.chance(0.5) {
            rng.gen_range(0..128u64)
        } else {
            rng.gen_range(0..2_048u64)
        };
        let key = (7, blk);
        let hit = new.lookup(key);
        assert_eq!(hit, old.lookup(key), "step {step}: lookup {key:?}");
        if !hit {
            new.fill(key);
            old.fill(key);
        }
    }
    assert_eq!(new.hit_miss(), old.hit_miss());
    assert_eq!(new.len(), old.len());
    for blk in 0..2_048 {
        assert_eq!(new.peek((7, blk)), old.peek((7, blk)), "block {blk}");
    }
}
