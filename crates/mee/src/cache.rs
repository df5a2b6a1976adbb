//! The on-chip metadata (counter) cache.
//!
//! Table 3 gives the MEE a 128 KiB counter cache. It holds counter
//! blocks and integrity-tree nodes; a hit short-circuits
//! both the DRAM fetch and the remainder of the Merkle verification walk
//! (a cached node is trusted — it was verified when it was brought
//! on-chip). The cache is write-back: dirtied metadata reaches DRAM only
//! when evicted, which is what keeps the extra write traffic of Table 6
//! proportional to the workload's write intensity.
//!
//! Two implementation points matter for fidelity:
//!
//! * **Set selection mixes the block id** (`mix64`, the splitmix64
//!   finalizer). Metadata block ids are structured — split-counter ids
//!   stride by 8 (one per page, kind tag in the low bits), tree-node ids
//!   carry the level in high bits — so a plain `id % set_count` aliases
//!   a strided sweep into a fraction of the sets and collapses the
//!   effective capacity. Mixing first spreads any arithmetic id pattern
//!   uniformly.
//! * **LRU is an explicit stamp** per way, not a move-to-front vector:
//!   a hit updates one integer instead of memmoving the set, which keeps
//!   the simulator's hottest path (every modeled memory access probes
//!   this cache at least once) cheap.

use iceclave_types::ByteSize;

/// The splitmix64 finalizer: a cheap, invertible 64-bit mixer used to
/// decorrelate structured metadata block ids from the set index.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Result of one cache access.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct CacheOutcome {
    /// Whether the block was already resident.
    pub hit: bool,
    /// The `(block, dirty)` victim evicted to make room. Dirty victims
    /// must be written back to DRAM by the caller; with a second-level
    /// store below, clean victims are demoted as well (victim-cache
    /// style), so the eviction is reported either way.
    pub evicted: Option<(u64, bool)>,
}

impl CacheOutcome {
    /// The evicted block if it was dirty (must reach DRAM), `None`
    /// otherwise — the write-back obligation of this access.
    pub fn writeback(&self) -> Option<u64> {
        match self.evicted {
            Some((block, true)) => Some(block),
            _ => None,
        }
    }
}

/// One occupied way: the block id, its dirty bit, and the LRU stamp
/// (monotone per-cache counter; the smallest stamp in a set is the LRU
/// way).
#[derive(Copy, Clone, Debug)]
struct Way {
    block: u64,
    dirty: bool,
    stamp: u64,
}

/// A set-associative write-back LRU cache over 64 B metadata blocks,
/// keyed by an opaque block id.
///
/// # Examples
///
/// ```
/// use iceclave_mee::MetaCache;
/// use iceclave_types::ByteSize;
///
/// let mut cache = MetaCache::new(ByteSize::from_kib(128), 8);
/// assert!(!cache.access(7).hit); // cold miss, now resident
/// assert!(cache.access(7).hit); // hit
/// ```
#[derive(Clone, Debug)]
pub struct MetaCache {
    sets: Vec<Vec<Way>>,
    ways: usize,
    tick: u64,
}

impl MetaCache {
    /// Creates a cache of `capacity` bytes of 64 B blocks with `ways`
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds fewer blocks than one set, or if
    /// the set count is not a power of two (every configured cache has
    /// one, so a set is picked with a mask rather than a division).
    pub fn new(capacity: ByteSize, ways: usize) -> Self {
        let blocks = (capacity.as_bytes() / 64) as usize;
        assert!(
            ways > 0 && blocks >= ways,
            "cache must hold at least one set"
        );
        let set_count = blocks / ways;
        assert!(
            set_count.is_power_of_two(),
            "set count {set_count} must be a power of two"
        );
        MetaCache {
            sets: (0..set_count).map(|_| Vec::with_capacity(ways)).collect(),
            ways,
            tick: 0,
        }
    }

    fn set_of(&self, block: u64) -> usize {
        (mix64(block) & (self.sets.len() as u64 - 1)) as usize
    }

    fn next_stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks up `block` for reading, inserting it clean on a miss.
    pub fn access(&mut self, block: u64) -> CacheOutcome {
        self.touch(block, false)
    }

    /// Looks up `block` and marks it dirty (a metadata update).
    pub fn access_dirty(&mut self, block: u64) -> CacheOutcome {
        self.touch(block, true)
    }

    fn touch(&mut self, block: u64, dirty: bool) -> CacheOutcome {
        let stamp = self.next_stamp();
        let set_idx = self.set_of(block);
        let ways = self.ways;
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter_mut().find(|w| w.block == block) {
            way.stamp = stamp;
            way.dirty |= dirty;
            return CacheOutcome {
                hit: true,
                evicted: None,
            };
        }
        let mut evicted = None;
        if set.len() == ways {
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.stamp)
                .map(|(i, _)| i)
                .expect("full set is non-empty");
            let victim = set[lru];
            evicted = Some((victim.block, victim.dirty));
            set[lru] = Way {
                block,
                dirty,
                stamp,
            };
        } else {
            set.push(Way {
                block,
                dirty,
                stamp,
            });
        }
        CacheOutcome {
            hit: false,
            evicted,
        }
    }

    /// True if `block` is resident (no LRU update).
    pub fn contains(&self, block: u64) -> bool {
        self.sets[self.set_of(block)]
            .iter()
            .any(|w| w.block == block)
    }

    /// Marks an already-resident `block` dirty without touching LRU
    /// state (used when a block promoted from the second-level store
    /// carries a deferred write-back obligation).
    /// Returns `false` if the block is not resident.
    pub fn mark_dirty(&mut self, block: u64) -> bool {
        let set_idx = self.set_of(block);
        match self.sets[set_idx].iter_mut().find(|w| w.block == block) {
            Some(way) => {
                way.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Removes `block` if resident, returning `true` if it was dirty
    /// (used when metadata is invalidated by a page-class migration; the
    /// caller decides whether to write it back).
    pub fn invalidate(&mut self, block: u64) -> bool {
        let set_idx = self.set_of(block);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|w| w.block == block) {
            set.swap_remove(pos).dirty
        } else {
            false
        }
    }

    /// Total blocks the cache can hold.
    pub fn capacity_blocks(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn small() -> MetaCache {
        // 4 sets x 2 ways = 8 blocks.
        MetaCache::new(ByteSize::from_bytes(8 * 64), 2)
    }

    /// First `n` block ids that map to the same set as `anchor`.
    fn colliding(cache: &MetaCache, anchor: u64, n: usize) -> Vec<u64> {
        let set = cache.set_of(anchor);
        (0u64..)
            .filter(|&b| cache.set_of(b) == set)
            .take(n)
            .collect()
    }

    #[test]
    fn hit_after_insert() {
        let mut c = small();
        assert!(!c.access(0).hit);
        assert!(c.access(0).hit);
        assert!(c.contains(0));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small();
        let ids = colliding(&c, 0, 3);
        c.access(ids[0]);
        c.access(ids[1]);
        c.access(ids[0]); // ids[0] is now MRU
        let out = c.access(ids[2]); // evicts ids[1]
        assert_eq!(out.evicted, Some((ids[1], false)));
        assert!(c.contains(ids[0]));
        assert!(!c.contains(ids[1]));
        assert!(c.contains(ids[2]));
    }

    #[test]
    fn clean_eviction_produces_no_writeback() {
        let mut c = small();
        let ids = colliding(&c, 0, 3);
        c.access(ids[0]);
        c.access(ids[1]);
        let out = c.access(ids[2]);
        assert_eq!(out.writeback(), None);
        assert!(out.evicted.is_some(), "the clean victim is still reported");
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = small();
        let ids = colliding(&c, 0, 3);
        c.access_dirty(ids[0]);
        c.access_dirty(ids[1]);
        // Evicts ids[0] (LRU), which is dirty.
        let out = c.access(ids[2]);
        assert_eq!(out.writeback(), Some(ids[0]));
        assert_eq!(out.evicted, Some((ids[0], true)));
    }

    #[test]
    fn dirtiness_is_sticky_until_eviction() {
        let mut c = small();
        let ids = colliding(&c, 0, 3);
        c.access_dirty(ids[0]);
        c.access(ids[0]); // read does not clean it
        c.access(ids[1]);
        // LRU order after the touches: ids[0] older than ids[1].
        let out = c.access(ids[2]);
        assert_eq!(out.writeback(), Some(ids[0]));
    }

    #[test]
    fn mark_dirty_sets_writeback_obligation() {
        let mut c = small();
        let ids = colliding(&c, 0, 3);
        c.access(ids[0]);
        assert!(c.mark_dirty(ids[0]));
        assert!(!c.mark_dirty(ids[2]), "absent block cannot be dirtied");
        c.access(ids[1]);
        let out = c.access(ids[2]); // evicts ids[0]
        assert_eq!(out.writeback(), Some(ids[0]));
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = small();
        c.access_dirty(5);
        assert!(c.invalidate(5));
        assert!(!c.contains(5));
        assert!(!c.invalidate(5));
    }

    #[test]
    fn table3_capacity() {
        let c = MetaCache::new(ByteSize::from_kib(128), 8);
        assert_eq!(c.capacity_blocks(), 2048);
        assert_eq!(c.set_count(), 256);
    }

    /// Regression for the set-indexing fix: split-counter ids stride by
    /// 8 (the kind tag occupies the low 3 bits), so under plain modulo
    /// indexing a page sweep uses only `set_count / 8` sets and the
    /// cache thrashes at 1/8th of its nominal capacity. With mixed
    /// indexing the strided ids spread over (nearly) all sets and a
    /// working set that fits the cache actually fits.
    #[test]
    fn strided_ids_do_not_collapse_onto_few_sets() {
        let c = MetaCache::new(ByteSize::from_kib(128), 8); // 256 sets
        let sets_used: std::collections::HashSet<usize> =
            (0..256u64).map(|p| c.set_of(p * 8)).collect();
        // Plain modulo would land all 256 strided ids in 32 sets.
        assert!(
            sets_used.len() > 128,
            "strided ids use only {} of 256 sets",
            sets_used.len()
        );
    }

    #[test]
    fn strided_working_set_that_fits_stays_resident() {
        // 512 blocks, 8-way: a 256-block strided sweep fits in half the
        // capacity, so a second pass must be (almost) all hits. Under
        // the old modulo indexing the 8-strided ids aliased into 8 of
        // the 64 sets (64 blocks of reach) and the second pass missed.
        let mut c = MetaCache::new(ByteSize::from_kib(32), 8);
        for p in 0..256u64 {
            c.access(p * 8);
        }
        let second_pass_misses = (0..256u64).filter(|p| !c.access(p * 8).hit).count();
        // Uniform mixing still leaves a few overfull sets (balls into
        // bins), but nothing like the old collapse: modulo indexing kept
        // only 64 of the 256 blocks resident (8 aliased sets), missing
        // 190+ on the second pass.
        assert!(
            second_pass_misses < 64,
            "second pass should mostly hit, missed {second_pass_misses}/256"
        );
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_ways_panics() {
        let _ = MetaCache::new(ByteSize::from_kib(1), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn three_set_cache_panics() {
        // 6 blocks at 2 ways: 3 sets.
        let _ = MetaCache::new(ByteSize::from_bytes(6 * 64), 2);
    }
}
