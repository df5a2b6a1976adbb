//! The DRAM-backed second-level counter store.
//!
//! The on-chip [`MetaCache`](crate::MetaCache) is SRAM — 128 KiB in
//! Table 3 — and Figure 8's ablation shows its hit rate collapsing once
//! a workload's metadata working set outgrows that coverage: every miss
//! then pays a multi-fetch Merkle walk. [`L2MetaStore`] is the next
//! level of the hierarchy: a write-back, set-associative store for
//! evicted metadata blocks, living in a **reserved region of the SSD's
//! internal DRAM** (carved out of the top of the protected address
//! space, so its traffic contends with program data on the same banks
//! and buses).
//!
//! # Trust argument
//!
//! DRAM is outside the MEE's trust boundary, so an L2 block cannot be
//! trusted the way an SRAM-resident block is. Instead every demoted
//! block is *sealed*: stored together with a MAC under a per-boot
//! session key that binds the block's id, payload and demotion epoch.
//! The session key never leaves the MEE and is regenerated at boot, so
//! a sealed block cannot be forged (no key), spliced (the id is bound),
//! or replayed across boots (fresh key). Within a boot, replaying a
//! *stale* sealed block is prevented by the store's exclusivity: a
//! block lives in exactly one place (L1 *or* its L2 slot *or* its home
//! location with the tree covering it), and promotion removes the L2
//! copy, so there is never an old sealed copy left to replay. An L2 hit
//! therefore costs **one DRAM fetch plus one MAC check** instead of the
//! Merkle walk a cold miss pays — the same reason SGX-style designs
//! cache verified tree levels.
//!
//! This module is purely the *structure* (slots, tags, LRU, dirty
//! bits); the engine owns the timing (DRAM fetches, MAC latency) and
//! the billing. The store is **exclusive** with L1: blocks demote in on
//! L1 eviction and promote out on an L2 hit, so combined reach is the
//! sum of the two capacities.

use iceclave_types::{ByteSize, CacheLine};

use crate::engine::KIND_BITS;

/// One occupied slot: the sealed block's id, its deferred write-back
/// obligation, and the LRU stamp.
#[derive(Copy, Clone, Debug)]
struct Slot {
    block: u64,
    dirty: bool,
    stamp: u64,
}

/// A promoted block: where its sealed copy lives in DRAM and whether it
/// still owes a home write-back.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct L2Promotion {
    /// The DRAM line of the slot holding the sealed block (the fetch
    /// the hit pays).
    pub line: CacheLine,
    /// Whether the block was demoted dirty; the promotion must carry
    /// the write-back obligation up into L1.
    pub dirty: bool,
}

/// A demotion outcome: where to write the sealed block and any dirty
/// victim displaced to its home location.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct L2Demotion {
    /// The DRAM line of the slot the sealed block is written to.
    pub slot: CacheLine,
    /// A dirty victim evicted from the store, which must be written
    /// back to its home metadata location (clean victims are dropped —
    /// their home copy is current).
    pub home_writeback: Option<u64>,
}

/// The second-level metadata store: set-associative, write-back,
/// exclusive with the on-chip cache, with every slot pinned to a fixed
/// cache line inside the reserved DRAM region.
///
/// # Examples
///
/// ```
/// use iceclave_mee::L2MetaStore;
/// use iceclave_types::ByteSize;
///
/// let mut l2 = L2MetaStore::new(ByteSize::from_kib(64), 16, 1 << 20);
/// let d = l2.demote(7, false); // an L1 victim moves in
/// assert!(l2.contains(7));
/// let p = l2.take(7).expect("hit"); // and promotes back out
/// assert_eq!(p.line, d.slot);
/// assert!(!l2.contains(7));
/// ```
#[derive(Clone, Debug)]
pub struct L2MetaStore {
    /// Flat `set_count * ways` slot array; slot `i` is pinned to DRAM
    /// line `base_line + i`.
    slots: Vec<Option<Slot>>,
    ways: usize,
    base_line: u64,
    tick: u64,
}

impl L2MetaStore {
    /// Creates a store of `capacity` bytes of 64 B sealed blocks with
    /// `ways` associativity, whose slots occupy the DRAM lines
    /// `[base_line, base_line + blocks)`.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds fewer blocks than one set.
    pub fn new(capacity: ByteSize, ways: usize, base_line: u64) -> Self {
        let blocks = (capacity.as_bytes() / 64) as usize;
        assert!(
            ways > 0 && blocks >= ways,
            "L2 store must hold at least one set"
        );
        let set_count = (blocks / ways).max(1);
        L2MetaStore {
            slots: vec![None; set_count * ways],
            ways,
            base_line,
            tick: 0,
        }
    }

    fn set_count(&self) -> usize {
        self.slots.len() / self.ways
    }

    /// Stride-aware set selection, chosen for **DRAM row locality**
    /// rather than maximal scatter: block ids carry their kind tag in
    /// the low [`KIND_BITS`] bits, so shifting it out makes sequential
    /// payloads (a page sweep's counters, a walk's sibling nodes) occupy
    /// *sequential* sets — and, through the way-major slot layout,
    /// sequential DRAM lines, which stream through the row buffers
    /// instead of conflicting on every access. The XOR-fold of the high
    /// bits breaks the one pathological case (payloads strided by
    /// exactly `set_count`) without disturbing local sequentiality.
    fn set_range(&self, block: u64) -> std::ops::Range<usize> {
        let sets = self.set_count() as u64;
        let payload = block >> KIND_BITS;
        let set = ((payload ^ (payload / sets)) % sets) as usize;
        set * self.ways..(set + 1) * self.ways
    }

    /// Way-major slot placement: way `w` of set `s` lives at line
    /// `base + w * set_count + s`, so the common way-0 slots of
    /// sequential sets are bank-interleaved, row-sharing neighbours.
    fn slot_line(&self, index: usize) -> CacheLine {
        let set = index / self.ways;
        let way = index % self.ways;
        CacheLine::new(self.base_line + (way * self.set_count() + set) as u64)
    }

    fn next_stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Probes the store after an L1 miss. On a hit the block is
    /// *promoted out* (the hierarchy is exclusive): the slot is freed
    /// and the caller fetches the sealed block from the returned line.
    pub fn take(&mut self, block: u64) -> Option<L2Promotion> {
        let range = self.set_range(block);
        for i in range {
            if let Some(slot) = self.slots[i] {
                if slot.block == block {
                    self.slots[i] = None;
                    return Some(L2Promotion {
                        line: self.slot_line(i),
                        dirty: slot.dirty,
                    });
                }
            }
        }
        None
    }

    /// Demotes an L1 victim into the store (dirty or clean — the store
    /// is a victim cache, so read-mostly metadata populates it too).
    /// Returns the slot to write the sealed block to and any dirty
    /// victim displaced to its home location.
    pub fn demote(&mut self, block: u64, dirty: bool) -> L2Demotion {
        let stamp = self.next_stamp();
        let range = self.set_range(block);
        // Already resident (possible after an invalidation raced a
        // demotion): refresh in place, merging the dirty bit.
        for i in range.clone() {
            if let Some(slot) = &mut self.slots[i] {
                if slot.block == block {
                    slot.dirty |= dirty;
                    slot.stamp = stamp;
                    return L2Demotion {
                        slot: self.slot_line(i),
                        home_writeback: None,
                    };
                }
            }
        }
        // Free slot if any, else evict the LRU way.
        let target = range
            .clone()
            .find(|&i| self.slots[i].is_none())
            .unwrap_or_else(|| {
                range
                    .min_by_key(|&i| self.slots[i].map_or(0, |s| s.stamp))
                    .expect("set has at least one way")
            });
        let mut home_writeback = None;
        if let Some(victim) = self.slots[target] {
            if victim.dirty {
                home_writeback = Some(victim.block);
            }
        }
        self.slots[target] = Some(Slot {
            block,
            dirty,
            stamp,
        });
        L2Demotion {
            slot: self.slot_line(target),
            home_writeback,
        }
    }

    /// Removes `block` if resident, returning `true` if it was dirty
    /// (stale-metadata invalidation: migrations and the bulk fill/seal
    /// engines, which write fresh counters straight to DRAM).
    pub fn invalidate(&mut self, block: u64) -> bool {
        for i in self.set_range(block) {
            if let Some(slot) = self.slots[i] {
                if slot.block == block {
                    self.slots[i] = None;
                    return slot.dirty;
                }
            }
        }
        false
    }

    /// True if `block` is resident (no LRU update).
    pub fn contains(&self, block: u64) -> bool {
        self.set_range(block)
            .any(|i| self.slots[i].is_some_and(|s| s.block == block))
    }

    /// Every resident block id (test/debug probe for the exclusivity
    /// invariant).
    pub fn resident_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().filter_map(|s| s.map(|s| s.block))
    }

    /// First DRAM line of the reserved region.
    pub fn base_line(&self) -> u64 {
        self.base_line
    }

    /// Total sealed blocks the store can hold.
    pub fn capacity_blocks(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn store() -> L2MetaStore {
        // 4 sets x 2 ways = 8 blocks at base line 1000.
        L2MetaStore::new(ByteSize::from_bytes(8 * 64), 2, 1000)
    }

    /// First `n` block ids mapping to the same set as `anchor`.
    fn colliding(s: &L2MetaStore, anchor: u64, n: usize) -> Vec<u64> {
        let set = s.set_range(anchor).start;
        (0u64..)
            .filter(|&b| s.set_range(b).start == set)
            .take(n)
            .collect()
    }

    #[test]
    fn demote_then_take_roundtrips() {
        let mut s = store();
        let d = s.demote(42, true);
        assert!(d.slot.raw() >= 1000 && d.slot.raw() < 1008);
        assert_eq!(d.home_writeback, None);
        let p = s.take(42).expect("resident");
        assert_eq!(p.line, d.slot);
        assert!(p.dirty);
        assert!(!s.contains(42), "promotion is exclusive");
        assert_eq!(s.take(42), None);
    }

    #[test]
    fn dirty_eviction_goes_home_clean_is_dropped() {
        let mut s = store();
        let ids = colliding(&s, 0, 4);
        s.demote(ids[0], true);
        s.demote(ids[1], false);
        // Evicts ids[0] (LRU, dirty) -> home write-back.
        let d = s.demote(ids[2], false);
        assert_eq!(d.home_writeback, Some(ids[0]));
        assert!(!s.contains(ids[0]));
        // Evicts ids[1] (clean) -> dropped.
        let d = s.demote(ids[3], false);
        assert_eq!(d.home_writeback, None);
        assert!(!s.contains(ids[1]));
    }

    #[test]
    fn redemotion_merges_dirty_in_place() {
        let mut s = store();
        let d1 = s.demote(9, false);
        let d2 = s.demote(9, true);
        assert_eq!(d1.slot, d2.slot, "same slot reused");
        assert_eq!(d2.home_writeback, None, "a merge displaces nothing");
        assert!(s.take(9).expect("resident").dirty, "dirty bit merged");
    }

    #[test]
    fn invalidate_reports_dirtiness_and_frees_slot() {
        let mut s = store();
        s.demote(5, true);
        assert!(s.invalidate(5));
        assert!(!s.contains(5));
        assert!(!s.invalidate(5));
    }

    #[test]
    fn slots_are_pinned_to_the_reserved_region() {
        let mut s = L2MetaStore::new(ByteSize::from_kib(64), 16, 1 << 20);
        assert_eq!(s.capacity_blocks(), 1024);
        for b in 0..2048u64 {
            let d = s.demote(b, false);
            let line = d.slot.raw();
            assert!(
                (1 << 20..(1 << 20) + 1024).contains(&line),
                "slot line {line} outside the reserved region"
            );
        }
    }

    #[test]
    fn lru_within_set() {
        let mut s = store();
        let ids = colliding(&s, 0, 3);
        s.demote(ids[0], false);
        s.demote(ids[1], false);
        // Touch ids[0] via a probe round-trip to refresh it.
        let p = s.take(ids[0]).expect("resident");
        let _ = p;
        s.demote(ids[0], false);
        // Now ids[1] is LRU; ids[2] replaces it.
        s.demote(ids[2], false);
        assert!(s.contains(ids[0]));
        assert!(!s.contains(ids[1]));
        assert!(s.contains(ids[2]));
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_ways_panics() {
        let _ = L2MetaStore::new(ByteSize::from_kib(1), 0, 0);
    }
}
