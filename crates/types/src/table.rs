//! Index-addressed tables for per-id device state, so hot paths index
//! instead of hashing.
//!
//! * [`WindowTable`]: ids handed out monotonically and never reused
//!   (ticket ids). The live ids sit in a sliding window.
//! * [`DenseTable`]: ids used densely from zero (LPNs,
//!   translation-page numbers). A vector grown to the highest id.
//! * [`ChunkTable`]: a large, sparsely written index space.
//!
//! The MEE keeps one counter block per protected DRAM page and the
//! flash array one frontier per erase block. Both are read on
//! per-access hot paths, so they must stay an index, not a hash; but a
//! run writes only the pages of the TEE regions it offloads and the
//! blocks the FTL steers to, scattered over index spaces of a million
//! pages and half a million blocks. A dense vector sized by the highest
//! index (or by the device) pays for everything below it.
//! [`ChunkTable`] pays for the fixed-size chunks a run writes instead.

use std::collections::VecDeque;

/// Per-id values over ids allocated monotonically and never reused,
/// stored in a sliding window.
///
/// Live ids occupy a dense window `[base, base + slots.len())`:
/// `slots[i]` holds the value of id `base + i`, and a lookup is one
/// subtraction and one index. The window bounds double as the
/// generation check: an id below `base` was retired and misses, an id
/// at or past the window end was never inserted, with no per-slot
/// counter. Only the front of the window advances, past retired ids,
/// so the window end stays aligned with the id allocator.
///
/// # Examples
///
/// ```
/// use iceclave_types::WindowTable;
///
/// let mut tickets: WindowTable<&str> = WindowTable::new(1);
/// tickets.insert(1, "read");
/// tickets.insert(3, "write"); // id 2 never gets a value
/// assert_eq!(tickets.remove(1), Some("read"));
/// assert_eq!(tickets.get(1), None); // retired
/// assert_eq!(tickets.iter().collect::<Vec<_>>(), vec![(3, &"write")]);
/// ```
#[derive(Debug)]
pub struct WindowTable<T> {
    /// Id of `slots[0]`.
    base: u64,
    /// The live window; `None` marks an id that was retired or never
    /// got a value, awaiting the window's advance.
    slots: VecDeque<Option<T>>,
}

impl<T> WindowTable<T> {
    /// An empty table whose first id will be `first_id`.
    pub fn new(first_id: u64) -> Self {
        WindowTable {
            base: first_id,
            slots: VecDeque::new(),
        }
    }

    /// The value of `id`, if it is live.
    pub fn get(&self, id: u64) -> Option<&T> {
        let idx = id.checked_sub(self.base)?;
        self.slots.get(idx as usize)?.as_ref()
    }

    /// The value of `id` for writing, if it is live.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let idx = id.checked_sub(self.base)?;
        self.slots.get_mut(idx as usize)?.as_mut()
    }

    /// Inserts the value of a freshly allocated `id`, at or past the
    /// window end. Ids between the window end and `id` (allocated
    /// without a value) stay vacant until the window slides past them.
    pub fn insert(&mut self, id: u64, value: T) {
        debug_assert!(
            id >= self.base + self.slots.len() as u64,
            "ids are monotonic and never reused"
        );
        while self.base + (self.slots.len() as u64) < id {
            self.slots.push_back(None);
        }
        self.slots.push_back(Some(value));
    }

    /// Removes and returns the value of `id`, then slides the window
    /// past the retired prefix.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let idx = id.checked_sub(self.base)?;
        let value = self.slots.get_mut(idx as usize)?.take();
        self.slide();
        value
    }

    /// Removes every value `keep` rejects, then slides the window past
    /// the retired prefix.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        for slot in self.slots.iter_mut() {
            if slot.as_ref().is_some_and(|v| !keep(v)) {
                *slot = None;
            }
        }
        self.slide();
    }

    /// Live `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| slot.as_ref().map(|v| (self.base + i as u64, v)))
    }

    /// Advances the window past its leading vacant slots. Interior and
    /// trailing vacancies wait for the front to reach them.
    fn slide(&mut self) {
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
    }
}

/// Per-id values over ids used densely from zero: a vector of
/// optional values grown to the highest id inserted.
///
/// A lookup is one bounds check and one index. Memory follows the
/// highest id, so ids the allocator strides across the device (PPNs,
/// plane-major block indexes) belong in a [`ChunkTable`] or a hash
/// map instead.
///
/// # Examples
///
/// ```
/// use iceclave_types::DenseTable;
///
/// let mut ivs: DenseTable<u64> = DenseTable::new();
/// assert_eq!(ivs.insert(7, 42), None);
/// assert_eq!(ivs.insert(7, 43), Some(42));
/// assert_eq!((ivs.get(7), ivs.get(6)), (Some(&43), None));
/// ```
#[derive(Debug)]
pub struct DenseTable<T> {
    slots: Vec<Option<T>>,
}

impl<T> DenseTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        DenseTable { slots: Vec::new() }
    }

    /// The value at `index`, if one was inserted.
    #[inline]
    pub fn get(&self, index: u64) -> Option<&T> {
        self.slots.get(index as usize)?.as_ref()
    }

    /// Stores `value` at `index`, growing the table to reach it, and
    /// returns the value it replaces.
    pub fn insert(&mut self, index: u64, value: T) -> Option<T> {
        let idx = index as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        self.slots[idx].replace(value)
    }

    /// Removes every value `keep` rejects, visiting indexes in
    /// ascending order.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, &T) -> bool) {
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if slot.as_ref().is_some_and(|v| !keep(index as u64, v)) {
                *slot = None;
            }
        }
    }

    /// Stored `(index, value)` pairs in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|v| (i as u64, v)))
    }
}

impl<T> Default for DenseTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Directory entry of a chunk that no write has touched.
const ABSENT: u32 = u32::MAX;

/// A table of `T` indexed by `u64`: a chunk directory over one arena of
/// `CHUNK`-slot chunks.
///
/// The arena grows by one chunk, filled with the default, the first
/// time any index in that chunk is written ([`ChunkTable::get_mut`]);
/// reads of never-written chunks return the default and allocate
/// nothing. Memory therefore follows the chunks a run writes, not the
/// highest index; only the directory (4 bytes per chunk) reaches up to
/// the highest chunk written, so indexes should come from a bounded
/// space such as DRAM pages or flash blocks. A lookup is a directory
/// index and an arena index, never a hash. `CHUNK` must be a power of
/// two.
///
/// # Examples
///
/// ```
/// use iceclave_types::ChunkTable;
///
/// // Writing block 500,000 adds one 64-slot chunk, not 500k slots.
/// let mut frontiers: ChunkTable<u32, 64> = ChunkTable::new(0);
/// assert_eq!(*frontiers.get(500_000), 0); // untouched: the default
/// *frontiers.get_mut(500_000) += 1;
/// assert_eq!(*frontiers.get(500_000), 1);
/// assert_eq!(*frontiers.get(500_001), 0);
/// ```
#[derive(Debug)]
pub struct ChunkTable<T, const CHUNK: usize> {
    /// Arena offset of each chunk's first slot, [`ABSENT`] for a chunk
    /// never written; it grows to the highest written chunk.
    dir: Vec<u32>,
    arena: Vec<T>,
    default: T,
}

impl<T: Clone, const CHUNK: usize> ChunkTable<T, CHUNK> {
    const SHIFT: u32 = {
        assert!(CHUNK.is_power_of_two(), "CHUNK must be a power of two");
        CHUNK.trailing_zeros()
    };

    /// An empty table: every index reads as `default`.
    pub fn new(default: T) -> Self {
        ChunkTable {
            dir: Vec::new(),
            arena: Vec::new(),
            default,
        }
    }

    /// The value at `index`; the default when its chunk was never
    /// written.
    #[inline]
    pub fn get(&self, index: u64) -> &T {
        match self.dir.get((index >> Self::SHIFT) as usize) {
            Some(&base) if base != ABSENT => &self.arena[base as usize + Self::slot(index)],
            _ => &self.default,
        }
    }

    /// The value at `index` for writing, adding its chunk (filled with
    /// the default) if no index in it was written before.
    #[inline]
    pub fn get_mut(&mut self, index: u64) -> &mut T {
        let chunk = (index >> Self::SHIFT) as usize;
        let base = match self.dir.get(chunk) {
            Some(&base) if base != ABSENT => base,
            _ => self.add_chunk(chunk),
        };
        &mut self.arena[base as usize + Self::slot(index)]
    }

    #[inline]
    fn slot(index: u64) -> usize {
        (index & (CHUNK as u64 - 1)) as usize
    }

    #[cold]
    fn add_chunk(&mut self, chunk: usize) -> u32 {
        if chunk >= self.dir.len() {
            self.dir.resize(chunk + 1, ABSENT);
        }
        let base = u32::try_from(self.arena.len())
            .ok()
            .filter(|&b| b != ABSENT)
            .expect("chunk table arena exceeds u32 offsets");
        self.arena
            .resize(self.arena.len() + CHUNK, self.default.clone());
        self.dir[chunk] = base;
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_slides_only_at_the_front() {
        let mut t: WindowTable<u32> = WindowTable::new(1);
        t.insert(1, 10);
        t.insert(2, 20);
        // Removing the back value must not shrink the window end.
        assert_eq!(t.remove(2), Some(20));
        t.insert(3, 30);
        assert_eq!(t.get(3), Some(&30));
        assert!(t.get(2).is_none());
        // Removing the front slides past the retired hole in one go.
        assert_eq!(t.remove(1), Some(10));
        assert!(t.get(1).is_none());
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(3, &30)]);
        // `retain` slides the same way.
        t.insert(4, 40);
        t.retain(|&v| v != 30);
        assert!(t.get_mut(3).is_none());
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(4, &40)]);
    }

    #[test]
    fn window_ids_without_a_value_stay_vacant() {
        let mut t: WindowTable<u32> = WindowTable::new(1);
        t.insert(1, 10);
        // Ids 2 and 3 were allocated without a value (empty batches).
        t.insert(4, 40);
        assert!(t.get(2).is_none());
        assert!(t.get(3).is_none());
        assert_eq!(
            t.iter().map(|(id, _)| id).collect::<Vec<_>>(),
            vec![1, 4],
            "iteration skips the vacant ids"
        );
    }

    #[test]
    fn dense_table_grows_on_demand() {
        let mut t: DenseTable<u64> = DenseTable::new();
        assert!(t.get(100).is_none());
        assert_eq!(t.insert(100, 42), None);
        assert_eq!(t.get(100), Some(&42));
        assert!(t.get(99).is_none());
        t.insert(3, 7);
        t.retain(|index, _| index != 100);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(3, &7)]);
    }

    /// Chunks written so far.
    fn chunks<T, const CHUNK: usize>(t: &ChunkTable<T, CHUNK>) -> usize {
        t.arena.len() / CHUNK
    }

    #[test]
    fn untouched_indexes_read_the_default() {
        let mut t: ChunkTable<u64, 512> = ChunkTable::new(7);
        assert_eq!(*t.get(0), 7);
        assert_eq!(*t.get(u64::MAX), 7);
        *t.get_mut(1_000) = 1;
        // The rest of the written chunk, and chunks below and above it.
        assert_eq!(*t.get(1_001), 7);
        assert_eq!(*t.get(3), 7);
        assert_eq!(*t.get(1 << 40), 7);
        assert_eq!(chunks(&t), 1);
    }

    #[test]
    fn chunk_edges_round_trip() {
        let mut t: ChunkTable<u32, 64> = ChunkTable::new(0);
        *t.get_mut(63) = 63;
        *t.get_mut(64) = 64;
        assert_eq!((*t.get(63), *t.get(64)), (63, 64));
        assert_eq!((*t.get(62), *t.get(65)), (0, 0));
        assert_eq!(chunks(&t), 2);
    }

    #[test]
    fn last_protected_page_round_trips() {
        // The MEE's default protected range is 2^20 pages.
        let last = (1u64 << 20) - 1;
        let mut t: ChunkTable<u8, 512> = ChunkTable::new(0);
        *t.get_mut(last) = 9;
        assert_eq!(*t.get(last), 9);
        assert_eq!(*t.get(last - 1), 0);
        assert_eq!(chunks(&t), 1);
    }

    #[test]
    fn sparse_writes_occupy_one_chunk_each() {
        let mut t: ChunkTable<u64, 512> = ChunkTable::new(0);
        for i in 0..4u64 {
            *t.get_mut(i * 65_536 + 3) += i + 1;
        }
        assert_eq!(chunks(&t), 4);
        for i in 0..4u64 {
            assert_eq!(*t.get(i * 65_536 + 3), i + 1);
        }
        // Rewriting a written index adds nothing.
        *t.get_mut(3) += 10;
        assert_eq!((*t.get(3), chunks(&t)), (11, 4));
    }
}
