//! A two-level table for per-index device state whose index space is
//! large but sparsely written.
//!
//! The MEE keeps one counter block per protected DRAM page and the
//! flash array one frontier per erase block. Both are read on
//! per-access hot paths, so they must stay an index, not a hash; but a
//! run writes only the pages of the TEE regions it offloads and the
//! blocks the FTL steers to, scattered over index spaces of a million
//! pages and half a million blocks. A dense vector sized by the highest
//! index (or by the device) pays for everything below it.
//! [`ChunkTable`] pays for the fixed-size chunks a run writes instead.

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
