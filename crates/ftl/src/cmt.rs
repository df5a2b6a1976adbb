//! The cached mapping table (CMT) in the protected memory region.
//!
//! Like DFTL, the full mapping table lives in flash as *translation
//! pages* (512 eight-byte entries per 4 KiB page) and a cache of
//! recently used translation pages is kept in DRAM — in IceClave, in
//! the *protected* region, where the normal world can read entries
//! directly (§4.2). A translation miss is the only event that forces a
//! world switch at runtime; §6.3 measures only 0.17% of translations
//! missing.

use std::collections::VecDeque;

use iceclave_types::FastMap;

use iceclave_types::{ByteSize, Lpn, PAGE_SIZE};

/// Mapping entries per translation page (4 KiB / 8 B).
pub const ENTRIES_PER_TRANSLATION_PAGE: u64 = PAGE_SIZE / 8;

/// Outcome of a CMT lookup.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct CmtLookup {
    /// Whether the covering translation page was resident.
    pub hit: bool,
    /// A dirty translation page evicted to make room; the caller (the
    /// FTL, in the secure world) must write it back to flash.
    pub evicted_dirty: Option<u64>,
}

/// LRU cache of translation pages.
///
/// # Examples
///
/// ```
/// use iceclave_ftl::CachedMappingTable;
/// use iceclave_types::{ByteSize, Lpn};
///
/// let mut cmt = CachedMappingTable::new(ByteSize::from_kib(8)); // 2 pages
/// assert!(!cmt.lookup(Lpn::new(0)).hit);
/// assert!(cmt.lookup(Lpn::new(1)).hit); // same translation page
/// ```
#[derive(Debug)]
pub struct CachedMappingTable {
    /// Resident translation-page numbers, most recent first.
    lru: VecDeque<u64>,
    resident: FastMap<u64, bool>, // tvpn -> dirty
    capacity_pages: usize,
    hits: u64,
    misses: u64,
}

impl CachedMappingTable {
    /// Creates a CMT occupying `capacity` bytes of the protected region.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is smaller than one translation page.
    pub fn new(capacity: ByteSize) -> Self {
        let capacity_pages = (capacity.as_bytes() / PAGE_SIZE) as usize;
        assert!(
            capacity_pages >= 1,
            "CMT needs at least one translation page"
        );
        CachedMappingTable {
            lru: VecDeque::new(),
            resident: FastMap::default(),
            capacity_pages,
            hits: 0,
            misses: 0,
        }
    }

    /// The translation page covering `lpn`.
    pub fn translation_page_of(lpn: Lpn) -> u64 {
        lpn.raw() / ENTRIES_PER_TRANSLATION_PAGE
    }

    /// Looks up the translation page covering `lpn`, loading it (clean)
    /// on a miss and evicting the LRU page when full.
    pub fn lookup(&mut self, lpn: Lpn) -> CmtLookup {
        self.touch(Self::translation_page_of(lpn), false)
    }

    /// Marks the translation page covering `lpn` as updated (a mapping
    /// write), loading it on a miss. Only the secure world calls this.
    pub fn update(&mut self, lpn: Lpn) -> CmtLookup {
        self.touch(Self::translation_page_of(lpn), true)
    }

    fn touch(&mut self, tvpn: u64, dirty: bool) -> CmtLookup {
        if let Some(d) = self.resident.get_mut(&tvpn) {
            *d = *d || dirty;
            // Sequential workloads hammer one translation page; skip
            // the LRU reshuffle when it is already most recent.
            if self.lru.front() != Some(&tvpn) {
                let pos = self
                    .lru
                    .iter()
                    .position(|&p| p == tvpn)
                    .expect("resident page must be in LRU list");
                self.lru.remove(pos);
                self.lru.push_front(tvpn);
            }
            self.hits += 1;
            return CmtLookup {
                hit: true,
                evicted_dirty: None,
            };
        }
        self.misses += 1;
        let mut evicted_dirty = None;
        if self.lru.len() == self.capacity_pages {
            if let Some(victim) = self.lru.pop_back() {
                if self.resident.remove(&victim) == Some(true) {
                    evicted_dirty = Some(victim);
                }
            }
        }
        self.lru.push_front(tvpn);
        self.resident.insert(tvpn, dirty);
        CmtLookup {
            hit: false,
            evicted_dirty,
        }
    }

    /// Drops every resident page, returning the dirty ones for
    /// write-back (used at TEE teardown / shutdown).
    pub fn flush(&mut self) -> Vec<u64> {
        let dirty: Vec<u64> = self
            .resident
            .iter()
            .filter_map(|(&t, &d)| d.then_some(t))
            .collect();
        self.resident.clear();
        self.lru.clear();
        dirty
    }

    /// Whether the page covering `lpn` is resident (no stats effect).
    pub fn contains(&self, lpn: Lpn) -> bool {
        self.resident.contains_key(&Self::translation_page_of(lpn))
    }

    /// Whether translation page `tvpn` is resident and dirty (no stats
    /// effect).
    #[cfg(test)]
    pub(crate) fn is_dirty(&self, tvpn: u64) -> bool {
        self.resident.get(&tvpn) == Some(&true)
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate in `[0,1]` (the paper reports 0.17% for its
    /// workloads).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Capacity in translation pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn cmt(pages: u64) -> CachedMappingTable {
        CachedMappingTable::new(ByteSize::from_bytes(pages * PAGE_SIZE))
    }

    #[test]
    fn entries_share_translation_pages() {
        let mut c = cmt(1);
        assert!(!c.lookup(Lpn::new(0)).hit);
        for lpn in 1..ENTRIES_PER_TRANSLATION_PAGE {
            assert!(c.lookup(Lpn::new(lpn)).hit, "lpn {lpn}");
        }
        assert!(!c.lookup(Lpn::new(ENTRIES_PER_TRANSLATION_PAGE)).hit);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = cmt(2);
        let page = ENTRIES_PER_TRANSLATION_PAGE;
        c.lookup(Lpn::new(0)); // page 0
        c.lookup(Lpn::new(page)); // page 1
        c.lookup(Lpn::new(0)); // page 0 MRU
        c.lookup(Lpn::new(2 * page)); // evicts page 1
        assert!(c.contains(Lpn::new(0)));
        assert!(!c.contains(Lpn::new(page)));
    }

    #[test]
    fn clean_eviction_reports_nothing() {
        let mut c = cmt(1);
        c.lookup(Lpn::new(0));
        let out = c.lookup(Lpn::new(ENTRIES_PER_TRANSLATION_PAGE));
        assert_eq!(out.evicted_dirty, None);
    }

    #[test]
    fn dirty_eviction_reports_translation_page() {
        let mut c = cmt(1);
        c.update(Lpn::new(0));
        let out = c.lookup(Lpn::new(ENTRIES_PER_TRANSLATION_PAGE));
        assert_eq!(out.evicted_dirty, Some(0));
    }

    #[test]
    fn flush_returns_only_dirty_pages() {
        let mut c = cmt(4);
        c.lookup(Lpn::new(0));
        c.update(Lpn::new(ENTRIES_PER_TRANSLATION_PAGE));
        let mut dirty = c.flush();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![1]);
        assert!(!c.contains(Lpn::new(0)));
    }

    #[test]
    fn miss_rate_accounting() {
        let mut c = cmt(2);
        c.lookup(Lpn::new(0));
        c.lookup(Lpn::new(1));
        c.lookup(Lpn::new(2));
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
        assert!((c.miss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one translation page")]
    fn zero_capacity_panics() {
        let _ = CachedMappingTable::new(ByteSize::from_bytes(100));
    }
}
