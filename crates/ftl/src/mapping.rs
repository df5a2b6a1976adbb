//! The logical-to-physical mapping table with per-entry ID bits (§4.3).

use iceclave_types::{Lpn, Ppn, TeeId};

/// One 8-byte mapping entry.
///
/// Packed layout (bit 0 = LSB):
///
/// | bits   | field                         |
/// |--------|-------------------------------|
/// | 0..48  | physical page number          |
/// | 48..52 | TEE ID bits (§4.3, 4 bits)    |
/// | 52     | valid                         |
/// | 53..64 | reserved                      |
///
/// Four ID bits on an 8-byte entry are the paper's 6.25% storage cost.
///
/// # Examples
///
/// ```
/// use iceclave_ftl::MappingEntry;
/// use iceclave_types::{Ppn, TeeId};
///
/// let entry = MappingEntry::new(Ppn::new(77), TeeId::new(3)?);
/// let packed = entry.pack();
/// assert_eq!(MappingEntry::unpack(packed), Some(entry));
/// # Ok::<(), iceclave_types::TeeIdError>(())
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct MappingEntry {
    ppn: Ppn,
    owner: TeeId,
}

const PPN_BITS: u32 = 48;
const PPN_MASK: u64 = (1 << PPN_BITS) - 1;
const ID_SHIFT: u32 = PPN_BITS;
const ID_MASK: u64 = 0xF;
const VALID_BIT: u32 = 52;

impl MappingEntry {
    /// Creates a valid entry mapping to `ppn`, owned by `owner`.
    pub fn new(ppn: Ppn, owner: TeeId) -> Self {
        MappingEntry { ppn, owner }
    }

    /// The physical page this entry points to.
    pub fn ppn(&self) -> Ppn {
        self.ppn
    }

    /// The TEE that owns this logical page ([`TeeId::UNOWNED`] for
    /// host/FTL data).
    pub fn owner(&self) -> TeeId {
        self.owner
    }

    /// Serializes to the 8-byte on-flash/in-DRAM format.
    pub fn pack(&self) -> u64 {
        (self.ppn.raw() & PPN_MASK) | (u64::from(self.owner.raw()) << ID_SHIFT) | (1 << VALID_BIT)
    }

    /// Deserializes an 8-byte entry; `None` if the valid bit is clear.
    pub fn unpack(raw: u64) -> Option<Self> {
        if raw & (1 << VALID_BIT) == 0 {
            return None;
        }
        let owner = TeeId::new(((raw >> ID_SHIFT) & ID_MASK) as u16)
            .expect("4 masked bits always fit 4 id bits");
        Some(MappingEntry {
            ppn: Ppn::new(raw & PPN_MASK),
            owner,
        })
    }
}

/// The full L2P table.
///
/// Conceptually this lives in flash with a cached copy in the protected
/// region; here it is the authoritative (sparse) store, while
/// [`crate::CachedMappingTable`] models the protected-region cache and
/// its miss traffic.
#[derive(Debug, Default)]
pub struct MappingTable {
    /// Dense, LPN-indexed. Logical page numbers are bounded by the
    /// device's logical capacity, so a grow-on-demand vector replaces
    /// hashing on the per-I/O translation path.
    entries: Vec<Option<MappingEntry>>,
    mapped: usize,
}

impl MappingTable {
    /// An empty table.
    pub fn new() -> Self {
        MappingTable {
            entries: Vec::new(),
            mapped: 0,
        }
    }

    #[inline]
    fn slot(&self, lpn: Lpn) -> Option<&MappingEntry> {
        self.entries
            .get(lpn.raw() as usize)
            .and_then(Option::as_ref)
    }

    #[inline]
    fn slot_mut(&mut self, lpn: Lpn) -> &mut Option<MappingEntry> {
        let idx = lpn.raw() as usize;
        if idx >= self.entries.len() {
            self.entries.resize(idx + 1, None);
        }
        &mut self.entries[idx]
    }

    /// The entry for `lpn`, if mapped.
    #[inline]
    pub fn lookup(&self, lpn: Lpn) -> Option<MappingEntry> {
        self.slot(lpn).copied()
    }

    /// Maps `lpn` to `ppn`, preserving the previous owner (out-of-place
    /// update) or [`TeeId::UNOWNED`] for fresh entries. Returns the
    /// previous physical page, which the caller must invalidate.
    pub fn update(&mut self, lpn: Lpn, ppn: Ppn) -> Option<Ppn> {
        let slot = self.slot_mut(lpn);
        let owner = slot.map_or(TeeId::UNOWNED, |e| e.owner());
        let prev = slot.replace(MappingEntry::new(ppn, owner));
        if prev.is_none() {
            self.mapped += 1;
        }
        prev.map(|e| e.ppn())
    }

    /// Sets the ID bits of an existing entry (the `SetIDBits` API of
    /// Table 2). Returns `false` when `lpn` is unmapped.
    pub fn set_owner(&mut self, lpn: Lpn, owner: TeeId) -> bool {
        match self
            .entries
            .get_mut(lpn.raw() as usize)
            .and_then(Option::as_mut)
        {
            Some(e) => {
                *e = MappingEntry::new(e.ppn(), owner);
                true
            }
            None => false,
        }
    }

    /// Removes the mapping for `lpn` (trim), returning the freed
    /// physical page.
    pub fn remove(&mut self, lpn: Lpn) -> Option<Ppn> {
        let prev = self
            .entries
            .get_mut(lpn.raw() as usize)
            .and_then(Option::take);
        if prev.is_some() {
            self.mapped -= 1;
        }
        prev.map(|e| e.ppn())
    }

    /// Every mapped logical page and its physical page, in LPN order.
    pub fn iter(&self) -> impl Iterator<Item = (Lpn, Ppn)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(lpn, entry)| entry.map(|e| (Lpn::new(lpn as u64), e.ppn())))
    }

    /// Number of mapped logical pages.
    pub fn len(&self) -> usize {
        self.mapped
    }

    /// True if nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.mapped == 0
    }

    /// Whether `tee` may access `lpn` per the ID bits: the owner
    /// matches, or the page is unowned (host data a TEE was not granted:
    /// denied — unowned pages are only FTL/host accessible).
    pub fn permits(&self, lpn: Lpn, tee: TeeId) -> bool {
        self.lookup(lpn).is_some_and(|e| e.owner() == tee)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn tee(raw: u16) -> TeeId {
        TeeId::new(raw).unwrap()
    }

    #[test]
    fn pack_round_trips_all_id_values() {
        for id in 0..16 {
            let e = MappingEntry::new(Ppn::new(123_456), tee(id));
            assert_eq!(MappingEntry::unpack(e.pack()), Some(e));
        }
    }

    #[test]
    fn invalid_raw_unpacks_to_none() {
        assert_eq!(MappingEntry::unpack(0), None);
        let e = MappingEntry::new(Ppn::new(1), tee(1));
        let cleared = e.pack() & !(1 << 52);
        assert_eq!(MappingEntry::unpack(cleared), None);
    }

    #[test]
    fn large_ppn_survives_packing() {
        let e = MappingEntry::new(Ppn::new((1 << 48) - 1), tee(15));
        assert_eq!(MappingEntry::unpack(e.pack()), Some(e));
    }

    #[test]
    fn update_preserves_owner() {
        let mut t = MappingTable::new();
        assert_eq!(t.update(Lpn::new(9), Ppn::new(1)), None);
        assert!(t.set_owner(Lpn::new(9), tee(5)));
        // Out-of-place rewrite moves the page; ownership must follow.
        assert_eq!(t.update(Lpn::new(9), Ppn::new(2)), Some(Ppn::new(1)));
        assert_eq!(t.lookup(Lpn::new(9)).unwrap().owner(), tee(5));
    }

    #[test]
    fn set_owner_requires_mapping() {
        let mut t = MappingTable::new();
        assert!(!t.set_owner(Lpn::new(1), tee(1)));
    }

    #[test]
    fn permits_is_exact_owner_match() {
        let mut t = MappingTable::new();
        t.update(Lpn::new(1), Ppn::new(10));
        t.set_owner(Lpn::new(1), tee(2));
        assert!(t.permits(Lpn::new(1), tee(2)));
        assert!(!t.permits(Lpn::new(1), tee(3)));
        assert!(!t.permits(Lpn::new(2), tee(2)));
        // Unowned pages are not TEE-accessible.
        t.update(Lpn::new(4), Ppn::new(11));
        assert!(!t.permits(Lpn::new(4), tee(2)));
    }

    #[test]
    fn iter_lists_mapped_pages_in_lpn_order() {
        let mut t = MappingTable::new();
        t.update(Lpn::new(7), Ppn::new(70));
        t.update(Lpn::new(2), Ppn::new(20));
        t.update(Lpn::new(4), Ppn::new(40));
        t.remove(Lpn::new(4));
        let pairs: Vec<(Lpn, Ppn)> = t.iter().collect();
        assert_eq!(
            pairs,
            [(Lpn::new(2), Ppn::new(20)), (Lpn::new(7), Ppn::new(70))]
        );
    }

    #[test]
    fn remove_frees_entry() {
        let mut t = MappingTable::new();
        t.update(Lpn::new(1), Ppn::new(10));
        assert_eq!(t.remove(Lpn::new(1)), Some(Ppn::new(10)));
        assert!(t.is_empty());
        assert_eq!(t.remove(Lpn::new(1)), None);
    }
}
