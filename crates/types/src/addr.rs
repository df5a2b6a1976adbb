//! Storage and memory address newtypes.
//!
//! Logical page numbers ([`Lpn`]) are what in-storage programs and the host
//! use; physical page numbers ([`Ppn`]) index into the flash array and are
//! only produced by the FTL. Keeping them as distinct types makes it a
//! compile error to hand an untranslated address to the flash layer.

use std::fmt;

use crate::{CACHE_LINE_SIZE, PAGE_SIZE};

/// A logical page number: the address space exposed to applications.
///
/// # Examples
///
/// ```
/// use iceclave_types::Lpn;
///
/// let lpn = Lpn::new(7);
/// assert_eq!(lpn.next().raw(), 8);
/// assert_eq!(lpn.byte_offset(), 7 * 4096);
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug, Default)]
pub struct Lpn(u64);

/// A physical page number: a location in the flash array, produced only by
/// the FTL's address translation.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug, Default)]
pub struct Ppn(u64);

/// A byte address in the SSD's internal DRAM physical address space.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug, Default)]
pub struct PhysAddr(u64);

/// A cache-line index in the SSD DRAM (64-byte granularity), the unit at
/// which the memory-encryption engine operates.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug, Default)]
pub struct CacheLine(u64);

impl Lpn {
    /// Creates a logical page number.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Lpn(raw)
    }

    /// The raw page index.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The logical byte offset of the start of this page.
    #[inline]
    pub const fn byte_offset(self) -> u64 {
        self.0 * PAGE_SIZE
    }

    /// The following logical page.
    #[inline]
    pub const fn next(self) -> Lpn {
        Lpn(self.0 + 1)
    }

    /// This page offset by `delta` pages.
    #[inline]
    pub const fn offset(self, delta: u64) -> Lpn {
        Lpn(self.0 + delta)
    }
}

impl Ppn {
    /// Creates a physical page number.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Ppn(raw)
    }

    /// The raw physical page index.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl PhysAddr {
    /// Creates a physical DRAM byte address.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        PhysAddr(raw)
    }

    /// The raw byte address.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The 4 KiB DRAM page index containing this address.
    #[inline]
    pub const fn page_index(self) -> u64 {
        self.0 / PAGE_SIZE
    }

    /// This address offset by `delta` bytes.
    #[inline]
    pub const fn offset(self, delta: u64) -> PhysAddr {
        PhysAddr(self.0 + delta)
    }
}

impl CacheLine {
    /// Creates a cache-line index.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        CacheLine(raw)
    }

    /// The raw line index.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The 4 KiB page index containing this line.
    #[inline]
    pub const fn page_index(self) -> u64 {
        self.0 / (PAGE_SIZE / CACHE_LINE_SIZE)
    }

    /// The index of this line within its page (0..64).
    #[inline]
    pub const fn line_in_page(self) -> u64 {
        self.0 % (PAGE_SIZE / CACHE_LINE_SIZE)
    }
}

impl From<u64> for Lpn {
    #[inline]
    fn from(raw: u64) -> Self {
        Lpn(raw)
    }
}

impl From<u64> for Ppn {
    #[inline]
    fn from(raw: u64) -> Self {
        Ppn(raw)
    }
}

impl From<u64> for PhysAddr {
    #[inline]
    fn from(raw: u64) -> Self {
        PhysAddr(raw)
    }
}

impl fmt::Display for Lpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LPN#{}", self.0)
    }
}

impl fmt::Display for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PPN#{}", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl fmt::Display for CacheLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CL#{}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpn_arithmetic() {
        let l = Lpn::new(10);
        assert_eq!(l.next(), Lpn::new(11));
        assert_eq!(l.offset(5), Lpn::new(15));
        assert_eq!(l.byte_offset(), 40_960);
    }

    #[test]
    fn phys_addr_decomposition() {
        let a = PhysAddr::new(4096 + 130);
        assert_eq!(a.page_index(), 1);
        assert_eq!(a.offset(4096).page_index(), 2);
    }

    #[test]
    fn cache_line_decomposition() {
        let line = CacheLine::new(65);
        assert_eq!(line.page_index(), 1);
        assert_eq!(line.line_in_page(), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Lpn::new(3).to_string(), "LPN#3");
        assert_eq!(Ppn::new(4).to_string(), "PPN#4");
        assert_eq!(PhysAddr::new(255).to_string(), "0xff");
        assert_eq!(format!("{:x}", PhysAddr::new(255)), "ff");
    }
}
