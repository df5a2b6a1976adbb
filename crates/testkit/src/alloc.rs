//! A heap-counting global allocator for memory-footprint tests and
//! benches: install it with `#[global_allocator]` and read the counters
//! around the code under test.
//!
//! ```
//! use std::alloc::{GlobalAlloc, Layout};
//! use iceclave_testkit::CountingAlloc;
//!
//! let counter = CountingAlloc::new();
//! let layout = Layout::from_size_align(4096, 8)?;
//! // SAFETY: `layout` has a non-zero size; the block is freed with the
//! // same layout below.
//! let block = unsafe { counter.alloc(layout) };
//! assert_eq!(counter.live_bytes(), 4096);
//! // SAFETY: `block` came from `counter.alloc(layout)`.
//! unsafe { counter.dealloc(block, layout) };
//! assert_eq!((counter.live_bytes(), counter.peak_bytes()), (0, 4096));
//! counter.reset_peak();
//! assert_eq!(counter.peak_bytes(), 0);
//! # Ok::<(), std::alloc::LayoutError>(())
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A [`GlobalAlloc`] over [`System`] that counts live heap bytes and
/// their peak.
///
/// Install it with `#[global_allocator]` in a test or bench binary. The
/// counters are process-wide, so a binary that reads them should hold
/// one measurement at a time (one `#[test]`, not several running in
/// parallel). A `realloc` counts only the size change, not the moment
/// both blocks exist.
#[derive(Debug)]
pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    /// A counter at zero (usable in a `static`).
    pub const fn new() -> Self {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Bytes allocated and not yet freed.
    pub fn live_bytes(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// The highest [`CountingAlloc::live_bytes`] since the last
    /// [`CountingAlloc::reset_peak`] (or since start-up).
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restarts peak tracking from the current live bytes.
    pub fn reset_peak(&self) {
        self.peak.store(self.live_bytes(), Ordering::Relaxed);
    }

    // The counters are statistics that publish no other data, hence
    // `Relaxed`.
    fn grow(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which implements `GlobalAlloc` soundly, and returns `System`'s
// result; the counters only observe layout sizes and never touch the
// memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        self.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract
        // for a block that `System` allocated.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                self.grow(new_size - layout.size());
            } else {
                self.shrink(layout.size() - new_size);
            }
        }
        new
    }
}
