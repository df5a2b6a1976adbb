//! Shared primitive types for the IceClave reproduction.
//!
//! This crate holds the vocabulary types used by every other crate in the
//! workspace: simulated time ([`SimTime`], [`SimDuration`]), storage
//! addresses ([`Lpn`], [`Ppn`], [`PhysAddr`], [`CacheLine`]), byte sizes
//! ([`ByteSize`]), clock frequencies ([`Hertz`]) and TEE identifiers
//! ([`TeeId`]), plus containers for simulator-internal state:
//! [`FastMap`] for keys the allocator strides across the device,
//! [`WindowTable`] and [`DenseTable`] for ids handed out in order, and
//! [`ChunkTable`] for sparsely written index ranges.
//!
//! The vocabulary types are plain newtypes with value semantics.
//! Keeping them in a leaf crate lets substrates (flash, DRAM, FTL, MEE,
//! ...) interoperate without depending on each other.
//!
//! # Examples
//!
//! ```
//! use iceclave_types::{SimTime, SimDuration, Lpn, ByteSize};
//!
//! let start = SimTime::ZERO;
//! let after_read = start + SimDuration::from_micros(50);
//! assert_eq!((after_read - start).as_micros_f64(), 50.0);
//!
//! let lpn = Lpn::new(42);
//! assert_eq!(lpn.raw(), 42);
//!
//! assert_eq!(ByteSize::from_mib(4).as_bytes(), 4 * 1024 * 1024);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod fault;
pub mod freq;
pub mod hash;
pub mod request;
pub mod size;
pub mod table;
pub mod tee;
pub mod ticket;
pub mod time;

pub use addr::{CacheLine, Lpn, PhysAddr, Ppn};
pub use fault::{FaultStats, PageError, PageErrorCause, RecoveryStats};
pub use freq::Hertz;
pub use hash::{FastMap, FastSet, FxHasher};
pub use request::{BatchCompletion, PageWrite, WriteBatchRequest, WritePageRequest};
pub use size::ByteSize;
pub use table::{ChunkTable, DenseTable, WindowTable};
pub use tee::{TeeId, TeeIdError};
pub use ticket::{CompletionEvent, LatencyBreakdown, PageStatus, Ticket, TicketKind};
pub use time::{SimDuration, SimTime};

/// Size of one flash page and one DRAM page in bytes (4 KiB), as configured
/// in Table 3 of the paper.
pub const PAGE_SIZE: u64 = 4096;

/// Size of one processor cache line in bytes.
pub const CACHE_LINE_SIZE: u64 = 64;

/// Number of cache lines per 4 KiB page.
pub const LINES_PER_PAGE: u64 = PAGE_SIZE / CACHE_LINE_SIZE;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_constants_are_consistent() {
        assert_eq!(LINES_PER_PAGE, 64);
        assert_eq!(PAGE_SIZE % CACHE_LINE_SIZE, 0);
    }
}
