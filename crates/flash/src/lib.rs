//! NAND flash array model (SimpleSSD-equivalent substrate).
//!
//! Models the physical flash of the computational SSD in Table 3 of the
//! IceClave paper: channels shared by packages, packages of dies, dies of
//! planes, planes of blocks, blocks of pages — with per-die operation
//! timing (page read / program, block erase), per-channel bus transfer
//! time, and the NAND state machine (pages are program-once and must be
//! erased a block at a time, in page order within a block). Program and
//! erase times, the channel bandwidth and the 4 KiB page are Table 3
//! constants; a run varies the geometry and the page-read latency.
//!
//! The array is a *timing* model first: operations return completion
//! times computed from resource timelines. A sparse data store keeps the
//! actual bytes of pages that were written with content, which the cipher
//! and TEE layers use for functional (bit-exact) tests.
//!
//! # Examples
//!
//! ```
//! use iceclave_flash::{FlashArray, FlashConfig};
//! use iceclave_types::{Ppn, SimTime};
//!
//! let mut array = FlashArray::new(FlashConfig::table3());
//! array.program_page(Ppn::new(0), SimTime::ZERO)?;
//! let done = array.read_page(Ppn::new(0), SimTime::ZERO)?;
//! // 50us cell read + 4KiB over a 600 MB/s channel bus.
//! assert!(done.end.as_micros_f64() > 50.0);
//! # Ok::<(), iceclave_flash::FlashError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::unwrap_used)]

pub mod array;
pub mod config;
pub mod faults;
pub mod geometry;
pub mod journal;

pub use array::{FlashArray, FlashError, FlashStats};
pub use config::{FlashConfig, FlashTiming};
pub use faults::{FaultInjector, FaultPlan, ReadFault};
pub use geometry::{BlockAddr, FlashAddr, FlashGeometry};
pub use journal::{JournalRecord, MetadataJournal, ReplaySummary};
