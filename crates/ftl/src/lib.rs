//! Flash Translation Layer (§2.1, §4.2, §4.3).
//!
//! The FTL is the SSD's core firmware: it maintains the logical-to-
//! physical page mapping, performs out-of-place writes, garbage
//! collection and wear leveling. In IceClave the FTL runs in the
//! TrustZone *secure world*, while the frequently-read address mapping
//! table is cached in the *protected* region so in-storage programs can
//! translate addresses without a world switch (Figure 5 quantifies the
//! 21.6% win of that placement). Every 8-byte mapping entry carries ID
//! bits naming the in-storage TEE allowed to reach that page (§4.3).
//!
//! Module map:
//!
//! * [`mapping`] — the L2P table and the bit-exact 8-byte entry
//!   encoding with 4 ID bits.
//! * [`cmt`] — the DFTL-style cached mapping table living in the
//!   protected region; misses escalate to the secure world and flash.
//! * [`ftl`] — the façade: translation with the permission check,
//!   writes, the channel-steered write batch, GC, wear leveling.
//! * [`wfq`] — fair queueing *across* TEEs: per-channel
//!   start-time fair queueing over page-sized quanta, with preemption
//!   points at page boundaries (Figures 17/18 multi-tenancy).
//!
//! # Examples
//!
//! ```
//! use iceclave_flash::FlashConfig;
//! use iceclave_ftl::{Ftl, FtlConfig, Requestor};
//! use iceclave_trustzone::WorldMonitor;
//! use iceclave_types::{Lpn, SimTime, TeeId};
//!
//! let mut ftl = Ftl::new(FlashConfig::tiny(), FtlConfig::default());
//! let mut monitor = WorldMonitor::with_table5_cost();
//! let lpn = Lpn::new(3);
//! ftl.write(Requestor::Host, lpn, &mut monitor, SimTime::ZERO)?;
//!
//! // Grant page 3 to TEE 1, then read it back from the TEE: translate
//! // (with the ID-bit check), then read the flash page.
//! let tee = TeeId::new(1)?;
//! ftl.set_id_bits(&[lpn], tee)?;
//! let tr = ftl.translate(Requestor::Tee(tee), lpn, &mut monitor, SimTime::ZERO)?;
//! let done = ftl.flash_mut().read_page(tr.ppn, tr.ready_at)?.end;
//! assert!(done > SimTime::ZERO);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::unwrap_used)]

pub mod cmt;
pub mod ftl;
pub mod mapping;
pub mod wfq;

pub use cmt::{CachedMappingTable, CmtLookup};
pub use ftl::{
    BatchPageWrite, Ftl, FtlConfig, FtlError, FtlRecovery, FtlStats, Requestor, Translation,
    WriteBatchOutcome,
};
pub use iceclave_flash::{
    FaultInjector, FaultPlan, FlashError, JournalRecord, MetadataJournal, ReadFault,
};
pub use mapping::{MappingEntry, MappingTable};
pub use wfq::{IssueGrant, WfqArbiter};
