//! Memory Encryption Engine (MEE) for the SSD's internal DRAM (§4.4).
//!
//! IceClave protects in-SSD DRAM with counter-mode encryption plus
//! integrity verification through Bonsai Merkle Trees. The paper's key
//! observation is that in-storage workloads are overwhelmingly
//! read-intensive (Table 1), so it introduces a **hybrid-counter**
//! scheme: read-only pages use *major-only* counter blocks (8 pages per
//! 64 B counter line — 8x the cache reach), while writable pages keep
//! the conventional *split-counter* layout (one page per counter line:
//! a 64-bit major plus 64 six-bit minors). Two Merkle trees protect the
//! two counter spaces, with both roots pinned in processor registers.
//!
//! [`MeeEngine`] implements the scheme as a **timing/traffic** model:
//! every program-visible cache-line access is decomposed into DRAM data
//! traffic plus the extra counter and tree traffic (data MACs ride with
//! their lines), filtered through a two-level metadata hierarchy: a real
//! set-associative on-chip counter cache (128 KiB in Table 3's
//! configuration) backed, when configured, by a MAC-sealed second-level
//! store ([`L2MetaStore`]) in a reserved region of the SSD's DRAM — an
//! L2 hit costs one DRAM fetch plus one MAC check instead of a Merkle
//! walk. This is what produces the overhead numbers of Figures 8/11 and
//! the extra-traffic percentages of Table 6. The byte-accurate functional model the threat-model
//! tests run (AES-CTR pads, MACs and Merkle verification over real
//! data) lives in the test-only `iceclave_testkit`.
//!
//! # Examples
//!
//! ```
//! use iceclave_mee::{CounterMode, MeeConfig, MeeEngine, PageClass};
//! use iceclave_dram::{Dram, DramConfig};
//! use iceclave_types::{CacheLine, SimTime};
//!
//! let mut dram = Dram::new(DramConfig::table3());
//! let mut mee = MeeEngine::new(MeeConfig::hybrid());
//! mee.set_page_class(0, PageClass::ReadOnly);
//! let done = mee.read_line(&mut dram, CacheLine::new(3), SimTime::ZERO);
//! assert!(done > SimTime::ZERO);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::unwrap_used)]

pub mod cache;
pub mod counters;
pub mod engine;
pub mod faults;
pub mod l2;
pub mod tree;

pub use cache::{CacheOutcome, MetaCache};
pub use counters::{PageClass, SplitCounterBlock, MINOR_LIMIT};
pub use engine::{CounterMode, MeeConfig, MeeEngine, MeeStats, MetaTraffic, SealSpan};
pub use faults::{MacFault, MacFaultInjector, MacFaultPlan};
pub use l2::{L2Demotion, L2MetaStore, L2Promotion};
pub use tree::TreeGeometry;
