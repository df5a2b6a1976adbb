//! TrustZone extension model (§4.2, Figures 4 and 6).
//!
//! IceClave partitions the SSD controller's physical address space into
//! three regions by extending ARM TrustZone's page attributes:
//!
//! * **Secure** — FTL code/data and the IceClave runtime; inaccessible
//!   from the normal world.
//! * **Protected** — a new region (the paper's contribution) holding the
//!   cached FTL mapping table: *read-only* from the normal world so
//!   in-storage programs translate addresses without a world switch,
//!   read/write from the secure world.
//! * **Normal** — TEE heaps and application memory.
//!
//! The encoding follows Figure 6: the `NS` bit marks non-secure pages,
//! the `AP` permission field carries the access rights, and a reserved
//! bit (`ES`) distinguishes the protected region. [`MemoryMap`] plays the role of
//! the TZASC (TrustZone Address Space Controller) with a bounded number
//! of region registers, and [`WorldMonitor`] bills the 3.8 us
//! secure/normal context switch measured on the FPGA prototype
//! (Table 5).
//!
//! # Examples
//!
//! ```
//! use iceclave_trustzone::{AccessType, MemoryMap, Region, World};
//! use iceclave_types::{ByteSize, PhysAddr};
//!
//! let mut map = MemoryMap::new();
//! map.define(PhysAddr::new(0), ByteSize::from_mib(16), Region::Protected)?;
//! // The normal world may read the protected mapping table...
//! assert!(map
//!     .check(World::Normal, PhysAddr::new(64), AccessType::Read)
//!     .is_ok());
//! // ...but writing it faults.
//! assert!(map
//!     .check(World::Normal, PhysAddr::new(64), AccessType::Write)
//!     .is_err());
//! # Ok::<(), iceclave_trustzone::RegionError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attributes;
pub mod map;
pub mod monitor;

pub use attributes::{AccessType, PageAttributes, Region, World};
pub use map::{MemoryMap, ProtectionFault, RegionError};
pub use monitor::{SwitchStats, WorldMonitor};
