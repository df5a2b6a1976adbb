//! # IceClave: a Trusted Execution Environment for In-Storage Computing
//!
//! This crate is the paper's primary contribution (§4): a lightweight
//! TEE runtime for programs offloaded into a computational SSD. It
//! assembles the substrate crates into the architecture of Figure 3:
//!
//! * **TrustZone worlds and the protected region** (§4.2) — the FTL and
//!   the IceClave runtime execute in the secure world; the cached
//!   address-mapping table lives in a *protected* region the normal
//!   world may read (so address translation costs no world switch) but
//!   not write.
//! * **ID-bit access control** (§4.3) — every mapping entry carries the
//!   owning TEE's 4-bit identifier; a dedicated permission check stops
//!   TEEs probing each other's pages, and identifiers are recycled as
//!   TEEs come and go.
//! * **Protected in-SSD DRAM** (§4.4) — reads and writes of TEE memory
//!   go through the hybrid-counter memory-encryption engine with Bonsai
//!   Merkle Tree integrity verification.
//! * **Protected flash channel** (§5) — pages stream through the
//!   Trivium cipher engine between the flash controllers and DRAM.
//! * **TEE lifecycle** (§4.5, Table 2) — `OffloadCode`/`CreateTEE`,
//!   `SetIDBits`, `ReadMappingEntry`, `GetResult`, `TerminateTEE` and
//!   `ThrowOutTEE`, with the Table 5 costs (95 us create, 58 us delete,
//!   3.8 us world switch).
//!
//! Every mode of the evaluation runs on one [`SsdPlatform`] (Table 3).
//!
//! # Examples
//!
//! ```
//! use iceclave_core::{IceClave, IceClaveConfig};
//! use iceclave_types::{Lpn, SimTime};
//!
//! let mut ice = IceClave::new(IceClaveConfig::tiny());
//! // The host stages a small dataset into the SSD.
//! let t = ice.populate(Lpn::new(0), 8, SimTime::ZERO)?;
//!
//! // Offload a program over pages 0..8 (Table 2: OffloadCode).
//! let lpns: Vec<Lpn> = (0..8).map(Lpn::new).collect();
//! let (tee, t) = ice.offload_code(64 * 1024, &lpns, t)?;
//!
//! // The TEE streams its input through the cipher engine...
//! let ticket = ice.submit_batch_async(tee, &lpns, t)?;
//! let t = ice.wait_batch(ticket)?.finished;
//! // ...computes in protected DRAM...
//! let t = ice.mem_write(tee, 8 * 64, t)?;
//! let t = ice.mem_read(tee, 8 * 64, t)?;
//! // ...and returns its result to the host (GetResult).
//! let t = ice.get_result(tee, 4096, t)?;
//! ice.terminate_tee(tee, t)?;
//! # Ok::<(), iceclave_core::IceClaveError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::unwrap_used)]

pub mod config;
pub mod exec_driver;
pub mod platform;
pub mod runtime;
mod slab;
pub mod trace;

pub use config::{IceClaveConfig, Link};
pub use exec_driver::{Stage, READ_RETRY_LIMIT, READ_RETRY_STEP_US};
pub use iceclave_exec::{PowerLossInjector, PowerLossPlan};
pub use iceclave_ftl::JournalRecord;
pub use iceclave_types::RecoveryStats;
pub use platform::{PlatformConfig, SsdPlatform};
pub use runtime::{AbortReason, IceClave, IceClaveError, RuntimeStats, TeeStatus};

#[cfg(test)]
mod tests {
    use super::*;
    use iceclave_cpu::{OpClass, OpCounts};
    use iceclave_types::{SimDuration, SimTime};

    #[test]
    fn compute_occupies_cores() {
        let mut platform = SsdPlatform::new(PlatformConfig::tiny());
        let mut ops = OpCounts::new();
        ops.add(OpClass::ScanTuple, 1_000_000);
        let done = platform.compute(&ops, SimTime::ZERO);
        assert!(done > SimTime::ZERO);
        assert_eq!(platform.cores.operations(), 1);
    }

    #[test]
    fn pcie_is_slower_than_internal_bandwidth() {
        // Table 3's 8 channels: 4.8 GB/s internal vs 3.2 GB/s PCIe.
        let platform = SsdPlatform::new(PlatformConfig::table3());
        let pcie = platform.pcie_transfer_time(1 << 30);
        let internal = platform.config().flash.internal_bandwidth();
        let internal_time =
            SimDuration::from_secs_f64((1u64 << 30) as f64 / internal.as_bytes() as f64);
        assert!(pcie > internal_time);
    }
}
