//! IceClave runtime configuration.

use iceclave_mee::MeeConfig;
use iceclave_types::ByteSize;

use crate::platform::PlatformConfig;

/// Secure-region carve-out at the bottom of DRAM (FTL code/data +
/// runtime metadata).
pub(crate) const SECURE_REGION: ByteSize = ByteSize::from_mib(64);

/// What carries a page between a flash channel and DRAM: the lane
/// every read crosses after the channel bus, and every write before
/// its program.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Link {
    /// One Trivium stream-cipher engine per channel (§5): pages cross
    /// the flash boundary as ciphertext. IceClave's link.
    Cipher,
    /// A plaintext internal bus with no engine on it: the insecure ISC
    /// baseline.
    Plain,
    /// One PCIe link that every channel shares, at the host's
    /// effective 1.6 GB/s ([`crate::SsdPlatform::pcie_transfer_time`]):
    /// the host baselines, whose "DRAM" is host memory.
    Pcie,
}

/// What an IceClave run varies: the platform, the memory-encryption
/// engine, the link and the TEE region size. The lifecycle costs
/// Table 5 measures, the cipher clock, the secure region and the code
/// size limit are constants.
#[derive(Clone, Debug)]
pub struct IceClaveConfig {
    /// The underlying SSD platform (Table 3).
    pub platform: PlatformConfig,
    /// Memory-encryption engine configuration (§4.4; hybrid counters by
    /// default).
    pub mee: MeeConfig,
    /// The lane between the flash channels and DRAM. Only
    /// [`Link::Cipher`] encrypts page content.
    pub link: Link,
    /// Contiguous memory preallocated per TEE to avoid fragmentation
    /// (§4.5: 16 MiB).
    pub tee_region: ByteSize,
}

impl IceClaveConfig {
    /// The paper's configuration on the Table 3 platform.
    pub fn table3() -> Self {
        IceClaveConfig {
            platform: PlatformConfig::table3(),
            mee: MeeConfig::hybrid(),
            link: Link::Cipher,
            tee_region: ByteSize::from_mib(16),
        }
    }

    /// Miniature configuration for unit tests.
    pub fn tiny() -> Self {
        IceClaveConfig {
            platform: PlatformConfig::tiny(),
            ..IceClaveConfig::table3()
        }
    }

    /// Number of TEE region slots available in the normal region.
    ///
    /// The carve-outs: the secure region at the bottom of DRAM, the
    /// cached-mapping-table arena, and — when the MEE's second-level
    /// counter store is enabled — its reserved region at the **top** of
    /// the protected address space (`mee.l2_capacity`; see
    /// [`iceclave_mee::L2MetaStore`]). Subtracting it here keeps TEE
    /// slots from ever overlapping the sealed metadata slots. An
    /// unprotected engine never instantiates the store, so nothing is
    /// reserved for it.
    pub fn region_slots(&self) -> u64 {
        let l2_reserved = if self.mee.mode == iceclave_mee::CounterMode::Unprotected {
            0
        } else {
            self.mee.l2_capacity.as_bytes()
        };
        let reserved =
            SECURE_REGION.as_bytes() + self.platform.ftl.cmt_capacity.as_bytes() + l2_reserved;
        let normal = self
            .platform
            .dram
            .capacity
            .as_bytes()
            .saturating_sub(reserved);
        normal / self.tee_region.as_bytes()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::runtime::{TEE_CREATE, TEE_DELETE};
    use iceclave_types::SimDuration;

    #[test]
    fn table3_lifecycle_costs() {
        let c = IceClaveConfig::table3();
        assert_eq!(TEE_CREATE, SimDuration::from_micros(95));
        assert_eq!(TEE_DELETE, SimDuration::from_micros(58));
        assert_eq!(c.tee_region, ByteSize::from_mib(16));
    }

    #[test]
    fn region_slots_fit_in_dram() {
        let c = IceClaveConfig::table3();
        // 4 GiB minus 64 MiB secure minus 16 MiB CMT, in 16 MiB slots.
        assert_eq!(SECURE_REGION, ByteSize::from_mib(64));
        assert_eq!(c.region_slots(), (4096 - 64 - 16) / 16);
    }

    #[test]
    fn l2_reserved_region_shrinks_the_normal_region() {
        let mut c = IceClaveConfig::table3();
        c.mee = c.mee.with_l2(ByteSize::from_mib(32));
        // The 32 MiB sealed-metadata carve-out costs two 16 MiB slots.
        assert_eq!(c.region_slots(), (4096 - 64 - 16 - 32) / 16);
        // An unprotected engine never creates the store: no carve-out.
        c.mee = iceclave_mee::MeeConfig::unprotected().with_l2(ByteSize::from_mib(32));
        assert_eq!(c.region_slots(), (4096 - 64 - 16) / 16);
    }
}
