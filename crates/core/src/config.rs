//! IceClave runtime configuration.

use iceclave_ftl::{SchedPolicy, TicketPolicy};
use iceclave_isc::IscConfig;
use iceclave_mee::MeeConfig;
use iceclave_types::{ByteSize, Hertz, SimDuration};

/// Cross-tenant channel-scheduling configuration (§6.8, Figures
/// 17/18).
///
/// The runtime arbitrates the flash channels across TEEs with weighted
/// fair queueing ([`iceclave_ftl::WfqArbiter`]): per-channel
/// start-time fair queueing over page-sized quanta, preemption points
/// at page boundaries. This struct selects the policy, seeds the
/// per-tenant weights, and optionally caps how many pages one tenant
/// may keep queued per channel.
#[derive(Clone, Debug)]
pub struct FairnessConfig {
    /// The arbitration policy. [`SchedPolicy::Wfq`] (the default)
    /// enforces weighted fairness across tenants;
    /// [`SchedPolicy::Fifo`] reproduces the legacy event-order
    /// scheduling bit for bit (useful as the antagonist baseline in
    /// the fairness benches).
    pub policy: SchedPolicy,
    /// Weight for tenants without an explicit entry in `weights`.
    /// Must be positive.
    pub default_weight: u32,
    /// Per-tenant weights as `(raw TEE id, weight)` pairs, applied at
    /// startup. TEE ids are handed out LIFO from 1, so the first
    /// offloaded program gets id 1, the second id 2, and so on;
    /// [`crate::IceClave::set_tee_weight`] adjusts weights at runtime.
    pub weights: Vec<(u16, u32)>,
    /// Optional cap on the pages one tenant may keep *queued* per
    /// channel. A read submission that would exceed the cap fails with
    /// [`crate::IceClaveError::ChannelBudgetExceeded`] instead of
    /// deepening the queue — admission control that bounds the
    /// head-of-line debt any tenant can build up. `None` (the
    /// default) leaves queue depth unbounded; the WFQ policy alone
    /// already bounds the *service* share.
    pub channel_budget: Option<u32>,
    /// How pages are ordered *inside* one tenant's lane.
    /// [`TicketPolicy::Fifo`] (the default) keeps the legacy flat
    /// order — a tenant's tickets drain in *(ready, ticket, page)*
    /// order, bit-identical to the pre-hierarchical arbiter.
    /// [`TicketPolicy::Wfq`] runs a second SFQ level across the
    /// tenant's tickets, so a deep ticket shares its tenant's channel
    /// slots with a small sibling page by page. The runtime submits
    /// every read ticket at weight 1; per-ticket weights (bounded by
    /// [`iceclave_ftl::MAX_TICKET_WEIGHT`]) enter through
    /// [`iceclave_ftl::WfqArbiter::enqueue_weighted`]. Only meaningful
    /// under [`SchedPolicy::Wfq`].
    pub ticket_policy: TicketPolicy,
    /// Virtual-time cost of one attributed MEE metadata line, in
    /// 64-byte line quanta. When positive, the exec driver feeds each
    /// page's measured fill/seal metadata delta
    /// (`TicketAttribution::cost_lines`) back into the arbiter as a
    /// clock surcharge, so metadata-heavy tickets (and tenants) pay
    /// for the DRAM bandwidth they consume; `1` prices a metadata
    /// line like a line of flash payload. Zero (the default) disables
    /// the surcharge and keeps schedules bit-identical to PR 8.
    pub mee_line_cost: u32,
}

impl Default for FairnessConfig {
    fn default() -> Self {
        FairnessConfig {
            policy: SchedPolicy::Wfq,
            default_weight: 1,
            weights: Vec::new(),
            channel_budget: None,
            ticket_policy: TicketPolicy::Fifo,
            mee_line_cost: 0,
        }
    }
}

/// Everything the IceClave runtime needs to know: platform, security
/// engines, and the measured lifecycle costs of Table 5.
#[derive(Clone, Debug)]
pub struct IceClaveConfig {
    /// The underlying SSD platform (Table 3).
    pub platform: IscConfig,
    /// Memory-encryption engine configuration (§4.4; hybrid counters by
    /// default).
    pub mee: MeeConfig,
    /// Stream-cipher engine clock (shared with the controller, §5).
    pub cipher_clock: Hertz,
    /// Whether flash-to-DRAM transfers run through the stream cipher.
    /// Disabled for the insecure ISC baseline, which shares this
    /// runtime's timing path minus the security machinery.
    pub cipher_enabled: bool,
    /// TEE creation cost (Table 5: 95 us, measured on the Cosmos+
    /// FPGA).
    pub tee_create: SimDuration,
    /// TEE deletion cost (Table 5: 58 us).
    pub tee_delete: SimDuration,
    /// Contiguous memory preallocated per TEE to avoid fragmentation
    /// (§4.5: 16 MiB).
    pub tee_region: ByteSize,
    /// Secure-region carve-out at the bottom of DRAM (FTL code/data +
    /// runtime metadata).
    pub secure_region: ByteSize,
    /// Largest offloaded binary accepted (popular in-storage programs
    /// are 28–528 KiB, §4.5).
    pub max_code_size: ByteSize,
    /// Cross-tenant channel arbitration (weighted fair queueing by
    /// default).
    pub fairness: FairnessConfig,
}

impl IceClaveConfig {
    /// The paper's configuration on the Table 3 platform.
    pub fn table3() -> Self {
        IceClaveConfig {
            platform: IscConfig::table3(),
            mee: MeeConfig::hybrid(),
            cipher_clock: Hertz::from_mhz(800),
            cipher_enabled: true,
            tee_create: SimDuration::from_micros(95),
            tee_delete: SimDuration::from_micros(58),
            tee_region: ByteSize::from_mib(16),
            secure_region: ByteSize::from_mib(64),
            max_code_size: ByteSize::from_mib(1),
            fairness: FairnessConfig::default(),
        }
    }

    /// Miniature configuration for unit tests.
    pub fn tiny() -> Self {
        IceClaveConfig {
            platform: IscConfig::tiny(),
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
            self.secure_region.as_bytes() + self.platform.ftl.cmt_capacity.as_bytes() + l2_reserved;
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

    #[test]
    fn table3_lifecycle_costs() {
        let c = IceClaveConfig::table3();
        assert_eq!(c.tee_create, SimDuration::from_micros(95));
        assert_eq!(c.tee_delete, SimDuration::from_micros(58));
        assert_eq!(c.tee_region, ByteSize::from_mib(16));
    }

    #[test]
    fn region_slots_fit_in_dram() {
        let c = IceClaveConfig::table3();
        // 4 GiB minus 64 MiB secure minus 16 MiB CMT, in 16 MiB slots.
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
