//! Paper-scale capacity modeling.
//!
//! Workloads execute at a small *functional* scale but model the
//! paper's 32 GiB datasets (see the `iceclave_workloads` crate docs).
//! Whether a staged table or a
//! randomly re-accessed page is DRAM-resident depends on the *modeled*
//! sizes, so the capacity model scales structure sizes up before
//! comparing them with the (real) DRAM capacity — this is what makes
//! Figure 16's 4 GiB→2 GiB sweep behave like the paper's. The host
//! modes read with direct I/O, so only the staged-table residency uses
//! the host's 16 GiB.

use iceclave_types::ByteSize;
use iceclave_workloads::WorkloadConfig;

/// Fraction of DRAM usable for data (the rest holds firmware, buffers,
/// the CMT, TEE metadata).
const USABLE_FRACTION: f64 = 0.75;

/// Residency model for one execution environment.
#[derive(Copy, Clone, Debug)]
pub struct CapacityModel {
    /// The dataset size being modeled (32 GiB in the paper).
    modeled_dataset: ByteSize,
    /// DRAM capacity of the executing side (SSD: 4 or 2 GiB; host:
    /// 16 GiB per §6.1).
    dram: ByteSize,
    /// modeled-bytes / functional-bytes of the running workload.
    scale_factor: f64,
}

impl CapacityModel {
    /// The model of a workload run at `workload`'s scale on a side with
    /// `dram` bytes of DRAM.
    pub fn new(workload: &WorkloadConfig, dram: ByteSize) -> Self {
        CapacityModel {
            modeled_dataset: workload.modeled_bytes,
            dram,
            scale_factor: workload.scale_factor(),
        }
    }

    /// Usable bytes for cached data.
    pub fn usable(&self) -> f64 {
        self.dram.as_bytes() as f64 * USABLE_FRACTION
    }

    /// Probability a random page of the dataset is cache-resident
    /// (applies to transactional random access).
    pub fn page_cache_hit(&self) -> f64 {
        (self.usable() / self.modeled_dataset.as_bytes() as f64).min(1.0)
    }

    /// Probability a lookup into a staged table of (functional) size
    /// `staged` finds it resident.
    pub fn staged_hit(&self, staged: ByteSize) -> f64 {
        if staged.is_zero() {
            return 1.0;
        }
        let modeled = staged.as_bytes() as f64 * self.scale_factor;
        (self.usable() / modeled).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 32 MiB functional modeling 32 GiB: a 1024x scale factor.
    fn model(dram_gib: u64) -> CapacityModel {
        let workload = WorkloadConfig {
            functional_bytes: ByteSize::from_mib(32),
            ..WorkloadConfig::test()
        };
        CapacityModel::new(&workload, ByteSize::from_gib(dram_gib))
    }

    #[test]
    fn smaller_dram_hits_less() {
        assert!(model(2).page_cache_hit() < model(4).page_cache_hit());
        assert!((model(4).page_cache_hit() - 3.0 / 32.0).abs() < 1e-9);
    }

    #[test]
    fn small_staged_tables_are_resident() {
        let m = model(4);
        // 1 KiB functional -> 1 MiB modeled: resident.
        assert_eq!(m.staged_hit(ByteSize::from_kib(1)), 1.0);
        // 32 MiB functional -> 32 GiB modeled: mostly not resident.
        assert!(m.staged_hit(ByteSize::from_mib(32)) < 0.15);
        assert_eq!(m.staged_hit(ByteSize::ZERO), 1.0);
    }

    #[test]
    fn host_has_more_cache_reach_than_ssd() {
        let host = model(16);
        let ssd = model(4);
        assert!(host.page_cache_hit() > ssd.page_cache_hit());
    }
}
