//! The computational SSD every configuration runs on (Table 3).

use iceclave_cpu::{CoreModel, OpCounts};
use iceclave_dram::{Dram, DramConfig};
use iceclave_flash::FlashConfig;
use iceclave_ftl::{Ftl, FtlConfig, FtlError, Requestor};
use iceclave_sim::ResourcePool;
use iceclave_trustzone::WorldMonitor;
use iceclave_types::{Lpn, SimDuration, SimTime, WriteBatchRequest};

/// Effective host ingest bandwidth in bytes/second: the PCIe 3.0 x4
/// link's 3.2 GB/s reduced by the host I/O stack (filesystem, block
/// layer, page-cache copies, DMA setup) to ~1.6 GB/s — the external
/// bottleneck of §2.2.
const PCIE_BANDWIDTH: u64 = 1_600_000_000;

/// Configuration of the computational SSD platform (Table 3). The
/// host link's effective bandwidth is a constant of this module.
#[derive(Clone, Debug)]
pub struct PlatformConfig {
    /// Flash geometry and timing.
    pub flash: FlashConfig,
    /// FTL knobs.
    pub ftl: FtlConfig,
    /// Internal DRAM.
    pub dram: DramConfig,
    /// Number of embedded cores available to in-storage programs.
    pub cores: usize,
    /// The embedded core model.
    pub core_model: CoreModel,
}

impl PlatformConfig {
    /// The paper's simulated SSD (Table 3) with four A72 cores.
    pub fn table3() -> Self {
        PlatformConfig {
            flash: FlashConfig::table3(),
            ftl: FtlConfig::default(),
            dram: DramConfig::table3(),
            cores: 4,
            core_model: CoreModel::a72_1_6ghz(),
        }
    }

    /// Miniature platform for unit tests.
    pub fn tiny() -> Self {
        PlatformConfig {
            flash: FlashConfig::tiny(),
            ..PlatformConfig::table3()
        }
    }
}

/// The assembled SSD hardware: FTL+flash, DRAM, cores, and the
/// TrustZone monitor.
#[derive(Debug)]
pub struct SsdPlatform {
    /// Flash translation layer (owns the flash array).
    pub ftl: Ftl,
    /// Internal DRAM timing model.
    pub dram: Dram,
    /// Embedded processor pool.
    pub cores: ResourcePool,
    /// World monitor (tracks secure/normal switches).
    pub monitor: WorldMonitor,
    config: PlatformConfig,
}

impl SsdPlatform {
    /// Assembles a fresh platform.
    pub fn new(config: PlatformConfig) -> Self {
        SsdPlatform {
            ftl: Ftl::new(config.flash, config.ftl),
            dram: Dram::new(config.dram),
            cores: ResourcePool::new("ssd-core", config.cores),
            monitor: WorldMonitor::with_table5_cost(),
            config: config.clone(),
        }
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Host-populates `pages` logical pages starting at `base`
    /// (sequential dataset load). The load goes through the batched,
    /// channel-parallel program path in chunks, so dataset staging
    /// overlaps every channel bus instead of serializing per page.
    /// Returns when the last program completes.
    ///
    /// # Errors
    ///
    /// Propagates FTL allocation failures.
    pub fn populate(&mut self, base: Lpn, pages: u64, now: SimTime) -> Result<SimTime, FtlError> {
        /// Pages per program batch (one host I/O request granule).
        const CHUNK: u64 = 64;
        let mut t = now;
        let mut offset = 0;
        while offset < pages {
            let n = CHUNK.min(pages - offset);
            let lpns: Vec<Lpn> = (0..n).map(|i| base.offset(offset + i)).collect();
            let out = self.ftl.write_batch(
                Requestor::Host,
                &WriteBatchRequest::from_lpns(&lpns),
                &mut self.monitor,
                t,
            )?;
            t = out.finished;
            offset += n;
        }
        Ok(t)
    }

    /// Time to move `bytes` across the host link (the external
    /// bottleneck for host-based computing).
    pub fn pcie_transfer_time(&self, bytes: u64) -> SimDuration {
        let ps = (bytes as u128 * 1_000_000_000_000u128) / u128::from(PCIE_BANDWIDTH);
        SimDuration::from_ps(ps as u64)
    }

    /// Runs a compute demand on the embedded core pool, returning the
    /// completion time.
    pub fn compute(&mut self, ops: &OpCounts, now: SimTime) -> SimTime {
        let service = self.config.core_model.time_for(ops);
        self.cores.acquire(now, service).end
    }
}
