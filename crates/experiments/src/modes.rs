//! Execution modes (§6.1) and parameter-sweep overrides.

use std::fmt;

use iceclave_core::{IceClaveConfig, Link};
use iceclave_cpu::CoreModel;
use iceclave_dram::DramConfig;
use iceclave_ftl::FtlConfig;
use iceclave_mee::MeeConfig;
use iceclave_types::{ByteSize, SimDuration};

/// Host DRAM of the evaluation server (16 GB DDR4 in §6.1).
pub const HOST_DRAM: ByteSize = ByteSize::from_gib(16);

/// The execution modes compared in the evaluation.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum Mode {
    /// Load data to the host over PCIe, compute on the host CPU.
    Host,
    /// Host computation inside an SGX-style enclave.
    HostSgx,
    /// In-storage computing without a TEE (insecure baseline).
    Isc,
    /// The full IceClave system.
    IceClave,
    /// Figure 5 ablation: FTL mapping table kept in the secure world
    /// (every translation pays a world switch).
    IceClaveMapSecure,
    /// Figure 8 ablation: split counters for every page (SC-64).
    IceClaveSc64,
}

impl Mode {
    /// The four headline modes of Figure 11, in its bar order.
    pub const FIGURE11: [Mode; 4] = [Mode::Host, Mode::HostSgx, Mode::Isc, Mode::IceClave];

    /// Display label matching the paper.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Host => "Host",
            Mode::HostSgx => "Host+SGX",
            Mode::Isc => "ISC",
            Mode::IceClave => "IceClave",
            Mode::IceClaveMapSecure => "IceClave (map in secure world)",
            Mode::IceClaveSc64 => "IceClave (SC-64)",
        }
    }

    /// True for the host-side modes.
    pub fn is_host(&self) -> bool {
        matches!(self, Mode::Host | Mode::HostSgx)
    }

    /// The runtime configuration of the mode.
    ///
    /// The host modes are the same device pipeline configured as the
    /// §6.1 host: its flash pages cross one PCIe link that every
    /// channel shares ([`Link::Pcie`]) into 16 GiB of dual-channel host
    /// DRAM, and one i7-7700K core computes. Host+SGX adds the split-
    /// counter MEE on every host DRAM access and runs the core at
    /// `ipc / 2.03`, the 103% extra enclave compute time §6.2 measures.
    /// Only the device-side overrides (`channels`,
    /// `flash_read_latency`) apply to them.
    pub fn ssd_config(&self, overrides: &Overrides) -> IceClaveConfig {
        let mut config = IceClaveConfig::table3();
        // Experiments give each TEE a larger dynamic allocation (§4.5
        // allows growth beyond the 16 MiB preallocation) so the input
        // stream sweeps more DRAM than the counter cache covers in
        // either mode: the 128 KiB cache reaches 8 MiB of data with
        // split counters and 64 MiB with major-only counters, so a
        // 128 MiB input ring (half of 256 MiB) exercises the miss
        // behaviour Figure 8 measures for both schemes.
        config.tee_region = ByteSize::from_mib(256);
        match self {
            Mode::Host | Mode::HostSgx => {
                config.link = Link::Pcie;
                // The same DDR3-1600 timing at twice the channels,
                // standing in for the server's dual-channel DDR4.
                config.platform.dram = DramConfig {
                    channels: 2,
                    capacity: HOST_DRAM,
                    ..DramConfig::table3()
                };
                let core = CoreModel::i7_7700k();
                config.platform.cores = 1;
                if *self == Mode::HostSgx {
                    config.platform.core_model =
                        CoreModel::new(core.name(), core.freq(), core.kind(), core.ipc() / 2.03);
                    config.mee = MeeConfig::split_only();
                } else {
                    config.platform.core_model = core;
                    config.mee = MeeConfig::unprotected();
                }
                // Half of it is the input ring: 256 MiB of host memory.
                config.tee_region = ByteSize::from_mib(512);
            }
            Mode::Isc => {
                config.mee = MeeConfig::unprotected();
                config.link = Link::Plain;
            }
            Mode::IceClave => {}
            Mode::IceClaveMapSecure => {
                config.platform.ftl = FtlConfig {
                    mapping_in_secure_world: true,
                    ..config.platform.ftl
                };
            }
            Mode::IceClaveSc64 => config.mee = MeeConfig::split_only(),
        }
        overrides.apply(&mut config, self.is_host());
        config
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Parameter overrides for the sensitivity sweeps (Figures 12–16).
#[derive(Clone, Debug, Default)]
pub struct Overrides {
    /// Flash channel count (Figures 12/13 sweep 4..32).
    pub channels: Option<u32>,
    /// Flash page-read latency (Figure 14 sweeps 10..110 us).
    pub flash_read_latency: Option<SimDuration>,
    /// SSD core model (Figure 15; not applied to the host modes).
    pub core: Option<CoreModel>,
    /// SSD DRAM capacity (Figure 16 sweeps 4 vs 2 GiB; not applied to
    /// the host modes).
    pub dram_capacity: Option<ByteSize>,
}

impl Overrides {
    /// No overrides: the Table 3 defaults.
    pub fn none() -> Self {
        Overrides::default()
    }

    /// Applies the overrides; a host keeps its own core and DRAM.
    fn apply(&self, config: &mut IceClaveConfig, host: bool) {
        if let Some(channels) = self.channels {
            config.platform.flash.geometry = config.platform.flash.geometry.with_channels(channels);
        }
        if let Some(latency) = self.flash_read_latency {
            config.platform.flash.timing = config.platform.flash.timing.with_read_latency(latency);
        }
        if host {
            return;
        }
        if let Some(core) = &self.core {
            config.platform.core_model = core.clone();
        }
        if let Some(capacity) = self.dram_capacity {
            config.platform.dram = config.platform.dram.with_capacity(capacity);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iceclave_mee::CounterMode;

    #[test]
    fn isc_mode_disables_security() {
        let c = Mode::Isc.ssd_config(&Overrides::none());
        assert_eq!(c.mee.mode, CounterMode::Unprotected);
        assert_eq!(c.link, Link::Plain);
    }

    #[test]
    fn iceclave_mode_is_fully_armed() {
        let c = Mode::IceClave.ssd_config(&Overrides::none());
        assert_eq!(c.mee.mode, CounterMode::Hybrid);
        assert_eq!(c.link, Link::Cipher);
        assert!(!c.platform.ftl.mapping_in_secure_world);
    }

    #[test]
    fn ablation_modes_differ_in_one_knob() {
        let map = Mode::IceClaveMapSecure.ssd_config(&Overrides::none());
        assert!(map.platform.ftl.mapping_in_secure_world);
        let sc = Mode::IceClaveSc64.ssd_config(&Overrides::none());
        assert_eq!(sc.mee.mode, CounterMode::SplitOnly);
    }

    #[test]
    fn overrides_apply() {
        let o = Overrides {
            channels: Some(16),
            flash_read_latency: Some(SimDuration::from_micros(10)),
            core: Some(CoreModel::a53_1_6ghz()),
            dram_capacity: Some(ByteSize::from_gib(2)),
        };
        let c = Mode::IceClave.ssd_config(&o);
        assert_eq!(c.platform.flash.geometry.channels, 16);
        assert_eq!(c.platform.flash.timing.read, SimDuration::from_micros(10));
        assert_eq!(c.platform.core_model.name(), "A53 @1.6GHz");
        assert_eq!(c.platform.dram.capacity, ByteSize::from_gib(2));
    }

    #[test]
    fn host_modes_run_on_the_host() {
        let o = Overrides {
            channels: Some(16),
            flash_read_latency: None,
            core: Some(CoreModel::a53_1_6ghz()),
            dram_capacity: Some(ByteSize::from_gib(2)),
        };
        let i7 = CoreModel::i7_7700k();
        for (mode, mee, ipc) in [
            (Mode::Host, CounterMode::Unprotected, i7.ipc()),
            (Mode::HostSgx, CounterMode::SplitOnly, i7.ipc() / 2.03),
        ] {
            let c = mode.ssd_config(&o);
            assert_eq!(c.link, Link::Pcie, "{mode}");
            assert_eq!(c.platform.dram.channels, 2, "{mode}");
            assert_eq!(c.platform.dram.capacity, HOST_DRAM, "{mode}");
            assert_eq!(c.platform.cores, 1, "{mode}");
            assert_eq!(c.platform.core_model.name(), i7.name(), "{mode}");
            assert_eq!(c.platform.core_model.ipc(), ipc, "{mode}");
            assert_eq!(c.mee.mode, mee, "{mode}");
            // The device side follows the sweep; the host's own core
            // and DRAM do not.
            assert_eq!(c.platform.flash.geometry.channels, 16, "{mode}");
        }
    }
}
