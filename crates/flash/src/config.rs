//! Flash timing parameters and device configuration.

use iceclave_types::{ByteSize, SimDuration, PAGE_SIZE};

use crate::FlashGeometry;

/// Page program (die register to cell array), `tWR` in Table 3.
pub(crate) const PROGRAM: SimDuration = SimDuration::from_micros(300);
/// Block erase. Not given in Table 3; 3.5 ms is typical for the TLC
/// generation the paper models.
pub(crate) const ERASE: SimDuration = SimDuration::from_micros(3_500);
/// Per-channel bus bandwidth in bytes/second (Table 3: 600 MB/s).
const CHANNEL_BANDWIDTH: u64 = 600_000_000;

/// Time to move `bytes` across one channel bus.
const fn transfer_time(bytes: u64) -> SimDuration {
    let ps = (bytes as u128 * 1_000_000_000_000u128) / CHANNEL_BANDWIDTH as u128;
    SimDuration::from_ps(ps as u64)
}

/// Time for one page to cross a channel bus.
const PAGE_TRANSFER: SimDuration = transfer_time(PAGE_SIZE);

/// The NAND timing a run varies: the page-read latency of Figure 14.
/// Program and erase times and the channel bandwidth are Table 3
/// constants.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct FlashTiming {
    /// Page read (cell array to die register), `tRD` in Table 3 (50 us).
    pub read: SimDuration,
}

impl FlashTiming {
    /// Table 3 timing: 50 us read, 300 us program, 600 MB/s channels.
    pub fn table3() -> Self {
        FlashTiming {
            read: SimDuration::from_micros(50),
        }
    }

    /// Same timing with a different page-read latency (Figure 14 sweeps
    /// 10–110 us).
    pub fn with_read_latency(mut self, read: SimDuration) -> Self {
        self.read = read;
        self
    }
}

/// Complete flash device configuration: geometry plus timing.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct FlashConfig {
    /// Array shape.
    pub geometry: FlashGeometry,
    /// Operation timing.
    pub timing: FlashTiming,
}

impl FlashConfig {
    /// The paper's simulated SSD (Table 3).
    pub fn table3() -> Self {
        FlashConfig {
            geometry: FlashGeometry::table3(),
            timing: FlashTiming::table3(),
        }
    }

    /// Miniature device for unit tests.
    pub fn tiny() -> Self {
        FlashConfig {
            geometry: FlashGeometry::tiny(),
            timing: FlashTiming::table3(),
        }
    }

    /// Aggregate internal read bandwidth: every channel streaming at bus
    /// rate. This is the ceiling in-storage computing can exploit
    /// (Figures 12/13).
    pub fn internal_bandwidth(&self) -> ByteSize {
        ByteSize::from_bytes(u64::from(self.geometry.channels) * CHANNEL_BANDWIDTH)
    }

    /// Time for one page to cross a channel bus.
    pub fn page_transfer_time(&self) -> SimDuration {
        PAGE_TRANSFER
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn table3_values() {
        let c = FlashConfig::table3();
        assert_eq!(c.timing.read, SimDuration::from_micros(50));
        assert_eq!(PROGRAM, SimDuration::from_micros(300));
        assert_eq!(
            ERASE,
            SimDuration::from_millis(3) + SimDuration::from_micros(500)
        );
        assert_eq!(CHANNEL_BANDWIDTH, 600_000_000);
        assert_eq!(c.internal_bandwidth().as_bytes(), 4_800_000_000);
    }

    #[test]
    fn page_transfer_time_at_600mbps() {
        let c = FlashConfig::table3();
        // 4096 B / 600 MB/s = 6.826.. us
        let t = c.page_transfer_time().as_micros_f64();
        assert!((t - 6.827).abs() < 0.01, "got {t}");
        assert_eq!(c.page_transfer_time(), transfer_time(PAGE_SIZE));
    }

    #[test]
    fn transfer_scales_linearly() {
        assert_eq!(transfer_time(1200).as_ps() * 2, transfer_time(2400).as_ps());
        assert_eq!(transfer_time(0), SimDuration::ZERO);
    }

    #[test]
    fn read_latency_override() {
        let t = FlashTiming::table3().with_read_latency(SimDuration::from_micros(10));
        assert_eq!(t.read, SimDuration::from_micros(10));
    }
}
