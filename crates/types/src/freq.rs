//! Clock frequencies and cycle/time conversion.

use std::fmt;

use crate::SimDuration;

/// A clock frequency in hertz.
///
/// # Examples
///
/// ```
/// use iceclave_types::Hertz;
///
/// let clk = Hertz::from_mhz(1600);
/// assert_eq!(clk.as_ghz_f64(), 1.6);
/// // One DDR3-1600 data-bus cycle is 0.625 ns; the command clock at
/// // 800 MHz is 1.25 ns.
/// assert_eq!(Hertz::from_mhz(800).cycle_time().as_ps(), 1250);
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug, Default)]
pub struct Hertz(u64);

impl Hertz {
    /// Creates a frequency of `hz` hertz.
    #[inline]
    pub const fn from_hz(hz: u64) -> Self {
        Hertz(hz)
    }

    /// Creates a frequency of `mhz` megahertz.
    #[inline]
    pub const fn from_mhz(mhz: u64) -> Self {
        Hertz(mhz * 1_000_000)
    }

    /// Creates a frequency from fractional gigahertz.
    #[inline]
    pub fn from_ghz_f64(ghz: f64) -> Self {
        Hertz((ghz * 1e9).round() as u64)
    }

    /// Raw hertz value.
    #[inline]
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// Frequency in fractional gigahertz.
    #[inline]
    pub fn as_ghz_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration of a single clock cycle, rounded to the nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero.
    #[inline]
    pub fn cycle_time(self) -> SimDuration {
        assert!(self.0 > 0, "cycle_time of zero frequency");
        SimDuration::from_ps(1_000_000_000_000u64.div_ceil(self.0))
    }

    /// Time taken by `cycles` clock cycles at this frequency (exact to the
    /// picosecond for sub-THz clocks).
    #[inline]
    pub fn cycles(self, cycles: u64) -> SimDuration {
        debug_assert!(self.0 > 0, "cycles of zero frequency");
        // Scale via u128 to avoid overflow for large cycle counts.
        let ps = (cycles as u128 * 1_000_000_000_000u128) / self.0 as u128;
        SimDuration::from_ps(ps as u64)
    }
}

impl fmt::Display for Hertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}GHz", self.as_ghz_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.0}MHz", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}Hz", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_time_of_common_clocks() {
        assert_eq!(Hertz::from_mhz(1000).cycle_time().as_ps(), 1000);
        assert_eq!(Hertz::from_mhz(800).cycle_time().as_ps(), 1250);
        assert_eq!(Hertz::from_ghz_f64(4.2).as_hz(), 4_200_000_000);
    }

    #[test]
    fn cycles_round_trip() {
        let clk = Hertz::from_mhz(1600);
        let d = clk.cycles(1_600_000); // 1 ms worth of cycles
        assert_eq!(d.as_millis_f64(), 1.0);
    }

    #[test]
    fn large_cycle_counts_do_not_overflow() {
        let clk = Hertz::from_ghz_f64(2.8);
        let d = clk.cycles(u64::from(u32::MAX) * 16);
        assert!(d.as_secs_f64() > 20.0);
    }

    #[test]
    #[should_panic(expected = "zero frequency")]
    fn zero_frequency_panics() {
        let _ = Hertz::from_hz(0).cycle_time();
    }

    #[test]
    fn display() {
        assert_eq!(Hertz::from_mhz(1600).to_string(), "1.60GHz");
        assert_eq!(Hertz::from_mhz(800).to_string(), "800MHz");
        assert_eq!(Hertz::from_hz(50).to_string(), "50Hz");
    }
}
