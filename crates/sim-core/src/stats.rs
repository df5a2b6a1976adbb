//! The latency histogram behind the reports' tail percentiles.

/// A power-of-two bucketed latency histogram.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` (bucket 0 holds `0` and
/// `1`). Intended for nanosecond-scale latencies where orders of magnitude
/// matter more than exact quantiles.
///
/// # Examples
///
/// ```
/// use iceclave_sim::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(100);
/// h.record(100);
/// h.record(100_000);
/// assert_eq!(h.count(), 3);
/// assert!(h.mean() > 30_000.0);
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[bucket.min(63)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of samples, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Maximum sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile (`q` in `[0,1]`) from bucket boundaries:
    /// returns the upper bound of the bucket containing the q-th sample.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                return 1u64 << (i + 1).min(63);
            }
        }
        self.max
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.buckets()[0], 2); // 0 and 1
        assert_eq!(h.buckets()[1], 2); // 2 and 3
        assert_eq!(h.buckets()[10], 1); // 1024
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 1024);
    }

    #[test]
    fn histogram_quantile_monotone() {
        let mut h = Histogram::new();
        for i in 0..1000u64 {
            h.record(i);
        }
        assert!(h.quantile(0.5) <= h.quantile(0.99));
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn histogram_mean() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        assert_eq!(h.mean(), 15.0);
    }
}
