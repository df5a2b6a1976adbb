//! Property tests for the generators' arithmetic.

use iceclave_workloads::data::Modulus;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The divisor-free remainder equals `%` for any numerator and any
    /// divisor. Shifting a full-width draw right spreads divisors over
    /// every magnitude, from 1 to `u64::MAX`.
    #[test]
    fn remainder_matches_hardware_division(n in 0u64.., d in 1u64.., shift in 0u32..64) {
        let d = (d >> shift).max(1);
        prop_assert_eq!(n % Modulus::new(d), n % d, "{} % {}", n, d);
    }

    /// Small divisors, like the table cardinalities the workloads
    /// reduce by, against numerators of every magnitude.
    #[test]
    fn remainder_matches_for_small_divisors(n in 0u64.., d in 1u64..=4096, shift in 0u32..64) {
        let n = n >> shift;
        prop_assert_eq!(n % Modulus::new(d), n % d, "{} % {}", n, d);
    }
}
