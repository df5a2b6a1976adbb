//! Property-based tests for the cipher crate.

use iceclave_cipher::{CipherEngine, PageIv, Trivium};
use iceclave_types::Hertz;
use proptest::prelude::*;

proptest! {
    /// Engine encrypt/decrypt is the identity for arbitrary pages.
    #[test]
    fn engine_round_trip(key in prop::array::uniform10(0u8..), seed in 1u64.., data in prop::collection::vec(0u8.., 1..2048)) {
        let mut engine = CipherEngine::new(key, Hertz::from_mhz(800), seed);
        let (cipher, iv) = engine.encrypt_page(7, &data);
        prop_assert_eq!(engine.decrypt_page(&iv, &cipher), data);
    }

    /// Two different pages never produce identical keystream prefixes
    /// under the same key (IV spatial uniqueness).
    #[test]
    fn distinct_pages_distinct_streams(key in prop::array::uniform10(0u8..), base in 0u64..(1 << 48), ppa_a in 0u32.., ppa_b in 0u32..) {
        prop_assume!(ppa_a != ppa_b);
        let iv_a = PageIv::compose(base, ppa_a);
        let iv_b = PageIv::compose(base, ppa_b);
        let a = Trivium::new(&key, &iv_a.bytes()).keystream_bytes(32);
        let b = Trivium::new(&key, &iv_b.bytes()).keystream_bytes(32);
        prop_assert_ne!(a, b);
    }

    /// Keystream bytes are stateless with respect to chunking: pulling
    /// n then m bytes equals pulling n+m at once.
    #[test]
    fn keystream_chunking_is_associative(key in prop::array::uniform10(0u8..), iv in prop::array::uniform10(0u8..), n in 0usize..100, m in 0usize..100) {
        let mut one = Trivium::new(&key, &iv);
        let mut chunks = one.keystream_bytes(n);
        chunks.extend(one.keystream_bytes(m));
        let whole = Trivium::new(&key, &iv).keystream_bytes(n + m);
        prop_assert_eq!(chunks, whole);
    }
}
