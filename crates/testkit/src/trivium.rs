//! A bit-at-a-time Trivium with the bit conventions of
//! `iceclave_cipher::trivium`, the reference for its word-sliced
//! implementation.

/// Number of warm-up steps before keystream output (4 full state
/// rotations).
const WARMUP_STEPS: usize = 4 * 288;

/// Bit-at-a-time reference implementation of Trivium, kept deliberately
/// naive and independent of [`iceclave_cipher::Trivium`] so the two can
/// cross-validate each other.
#[derive(Clone, Debug)]
pub struct TriviumRef {
    /// `s[0]` is spec bit s1.
    s: [u8; 288],
}

impl TriviumRef {
    /// Initializes and warms up the reference cipher.
    ///
    /// # Panics
    ///
    /// Panics if `key` or `iv` is not exactly 10 bytes.
    pub fn new(key: &[u8], iv: &[u8]) -> Self {
        assert_eq!(key.len(), 10);
        assert_eq!(iv.len(), 10);
        let mut s = [0u8; 288];
        for i in 0..80 {
            s[i] = (key[i / 8] >> (7 - (i % 8))) & 1;
            s[93 + i] = (iv[i / 8] >> (7 - (i % 8))) & 1;
        }
        s[285] = 1;
        s[286] = 1;
        s[287] = 1;
        let mut this = TriviumRef { s };
        for _ in 0..WARMUP_STEPS {
            let _ = this.step();
        }
        this
    }

    /// One step of the spec's pseudo-code; returns the keystream bit.
    fn step(&mut self) -> u8 {
        let s = &self.s;
        let t1 = s[65] ^ s[92];
        let t2 = s[161] ^ s[176];
        let t3 = s[242] ^ s[287];
        let z = t1 ^ t2 ^ t3;
        let t1n = t1 ^ (s[90] & s[91]) ^ s[170];
        let t2n = t2 ^ (s[174] & s[175]) ^ s[263];
        let t3n = t3 ^ (s[285] & s[286]) ^ s[68];
        // Shift each register by one (s_i -> s_{i+1}).
        self.s.copy_within(0..92, 1);
        self.s.copy_within(93..176, 94);
        self.s.copy_within(177..287, 178);
        self.s[0] = t3n;
        self.s[93] = t1n;
        self.s[177] = t2n;
        z
    }

    /// Produces `n` keystream bytes (first bit = MSB of first byte).
    pub fn keystream_bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n)
            .map(|_| {
                let mut byte = 0u8;
                for _ in 0..8 {
                    byte = (byte << 1) | self.step();
                }
                byte
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iceclave_cipher::Trivium;

    #[test]
    fn word_sliced_matches_reference() {
        let cases = [
            ([0u8; 10], [0u8; 10]),
            ([0xFF; 10], [0xFF; 10]),
            (
                [0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF, 0x12, 0x34],
                [0xFE, 0xDC, 0xBA, 0x98, 0x76, 0x54, 0x32, 0x10, 0xAA, 0x55],
            ),
        ];
        for (key, iv) in cases {
            let fast = Trivium::new(&key, &iv).keystream_bytes(256);
            let slow = TriviumRef::new(&key, &iv).keystream_bytes(256);
            assert_eq!(fast, slow, "key={key:02x?}");
        }
    }
}
