//! AES-128 block encryption (FIPS-197).
//!
//! The memory-encryption engine of §4.4 generates its one-time pads by
//! encrypting counters with a block cipher "such as AES"; Table 3 models
//! the hardware unit with a 60 ns latency. This module provides the
//! functional cipher of [`crate::SecureMemory`]. The S-box is computed
//! from its definition (the multiplicative inverse in GF(2⁸) followed
//! by the affine transform) rather than pasted as a table, and the
//! implementation is validated against the FIPS-197 Appendix C.1
//! known-answer vector.

/// AES-128: 10 rounds, 16-byte blocks, 16-byte keys.
///
/// Only encryption is implemented — counter-mode and MAC construction
/// never need the inverse cipher.
///
/// # Examples
///
/// ```
/// use iceclave_testkit::Aes128;
///
/// // FIPS-197 Appendix C.1 known-answer test.
/// let key = [
///     0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
///     0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f,
/// ];
/// let plain = [
///     0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
///     0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff,
/// ];
/// let cipher = Aes128::new(&key);
/// let out = cipher.encrypt_block(&plain);
/// assert_eq!(out[..4], [0x69, 0xc4, 0xe0, 0xd8]);
/// ```
#[derive(Clone, Debug)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
    sbox: [u8; 256],
}

/// Multiplication in GF(2⁸) with the AES reduction polynomial x⁸ + x⁴ +
/// x³ + x + 1 (0x11b).
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// Builds the AES S-box from first principles: S(x) = affine(inv(x)),
/// with inv(0) = 0. The inverse is found by exponentiation
/// (x^254 = x⁻¹ in GF(2⁸)*).
fn build_sbox() -> [u8; 256] {
    let mut sbox = [0u8; 256];
    for x in 0..=255u8 {
        let inv = if x == 0 {
            0
        } else {
            // x^254 via square-and-multiply.
            let mut result = 1u8;
            let mut base = x;
            let mut exp = 254u8;
            while exp > 0 {
                if exp & 1 != 0 {
                    result = gf_mul(result, base);
                }
                base = gf_mul(base, base);
                exp >>= 1;
            }
            result
        };
        let b = inv;
        sbox[x as usize] =
            b ^ b.rotate_left(1) ^ b.rotate_left(2) ^ b.rotate_left(3) ^ b.rotate_left(4) ^ 0x63;
    }
    sbox
}

impl Aes128 {
    /// Expands `key` into the 11 round keys.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not exactly 16 bytes.
    pub fn new(key: &[u8]) -> Self {
        assert_eq!(key.len(), 16, "AES-128 key must be 128 bits");
        let sbox = build_sbox();
        let mut w = [[0u8; 4]; 44];
        for (i, chunk) in key.chunks(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        let mut rcon = 1u8;
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = sbox[*b as usize];
                }
                temp[0] ^= rcon;
                rcon = gf_mul(rcon, 2);
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        Aes128 { round_keys, sbox }
    }

    /// Encrypts one 16-byte block.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not exactly 16 bytes.
    pub fn encrypt_block(&self, block: &[u8]) -> [u8; 16] {
        assert_eq!(block.len(), 16, "AES block must be 128 bits");
        let mut state = [0u8; 16];
        state.copy_from_slice(block);
        self.add_round_key(&mut state, 0);
        for round in 1..10 {
            self.sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            self.add_round_key(&mut state, round);
        }
        self.sub_bytes(&mut state);
        shift_rows(&mut state);
        self.add_round_key(&mut state, 10);
        state
    }

    /// Encrypts a 128-bit counter value (big-endian), the core of the
    /// MEE's counter-mode pad generation.
    pub fn encrypt_counter(&self, counter: u128) -> [u8; 16] {
        self.encrypt_block(&counter.to_be_bytes())
    }

    fn sub_bytes(&self, state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = self.sbox[*b as usize];
        }
    }

    fn add_round_key(&self, state: &mut [u8; 16], round: usize) {
        for (b, k) in state.iter_mut().zip(self.round_keys[round].iter()) {
            *b ^= k;
        }
    }
}

/// The state is stored column-major (byte `i` is row `i % 4`, column
/// `i / 4`), matching FIPS-197's input ordering.
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for row in 1..4 {
        for col in 0..4 {
            state[col * 4 + row] = s[((col + row) % 4) * 4 + row];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for col in 0..4 {
        let a = [
            state[col * 4],
            state[col * 4 + 1],
            state[col * 4 + 2],
            state[col * 4 + 3],
        ];
        state[col * 4] = gf_mul(a[0], 2) ^ gf_mul(a[1], 3) ^ a[2] ^ a[3];
        state[col * 4 + 1] = a[0] ^ gf_mul(a[1], 2) ^ gf_mul(a[2], 3) ^ a[3];
        state[col * 4 + 2] = a[0] ^ a[1] ^ gf_mul(a[2], 2) ^ gf_mul(a[3], 3);
        state[col * 4 + 3] = gf_mul(a[0], 3) ^ a[1] ^ a[2] ^ gf_mul(a[3], 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbox_known_entries() {
        let sbox = build_sbox();
        // Canonical spot checks from FIPS-197 Figure 7.
        assert_eq!(sbox[0x00], 0x63);
        assert_eq!(sbox[0x01], 0x7c);
        assert_eq!(sbox[0x53], 0xed);
        assert_eq!(sbox[0xff], 0x16);
    }

    #[test]
    fn fips197_appendix_c1() {
        let key: Vec<u8> = (0x00..=0x0f).collect();
        let plain: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        assert_eq!(Aes128::new(&key).encrypt_block(&plain), expected);
    }

    #[test]
    fn sp800_38a_ecb_vector() {
        // NIST SP 800-38A, F.1.1 ECB-AES128.Encrypt, block #1.
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let plain = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let expected = [
            0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
            0xef, 0x97,
        ];
        assert_eq!(Aes128::new(&key).encrypt_block(&plain), expected);
    }

    #[test]
    fn counter_encryption_is_deterministic_and_distinct() {
        let aes = Aes128::new(&[0u8; 16]);
        let a = aes.encrypt_counter(1);
        let b = aes.encrypt_counter(2);
        assert_eq!(a, aes.encrypt_counter(1));
        assert_ne!(a, b);
    }

    #[test]
    fn gf_mul_basics() {
        assert_eq!(gf_mul(0x57, 0x83), 0xc1); // FIPS-197 §4.2 example
        assert_eq!(gf_mul(0x57, 0x13), 0xfe); // FIPS-197 §4.2.1 example
        assert_eq!(gf_mul(1, 0xab), 0xab);
        assert_eq!(gf_mul(0, 0xff), 0);
    }

    #[test]
    #[should_panic(expected = "128 bits")]
    fn wrong_key_size_panics() {
        let _ = Aes128::new(&[0u8; 15]);
    }
}
