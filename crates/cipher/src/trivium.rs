//! The Trivium stream cipher (De Cannière & Preneel, eSTREAM portfolio).
//!
//! Trivium keeps a 288-bit state in three shift registers A (93 bits),
//! B (84 bits) and C (111 bits). Every step produces one keystream bit;
//! because every feedback tap is at least 66 positions deep, up to 64
//! steps can be computed at once, which is exactly the property the
//! paper's hardware engine exploits to emit 64 keystream bits per cycle
//! (§5). [`Trivium`] is that word-sliced implementation; an
//! independent bit-at-a-time reference in the test-only
//! `iceclave_testkit` cross-validates it.
//!
//! Bit conventions (fixed by this crate and followed by the
//! reference): key bit 1 is the most-significant bit of `key[0]`,
//! IV bit 1 is the most-significant bit of `iv[0]`, and the first
//! generated keystream bit is the most-significant bit of the first
//! keystream byte.

/// Number of warm-up steps before keystream output (4 full state
/// rotations).
const WARMUP_STEPS: usize = 4 * 288;

/// Word-sliced Trivium producing 64 keystream bits per internal step.
///
/// # Examples
///
/// ```
/// use iceclave_cipher::Trivium;
///
/// let mut a = Trivium::new(&[1; 10], &[2; 10]);
/// let mut b = Trivium::new(&[1; 10], &[2; 10]);
/// assert_eq!(a.keystream_bytes(32), b.keystream_bytes(32));
/// ```
#[derive(Clone, Debug)]
pub struct Trivium {
    /// Register A: state bits s1..s93, with s_i at bit position i-1.
    a: u128,
    /// Register B: state bits s94..s177 (local positions 1..84).
    b: u128,
    /// Register C: state bits s178..s288 (local positions 1..111).
    c: u128,
    /// Buffered keystream bytes not yet consumed.
    buffer: [u8; 8],
    /// Number of bytes of `buffer` already consumed.
    consumed: usize,
}

const MASK_A: u128 = (1u128 << 93) - 1;
const MASK_B: u128 = (1u128 << 84) - 1;
const MASK_C: u128 = (1u128 << 111) - 1;

/// Extracts the 64 tap bits for local position `k` over one 64-step
/// batch: step `j` (0-based) reads local position `k - j`, returned with
/// step 0 in bit 63 (so `to_be_bytes` emits the first bit first).
#[inline]
fn tap64(reg: u128, k: u32) -> u64 {
    debug_assert!(k >= 64);
    (reg >> (k - 64)) as u64
}

/// Shifts a register forward by 64 steps, inserting the new word (step 0
/// at bit 63) and keeping `len` bits.
#[inline]
fn shift_in(reg: u128, word: u64, mask: u128) -> u128 {
    ((reg << 64) | u128::from(word)) & mask
}

impl Trivium {
    /// Initializes the cipher from an 80-bit key and 80-bit IV and runs
    /// the 1152 warm-up steps.
    ///
    /// # Panics
    ///
    /// Panics if `key` or `iv` is not exactly 10 bytes.
    pub fn new(key: &[u8], iv: &[u8]) -> Self {
        assert_eq!(key.len(), 10, "Trivium key must be 80 bits");
        assert_eq!(iv.len(), 10, "Trivium IV must be 80 bits");

        // Load key bits K1..K80 into s1..s80, IV bits into s94..s173,
        // and set s286..s288. Bit b of a register is local position b+1.
        let mut a: u128 = 0;
        let mut b: u128 = 0;
        for i in 0..80 {
            let key_bit = (key[i / 8] >> (7 - (i % 8))) & 1;
            a |= u128::from(key_bit) << i;
            let iv_bit = (iv[i / 8] >> (7 - (i % 8))) & 1;
            b |= u128::from(iv_bit) << i;
        }
        let c: u128 = 0b111 << 108; // s286, s287, s288 (local 109..111)

        let mut this = Trivium {
            a,
            b,
            c,
            buffer: [0; 8],
            consumed: 8,
        };
        for _ in 0..WARMUP_STEPS / 64 {
            let _ = this.step64();
        }
        this
    }

    /// Runs one 64-step batch, returning the 64 keystream bits (first
    /// bit in the most-significant position).
    fn step64(&mut self) -> u64 {
        let (a, b, c) = (self.a, self.b, self.c);
        // Global taps mapped to local register positions:
        //   A: s66->66, s91->91, s92->92, s93->93, s69->69
        //   B: s162->69, s171->78, s175->82, s176->83, s177->84
        //   C: s243->66, s264->87, s286->109, s287->110, s288->111
        let t1 = tap64(a, 66) ^ tap64(a, 93);
        let t2 = tap64(b, 69) ^ tap64(b, 84);
        let t3 = tap64(c, 66) ^ tap64(c, 111);
        let z = t1 ^ t2 ^ t3;
        let na = t3 ^ (tap64(c, 109) & tap64(c, 110)) ^ tap64(a, 69);
        let nb = t1 ^ (tap64(a, 91) & tap64(a, 92)) ^ tap64(b, 78);
        let nc = t2 ^ (tap64(b, 82) & tap64(b, 83)) ^ tap64(c, 87);
        self.a = shift_in(a, na, MASK_A);
        self.b = shift_in(b, nb, MASK_B);
        self.c = shift_in(c, nc, MASK_C);
        z
    }

    /// Produces the next keystream byte.
    pub fn next_byte(&mut self) -> u8 {
        if self.consumed == 8 {
            self.buffer = self.step64().to_be_bytes();
            self.consumed = 0;
        }
        let byte = self.buffer[self.consumed];
        self.consumed += 1;
        byte
    }

    /// Produces `n` keystream bytes.
    pub fn keystream_bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_byte()).collect()
    }

    /// XORs the keystream into `data` in place (encryption and
    /// decryption are the same operation).
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        for byte in data {
            *byte ^= self.next_byte();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn different_ivs_give_different_streams() {
        let key = [7u8; 10];
        let a = Trivium::new(&key, &[0u8; 10]).keystream_bytes(64);
        let mut iv = [0u8; 10];
        iv[9] = 1;
        let b = Trivium::new(&key, &iv).keystream_bytes(64);
        assert_ne!(a, b);
    }

    #[test]
    fn different_keys_give_different_streams() {
        let iv = [3u8; 10];
        let a = Trivium::new(&[0u8; 10], &iv).keystream_bytes(64);
        let b = Trivium::new(&[1u8; 10], &iv).keystream_bytes(64);
        assert_ne!(a, b);
    }

    #[test]
    fn keystream_is_not_trivially_biased() {
        // A weak smoke test: the all-zero key/IV stream should have a
        // roughly balanced bit population over 4 KiB.
        let bytes = Trivium::new(&[0u8; 10], &[0u8; 10]).keystream_bytes(4096);
        let ones: u32 = bytes.iter().map(|b| b.count_ones()).sum();
        let total = 4096 * 8;
        let frac = f64::from(ones) / f64::from(total as u32);
        assert!((0.45..0.55).contains(&frac), "bit bias {frac}");
    }

    #[test]
    fn apply_keystream_round_trips() {
        let key = [9u8; 10];
        let iv = [4u8; 10];
        let plain: Vec<u8> = (0..=255).collect();
        let mut data = plain.clone();
        Trivium::new(&key, &iv).apply_keystream(&mut data);
        assert_ne!(data, plain);
        Trivium::new(&key, &iv).apply_keystream(&mut data);
        assert_eq!(data, plain);
    }

    #[test]
    fn byte_and_bulk_interfaces_agree() {
        let mut a = Trivium::new(&[5; 10], &[6; 10]);
        let mut b = Trivium::new(&[5; 10], &[6; 10]);
        let bulk = a.keystream_bytes(100);
        let bytes: Vec<u8> = (0..100).map(|_| b.next_byte()).collect();
        assert_eq!(bulk, bytes);
    }

    #[test]
    #[should_panic(expected = "80 bits")]
    fn short_key_panics() {
        let _ = Trivium::new(&[0u8; 9], &[0u8; 10]);
    }
}
