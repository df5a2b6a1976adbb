//! Encryption-counter blocks (Figure 7).
//!
//! Counter-mode memory encryption derives each cache line's one-time pad
//! from a per-line counter that must be unique per write. The
//! split-counter layout packs a 64-bit *major* counter and 64 six-bit
//! *minor* counters (one per line of the page) into a single 64 B
//! metadata line; a minor overflow bumps the major and forces the whole
//! page to be re-encrypted. Read-only pages never increment, so IceClave
//! stores only major counters for them — eight pages per metadata line.
//! The timing engine models that layout through its metadata block ids
//! (one major-only block per eight pages) and keeps each page's major
//! value in its [`SplitCounterBlock`] ([`SplitCounterBlock::with_major`]).

/// Exclusive upper bound of a 6-bit minor counter.
pub const MINOR_LIMIT: u8 = 64;

/// Read/write classification of a DRAM page, which selects its counter
/// layout under the hybrid scheme.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum PageClass {
    /// Input pages: encrypted once when filled, never re-encrypted.
    ReadOnly,
    /// Intermediate/result pages: counters move on every write-back.
    Writable,
}

/// Split-counter block covering one 4 KiB page (Figure 7b).
///
/// # Examples
///
/// ```
/// use iceclave_mee::SplitCounterBlock;
///
/// let mut block = SplitCounterBlock::new();
/// let before = block.line_counter(5);
/// assert!(!block.increment(5)); // no overflow on the first write
/// assert!(block.line_counter(5) > before);
/// ```
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct SplitCounterBlock {
    major: u64,
    minors: [u8; 64],
}

impl SplitCounterBlock {
    /// A fresh block with all counters at zero.
    pub fn new() -> Self {
        SplitCounterBlock {
            major: 0,
            minors: [0; 64],
        }
    }

    /// A block starting from a given major counter (used when a page
    /// migrates from the read-only tree).
    pub fn with_major(major: u64) -> Self {
        SplitCounterBlock {
            major,
            minors: [0; 64],
        }
    }

    /// The combined (major ‖ minor) counter for `line` (0..64), used as
    /// the CTR-mode nonce component.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn line_counter(&self, line: usize) -> u128 {
        (u128::from(self.major) << 6) | u128::from(self.minors[line])
    }

    /// Increments the minor counter of `line` for a write-back. Returns
    /// `true` if the minor overflowed: the caller must re-encrypt the
    /// whole page under the incremented major (the paper's overflow
    /// path).
    pub fn increment(&mut self, line: usize) -> bool {
        self.minors[line] += 1;
        if self.minors[line] >= MINOR_LIMIT {
            self.major += 1;
            self.minors = [0; 64];
            true
        } else {
            false
        }
    }

    /// Current major counter.
    pub fn major(&self) -> u64 {
        self.major
    }

    /// Serializes the block for MAC computation (64 B line image).
    pub fn to_line_bytes(&self) -> [u8; 64] {
        // 8 bytes of major followed by a 6-bit-packed minor array (48 B)
        // leaves 8 B of padding; we keep the simpler byte-per-minor image
        // truncated into the line via XOR folding of the top half so the
        // MAC still covers every counter bit.
        let mut out = [0u8; 64];
        out[..8].copy_from_slice(&self.major.to_be_bytes());
        for (i, m) in self.minors.iter().enumerate() {
            out[8 + i % 56] ^= m.rotate_left((i / 56) as u32);
        }
        out
    }
}

impl Default for SplitCounterBlock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn split_counter_increments_are_unique() {
        let mut b = SplitCounterBlock::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            assert!(seen.insert(b.line_counter(3)));
            b.increment(3);
        }
    }

    #[test]
    fn minor_overflow_bumps_major_and_resets() {
        let mut b = SplitCounterBlock::new();
        b.increment(1);
        let mut overflowed = false;
        for _ in 0..(MINOR_LIMIT as usize) {
            overflowed = b.increment(0);
            if overflowed {
                break;
            }
        }
        assert!(overflowed);
        assert_eq!(b.major(), 1);
        // All minors reset, including line 1's earlier increment.
        assert_eq!(b.line_counter(1), 1u128 << 6);
    }

    #[test]
    fn counters_remain_unique_across_overflow() {
        let mut b = SplitCounterBlock::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(b.line_counter(0)), "counter reuse");
            b.increment(0);
        }
    }

    #[test]
    fn split_line_bytes_cover_all_minors() {
        let mut a = SplitCounterBlock::new();
        let b = SplitCounterBlock::new();
        // Changing any minor must change the MACed image.
        a.increment(63);
        assert_ne!(a.to_line_bytes(), b.to_line_bytes());
        let mut c = SplitCounterBlock::new();
        c.increment(0);
        assert_ne!(c.to_line_bytes(), b.to_line_bytes());
    }

    #[test]
    fn with_major_starts_fresh_minors() {
        let b = SplitCounterBlock::with_major(9);
        assert_eq!(b.major(), 9);
        assert_eq!(b.line_counter(0), 9u128 << 6);
    }
}
