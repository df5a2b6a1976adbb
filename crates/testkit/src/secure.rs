//! Functional (byte-accurate) protected memory.
//!
//! While [`iceclave_mee::MeeEngine`] models *when* things happen,
//! [`SecureMemory`] models *what* happens: real counter-mode encryption
//! with AES pads, real per-line MACs binding ciphertext + counter +
//! address, and a real Bonsai Merkle Tree over the counter blocks. The
//! stored ciphertext, MACs and counters are all "in DRAM" and therefore
//! attackable — the test hooks model the physical attacks of the threat
//! model (§3): bus snooping sees only ciphertext, and tampering,
//! splicing or replaying any stored state is detected on the next read.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use iceclave_mee::SplitCounterBlock;
use iceclave_types::{CacheLine, LINES_PER_PAGE};

use crate::aes::Aes128;
use crate::tree::{mac64, MerkleTree};

/// Verification failure on a protected read.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum VerifyError {
    /// The line was never written.
    NotWritten(CacheLine),
    /// The data MAC did not match: the ciphertext, its MAC, or its
    /// counter was modified (tamper/splice/replay of data).
    MacMismatch(CacheLine),
    /// The counter block failed Merkle verification: counters were
    /// tampered with or rolled back.
    CounterIntegrity {
        /// The affected DRAM page.
        page: u64,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::NotWritten(line) => write!(f, "read of unwritten line {line}"),
            VerifyError::MacMismatch(line) => write!(f, "MAC mismatch on {line}"),
            VerifyError::CounterIntegrity { page } => {
                write!(f, "counter integrity failure on page {page}")
            }
        }
    }
}

impl Error for VerifyError {}

/// A snapshot of one line's stored (attackable) state, for replay
/// attacks.
#[derive(Clone, Debug)]
pub struct LineSnapshot {
    cipher: [u8; 64],
    mac: [u8; 8],
}

/// Byte-accurate encrypted + integrity-protected memory.
///
/// # Examples
///
/// ```
/// use iceclave_testkit::SecureMemory;
/// use iceclave_types::CacheLine;
///
/// let mut mem = SecureMemory::new(64, [1u8; 16], [2u8; 16]);
/// let line = CacheLine::new(5);
/// mem.write_line(line, &[0xAB; 64]);
/// assert_eq!(mem.read_line(line)?, [0xAB; 64]);
/// // A physical attacker flips a ciphertext bit...
/// mem.tamper_line(line, |bytes| bytes[0] ^= 1);
/// assert!(mem.read_line(line).is_err()); // ...and is detected.
/// # Ok::<(), iceclave_testkit::VerifyError>(())
/// ```
#[derive(Debug)]
pub struct SecureMemory {
    data_key: Aes128,
    mac_key: Aes128,
    /// Stored ciphertext lines (attackable).
    lines: HashMap<u64, [u8; 64]>,
    /// Stored per-line MACs (attackable).
    macs: HashMap<u64, [u8; 8]>,
    /// Stored counter blocks, one per page (attackable).
    counters: HashMap<u64, SplitCounterBlock>,
    /// Integrity tree over the counter blocks; root is private.
    tree: MerkleTree,
    pages: u64,
}

impl SecureMemory {
    /// Creates protected memory covering `pages` 4 KiB pages.
    pub fn new(pages: u64, data_key: [u8; 16], mac_key: [u8; 16]) -> Self {
        SecureMemory {
            data_key: Aes128::new(&data_key),
            mac_key: Aes128::new(&mac_key),
            lines: HashMap::new(),
            macs: HashMap::new(),
            counters: HashMap::new(),
            tree: MerkleTree::new(pages, Aes128::new(&mac_key)),
            pages,
        }
    }

    /// Encrypts and stores one 64-byte line, updating its counter, MAC
    /// and the integrity tree.
    ///
    /// # Panics
    ///
    /// Panics if the line is outside the protected region.
    pub fn write_line(&mut self, line: CacheLine, plain: &[u8; 64]) {
        let page = line.page_index();
        assert!(page < self.pages, "line outside protected region");
        let slot = (line.raw() % LINES_PER_PAGE) as usize;

        let old_block = self.counters.get(&page).cloned().unwrap_or_default();
        let mut block = old_block.clone();
        let overflowed = block.increment(slot);
        if overflowed {
            // Re-encrypt every resident line of the page under the new
            // major counter (the paper's overflow path, done for real).
            let first = page * LINES_PER_PAGE;
            for i in 0..LINES_PER_PAGE {
                if i == slot as u64 {
                    continue;
                }
                let addr = first + i;
                if let Some(cipher) = self.lines.get(&addr).copied() {
                    let old_ctr = old_block.line_counter(i as usize);
                    let plain_i = self.apply_pad(CacheLine::new(addr), old_ctr, &cipher);
                    let new_ctr = block.line_counter(i as usize);
                    let recipher = self.apply_pad(CacheLine::new(addr), new_ctr, &plain_i);
                    self.lines.insert(addr, recipher);
                    let mac = self.line_mac(CacheLine::new(addr), new_ctr, &recipher);
                    self.macs.insert(addr, mac);
                }
            }
        }

        let ctr = block.line_counter(slot);
        let cipher = self.apply_pad(line, ctr, plain);
        let mac = self.line_mac(line, ctr, &cipher);
        self.lines.insert(line.raw(), cipher);
        self.macs.insert(line.raw(), mac);
        let leaf_mac = mac64(&self.mac_key, page, &block.to_line_bytes());
        self.tree.update_leaf(page, leaf_mac);
        self.counters.insert(page, block);
    }

    /// Verifies and decrypts one line.
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] when the line was never written, the
    /// data MAC fails, or the counter block fails Merkle verification.
    pub fn read_line(&self, line: CacheLine) -> Result<[u8; 64], VerifyError> {
        let page = line.page_index();
        let cipher = self
            .lines
            .get(&line.raw())
            .ok_or(VerifyError::NotWritten(line))?;
        let block = self
            .counters
            .get(&page)
            .ok_or(VerifyError::NotWritten(line))?;

        // 1. Counter integrity: leaf MAC against the private root.
        let leaf_mac = mac64(&self.mac_key, page, &block.to_line_bytes());
        if !self.tree.verify_leaf(page, leaf_mac) {
            return Err(VerifyError::CounterIntegrity { page });
        }

        // 2. Data integrity: recompute the line MAC.
        let slot = (line.raw() % LINES_PER_PAGE) as usize;
        let ctr = block.line_counter(slot);
        let expected = self.line_mac(line, ctr, cipher);
        if self.macs.get(&line.raw()) != Some(&expected) {
            return Err(VerifyError::MacMismatch(line));
        }

        // 3. Decrypt.
        Ok(self.apply_pad(line, ctr, cipher))
    }

    /// The raw stored ciphertext of a line — what a bus-snooping
    /// attacker observes.
    pub fn snoop_line(&self, line: CacheLine) -> Option<[u8; 64]> {
        self.lines.get(&line.raw()).copied()
    }

    /// Attack hook: mutate the stored ciphertext in place.
    pub fn tamper_line(&mut self, line: CacheLine, f: impl FnOnce(&mut [u8; 64])) {
        if let Some(cipher) = self.lines.get_mut(&line.raw()) {
            f(cipher);
        }
    }

    /// Attack hook: overwrite the stored MAC of a line.
    pub fn tamper_mac(&mut self, line: CacheLine, mac: [u8; 8]) {
        self.macs.insert(line.raw(), mac);
    }

    /// Attack hook: mutate the stored counter block of a page.
    pub fn tamper_counter(&mut self, page: u64, f: impl FnOnce(&mut SplitCounterBlock)) {
        let mut block = self.counters.get(&page).cloned().unwrap_or_default();
        f(&mut block);
        self.counters.insert(page, block);
    }

    /// Captures the stored state of a line for a later replay attack.
    pub fn snapshot_line(&self, line: CacheLine) -> Option<LineSnapshot> {
        Some(LineSnapshot {
            cipher: *self.lines.get(&line.raw())?,
            mac: *self.macs.get(&line.raw())?,
        })
    }

    /// Attack hook: roll a line's ciphertext and MAC back to an earlier
    /// snapshot (a classic replay attack).
    pub fn replay_line(&mut self, line: CacheLine, snapshot: &LineSnapshot) {
        self.lines.insert(line.raw(), snapshot.cipher);
        self.macs.insert(line.raw(), snapshot.mac);
    }

    /// Generates the CTR-mode pad for a line and XORs it with `input`.
    fn apply_pad(&self, line: CacheLine, ctr: u128, input: &[u8; 64]) -> [u8; 64] {
        let mut out = [0u8; 64];
        for blk in 0..4u128 {
            // Nonce binds address, counter and block index: unique per
            // (line, write epoch, 16-byte block).
            let nonce = (u128::from(line.raw()) << 80) | (ctr << 8) | blk;
            let pad = self.data_key.encrypt_counter(nonce);
            let base = (blk as usize) * 16;
            for i in 0..16 {
                out[base + i] = input[base + i] ^ pad[i];
            }
        }
        out
    }

    /// MAC binding ciphertext, counter and address.
    fn line_mac(&self, line: CacheLine, ctr: u128, cipher: &[u8; 64]) -> [u8; 8] {
        let inner = mac64(&self.mac_key, line.raw(), cipher);
        let mut trailer = [0u8; 64];
        trailer[..16].copy_from_slice(&ctr.to_be_bytes());
        trailer[16..24].copy_from_slice(&inner);
        mac64(&self.mac_key, !line.raw(), &trailer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> SecureMemory {
        SecureMemory::new(16, [1; 16], [2; 16])
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = mem();
        let line = CacheLine::new(3);
        let plain = [0x5A; 64];
        m.write_line(line, &plain);
        assert_eq!(m.read_line(line).unwrap(), plain);
    }

    #[test]
    fn unwritten_line_errors() {
        let m = mem();
        assert_eq!(
            m.read_line(CacheLine::new(0)),
            Err(VerifyError::NotWritten(CacheLine::new(0)))
        );
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let mut m = mem();
        let line = CacheLine::new(7);
        let plain = [0u8; 64];
        m.write_line(line, &plain);
        let snooped = m.snoop_line(line).unwrap();
        assert_ne!(snooped, plain, "bus snooper must not see plaintext");
    }

    #[test]
    fn rewrites_change_ciphertext_even_for_same_plaintext() {
        let mut m = mem();
        let line = CacheLine::new(7);
        let plain = [9u8; 64];
        m.write_line(line, &plain);
        let c1 = m.snoop_line(line).unwrap();
        m.write_line(line, &plain);
        let c2 = m.snoop_line(line).unwrap();
        assert_ne!(c1, c2, "counter must advance per write");
        assert_eq!(m.read_line(line).unwrap(), plain);
    }

    #[test]
    fn tampered_ciphertext_is_detected() {
        let mut m = mem();
        let line = CacheLine::new(1);
        m.write_line(line, &[1; 64]);
        m.tamper_line(line, |c| c[17] ^= 0x80);
        assert_eq!(m.read_line(line), Err(VerifyError::MacMismatch(line)));
    }

    #[test]
    fn tampered_mac_is_detected() {
        let mut m = mem();
        let line = CacheLine::new(1);
        m.write_line(line, &[1; 64]);
        m.tamper_mac(line, [0; 8]);
        assert_eq!(m.read_line(line), Err(VerifyError::MacMismatch(line)));
    }

    #[test]
    fn tampered_counter_is_detected_by_the_tree() {
        let mut m = mem();
        let line = CacheLine::new(64); // page 1
        m.write_line(line, &[1; 64]);
        m.tamper_counter(1, |b| {
            b.increment(0);
        });
        assert_eq!(
            m.read_line(line),
            Err(VerifyError::CounterIntegrity { page: 1 })
        );
    }

    #[test]
    fn replayed_line_is_detected() {
        let mut m = mem();
        let line = CacheLine::new(2);
        m.write_line(line, &[1; 64]);
        let old = m.snapshot_line(line).unwrap();
        m.write_line(line, &[2; 64]);
        m.replay_line(line, &old);
        // Old ciphertext+MAC under the *current* counter: MAC mismatch.
        assert_eq!(m.read_line(line), Err(VerifyError::MacMismatch(line)));
    }

    #[test]
    fn minor_overflow_reencrypts_page_correctly() {
        let mut m = mem();
        let a = CacheLine::new(0);
        let b = CacheLine::new(1);
        m.write_line(b, &[0xBB; 64]);
        // Overflow line 0's minor counter: 64 writes.
        for i in 0..64u8 {
            m.write_line(a, &[i; 64]);
        }
        // Line b must still decrypt after the page re-encryption.
        assert_eq!(m.read_line(b).unwrap(), [0xBB; 64]);
        assert_eq!(m.read_line(a).unwrap(), [63; 64]);
    }

    #[test]
    fn distinct_lines_same_content_have_distinct_ciphertext() {
        let mut m = mem();
        let plain = [7u8; 64];
        m.write_line(CacheLine::new(0), &plain);
        m.write_line(CacheLine::new(1), &plain);
        assert_ne!(
            m.snoop_line(CacheLine::new(0)),
            m.snoop_line(CacheLine::new(1)),
            "pads must be spatially unique"
        );
    }

    #[test]
    #[should_panic(expected = "outside protected region")]
    fn out_of_region_write_panics() {
        let mut m = mem();
        m.write_line(CacheLine::new(16 * 64), &[0; 64]);
    }
}
