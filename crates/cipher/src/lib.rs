//! The stream-cipher engine of IceClave.
//!
//! IceClave secures the flash-to-DRAM data path with a hardware stream
//! cipher based on **Trivium** (§5, Figure 10) whose 80-bit IV is the
//! concatenation of a PRNG output and the physical page address.
//!
//! * [`Trivium`] — the eSTREAM portfolio cipher, in a word-sliced
//!   implementation producing 64 keystream bits per step (matching the
//!   64 bits/cycle hardware engine of §5). The test-only
//!   `iceclave_testkit` holds the bit-at-a-time reference it is
//!   cross-checked against, and the AES-128 of the functional MEE.
//! * [`PageIv`] — the 80-bit per-page IV of Figure 10 (48-bit PRNG base
//!   ‖ 32-bit PPA) with the spatial/temporal uniqueness guarantees the
//!   paper relies on.
//! * [`CipherEngine`] — the timing and area model of the engine placed
//!   in the SSD controller (64 keystream bits per cycle, per-channel
//!   page buffers; ≈1.6% controller area per §5).
//!
//! # Examples
//!
//! ```
//! use iceclave_cipher::{CipherEngine, PageIv, Trivium};
//!
//! let key = [0x42u8; 10]; // 80-bit device key held in a secure register
//! let iv = PageIv::compose(0x0000_dead_beef, 1234);
//! let mut cipher = Trivium::new(&key, &iv.bytes());
//! let plain = b"sensitive flash page contents".to_vec();
//! let mut data = plain.clone();
//! cipher.apply_keystream(&mut data); // encrypt
//! assert_ne!(data, plain);
//! let mut cipher = Trivium::new(&key, &iv.bytes());
//! cipher.apply_keystream(&mut data); // decrypt (XOR is symmetric)
//! assert_eq!(data, plain);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area;
pub mod engine;
pub mod iv;
pub mod trivium;

pub use area::{AreaReport, CipherAreaModel};
pub use engine::CipherEngine;
pub use iv::{IvGenerator, PageIv};
pub use trivium::Trivium;
