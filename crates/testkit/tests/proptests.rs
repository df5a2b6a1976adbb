//! Property-based tests for the test-only models.

use iceclave_testkit::{Aes128, MerkleTree};
use proptest::prelude::*;

proptest! {
    /// AES-128 is a permutation: distinct counters produce distinct
    /// blocks under any key.
    #[test]
    fn aes_counter_injective(key in prop::array::uniform16(0u8..), a in 0u128.., b in 0u128..) {
        prop_assume!(a != b);
        let aes = Aes128::new(&key);
        prop_assert_ne!(aes.encrypt_counter(a), aes.encrypt_counter(b));
    }

    /// Merkle verification accepts exactly the current leaf values and
    /// rejects any stale one.
    #[test]
    fn tree_accepts_current_rejects_stale(updates in prop::collection::vec((0u64..64, prop::array::uniform8(0u8..)), 1..50)) {
        let mut tree = MerkleTree::new(64, Aes128::new(&[9; 16]));
        let mut current: std::collections::HashMap<u64, [u8; 8]> = Default::default();
        let mut stale: Vec<(u64, [u8; 8])> = Vec::new();
        for (leaf, mac) in updates {
            if let Some(old) = current.insert(leaf, mac) {
                if old != mac {
                    stale.push((leaf, old));
                }
            }
            tree.update_leaf(leaf, mac);
        }
        for (&leaf, &mac) in &current {
            prop_assert!(tree.verify_leaf(leaf, mac));
        }
        for (leaf, old) in stale {
            if current.get(&leaf) != Some(&old) {
                prop_assert!(!tree.verify_leaf(leaf, old), "stale MAC accepted for {leaf}");
            }
        }
    }
}
