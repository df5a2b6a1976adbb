//! A functional Bonsai Merkle Tree (Rogers et al., MICRO'07) over real
//! MACs, with the shape of [`iceclave_mee::TreeGeometry`].

use iceclave_mee::tree::TREE_ARITY;
use iceclave_mee::TreeGeometry;

use crate::aes::Aes128;

/// A functional Bonsai Merkle Tree over 8-byte leaf MACs.
///
/// Internal nodes are stored in plain (attackable) memory — the
/// [`MerkleTree::tamper_node`] test hook models a physical write to
/// DRAM — while the root stays private. Verification recomputes the
/// path from the claimed leaf MAC through stored siblings and compares
/// against the root register, so any tamper or rollback below the root
/// is caught.
#[derive(Debug)]
pub struct MerkleTree {
    geometry: TreeGeometry,
    /// `levels[l]` holds the node MACs of level `l+1` (level 0 leaf MACs
    /// are supplied by the counter store, not duplicated here).
    levels: Vec<Vec<[u8; 8]>>,
    leaf_macs: Vec<[u8; 8]>,
    root: [u8; 8],
    mac_key: Aes128,
}

/// Computes an 8-byte MAC of a 64-byte block with AES in
/// Matyas–Meyer–Oseas mode, truncated. `domain` separates leaf/node and
/// position so identical payloads at different places MAC differently.
pub(crate) fn mac64(key: &Aes128, domain: u64, block: &[u8; 64]) -> [u8; 8] {
    let mut h = [0u8; 16];
    h[..8].copy_from_slice(&domain.to_be_bytes());
    for chunk in block.chunks(16) {
        let mut x = [0u8; 16];
        for (i, b) in chunk.iter().enumerate() {
            x[i] = h[i] ^ b;
        }
        let e = key.encrypt_block(&x);
        for i in 0..16 {
            h[i] = e[i] ^ chunk[i];
        }
    }
    let mut out = [0u8; 8];
    out.copy_from_slice(&h[..8]);
    out
}

impl MerkleTree {
    /// Builds a tree over `leaves` all-zero leaf MACs.
    pub fn new(leaves: u64, mac_key: Aes128) -> Self {
        let geometry = TreeGeometry::for_leaves(leaves);
        let leaf_macs = vec![[0u8; 8]; geometry.leaves() as usize];
        let mut tree = MerkleTree {
            geometry,
            levels: Vec::new(),
            leaf_macs,
            root: [0u8; 8],
            mac_key,
        };
        tree.rebuild();
        tree
    }

    fn node_payload(children: &[[u8; 8]]) -> [u8; 64] {
        let mut block = [0u8; 64];
        for (i, c) in children.iter().enumerate() {
            block[i * 8..(i + 1) * 8].copy_from_slice(c);
        }
        block
    }

    fn hash_children(&self, level: u32, index: u64, children: &[[u8; 8]]) -> [u8; 8] {
        let domain = (u64::from(level) << 48) | index;
        mac64(&self.mac_key, domain, &Self::node_payload(children))
    }

    fn rebuild(&mut self) {
        self.levels.clear();
        let mut current: Vec<[u8; 8]> = self.leaf_macs.clone();
        for level in 1..=self.geometry.depth() {
            let parents = self.geometry.nodes_at_level(level);
            let mut next = Vec::with_capacity(parents as usize);
            for p in 0..parents {
                let start = (p * TREE_ARITY) as usize;
                let end = (start + TREE_ARITY as usize).min(current.len());
                let mut children = [[0u8; 8]; 8];
                for (i, c) in current[start..end].iter().enumerate() {
                    children[i] = *c;
                }
                next.push(self.hash_children(level, p, &children));
            }
            self.levels.push(next.clone());
            current = next;
        }
        self.root = self.hash_children(self.geometry.depth() + 1, 0, &[current[0]]);
    }

    /// The root MAC (conceptually an on-chip register).
    pub fn root(&self) -> [u8; 8] {
        self.root
    }

    /// Updates the MAC of `leaf` and recomputes its path to the root.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn update_leaf(&mut self, leaf: u64, mac: [u8; 8]) {
        assert!(leaf < self.geometry.leaves(), "leaf out of range");
        self.leaf_macs[leaf as usize] = mac;
        // Recompute ancestors bottom-up.
        for level in 1..=self.geometry.depth() {
            let parent = self.geometry.ancestor(leaf, level);
            let children = self.children_of(level, parent);
            let h = self.hash_children(level, parent, &children);
            self.levels[(level - 1) as usize][parent as usize] = h;
        }
        let top = self
            .levels
            .last()
            .map(|l| l[0])
            .unwrap_or(self.leaf_macs[0]);
        self.root = self.hash_children(self.geometry.depth() + 1, 0, &[top]);
    }

    /// Verifies that `mac` is the authentic current MAC of `leaf` by
    /// recomputing the path through the (attackable) stored nodes and
    /// comparing with the private root.
    pub fn verify_leaf(&self, leaf: u64, mac: [u8; 8]) -> bool {
        if leaf >= self.geometry.leaves() {
            return false;
        }
        let mut carried = mac;
        for level in 1..=self.geometry.depth() {
            let parent = self.geometry.ancestor(leaf, level);
            let mut children = self.children_of(level, parent);
            // Replace the claimed child along the path with what we have
            // verified so far.
            let child_pos = (self.geometry.ancestor(leaf, level - 1) % TREE_ARITY) as usize;
            children[child_pos] = carried;
            carried = self.hash_children(level, parent, &children);
        }
        self.hash_children(self.geometry.depth() + 1, 0, &[carried]) == self.root
    }

    /// Test hook modelling a physical attack: overwrites a stored node
    /// (level >= 1) or a stored leaf MAC (level 0) without updating the
    /// root.
    pub fn tamper_node(&mut self, level: u32, index: u64, value: [u8; 8]) {
        if level == 0 {
            self.leaf_macs[index as usize] = value;
        } else {
            self.levels[(level - 1) as usize][index as usize] = value;
        }
    }

    /// The stored MAC of `leaf` (what untrusted memory currently
    /// claims).
    pub fn stored_leaf(&self, leaf: u64) -> [u8; 8] {
        self.leaf_macs[leaf as usize]
    }

    fn children_of(&self, level: u32, parent: u64) -> [[u8; 8]; 8] {
        let source: &[[u8; 8]] = if level == 1 {
            &self.leaf_macs
        } else {
            &self.levels[(level - 2) as usize]
        };
        let start = (parent * TREE_ARITY) as usize;
        let mut children = [[0u8; 8]; 8];
        for i in 0..8 {
            if start + i < source.len() {
                children[i] = source[start + i];
            }
        }
        children
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Aes128 {
        Aes128::new(&[0x11; 16])
    }

    #[test]
    fn update_then_verify() {
        let mut t = MerkleTree::new(100, key());
        t.update_leaf(42, [7; 8]);
        assert!(t.verify_leaf(42, [7; 8]));
        assert!(!t.verify_leaf(42, [8; 8]));
        assert!(!t.verify_leaf(41, [7; 8]));
    }

    #[test]
    fn root_changes_with_updates() {
        let mut t = MerkleTree::new(64, key());
        let r0 = t.root();
        t.update_leaf(0, [1; 8]);
        let r1 = t.root();
        assert_ne!(r0, r1);
        t.update_leaf(0, [2; 8]);
        assert_ne!(r1, t.root());
    }

    #[test]
    fn tampered_internal_node_is_detected() {
        let mut t = MerkleTree::new(512, key());
        t.update_leaf(100, [9; 8]);
        assert!(t.verify_leaf(100, [9; 8]));
        // Physical attack: overwrite the level-1 node covering leaves
        // 96..104. Verification of any leaf under a *different* level-1
        // parent but the same level-2 ancestor reads the tampered node
        // as a sibling and must fail (path nodes themselves are
        // recomputed, so only sibling reads expose the tamper).
        t.tamper_node(1, 100 / 8, [0xAA; 8]);
        assert!(!t.verify_leaf(104, t.stored_leaf(104)));
        // Leaf 100's own path recomputes the tampered node, so its own
        // verification still passes — the attack gained nothing.
        assert!(t.verify_leaf(100, [9; 8]));
    }

    #[test]
    fn replayed_leaf_is_detected() {
        let mut t = MerkleTree::new(64, key());
        t.update_leaf(5, [1; 8]);
        let old = t.stored_leaf(5);
        t.update_leaf(5, [2; 8]);
        // Roll back the stored leaf MAC to its old value: root no longer
        // matches.
        assert!(!t.verify_leaf(5, old));
        assert!(t.verify_leaf(5, [2; 8]));
    }

    #[test]
    fn out_of_range_leaf_fails_verification() {
        let t = MerkleTree::new(8, key());
        assert!(!t.verify_leaf(8, [0; 8]));
    }

    #[test]
    fn mac64_is_position_sensitive() {
        let k = key();
        let block = [5u8; 64];
        assert_ne!(mac64(&k, 1, &block), mac64(&k, 2, &block));
        let mut other = block;
        other[63] ^= 1;
        assert_ne!(mac64(&k, 1, &block), mac64(&k, 1, &other));
    }

    #[test]
    fn single_leaf_tree() {
        let mut t = MerkleTree::new(1, key());
        t.update_leaf(0, [3; 8]);
        assert!(t.verify_leaf(0, [3; 8]));
        assert!(!t.verify_leaf(0, [4; 8]));
    }
}
