//! Bonsai Merkle Trees (Rogers et al., MICRO'07), as used by IceClave.
//!
//! A Bonsai Merkle Tree protects the *encryption counters* rather than
//! the data itself (data lines are covered by per-line MACs that bind
//! data, address and counter). The tree's leaves are MACs of counter
//! blocks; each internal node MACs its eight children; the root lives in
//! a processor register where physical attacks cannot reach it. IceClave
//! keeps **two** trees — one over the major-only counter region and one
//! over the split-counter region (Figure 7) — at a memory cost of about
//! 0.5 MiB + 4 MiB for 4 GiB of DRAM.
//!
//! This module holds the trees' shape, which [`crate::MeeEngine`]
//! walks; the test-only `iceclave_testkit` holds a functional tree.

/// Fan-out of the tree: a 64 B node holds eight 8-byte child MACs.
pub const TREE_ARITY: u64 = 8;

/// Shape of a tree: enough levels of arity-8 nodes to cover `leaves`
/// counter blocks.
///
/// # Examples
///
/// ```
/// use iceclave_mee::TreeGeometry;
///
/// let g = TreeGeometry::for_leaves(4096);
/// assert_eq!(g.depth(), 4); // 8^4 = 4096
/// assert_eq!(g.nodes_at_level(1), 512);
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct TreeGeometry {
    leaves: u64,
    depth: u32,
}

impl TreeGeometry {
    /// Geometry covering at least `leaves` leaves (minimum one level).
    pub fn for_leaves(leaves: u64) -> Self {
        let leaves = leaves.max(1);
        let mut depth = 0;
        let mut width = 1u64;
        while width < leaves {
            width = width.saturating_mul(TREE_ARITY);
            depth += 1;
        }
        TreeGeometry { leaves, depth }
    }

    /// Number of counter-block leaves covered.
    pub fn leaves(&self) -> u64 {
        self.leaves
    }

    /// Levels between the leaves and the root (the root itself is level
    /// `depth()` and is stored on-chip).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of nodes at `level` (level 0 = leaves).
    pub fn nodes_at_level(&self, level: u32) -> u64 {
        let mut n = self.leaves;
        for _ in 0..level {
            n = n.div_ceil(TREE_ARITY);
        }
        n.max(1)
    }

    /// Index of the ancestor of `leaf` at `level`.
    pub fn ancestor(&self, leaf: u64, level: u32) -> u64 {
        leaf / TREE_ARITY.pow(level)
    }

    /// Total in-memory size of the tree in bytes (64 B per node above
    /// the leaves, excluding the on-chip root).
    pub fn memory_bytes(&self) -> u64 {
        (1..=self.depth)
            .map(|lvl| self.nodes_at_level(lvl) * 64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_depths() {
        assert_eq!(TreeGeometry::for_leaves(1).depth(), 0);
        assert_eq!(TreeGeometry::for_leaves(8).depth(), 1);
        assert_eq!(TreeGeometry::for_leaves(9).depth(), 2);
        assert_eq!(TreeGeometry::for_leaves(64).depth(), 2);
        assert_eq!(TreeGeometry::for_leaves(4096).depth(), 4);
    }

    #[test]
    fn geometry_memory_cost_matches_paper_scale() {
        // 4 GiB of DRAM = 1 Mi pages of split counters (1 block each).
        let split = TreeGeometry::for_leaves(1 << 20);
        let mib = split.memory_bytes() as f64 / (1024.0 * 1024.0);
        // The paper quotes ~4 MiB for the writable tree of Figure 7b
        // plus ~0.5 MiB for the read-only tree.
        assert!((4.0..12.0).contains(&mib), "split tree {mib} MiB");
        let major = TreeGeometry::for_leaves((1 << 20) / 8);
        let mib = major.memory_bytes() as f64 / (1024.0 * 1024.0);
        assert!((0.5..2.0).contains(&mib), "major tree {mib} MiB");
    }
}
