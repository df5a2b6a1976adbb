//! Per-ticket integrity-metadata traffic attribution.
//!
//! The MEE keeps global hit/miss counters for its three metadata kinds
//! (split counters, MACs, Merkle tree nodes) plus the DRAM-resident L2
//! metadata cache. Those tell you what the *device* spent, but not which
//! tenant caused it — and metadata bandwidth is the dominant MEE cost, so
//! charging it to the ticket that incurred it is what lets trace records
//! explain *why* a ticket was slow.
//!
//! [`TicketAttribution`] is that charge slip: a snapshot-delta of the
//! MEE's counters taken around exactly the engine calls one ticket makes.
//! The executor driver accumulates one per in-flight ticket and hands the
//! final sum to the retirement observer when the ticket closes; the same
//! deltas are summed into the runtime's `RuntimeStats::ticket_meta`.

/// Integrity-metadata traffic charged to a single ticket.
///
/// All fields are event counts (cache probes), not bytes: one miss on
/// the counter/MAC/tree caches corresponds to one metadata cache-line
/// transfer from DRAM (or, on an L2 miss, a Merkle walk). The struct is
/// a plain additive accumulator — [`add`](TicketAttribution::add) folds
/// another delta in, so the same type serves per-ticket, per-tenant and
/// run-global roles.
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct TicketAttribution {
    /// Split-counter cache hits.
    pub counter_hits: u64,
    /// Split-counter cache misses (each one is a DRAM metadata fetch).
    pub counter_misses: u64,
    /// MAC cache hits.
    pub mac_hits: u64,
    /// MAC cache misses.
    pub mac_misses: u64,
    /// Merkle-tree node cache hits.
    pub tree_hits: u64,
    /// Merkle-tree node cache misses (each may trigger a tree walk).
    pub tree_misses: u64,
    /// Hits in the DRAM-backed second-level metadata store.
    pub l2_hits: u64,
    /// Misses in the DRAM-backed second-level metadata store.
    pub l2_misses: u64,
    /// Cache lines staged into protected DRAM by the bulk fill engine
    /// (flash-to-DRAM DMA on the read path).
    pub fill_lines: u64,
    /// Cache lines drained out of protected DRAM by the bulk seal
    /// engine (DRAM-to-flash DMA on the write path).
    pub seal_lines: u64,
    /// Counter-block DRAM writes issued by the bulk engines (fresh
    /// counter epochs on fill and seal — metadata traffic that bypasses
    /// the on-chip caches by design).
    pub meta_writes: u64,
    /// Cipher pad generations performed on this ticket's behalf.
    pub enc_pads: u64,
}

impl TicketAttribution {
    /// Fold another attribution delta into this accumulator.
    pub fn add(&mut self, other: &TicketAttribution) {
        self.counter_hits += other.counter_hits;
        self.counter_misses += other.counter_misses;
        self.mac_hits += other.mac_hits;
        self.mac_misses += other.mac_misses;
        self.tree_hits += other.tree_hits;
        self.tree_misses += other.tree_misses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.fill_lines += other.fill_lines;
        self.seal_lines += other.seal_lines;
        self.meta_writes += other.meta_writes;
        self.enc_pads += other.enc_pads;
    }

    /// Total first-level metadata probes (counter + MAC + tree).
    pub fn total_accesses(&self) -> u64 {
        self.counter_hits
            + self.counter_misses
            + self.mac_hits
            + self.mac_misses
            + self.tree_hits
            + self.tree_misses
    }

    /// Total first-level misses — the metadata DRAM traffic this ticket
    /// is responsible for, in cache-line-transfer units.
    pub fn total_misses(&self) -> u64 {
        self.counter_misses + self.mac_misses + self.tree_misses
    }

    /// True when no metadata traffic was charged at all.
    pub fn is_zero(&self) -> bool {
        *self == TicketAttribution::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_every_field() {
        let mut a = TicketAttribution::default();
        let b = TicketAttribution {
            counter_hits: 1,
            counter_misses: 2,
            mac_hits: 3,
            mac_misses: 4,
            tree_hits: 5,
            tree_misses: 6,
            l2_hits: 7,
            l2_misses: 8,
            fill_lines: 9,
            seal_lines: 10,
            meta_writes: 11,
            enc_pads: 12,
        };
        a.add(&b);
        a.add(&b);
        assert_eq!(a.counter_hits, 2);
        assert_eq!(a.counter_misses, 4);
        assert_eq!(a.mac_hits, 6);
        assert_eq!(a.mac_misses, 8);
        assert_eq!(a.tree_hits, 10);
        assert_eq!(a.tree_misses, 12);
        assert_eq!(a.l2_hits, 14);
        assert_eq!(a.l2_misses, 16);
        assert_eq!(a.fill_lines, 18);
        assert_eq!(a.seal_lines, 20);
        assert_eq!(a.meta_writes, 22);
        assert_eq!(a.enc_pads, 24);
        assert_eq!(a.total_accesses(), 42);
        assert_eq!(a.total_misses(), 24);
    }

    #[test]
    fn default_is_zero() {
        assert!(TicketAttribution::default().is_zero());
        let one = TicketAttribution {
            l2_misses: 1,
            ..TicketAttribution::default()
        };
        assert!(!one.is_zero());
    }
}
