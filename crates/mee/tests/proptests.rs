//! Property-based tests for counters, cache and metadata-hierarchy
//! invariants.

use iceclave_dram::{Dram, DramConfig};
use iceclave_mee::{
    CounterMode, MeeConfig, MeeEngine, MetaCache, PageClass, SplitCounterBlock, MINOR_LIMIT,
};
use iceclave_types::{ByteSize, CacheLine, SimTime, LINES_PER_PAGE};
use proptest::prelude::*;

/// One protected-memory operation of the equivalence driver, decoded
/// from a sampled `(selector, page, line)` tuple: selectors 0-3 read,
/// 4-6 write, 7 fills, 8 seals, 9 migrates (the line value doubles as
/// the read-only flag for fills and migrations). Pages span 0..48 —
/// several times the 64-block L1 and comparable to the small L2, so
/// demotions, promotions and L2 evictions all happen.
#[derive(Copy, Clone, Debug)]
enum MemOpKind {
    Read(u64, u64),
    Write(u64, u64),
    Fill(u64, bool),
    Seal(u64),
    Migrate(u64, bool),
}

impl MemOpKind {
    fn decode(selector: u8, page: u64, line: u64) -> MemOpKind {
        match selector {
            0..=3 => MemOpKind::Read(page, line),
            4..=6 => MemOpKind::Write(page, line),
            7 => MemOpKind::Fill(page, line.is_multiple_of(2)),
            8 => MemOpKind::Seal(page),
            _ => MemOpKind::Migrate(page, line.is_multiple_of(2)),
        }
    }
}

/// A hierarchy under test: its own DRAM, engine and virtual clock.
struct Rig {
    dram: Dram,
    mee: MeeEngine,
    clock: SimTime,
}

impl Rig {
    fn new(l2: ByteSize) -> Rig {
        let config = MeeConfig {
            mode: CounterMode::Hybrid,
            counter_cache: ByteSize::from_kib(4),
            cache_ways: 2,
            l2_capacity: l2,
            l2_ways: 4,
        };
        Rig {
            dram: Dram::new(DramConfig::table3()),
            mee: MeeEngine::new(config),
            clock: SimTime::ZERO,
        }
    }

    /// Applies one op, returning how many MAC verifications it did.
    fn apply(&mut self, op: MemOpKind) -> u64 {
        let before = self.mee.stats().verifications;
        let class = |ro| {
            if ro {
                PageClass::ReadOnly
            } else {
                PageClass::Writable
            }
        };
        self.clock = match op {
            MemOpKind::Read(p, l) => self.mee.read_line(
                &mut self.dram,
                CacheLine::new(p * LINES_PER_PAGE + l),
                self.clock,
            ),
            MemOpKind::Write(p, l) => self.mee.write_line(
                &mut self.dram,
                CacheLine::new(p * LINES_PER_PAGE + l),
                self.clock,
            ),
            MemOpKind::Fill(p, ro) => self.mee.fill_page(&mut self.dram, p, class(ro), self.clock),
            MemOpKind::Seal(p) => self.mee.seal_page(&mut self.dram, p, self.clock).sealed,
            MemOpKind::Migrate(p, ro) => {
                self.mee
                    .migrate_page(&mut self.dram, p, class(ro), self.clock)
            }
        };
        self.mee.stats().verifications - before
    }
}

proptest! {
    /// Line counters never repeat for any increment pattern (temporal
    /// uniqueness — the property CTR-mode security rests on).
    #[test]
    fn split_counters_never_repeat(lines in prop::collection::vec(0usize..64, 1..500)) {
        let mut block = SplitCounterBlock::new();
        let mut seen = std::collections::HashSet::new();
        // Record the initial counter of every line we will touch.
        for &l in &lines {
            seen.insert((l, block.line_counter(l)));
        }
        for &l in &lines {
            block.increment(l);
            for probe in 0..64usize {
                let c = (probe, block.line_counter(probe));
                if seen.contains(&c) && probe == l {
                    // The incremented line must have a fresh counter.
                    prop_assert!(false, "counter reuse on line {l}");
                }
            }
            seen.insert((l, block.line_counter(l)));
        }
    }

    /// Minor counters stay below their 6-bit limit whatever happens.
    #[test]
    fn minor_counters_bounded(lines in prop::collection::vec(0usize..64, 1..2000)) {
        let mut block = SplitCounterBlock::new();
        for &l in &lines {
            block.increment(l);
            prop_assert!(block.line_counter(l) & 0x3F < u128::from(MINOR_LIMIT));
        }
    }

    /// The cache honors inclusion: after any access pattern, the most
    /// recently accessed block is resident.
    #[test]
    fn cache_mru_always_resident(blocks in prop::collection::vec(0u64..512, 1..300)) {
        let mut cache = MetaCache::new(ByteSize::from_kib(4), 4);
        for &b in &blocks {
            cache.access(b);
            prop_assert!(cache.contains(b));
        }
    }

    /// The L2 store is a pure performance layer: for ANY access
    /// sequence, the engine with an L2 and the engine without one agree
    /// on every functional observable — counter values (the input to
    /// every pad, so ciphertexts would be byte-identical), page
    /// classes, data/fill/seal traffic, overflow re-encryptions and
    /// migrations — and both uphold the verification-ordering
    /// guarantee: every protected read or write performs at least one
    /// MAC verification before it completes. Only *latency* may differ.
    #[test]
    fn l2_is_a_pure_performance_layer(
        raw_ops in prop::collection::vec((0u8..10, 0u64..48, 0u64..LINES_PER_PAGE), 1..120)
    ) {
        let ops: Vec<MemOpKind> = raw_ops
            .iter()
            .map(|&(s, p, l)| MemOpKind::decode(s, p, l))
            .collect();
        let mut with = Rig::new(ByteSize::from_kib(16));
        let mut without = Rig::new(ByteSize::ZERO);
        prop_assert!(with.mee.l2_store().is_some());
        prop_assert!(without.mee.l2_store().is_none());
        for &op in &ops {
            let v_with = with.apply(op);
            let v_without = without.apply(op);
            if matches!(op, MemOpKind::Read(..) | MemOpKind::Write(..)) {
                prop_assert!(v_with >= 1, "unverified access with L2: {op:?}");
                prop_assert!(v_without >= 1, "unverified access without L2: {op:?}");
            }
        }
        // Functional state: identical line counters everywhere.
        for page in 0..48u64 {
            for line in 0..LINES_PER_PAGE as usize {
                prop_assert_eq!(
                    with.mee.line_counter(page, line),
                    without.mee.line_counter(page, line),
                    "counter divergence at page {} line {}", page, line
                );
            }
        }
        let a = with.mee.stats();
        let b = without.mee.stats();
        prop_assert_eq!(a.data_reads, b.data_reads);
        prop_assert_eq!(a.data_writes, b.data_writes);
        prop_assert_eq!(a.fill_writes, b.fill_writes);
        prop_assert_eq!(a.seal_reads, b.seal_reads);
        prop_assert_eq!(a.overflow_reencryptions, b.overflow_reencryptions);
        prop_assert_eq!(a.migrations, b.migrations);
        prop_assert_eq!(a.encryptions, b.encryptions);
        // And the disabled-L2 engine never touched a second level.
        prop_assert_eq!(b.l2_hits + b.l2_misses + b.l2_demotions, 0);
    }
}
