//! The flash array: NAND state machine plus die/channel timing.

use std::error::Error;
use std::fmt;

use iceclave_sim::{Histogram, Resource, ServiceSpan};
use iceclave_types::{ChunkTable, FastMap, Ppn, SimTime};

use crate::config::{ERASE, PROGRAM};
use crate::faults::{FaultInjector, ReadFault};
use crate::{BlockAddr, FlashConfig};

/// Errors returned by flash operations that violate the NAND contract.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum FlashError {
    /// Attempt to read a page that has never been programmed since the
    /// last erase of its block.
    ReadUnwritten(Ppn),
    /// Attempt to program a page out of order or twice without an erase.
    /// NAND requires pages within a block to be programmed sequentially.
    ProgramOutOfOrder {
        /// The offending page.
        ppn: Ppn,
        /// The page index the block expects to be programmed next.
        expected_page: u32,
    },
    /// Address beyond the device geometry.
    OutOfRange(Ppn),
    /// An injected raw-bit-error burst exceeded the ECC correction
    /// strength: the page transferred but its payload is unusable. A
    /// retry may succeed (transient bursts) — the executor's
    /// read-retry ladder handles the policy.
    ReadUncorrectable {
        /// The page whose codewords failed to decode.
        ppn: Ppn,
        /// Raw byte errors in the worst codeword (> the ECC `t`).
        raw_errors: u32,
    },
    /// The die reported program status FAIL. The page's content is
    /// indeterminate and the block must be treated as grown bad; the
    /// FTL re-steers the page elsewhere.
    ProgramFailed(Ppn),
    /// The die reported erase status FAIL: the block is worn out and
    /// must be retired to the grown-bad-block table.
    EraseFailed(BlockAddr),
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashError::ReadUnwritten(ppn) => write!(f, "read of unwritten page {ppn}"),
            FlashError::ProgramOutOfOrder { ppn, expected_page } => write!(
                f,
                "out-of-order program of {ppn}; block expects page {expected_page} next"
            ),
            FlashError::OutOfRange(ppn) => write!(f, "{ppn} is beyond the device"),
            FlashError::ReadUncorrectable { ppn, raw_errors } => write!(
                f,
                "uncorrectable read of {ppn}: {raw_errors} raw byte errors exceed the ECC"
            ),
            FlashError::ProgramFailed(ppn) => write!(f, "program of {ppn} reported status FAIL"),
            FlashError::EraseFailed(block) => {
                write!(f, "erase of {block} reported status FAIL")
            }
        }
    }
}

impl Error for FlashError {}

/// Aggregate statistics for the flash array.
#[derive(Clone, Debug, Default)]
pub struct FlashStats {
    /// Pages read.
    pub reads: u64,
    /// Pages programmed.
    pub programs: u64,
    /// Blocks erased.
    pub erases: u64,
    /// End-to-end page read latency (ns) distribution.
    pub read_latency_ns: Histogram,
    /// Injected raw-bit-error bursts the ECC corrected transparently.
    pub corrected_bursts: u64,
    /// Injected uncorrectable read faults surfaced to the caller.
    pub read_faults: u64,
    /// Injected program status-FAIL events.
    pub program_faults: u64,
    /// Injected erase status-FAIL events.
    pub erase_faults: u64,
}

/// Blocks per [`ChunkTable`] chunk of the block state (512 B). The FTL
/// steers each batch across channels and planes, so even a fresh
/// device's first writes touch blocks all over the flat block index;
/// small chunks keep each touched block cheap. On the four perfbench
/// workloads, chunks of 16 to 128 blocks measured within noise of each
/// other; 256-block chunks raised `colocated`'s peak RSS by 0.4 MiB.
const BLOCK_CHUNK: usize = 64;

#[derive(Copy, Clone, Debug, Default)]
struct BlockState {
    /// Next page index expected to be programmed (pages below are
    /// written).
    frontier: u32,
    /// Lifetime erase count, for wear-leveling decisions.
    erase_count: u32,
}

/// The flash device: geometry, NAND state, per-die and per-channel
/// timing, and a sparse functional data store.
///
/// Per-block NAND state (program frontier, erase count) lives in a
/// [`ChunkTable`] over the flat block index: an erased block reads as
/// frontier 0, erase count 0, and memory follows the blocks programmed
/// or erased, not the device's `total_blocks()`.
///
/// # Examples
///
/// ```
/// use iceclave_flash::{FlashArray, FlashConfig};
/// use iceclave_types::{Ppn, SimTime};
///
/// let mut array = FlashArray::new(FlashConfig::tiny());
/// let ppn = Ppn::new(0);
/// array.program_page(ppn, SimTime::ZERO)?;
/// let read = array.read_page(ppn, SimTime::ZERO)?;
/// assert!(read.end > SimTime::ZERO);
/// # Ok::<(), iceclave_flash::FlashError>(())
/// ```
#[derive(Debug)]
pub struct FlashArray {
    config: FlashConfig,
    blocks: ChunkTable<BlockState, BLOCK_CHUNK>,
    dies: Vec<Resource>,
    channels: Vec<Resource>,
    /// Functional page content, keyed by raw PPN. Sparse on purpose:
    /// the FTL spreads allocations across every die, so PPN keys span
    /// the whole device even when only a few pages hold data — dense
    /// indexing would cost gigabytes for a 1 TiB geometry.
    data: FastMap<u64, Box<[u8]>>,
    stats: FlashStats,
    /// Deterministic fault drawer; `None` (the default) injects
    /// nothing and leaves every path bit-identical to a fault-free
    /// device.
    injector: Option<FaultInjector>,
}

impl FlashArray {
    /// Creates an erased flash array.
    pub fn new(config: FlashConfig) -> Self {
        let g = &config.geometry;
        let dies = (0..g.total_dies())
            .map(|i| Resource::new(format!("die{i}")))
            .collect();
        let channels = (0..g.channels)
            .map(|i| Resource::new(format!("channel{i}")))
            .collect();
        FlashArray {
            config,
            blocks: ChunkTable::new(BlockState::default()),
            dies,
            channels,
            data: FastMap::default(),
            stats: FlashStats::default(),
            injector: None,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &FlashConfig {
        &self.config
    }

    /// Installs a deterministic fault injector. Subsequent reads,
    /// programs and erases consume draws from it; an injector built
    /// from [`FaultPlan::none`](crate::FaultPlan::none) behaves
    /// bit-identically to having no injector at all.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Reads a page: die busy for the cell-read time, then the channel
    /// bus busy for the page transfer. Returns the bus-transfer span
    /// (`end` is when the data has reached the controller).
    ///
    /// # Errors
    ///
    /// [`FlashError::OutOfRange`], [`FlashError::ReadUnwritten`], or an
    /// injected [`FlashError::ReadUncorrectable`].
    pub fn read_page(&mut self, ppn: Ppn, arrival: SimTime) -> Result<ServiceSpan, FlashError> {
        self.read_page_inner(ppn, arrival, true)
    }

    /// A device-internal relocation read (GC, wear leveling): the
    /// controller re-reads with the slow soft-decision retry path,
    /// modeled as always correctable, so fault injection does not
    /// apply. Timing is identical to [`FlashArray::read_page`].
    ///
    /// # Errors
    ///
    /// [`FlashError::OutOfRange`] or [`FlashError::ReadUnwritten`].
    pub fn read_page_reliable(
        &mut self,
        ppn: Ppn,
        arrival: SimTime,
    ) -> Result<ServiceSpan, FlashError> {
        self.read_page_inner(ppn, arrival, false)
    }

    fn read_page_inner(
        &mut self,
        ppn: Ppn,
        arrival: SimTime,
        inject: bool,
    ) -> Result<ServiceSpan, FlashError> {
        let addr = self.checked_addr(ppn)?;
        let block_idx = self.config.geometry.block_index(addr.block_addr());
        if addr.page >= self.blocks.get(block_idx).frontier {
            return Err(FlashError::ReadUnwritten(ppn));
        }
        let fault = match (inject, self.injector.as_mut()) {
            (true, Some(inj)) => inj.read_outcome(),
            _ => ReadFault::None,
        };
        let die_idx = self
            .config
            .geometry
            .die_index(addr.channel, addr.chip, addr.die) as usize;
        let cell = self.dies[die_idx].acquire(arrival, self.config.timing.read);
        let xfer = self.channels[addr.channel as usize]
            .acquire(cell.end, self.config.page_transfer_time());
        self.stats.reads += 1;
        // A failed read occupies the die and the bus like a good one
        // (the burst is only detected after the transfer decodes), but
        // delivers no data: it counts no latency sample.
        if let ReadFault::Uncorrectable(raw_errors) = fault {
            self.stats.read_faults += 1;
            return Err(FlashError::ReadUncorrectable { ppn, raw_errors });
        }
        if let ReadFault::Corrected(_) = fault {
            self.stats.corrected_bursts += 1;
        }
        self.stats
            .read_latency_ns
            .record(xfer.latency_since(arrival).as_nanos());
        Ok(ServiceSpan {
            start: cell.start,
            end: xfer.end,
        })
    }

    /// Programs a page: channel bus transfers the data to the die
    /// register, then the die is busy for the program time.
    ///
    /// NAND constraint: within a block, pages must be programmed in
    /// order, and a page cannot be reprogrammed before its block is
    /// erased.
    ///
    /// # Errors
    ///
    /// [`FlashError::OutOfRange`], [`FlashError::ProgramOutOfOrder`],
    /// or an injected [`FlashError::ProgramFailed`].
    pub fn program_page(&mut self, ppn: Ppn, arrival: SimTime) -> Result<ServiceSpan, FlashError> {
        let addr = self.checked_addr(ppn)?;
        let block_idx = self.config.geometry.block_index(addr.block_addr());
        let frontier = self.blocks.get(block_idx).frontier;
        if addr.page != frontier {
            return Err(FlashError::ProgramOutOfOrder {
                ppn,
                expected_page: frontier,
            });
        }
        let failed = self
            .injector
            .as_mut()
            .is_some_and(FaultInjector::program_fails);
        let die_idx = self
            .config
            .geometry
            .die_index(addr.channel, addr.chip, addr.die) as usize;
        let xfer =
            self.channels[addr.channel as usize].acquire(arrival, self.config.page_transfer_time());
        let prog = self.dies[die_idx].acquire(xfer.end, PROGRAM);
        // A failed program occupies the bus and the die for the full
        // attempt, but the frontier does not advance: the page stays
        // unwritten and the FTL re-steers it to another block.
        if failed {
            self.stats.program_faults += 1;
            return Err(FlashError::ProgramFailed(ppn));
        }
        self.blocks.get_mut(block_idx).frontier = frontier + 1;
        self.stats.programs += 1;
        Ok(ServiceSpan {
            start: xfer.start,
            end: prog.end,
        })
    }

    /// Erases a block: the die is busy for the erase time; all pages in
    /// the block revert to free and any stored content is dropped.
    ///
    /// # Errors
    ///
    /// An injected [`FlashError::EraseFailed`]: the die was busy for
    /// the full erase attempt but the block state (frontier, content,
    /// wear count) is unchanged — the FTL retires the block.
    pub fn erase_block(
        &mut self,
        block: BlockAddr,
        arrival: SimTime,
    ) -> Result<ServiceSpan, FlashError> {
        let g = self.config.geometry;
        let block_idx = g.block_index(block);
        let die_idx = g.die_index(block.channel, block.chip, block.die) as usize;
        let failed = self
            .injector
            .as_mut()
            .is_some_and(FaultInjector::erase_fails);
        let span = self.dies[die_idx].acquire(arrival, ERASE);
        if failed {
            self.stats.erase_faults += 1;
            return Err(FlashError::EraseFailed(block));
        }
        let first_ppn = g.pack(block.page(0)).raw();
        for page in 0..u64::from(g.pages_per_block) {
            self.data.remove(&(first_ppn + page));
        }
        let state = self.blocks.get_mut(block_idx);
        state.frontier = 0;
        state.erase_count += 1;
        self.stats.erases += 1;
        Ok(span)
    }

    /// Stores functional content for a page (used by the cipher/TEE
    /// layers; timing is unaffected). Typically paired with
    /// [`FlashArray::program_page`].
    pub fn write_data(&mut self, ppn: Ppn, data: &[u8]) {
        self.data.insert(ppn.raw(), data.into());
    }

    /// Functional content of a page, if any was stored.
    #[inline]
    pub fn read_data(&self, ppn: Ppn) -> Option<&[u8]> {
        self.data.get(&ppn.raw()).map(|b| &b[..])
    }

    /// True if `ppn`'s page has been programmed since its block was last
    /// erased.
    pub fn is_written(&self, ppn: Ppn) -> bool {
        let addr = self.config.geometry.unpack(ppn);
        let block_idx = self.config.geometry.block_index(addr.block_addr());
        addr.page < self.blocks.get(block_idx).frontier
    }

    /// Next page index to be programmed in `block`.
    pub fn frontier(&self, block: BlockAddr) -> u32 {
        self.blocks
            .get(self.config.geometry.block_index(block))
            .frontier
    }

    /// Lifetime erase count of `block`.
    pub fn erase_count(&self, block: BlockAddr) -> u32 {
        self.blocks
            .get(self.config.geometry.block_index(block))
            .erase_count
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    /// Earliest time `channel`'s bus is free (used by schedulers).
    pub fn channel_next_free(&self, channel: u32) -> SimTime {
        self.channels[channel as usize].next_free()
    }

    /// Per-channel bus resources (read-only view for utilization
    /// reports).
    pub fn channels(&self) -> &[Resource] {
        &self.channels
    }

    /// Per-die resources (read-only view).
    pub fn dies(&self) -> &[Resource] {
        &self.dies
    }

    fn checked_addr(&self, ppn: Ppn) -> Result<crate::FlashAddr, FlashError> {
        if ppn.raw() >= self.config.geometry.total_pages() {
            return Err(FlashError::OutOfRange(ppn));
        }
        Ok(self.config.geometry.unpack(ppn))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use iceclave_types::SimDuration;

    fn tiny() -> FlashArray {
        FlashArray::new(FlashConfig::tiny())
    }

    #[test]
    fn read_requires_programmed_page() {
        let mut a = tiny();
        let ppn = Ppn::new(0);
        assert_eq!(
            a.read_page(ppn, SimTime::ZERO),
            Err(FlashError::ReadUnwritten(ppn))
        );
        a.program_page(ppn, SimTime::ZERO).unwrap();
        assert!(a.read_page(ppn, SimTime::ZERO).is_ok());
    }

    #[test]
    fn program_must_be_sequential_within_block() {
        let mut a = tiny();
        // Page 1 of block 0 cannot be programmed before page 0.
        assert!(matches!(
            a.program_page(Ppn::new(1), SimTime::ZERO),
            Err(FlashError::ProgramOutOfOrder {
                expected_page: 0,
                ..
            })
        ));
        a.program_page(Ppn::new(0), SimTime::ZERO).unwrap();
        a.program_page(Ppn::new(1), SimTime::ZERO).unwrap();
        // Reprogramming page 0 without an erase is also out of order.
        assert!(a.program_page(Ppn::new(0), SimTime::ZERO).is_err());
    }

    #[test]
    fn programs_on_different_channels_overlap() {
        let mut a = tiny();
        let g = a.config().geometry;
        let ch1 = g.pack(crate::FlashAddr {
            channel: 1,
            chip: 0,
            die: 0,
            plane: 0,
            block: 0,
            page: 0,
        });
        let first = a.program_page(Ppn::new(0), SimTime::ZERO).unwrap();
        let second = a.program_page(ch1, SimTime::ZERO).unwrap();
        // Separate channel buses: both transfers start at time zero.
        assert_eq!(first.start, second.start);
    }

    #[test]
    fn erase_resets_block_and_counts_wear() {
        let mut a = tiny();
        let ppn = Ppn::new(0);
        a.program_page(ppn, SimTime::ZERO).unwrap();
        a.write_data(ppn, b"hello");
        let block = a.config().geometry.unpack(ppn).block_addr();
        assert_eq!(a.erase_count(block), 0);
        a.erase_block(block, SimTime::ZERO).unwrap();
        assert_eq!(a.erase_count(block), 1);
        assert_eq!(a.frontier(block), 0);
        assert!(a.read_data(ppn).is_none());
        assert!(!a.is_written(ppn));
        // After the erase the block programs from page 0 again.
        a.program_page(ppn, SimTime::ZERO).unwrap();
    }

    #[test]
    fn read_timing_includes_cell_and_transfer() {
        let mut a = tiny();
        a.program_page(Ppn::new(0), SimTime::ZERO).unwrap();
        let span = a.read_page(Ppn::new(0), SimTime::ZERO).unwrap();
        let expected = SimDuration::from_micros(50) + a.config().page_transfer_time();
        assert_eq!(span.end.saturating_since(span.start), expected);
    }

    #[test]
    fn reads_on_same_die_serialize() {
        let mut a = tiny();
        a.program_page(Ppn::new(0), SimTime::ZERO).unwrap();
        let g = a.config().geometry;
        // Page 0 and page 1 of block 0 share a die.
        a.program_page(Ppn::new(1), SimTime::ZERO).unwrap();
        let r0 = a.read_page(Ppn::new(0), SimTime::ZERO).unwrap();
        let r1 = a.read_page(Ppn::new(1), SimTime::ZERO).unwrap();
        assert!(r1.end > r0.end);
        assert_eq!(g.unpack(Ppn::new(0)).block_addr().block, 0);
    }

    #[test]
    fn reads_on_different_channels_overlap() {
        let mut a = tiny();
        let g = a.config().geometry;
        // First page of a block on channel 0 and on channel 1.
        let ch0 = Ppn::new(0);
        let ch1_addr = crate::FlashAddr {
            channel: 1,
            chip: 0,
            die: 0,
            plane: 0,
            block: 0,
            page: 0,
        };
        let ch1 = g.pack(ch1_addr);
        a.program_page(ch0, SimTime::ZERO).unwrap();
        a.program_page(ch1, SimTime::ZERO).unwrap();
        let r0 = a.read_page(ch0, SimTime::ZERO).unwrap();
        let r1 = a.read_page(ch1, SimTime::ZERO).unwrap();
        // Both start their cell reads at time zero on separate dies.
        assert_eq!(r0.start, r1.start);
    }

    #[test]
    fn stats_accumulate() {
        let mut a = tiny();
        a.program_page(Ppn::new(0), SimTime::ZERO).unwrap();
        a.read_page(Ppn::new(0), SimTime::ZERO).unwrap();
        a.read_page(Ppn::new(0), SimTime::ZERO).unwrap();
        let s = a.stats();
        assert_eq!(s.programs, 1);
        assert_eq!(s.reads, 2);
        assert_eq!(s.read_latency_ns.count(), 2);
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut a = tiny();
        let bad = Ppn::new(a.config().geometry.total_pages());
        assert_eq!(
            a.read_page(bad, SimTime::ZERO),
            Err(FlashError::OutOfRange(bad))
        );
        assert_eq!(
            a.program_page(bad, SimTime::ZERO),
            Err(FlashError::OutOfRange(bad))
        );
    }

    #[test]
    fn functional_data_round_trip() {
        let mut a = tiny();
        let ppn = Ppn::new(3);
        assert!(a.read_data(ppn).is_none());
        a.write_data(ppn, &[1, 2, 3]);
        assert_eq!(a.read_data(ppn), Some(&[1u8, 2, 3][..]));
    }

    #[test]
    fn injected_uncorrectable_read_fails_without_losing_the_page() {
        let mut a = tiny();
        a.set_fault_injector(crate::FaultInjector::new(FaultPlan {
            read_fail_ops: vec![0],
            ecc_t: 8,
            ..FaultPlan::none()
        }));
        let ppn = Ppn::new(0);
        a.program_page(ppn, SimTime::ZERO).unwrap();
        a.write_data(ppn, b"payload");
        assert!(matches!(
            a.read_page(ppn, SimTime::ZERO),
            Err(FlashError::ReadUncorrectable { raw_errors: 9, .. })
        ));
        assert_eq!(a.stats().read_faults, 1);
        // The next read (a retry) succeeds; content was never touched.
        assert!(a.read_page(ppn, SimTime::ZERO).is_ok());
        assert_eq!(a.read_data(ppn), Some(&b"payload"[..]));
        // Failed reads occupy the die/bus but record no latency sample.
        assert_eq!(a.stats().reads, 2);
        assert_eq!(a.stats().read_latency_ns.count(), 1);
    }

    #[test]
    fn reliable_reads_bypass_injection() {
        let mut a = tiny();
        a.set_fault_injector(crate::FaultInjector::new(FaultPlan {
            read_fail_ops: vec![0, 1, 2, 3],
            ecc_t: 8,
            ..FaultPlan::none()
        }));
        let ppn = Ppn::new(0);
        a.program_page(ppn, SimTime::ZERO).unwrap();
        // GC relocation reads never consume fault draws.
        assert!(a.read_page_reliable(ppn, SimTime::ZERO).is_ok());
        assert!(a.read_page(ppn, SimTime::ZERO).is_err());
    }

    #[test]
    fn injected_program_fail_leaves_frontier_unmoved() {
        let mut a = tiny();
        a.set_fault_injector(crate::FaultInjector::new(FaultPlan {
            program_fail_ops: vec![1],
            ..FaultPlan::none()
        }));
        a.program_page(Ppn::new(0), SimTime::ZERO).unwrap();
        let failing = Ppn::new(1);
        assert_eq!(
            a.program_page(failing, SimTime::ZERO),
            Err(FlashError::ProgramFailed(failing))
        );
        let block = a.config().geometry.unpack(failing).block_addr();
        assert_eq!(a.frontier(block), 1, "failed program must not advance");
        assert_eq!(a.stats().program_faults, 1);
        assert_eq!(a.stats().programs, 1);
        // A healthy block would accept the page again (the FTL instead
        // re-steers to a different block and retires this one).
        assert!(a.program_page(failing, SimTime::ZERO).is_ok());
    }

    #[test]
    fn injected_erase_fail_preserves_block_state() {
        let mut a = tiny();
        a.set_fault_injector(crate::FaultInjector::new(FaultPlan {
            erase_fail_ops: vec![0],
            ..FaultPlan::none()
        }));
        let ppn = Ppn::new(0);
        a.program_page(ppn, SimTime::ZERO).unwrap();
        a.write_data(ppn, b"kept");
        let block = a.config().geometry.unpack(ppn).block_addr();
        assert_eq!(
            a.erase_block(block, SimTime::ZERO),
            Err(FlashError::EraseFailed(block))
        );
        assert_eq!(a.frontier(block), 1, "failed erase leaves the frontier");
        assert_eq!(a.read_data(ppn), Some(&b"kept"[..]));
        assert_eq!(a.erase_count(block), 0);
        assert_eq!(a.stats().erase_faults, 1);
        assert_eq!(a.stats().erases, 0);
    }

    #[test]
    fn empty_plan_matches_no_injector() {
        let mut plain = tiny();
        let mut planned = tiny();
        planned.set_fault_injector(crate::FaultInjector::new(FaultPlan::none()));
        for p in 0..4 {
            let a = plain.program_page(Ppn::new(p), SimTime::ZERO).unwrap();
            let b = planned.program_page(Ppn::new(p), SimTime::ZERO).unwrap();
            assert_eq!(a, b);
        }
        for p in 0..4 {
            let a = plain.read_page(Ppn::new(p), SimTime::ZERO).unwrap();
            let b = planned.read_page(Ppn::new(p), SimTime::ZERO).unwrap();
            assert_eq!(a, b);
        }
        let block = plain.config().geometry.unpack(Ppn::new(0)).block_addr();
        assert_eq!(
            plain.erase_block(block, SimTime::ZERO).unwrap(),
            planned.erase_block(block, SimTime::ZERO).unwrap()
        );
    }
}
