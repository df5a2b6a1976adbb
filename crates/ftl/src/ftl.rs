//! The FTL façade: translation, permission-checked I/O, garbage
//! collection and wear leveling.

use std::error::Error;
use std::fmt;

use iceclave_flash::{
    BlockAddr, FaultInjector, FaultPlan, FlashArray, FlashConfig, FlashError, FlashGeometry,
    JournalRecord, MetadataJournal, ReplaySummary,
};
use iceclave_sim::ServiceSpan;
use iceclave_trustzone::{World, WorldMonitor};
use iceclave_types::{
    ByteSize, DenseTable, FastMap, FastSet, Lpn, Ppn, SimDuration, SimTime, TeeId,
    WriteBatchRequest,
};

use crate::cmt::CachedMappingTable;
use crate::mapping::MappingTable;

/// Latency of reading a mapping entry from the protected region (one
/// SSD-DRAM access).
const CMT_HIT_LATENCY: SimDuration = SimDuration::from_nanos(100);

/// In the secure-world ablation, one service call translates a whole
/// I/O request (consecutive pages share the call): the request size in
/// pages. In-storage programs issue multi-page extents, so the switch
/// amortizes over this many pages.
const SECURE_TRANSLATION_BATCH: u64 = 64;

/// Per-plane free-block low-water mark that triggers GC.
const GC_FREE_BLOCK_THRESHOLD: u32 = 2;

/// FTL configuration knobs. The CMT hit latency, the secure-world
/// translation granule and the GC free-block threshold are constants of
/// this module.
#[derive(Copy, Clone, Debug)]
pub struct FtlConfig {
    /// Protected-region budget for the cached mapping table (16 MiB by
    /// default, the paper's preallocated region size of §4.5).
    pub cmt_capacity: ByteSize,
    /// Figure 5 ablation: place the mapping table in the secure world so
    /// translations pay world switches.
    pub mapping_in_secure_world: bool,
    /// Erase-count spread that triggers static wear leveling.
    pub wear_delta_threshold: u32,
    /// Flash blocks reserved for the write-ahead metadata journal,
    /// spread across planes from the top of each plane's block range.
    /// `0` (the default) disables journaling entirely: no blocks are
    /// reserved, no journal traffic is generated, and the device is
    /// byte-identical to a journal-less build. Crash recovery requires
    /// a non-zero value.
    pub journal_blocks: u32,
}

impl Default for FtlConfig {
    fn default() -> Self {
        FtlConfig {
            cmt_capacity: ByteSize::from_mib(16),
            mapping_in_secure_world: false,
            wear_delta_threshold: 16,
            journal_blocks: 0,
        }
    }
}

/// Who is asking the FTL to act. Permission checks differ: the host
/// owns its data path (guarded by the host OS); a TEE must match the
/// mapping entry's ID bits (§4.3).
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Requestor {
    /// The host block-I/O path.
    Host,
    /// An in-storage TEE.
    Tee(TeeId),
}

impl Requestor {
    /// The TEE a page this requestor writes first belongs to.
    fn tee(self) -> Option<TeeId> {
        match self {
            Requestor::Host => None,
            Requestor::Tee(tee) => Some(tee),
        }
    }
}

/// A successful address translation.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct Translation {
    /// The physical page.
    pub ppn: Ppn,
    /// When the translated address is available to the requester.
    pub ready_at: SimTime,
    /// Whether the cached mapping table had the entry.
    pub cmt_hit: bool,
}

/// One page of a completed batch write: where it landed and when its
/// program finished.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct BatchPageWrite {
    /// The logical page.
    pub lpn: Lpn,
    /// The fresh physical page it was programmed to. Garbage
    /// collection later in the same batch may already have moved it;
    /// [`Ftl::current_ppn`] says where it lives.
    pub ppn: Ppn,
    /// The flash service span; `flash.end` is when the program pulse
    /// completed on the die.
    pub flash: ServiceSpan,
}

/// The FTL-level result of a batch write.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct WriteBatchOutcome {
    /// Per-page outcomes, in request order.
    pub pages: Vec<BatchPageWrite>,
    /// When the batch's single secure-world visit ended: all programs
    /// done and every coalesced dirty translation page persisted.
    pub finished: SimTime,
}

/// What [`Ftl::recover`] rebuilt from the metadata journal.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct FtlRecovery {
    /// Journal records that replayed cleanly.
    pub records_replayed: u64,
    /// Records discarded as the torn tail (checksum or sequence
    /// rejection).
    pub torn_records: u64,
    /// Journal pages read during replay.
    pub pages_read: u64,
    /// True when the journal ends in a clean-shutdown seal: the crash
    /// lost nothing (the previous boot flushed everything and said
    /// goodbye).
    pub clean_shutdown: bool,
    /// The highest counter epoch sealed in the journal.
    pub max_epoch: u64,
    /// True when a sealed epoch *regressed* in journal order — the
    /// signature of a rolled-back journal image. The caller must
    /// treat the device as compromised.
    pub epoch_regressed: bool,
    /// Logical pages whose mappings were rebuilt.
    pub mapped_pages: u64,
    /// The sealed cipher IVs `(lpn, iv_base, iv_ppa)` (last seal per
    /// page), sorted by LPN. The runtime layer rebuilds its IV table
    /// from these.
    pub ivs: Vec<(u64, u64, u32)>,
    /// When the journal replay's last flash read completed.
    pub end_time: SimTime,
}

/// FTL-level errors.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum FtlError {
    /// The underlying flash operation failed (an FTL bug if it ever
    /// escapes).
    Flash(FlashError),
    /// The requesting TEE does not own the logical page (§4.3 ID-bit
    /// check).
    AccessDenied {
        /// The page that was asked for.
        lpn: Lpn,
        /// The requesting TEE.
        tee: TeeId,
    },
    /// The logical page has never been written.
    Unmapped(Lpn),
    /// No free blocks remain even after garbage collection.
    CapacityExhausted,
    /// The reserved metadata-journal region is full: no further
    /// metadata mutation can be made durable.
    JournalExhausted,
}

impl fmt::Display for FtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtlError::Flash(e) => write!(f, "flash error: {e}"),
            FtlError::AccessDenied { lpn, tee } => {
                write!(f, "{tee} denied access to {lpn} by ID-bit check")
            }
            FtlError::Unmapped(lpn) => write!(f, "{lpn} is unmapped"),
            FtlError::CapacityExhausted => f.write_str("no free flash blocks remain"),
            FtlError::JournalExhausted => f.write_str("the metadata-journal region is full"),
        }
    }
}

impl Error for FtlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FtlError::Flash(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlashError> for FtlError {
    fn from(e: FlashError) -> Self {
        FtlError::Flash(e)
    }
}

/// Aggregate FTL statistics.
#[derive(Clone, Debug, Default)]
pub struct FtlStats {
    /// Address translations served.
    pub translations: u64,
    /// Translations that missed the cached mapping table (forced a
    /// world switch and a flash read of a translation page).
    pub translation_misses: u64,
    /// Garbage-collection passes.
    pub gc_runs: u64,
    /// Valid pages relocated by GC.
    pub gc_pages_moved: u64,
    /// Static wear-leveling migrations.
    pub wl_migrations: u64,
    /// Logical reads served.
    pub reads: u64,
    /// Logical writes served.
    pub writes: u64,
    /// Accesses denied by the ID-bit check.
    pub access_denied: u64,
    /// Pages re-steered to another block after a program failure.
    pub program_remaps: u64,
    /// Blocks retired into the grown-bad-block table at runtime
    /// (program-failure and erase-failure retirements; the factory
    /// born-bad list does not count here).
    pub blocks_retired: u64,
}

/// What a physical page currently holds (for GC relocation and mapping
/// maintenance).
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
enum PageContent {
    Data(Lpn),
    Translation(u64),
}

impl PageContent {
    /// The tag bit of a translation page in [`PageContent::encode`]'s
    /// word.
    const TRANSLATION: u64 = 1 << 63;

    /// Packs the content into one word: the LPN, or the translation
    /// page number with the top bit set. Neither can reach
    /// [`BlockInfo::DEAD`].
    fn encode(self) -> u64 {
        let word = match self {
            PageContent::Data(lpn) => {
                debug_assert!(lpn.raw() < Self::TRANSLATION);
                lpn.raw()
            }
            PageContent::Translation(tvpn) => tvpn | Self::TRANSLATION,
        };
        debug_assert_ne!(word, BlockInfo::DEAD);
        word
    }

    fn decode(word: u64) -> Self {
        if word & Self::TRANSLATION == 0 {
            PageContent::Data(Lpn::new(word))
        } else {
            PageContent::Translation(word & !Self::TRANSLATION)
        }
    }
}

/// A programmed block's record: what each of its valid pages holds.
#[derive(Clone, Debug, Default)]
struct BlockInfo {
    /// One word per page up to the highest page recorded: the page's
    /// encoded [`PageContent`] while it is valid, [`BlockInfo::DEAD`]
    /// once invalidated (or never committed). Pages are programmed in
    /// order, so this grows with the block's program frontier.
    pages: Vec<u64>,
    /// Pages not [`BlockInfo::DEAD`].
    valid_count: u32,
}

impl BlockInfo {
    /// The word of a page that holds nothing live.
    const DEAD: u64 = u64::MAX;

    fn set(&mut self, page: u32, content: PageContent) {
        let page = page as usize;
        if page >= self.pages.len() {
            self.pages.resize(page + 1, Self::DEAD);
        }
        if self.pages[page] == Self::DEAD {
            self.valid_count += 1;
        }
        self.pages[page] = content.encode();
    }

    fn clear(&mut self, page: u32) {
        if let Some(word) = self.pages.get_mut(page as usize) {
            if *word != Self::DEAD {
                *word = Self::DEAD;
                self.valid_count -= 1;
            }
        }
    }

    /// The valid pages and what each holds, in page order.
    fn valid(&self) -> impl Iterator<Item = (u32, PageContent)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter(|&(_, &word)| word != Self::DEAD)
            .map(|(page, &word)| (page as u32, PageContent::decode(word)))
    }
}

#[derive(Clone, Debug, Default)]
struct PlaneState {
    open_block: Option<u32>,
    next_fresh: u32,
    free_blocks: Vec<u32>,
    full_blocks: Vec<u32>,
    /// Grown/born-bad blocks still inside the fresh range
    /// `next_fresh..blocks_per_plane` — subtracted from the free count
    /// and skipped (decrementing this) when the fresh cursor passes
    /// them, so `free_block_count` stays O(1).
    retired_fresh: u32,
}

/// The flash translation layer.
///
/// Owns the [`FlashArray`] (the FTL *is* the flash manager) and runs
/// conceptually in the secure world; callers pass their
/// [`WorldMonitor`] so world-switch costs land on their timeline.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct Ftl {
    config: FtlConfig,
    flash: FlashArray,
    mapping: MappingTable,
    cmt: CachedMappingTable,
    planes: Vec<PlaneState>,
    /// The records of blocks holding programmed pages (what each valid
    /// page holds), keyed by flat block index. Sparse: flat indexes are
    /// plane-major and the allocator steers the first batch across
    /// every plane.
    blocks: FastMap<u64, BlockInfo>,
    /// Where each translation page was last persisted, by
    /// translation-page number (`lpn / ENTRIES_PER_TRANSLATION_PAGE`;
    /// LPNs are staged from zero, so the numbers are dense).
    translation_ppns: DenseTable<Ppn>,
    /// The channel of the next single-page placement ([`Ftl::write`],
    /// a translation write-back): channel-first round-robin, so
    /// consecutive single writes stripe across every channel bus.
    write_cursor: usize,
    /// Per-channel plane cursors: whichever way a page picks its
    /// channel, these spread the channel's programs over its planes.
    channel_cursors: Vec<usize>,
    /// Last request granule translated via a secure-world call (the
    /// Figure 5 ablation amortizes one call per granule).
    last_secure_granule: Option<u64>,
    /// The grown-bad-block table: flat block indexes (see
    /// [`FlashGeometry::block_index`](iceclave_flash::FlashGeometry::block_index))
    /// permanently retired from allocation — factory born-bad blocks
    /// plus blocks whose program or erase reported status FAIL.
    grown_bad: FastSet<u64>,
    /// Flat block indexes reserved for the metadata journal — excluded
    /// from allocation but *not* grown-bad (they are healthy blocks in
    /// controller service). Tracked separately so
    /// [`Ftl::grown_bad_blocks`] reports only real retirements.
    journal_reserved: FastSet<u64>,
    /// The write-ahead metadata journal (`None` when
    /// [`FtlConfig::journal_blocks`] is zero).
    journal: Option<MetadataJournal>,
    stats: FtlStats,
}

impl Ftl {
    /// Creates an FTL over a fresh flash array. When
    /// [`FtlConfig::journal_blocks`] is non-zero, that many blocks are
    /// reserved for the metadata journal (spread across planes from
    /// the top of each plane's block range) and withdrawn from
    /// allocation.
    pub fn new(flash_config: FlashConfig, config: FtlConfig) -> Self {
        let flash = FlashArray::new(flash_config);
        let planes = vec![PlaneState::default(); flash_config.geometry.total_planes() as usize];
        let mut ftl = Ftl {
            config,
            flash,
            mapping: MappingTable::new(),
            cmt: CachedMappingTable::new(config.cmt_capacity),
            planes,
            blocks: FastMap::default(),
            translation_ppns: DenseTable::new(),
            write_cursor: 0,
            channel_cursors: vec![0; flash_config.geometry.channels as usize],
            last_secure_granule: None,
            grown_bad: FastSet::default(),
            journal_reserved: FastSet::default(),
            journal: None,
            stats: FtlStats::default(),
        };
        ftl.reserve_journal_region();
        ftl
    }

    /// The reserved journal block addresses, in append order: block
    /// `i` lands in plane `i % planes` at block
    /// `blocks_per_plane - 1 - i / planes`, so the reservation spreads
    /// the journal's program traffic over every plane (flat block
    /// indexes are plane-major — taking the last N flat indexes would
    /// pile the whole journal onto the last plane).
    fn journal_block_addrs(&self) -> Vec<BlockAddr> {
        let g = self.flash.config().geometry;
        let planes = self.planes.len() as u32;
        assert!(
            self.config.journal_blocks / planes < g.blocks_per_plane,
            "journal_blocks exceeds the device's block budget"
        );
        (0..self.config.journal_blocks)
            .map(|i| {
                let plane_idx = (i % planes) as usize;
                let block = g.blocks_per_plane - 1 - i / planes;
                self.plane_block_addr(plane_idx, block)
            })
            .collect()
    }

    /// Reserves the journal region and constructs the journal.
    fn reserve_journal_region(&mut self) {
        if self.config.journal_blocks == 0 {
            return;
        }
        let g = self.flash.config().geometry;
        let blocks = self.journal_block_addrs();
        for &addr in &blocks {
            self.journal_reserved.insert(g.block_index(addr));
            // Reserved blocks sit in the fresh range; count them out of
            // the free-block accounting exactly like retired blocks.
            let plane_idx = self.plane_index_of(addr);
            self.planes[plane_idx].retired_fresh += 1;
        }
        self.journal = Some(MetadataJournal::new(blocks, &self.flash));
    }

    /// True when a metadata journal is configured.
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// The metadata journal, if configured (replay/traffic statistics).
    pub fn journal(&self) -> Option<&MetadataJournal> {
        self.journal.as_ref()
    }

    /// Buffers `record` in the metadata journal (no-op when journaling
    /// is disabled). Used by the runtime layer for record kinds the
    /// FTL does not own (cipher IV seals, MEE epoch seals, the
    /// clean-shutdown seal); the FTL appends its own mapping,
    /// translation-persist and retirement records internally.
    pub fn journal_append(&mut self, record: JournalRecord) {
        if let Some(j) = self.journal.as_mut() {
            j.append(record);
        }
    }

    /// Makes every buffered journal record durable (no-op returning
    /// `now` when journaling is disabled). Callers sync at durability
    /// points: an acknowledged write batch, a CMT flush, shutdown.
    ///
    /// # Errors
    ///
    /// [`FtlError::JournalExhausted`] when the reserved region is
    /// full, or [`FtlError::Flash`] for addressing errors.
    pub fn journal_sync(&mut self, now: SimTime) -> Result<SimTime, FtlError> {
        let Some(journal) = self.journal.as_mut() else {
            return Ok(now);
        };
        journal.sync(&mut self.flash, now).map_err(|e| match e {
            FlashError::ProgramFailed(_) => FtlError::JournalExhausted,
            other => FtlError::Flash(other),
        })
    }

    /// Reboots the FTL after a power loss: discards **every** volatile
    /// table (mapping, CMT, block/validity bookkeeping, grown-bad
    /// table, allocation cursors), replays the metadata journal from
    /// flash, and rebuilds the device state the journal proves —
    /// last-wins per logical page, retirements re-applied, allocation
    /// lists re-derived from the physical program frontiers.
    ///
    /// Only flash-durable bytes survive into the rebuilt state; the
    /// CMT comes back cold. A device without a journal
    /// ([`FtlConfig::journal_blocks`] zero) rebuilds *empty* — no
    /// metadata was ever durable.
    ///
    /// The returned [`FtlRecovery`] carries the replay summary,
    /// including the highest sealed counter epoch and whether any seal
    /// regressed; the caller decides what a regression means (the
    /// runtime layer aborts with an integrity error).
    ///
    /// # Errors
    ///
    /// [`FtlError::Flash`] on journal addressing errors (an internal
    /// invariant violation).
    pub fn recover(&mut self, now: SimTime) -> Result<FtlRecovery, FtlError> {
        let g = self.flash.config().geometry;
        // Phase 1: discard every volatile table before anything is
        // rebuilt, so the pre-crash tables never share the heap with
        // the replay. (Cumulative lifetime stats survive — they model
        // controller wear counters, which real devices keep in their
        // own durable store.)
        self.mapping = MappingTable::new();
        self.cmt = CachedMappingTable::new(self.config.cmt_capacity);
        self.blocks = FastMap::default();
        self.translation_ppns = DenseTable::new();
        self.write_cursor = 0;
        self.channel_cursors = vec![0; g.channels as usize];
        self.last_secure_granule = None;
        self.grown_bad = FastSet::default();

        // Phase 2: replay the journal through the real read path,
        // folding each record straight into the fresh tables
        // (last-wins per key, in journal order).
        let mut ivs: FastMap<u64, (u64, u32)> = FastMap::default();
        let mut max_epoch = 0u64;
        let mut epoch_regressed = false;
        let mut apply = |record| match record {
            JournalRecord::MapUpdate { lpn, ppn } => {
                self.mapping.update(Lpn::new(lpn), Ppn::new(ppn));
            }
            JournalRecord::MapRemove { lpn } => {
                self.mapping.remove(Lpn::new(lpn));
            }
            JournalRecord::TransPersist { tvpn, ppn } => {
                self.translation_ppns.insert(tvpn, Ppn::new(ppn));
            }
            JournalRecord::Retire { block } => {
                self.grown_bad.insert(block);
            }
            JournalRecord::IvSeal {
                lpn,
                iv_base,
                iv_ppa,
            } => {
                ivs.insert(lpn, (iv_base, iv_ppa));
            }
            JournalRecord::EpochSeal { epoch } | JournalRecord::CleanShutdown { epoch } => {
                if epoch < max_epoch {
                    epoch_regressed = true;
                }
                max_epoch = max_epoch.max(epoch);
            }
        };
        let summary = match self.journal.as_mut() {
            Some(j) => j
                .replay(&mut self.flash, now, &mut apply)
                .map_err(FtlError::Flash)?,
            None => ReplaySummary {
                end_time: now,
                ..ReplaySummary::default()
            },
        };

        // Phase 3: re-derive plane allocation state from the physical
        // program frontiers. The fresh cursor goes one past the last
        // block ever programmed or erased (journal blocks, written but
        // never allocated, aside), so untouched blocks stay behind it
        // as on a new device, the reserved and empty retired ones among
        // them counted out as `reserve_journal_region` and
        // `retire_block` count them. Only the blocks below the cursor
        // are classified.
        for plane_idx in 0..self.planes.len() {
            let mut plane = PlaneState {
                next_fresh: g.blocks_per_plane,
                ..PlaneState::default()
            };
            while plane.next_fresh > 0 {
                let addr = self.plane_block_addr(plane_idx, plane.next_fresh - 1);
                let flat = g.block_index(addr);
                if self.journal_reserved.contains(&flat) {
                    plane.retired_fresh += 1;
                } else if self.flash.frontier(addr) > 0 || self.flash.erase_count(addr) > 0 {
                    break;
                } else if self.grown_bad.contains(&flat) {
                    plane.retired_fresh += 1;
                }
                plane.next_fresh -= 1;
            }
            for b in 0..plane.next_fresh {
                let addr = self.plane_block_addr(plane_idx, b);
                let flat = g.block_index(addr);
                if self.journal_reserved.contains(&flat) {
                    continue;
                }
                let frontier = self.flash.frontier(addr);
                if self.grown_bad.contains(&flat) {
                    // A retired block with surviving programs goes to
                    // the full list so GC can drain its valid pages;
                    // an empty one leaves service entirely.
                    if frontier > 0 {
                        plane.full_blocks.push(b);
                    }
                } else if frontier == 0 {
                    plane.free_blocks.push(b);
                } else if frontier < g.pages_per_block && plane.open_block.is_none() {
                    plane.open_block = Some(b);
                } else {
                    plane.full_blocks.push(b);
                }
            }
            self.planes[plane_idx] = plane;
        }

        // Phase 4: validity follows from the final tables — everything
        // else in a programmed block is dead and GC will reclaim it. A
        // journal record can only name a programmed page (the record
        // is appended after the program and synced after that), but
        // never trust a torn world: drop anything the frontier
        // disproves.
        let flash = &self.flash;
        let programmed = |ppn: Ppn| {
            let addr = g.unpack(ppn);
            let ok = addr.page < flash.frontier(addr.block_addr());
            debug_assert!(ok, "journal named an unprogrammed page {ppn:?}");
            ok
        };
        let mut unprogrammed = Vec::new();
        for (lpn, ppn) in self.mapping.iter() {
            if programmed(ppn) {
                mark_valid(&mut self.blocks, g, ppn, PageContent::Data(lpn));
            } else {
                unprogrammed.push(lpn);
            }
        }
        self.translation_ppns.retain(|tvpn, &ppn| {
            let keep = programmed(ppn);
            if keep {
                mark_valid(&mut self.blocks, g, ppn, PageContent::Translation(tvpn));
            }
            keep
        });
        for lpn in unprogrammed {
            self.mapping.remove(lpn);
        }
        let mapped_pages = self.mapping.len() as u64;

        let mut iv_list: Vec<(u64, u64, u32)> = ivs
            .into_iter()
            .map(|(lpn, (base, ppa))| (lpn, base, ppa))
            .collect();
        iv_list.sort_unstable();
        Ok(FtlRecovery {
            records_replayed: summary.records_replayed,
            torn_records: summary.torn_records,
            pages_read: summary.pages_read,
            clean_shutdown: summary.clean_shutdown,
            max_epoch,
            epoch_regressed,
            mapped_pages,
            ivs: iv_list,
            end_time: summary.end_time,
        })
    }

    /// Installs a deterministic fault plan on the underlying flash
    /// array and seeds the grown-bad-block table with the plan's
    /// factory born-bad list.
    ///
    /// Install before first use for full born-bad semantics: blocks
    /// already holding data keep it readable but accept no further
    /// programs.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        let injector = FaultInjector::new(plan);
        let g = self.flash.config().geometry;
        for idx in injector.born_bad_blocks(g.total_blocks()) {
            self.retire_block(g.block_from_index(idx), false);
        }
        self.flash.set_fault_injector(injector);
    }

    /// The grown-bad-block table as sorted flat block indexes: factory
    /// born-bad blocks plus runtime retirements.
    pub fn grown_bad_blocks(&self) -> Vec<u64> {
        let mut blocks: Vec<u64> = self.grown_bad.iter().copied().collect();
        blocks.sort_unstable();
        blocks
    }

    /// The FTL configuration.
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// The flash device (for stats and functional page data).
    pub fn flash(&self) -> &FlashArray {
        &self.flash
    }

    /// Mutable flash access (for storing functional page content next to
    /// timing operations).
    pub fn flash_mut(&mut self) -> &mut FlashArray {
        &mut self.flash
    }

    /// The cached mapping table (for miss-rate reports).
    pub fn cmt(&self) -> &CachedMappingTable {
        &self.cmt
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &FtlStats {
        &self.stats
    }

    /// Sets the ID bits of the mapping entries for `lpns` to `tee`
    /// (Table 2's `SetIDBits`, called at TEE creation).
    ///
    /// # Errors
    ///
    /// [`FtlError::Unmapped`] if any page has never been written; earlier
    /// pages in the slice stay granted.
    pub fn set_id_bits(&mut self, lpns: &[Lpn], tee: TeeId) -> Result<(), FtlError> {
        for &lpn in lpns {
            if !self.mapping.set_owner(lpn, tee) {
                return Err(FtlError::Unmapped(lpn));
            }
        }
        Ok(())
    }

    /// Clears ownership of `lpns` back to unowned (TEE teardown).
    pub fn clear_id_bits(&mut self, lpns: &[Lpn]) {
        for &lpn in lpns {
            let _ = self.mapping.set_owner(lpn, TeeId::UNOWNED);
        }
    }

    /// Translates `lpn` for `requestor`, enforcing the ID-bit check and
    /// billing CMT/world-switch costs on `monitor`.
    ///
    /// # Errors
    ///
    /// [`FtlError::Unmapped`] or [`FtlError::AccessDenied`].
    pub fn translate(
        &mut self,
        requestor: Requestor,
        lpn: Lpn,
        monitor: &mut WorldMonitor,
        now: SimTime,
    ) -> Result<Translation, FtlError> {
        let entry = self.mapping.lookup(lpn).ok_or(FtlError::Unmapped(lpn))?;
        if let Requestor::Tee(tee) = requestor {
            if entry.owner() != tee {
                self.stats.access_denied += 1;
                return Err(FtlError::AccessDenied { lpn, tee });
            }
        }
        self.stats.translations += 1;

        // A miss pauses the TEE while the secure world loads the missing
        // translation page from flash and refreshes the protected region
        // (§4.6 step 4-5).
        let look = self.cmt.lookup(lpn);
        let penalty = if look.hit {
            SimDuration::ZERO
        } else {
            self.stats.translation_misses += 1;
            self.translation_miss_penalty(lpn, look.evicted_dirty, now)
        };
        let crosses = if self.config.mapping_in_secure_world {
            // Figure 5 ablation: the table lives in the secure world.
            // One service call translates a whole request granule;
            // consecutive hits in the same granule reuse the copied
            // entries without another switch.
            let granule = lpn.raw() / SECURE_TRANSLATION_BATCH;
            let same_request = self.last_secure_granule.replace(granule) == Some(granule);
            !(same_request && look.hit)
        } else {
            // A hit is a normal-world read of the protected region.
            !look.hit
        };
        let ready_at = if crosses {
            monitor.call_into(World::Secure, now, |t| t + CMT_HIT_LATENCY + penalty)
        } else {
            now + CMT_HIT_LATENCY
        };
        Ok(Translation {
            ppn: entry.ppn(),
            ready_at,
            cmt_hit: look.hit,
        })
    }

    /// Translates (and permission-checks) a whole batch of logical
    /// pages up front, so the event-driven executor can run the atomic
    /// access check at submission and schedule the flash stage per
    /// page.
    ///
    /// A batch is atomic with respect to access control: if any page is
    /// denied or unmapped, the error names the offending page and *no*
    /// page counts as read. CMT hits are normal-world reads of the
    /// protected region and pipeline with each other; misses serialize
    /// through the secure world exactly as in the single-page path.
    ///
    /// Callers account the logical reads themselves once their flash
    /// phase is issued ([`Ftl::record_logical_reads`]).
    ///
    /// # Errors
    ///
    /// [`FtlError::AccessDenied`] or [`FtlError::Unmapped`].
    pub fn translate_batch(
        &mut self,
        requestor: Requestor,
        lpns: &[Lpn],
        monitor: &mut WorldMonitor,
        now: SimTime,
    ) -> Result<Vec<Translation>, FtlError> {
        let mut translations = Vec::with_capacity(lpns.len());
        for &lpn in lpns {
            let translation = self.translate(requestor, lpn, monitor, now)?;
            translations.push(translation);
        }
        Ok(translations)
    }

    /// Accounts `n` logical reads served — the event-driven executor
    /// calls it at submission (its flash stages run later, page by
    /// page).
    pub fn record_logical_reads(&mut self, n: u64) {
        self.stats.reads += n;
    }

    /// The current physical location of `lpn`, if mapped — **not** a
    /// translation (no permission check, no CMT traffic, no billing).
    /// The executor uses it to refresh a read ticket's submission-time
    /// snapshot right before the flash stage: garbage collection
    /// triggered by a concurrent ticket may have relocated the page,
    /// and the device always reads wherever the page currently lives.
    pub fn current_ppn(&self, lpn: Lpn) -> Option<Ppn> {
        self.mapping.lookup(lpn).map(|entry| entry.ppn())
    }

    /// Writes logical page `lpn` out-of-place: programs a fresh page,
    /// updates the mapping (dirtying the CMT) and invalidates the old
    /// page. Mapping updates happen in the secure world (§4.2), so the
    /// monitor is billed for the switch.
    ///
    /// # Errors
    ///
    /// [`FtlError::AccessDenied`] for a TEE writing pages it does not
    /// own, or [`FtlError::CapacityExhausted`].
    pub fn write(
        &mut self,
        requestor: Requestor,
        lpn: Lpn,
        monitor: &mut WorldMonitor,
        now: SimTime,
    ) -> Result<SimTime, FtlError> {
        self.check_write_access(requestor, [lpn])?;
        let start = monitor.switch_to(World::Secure, now);
        let mut evicted = Vec::new();
        let t = self.write_single(lpn, requestor.tee(), start, &mut evicted)?;
        let t = self.write_back(evicted, t)?;
        self.stats.writes += 1;
        Ok(monitor.switch_to(World::Normal, t))
    }

    /// Writes a [`WriteBatchRequest`] of logical pages as one
    /// channel-parallel program request.
    ///
    /// All pages are ownership-checked up front — a batch is atomic
    /// with respect to access control: if any page belongs to another
    /// TEE, *no* allocation or flash traffic happens and the error
    /// names the offending page. The batch then enters the secure
    /// world **once** (against two switches per page on the
    /// [`Ftl::write`] path) and:
    ///
    /// 1. every page is steered, in request order, to the channel that
    ///    would accept it earliest (GC-aware allocation: a plane whose
    ///    garbage collection fires mid-batch stalls only its own
    ///    channel's later programs, and the steering naturally routes
    ///    subsequent pages away from the stalled channel);
    /// 2. each page is programmed as soon as it is placed, in request
    ///    order; programs on different channels overlap on the
    ///    channel-bus and die timelines ([`FlashArray::program_page`]);
    /// 3. mapping updates dirty the CMT with *coalesced* write-back:
    ///    each dirty translation page evicted during the batch is
    ///    persisted once at the end instead of once per page.
    ///
    /// Returns one [`BatchPageWrite`] per request (request order) and
    /// the time the secure world was exited.
    ///
    /// # Errors
    ///
    /// [`FtlError::AccessDenied`] (atomic, before any traffic) or
    /// [`FtlError::CapacityExhausted`].
    pub fn write_batch(
        &mut self,
        requestor: Requestor,
        batch: &WriteBatchRequest,
        monitor: &mut WorldMonitor,
        now: SimTime,
    ) -> Result<WriteBatchOutcome, FtlError> {
        if batch.is_empty() {
            return Ok(WriteBatchOutcome {
                pages: Vec::new(),
                finished: now,
            });
        }
        // Phase 1: ownership checks before any allocation or flash
        // traffic (all-or-nothing, §4.3).
        self.check_write_access(requestor, batch.requests.iter().map(|r| r.lpn))?;

        // Phase 2: one secure-world entry amortized over the batch.
        let start = monitor.switch_to(World::Secure, now);
        let mut evicted: Vec<u64> = Vec::new();
        let programmed = self.write_steered(
            batch
                .requests
                .iter()
                .map(|r| (PageContent::Data(r.lpn), r.ready)),
            start,
            requestor.tee(),
            &mut evicted,
        )?;

        // Phase 3: coalesced write-back — each dirty translation page
        // evicted during the batch persists once, at the end.
        let mut t = start;
        let mut pages = Vec::with_capacity(batch.len());
        for (req, &(ppn, span)) in batch.requests.iter().zip(&programmed) {
            t = t.max(span.end);
            pages.push(BatchPageWrite {
                lpn: req.lpn,
                ppn,
                flash: span,
            });
        }
        let t = self.write_back(evicted, t)?;
        self.stats.writes += batch.len() as u64;
        let finished = monitor.switch_to(World::Normal, t);
        Ok(WriteBatchOutcome { pages, finished })
    }

    /// Ownership-checks a whole prospective write batch without
    /// touching the device — phase 1 of [`Ftl::write_batch`], exposed
    /// so the event-driven executor can run the atomic access check at
    /// submission and defer the program phase until the outbound
    /// ciphertext exists.
    ///
    /// A mapped page owned by another TEE denies the whole batch
    /// (all-or-nothing, §4.3); unmapped pages pass (a fresh write
    /// claims them).
    ///
    /// # Errors
    ///
    /// [`FtlError::AccessDenied`], naming the first offending page.
    pub fn check_write_access(
        &mut self,
        requestor: Requestor,
        lpns: impl IntoIterator<Item = Lpn>,
    ) -> Result<(), FtlError> {
        if let Requestor::Tee(tee) = requestor {
            for lpn in lpns {
                if let Some(entry) = self.mapping.lookup(lpn) {
                    if entry.owner() != tee {
                        self.stats.access_denied += 1;
                        return Err(FtlError::AccessDenied { lpn, tee });
                    }
                }
            }
        }
        Ok(())
    }

    /// TRIM: `requestor` declares `lpn` dead. The mapping entry is
    /// dropped and the physical page invalidated, so GC can reclaim it
    /// without copying. The host may trim any page; a TEE only pages
    /// its ID bits grant (§4.3 — TRIM is as destructive as a write, so
    /// it takes the same ownership check).
    ///
    /// Updating the mapping entry dirties its translation page in the
    /// CMT; a dirty page that update evicts is written back from `now`.
    /// Returns `None` when `lpn` was not mapped, else when the
    /// write-back ended (`now` when nothing was evicted).
    ///
    /// # Errors
    ///
    /// [`FtlError::AccessDenied`] when a TEE trims a page it does not
    /// own, or [`FtlError::CapacityExhausted`] from the write-back.
    pub fn trim(
        &mut self,
        requestor: Requestor,
        lpn: Lpn,
        now: SimTime,
    ) -> Result<Option<SimTime>, FtlError> {
        if let (Requestor::Tee(tee), Some(entry)) = (requestor, self.mapping.lookup(lpn)) {
            if entry.owner() != tee {
                self.stats.access_denied += 1;
                return Err(FtlError::AccessDenied { lpn, tee });
            }
        }
        let Some(ppn) = self.mapping.remove(lpn) else {
            return Ok(None);
        };
        self.invalidate(ppn);
        // The removal record becomes durable at the next sync point —
        // until then a crash may resurrect the trimmed page, which
        // matches TRIM's advisory semantics.
        self.journal_note(JournalRecord::MapRemove { lpn: lpn.raw() });
        let evicted = self.cmt.update(lpn).evicted_dirty;
        self.write_back(evicted, now).map(Some)
    }

    /// Flushes dirty translation pages to flash (shutdown / teardown).
    ///
    /// The dirty set is persisted as one channel-steered program batch
    /// (see [`Ftl::write_batch`]), so shutdown latency shrinks as the
    /// device grows channels instead of paying a serial
    /// allocate-program loop.
    pub fn flush_cmt(&mut self, now: SimTime) -> Result<SimTime, FtlError> {
        let dirty = self.cmt.flush();
        if dirty.is_empty() {
            return Ok(now);
        }
        // Translation programs leave the CMT alone, but the relocations
        // of a GC pass they trigger may evict dirty pages.
        let mut evicted = Vec::new();
        let programmed = self.write_steered(
            dirty
                .iter()
                .map(|&tvpn| (PageContent::Translation(tvpn), now)),
            now,
            None,
            &mut evicted,
        )?;
        let end = programmed
            .iter()
            .map(|&(_, span)| span.end)
            .fold(now, SimTime::max);
        let end = self.write_back(evicted, end)?;
        // A CMT flush is a durability point: every persisted
        // translation page's record goes to flash with it.
        self.journal_sync(end)
    }

    /// Total valid data pages (consistency checks and tests).
    pub fn valid_pages(&self) -> u64 {
        self.blocks.values().map(|b| u64::from(b.valid_count)).sum()
    }

    /// Erase-count spread across blocks that have been erased at least
    /// once (wear-leveling health metric).
    pub fn wear_spread(&self) -> u32 {
        let g = self.flash.config().geometry;
        let mut min = u32::MAX;
        let mut max = 0;
        for &idx in self.blocks.keys() {
            let count = self.flash.erase_count(g.block_from_index(idx));
            min = min.min(count);
            max = max.max(count);
        }
        if min == u32::MAX {
            0
        } else {
            max - min
        }
    }

    // ---- internals -----------------------------------------------------

    /// Buffers `record` when journaling is enabled (internal mutation
    /// sites).
    fn journal_note(&mut self, record: JournalRecord) {
        if let Some(j) = self.journal.as_mut() {
            j.append(record);
        }
    }

    /// The flash cost of a CMT miss: write back the dirty translation
    /// page it evicted, then read the stored translation page (if one
    /// was ever persisted).
    fn translation_miss_penalty(
        &mut self,
        lpn: Lpn,
        evicted_dirty: Option<u64>,
        now: SimTime,
    ) -> SimDuration {
        let mut t = self.write_back(evicted_dirty, now).unwrap_or(now);
        let tvpn = CachedMappingTable::translation_page_of(lpn);
        if let Some(ppn) = self.translation_ppns.get(tvpn).copied() {
            if let Ok(span) = self.flash.read_page_reliable(ppn, t) {
                t = span.end;
            }
        }
        t.saturating_since(now)
    }

    /// Writes back the dirty translation pages `evicted`, in order,
    /// from `now`; returns when the last program ended. A write-back
    /// never garbage-collects: the relocations of a GC pass update the
    /// CMT and could evict yet more dirty pages. Each page goes to the
    /// single-page cursor's next channel and that channel's next plane
    /// with space; the GC low-water mark keeps blocks in reserve for
    /// exactly this.
    fn write_back(
        &mut self,
        evicted: impl IntoIterator<Item = u64>,
        now: SimTime,
    ) -> Result<SimTime, FtlError> {
        let mut t = now;
        for tvpn in evicted {
            let (ppn, span) = self.program_next_plane(t)?;
            let more = self.commit_fresh(PageContent::Translation(tvpn), ppn, None);
            debug_assert_eq!(more, None, "translation commits leave the CMT alone");
            t = span.end;
        }
        Ok(t)
    }

    /// Programs a fresh page at `at` on the single-page cursor's next
    /// channel and plane, without garbage collection, passing over
    /// planes with no space left.
    fn program_next_plane(&mut self, at: SimTime) -> Result<(Ppn, ServiceSpan), FtlError> {
        // Channel-first round-robin with per-channel plane cursors
        // visits every plane once in this many steps.
        for _ in 0..self.planes.len() {
            let channel = self.write_cursor;
            self.write_cursor = (channel + 1) % self.channel_cursors.len();
            let plane = self.advance_plane_cursor(channel);
            match self.program_in_plane(plane, at) {
                Err(FtlError::CapacityExhausted) => continue,
                programmed => return programmed,
            }
        }
        Err(FtlError::CapacityExhausted)
    }

    /// Programs `lpn` to a fresh page on the channel the single-page
    /// cursor names, advancing the cursor, and commits it
    /// ([`Ftl::commit_fresh`]). Returns when the program ended; the
    /// dirty translation pages that the commit and any GC pass evicted
    /// are queued on `evicted` for the caller's write-back.
    fn write_single(
        &mut self,
        lpn: Lpn,
        owner: Option<TeeId>,
        now: SimTime,
        evicted: &mut Vec<u64>,
    ) -> Result<SimTime, FtlError> {
        let channel = self.write_cursor;
        self.write_cursor = (channel + 1) % self.channel_cursors.len();
        let (plane, gc_done) = self.next_plane(channel, now, evicted)?;
        let (ppn, span) = self.program_in_plane(plane, gc_done)?;
        queue_write_back(
            evicted,
            self.commit_fresh(PageContent::Data(lpn), ppn, owner),
        );
        Ok(span.end)
    }

    /// Programs one fresh page per `(content, ready)` entry in a single
    /// pass, in request order, and commits each
    /// ([`Ftl::commit_fresh`]) right after its program, so a later
    /// placement's garbage collection sees it valid. Returns
    /// `(ppn, program span)` per entry, in input order; the dirty
    /// translation pages that the commits and GC passes evicted are
    /// queued (deduplicated) on `evicted` for the caller's coalesced
    /// write-back.
    ///
    /// Each page goes to the channel with the smallest score
    /// `horizon + placed * transfer`: the channel's admit horizon (its
    /// bus backlog at batch entry, raised by any GC stall during the
    /// batch) plus the bus time of the pages already placed on it,
    /// ties to the lowest channel. Each score is updated in place when
    /// either part changes. On an idle device this degenerates to
    /// balanced round-robin; a mid-batch GC pass raises only its own
    /// channel's horizon, so later pages route around the stalled
    /// channel. A channel with no space left is skipped, so the batch
    /// only fails when the whole device is full.
    fn write_steered(
        &mut self,
        pages: impl IntoIterator<Item = (PageContent, SimTime)>,
        start: SimTime,
        owner: Option<TeeId>,
        evicted: &mut Vec<u64>,
    ) -> Result<Vec<(Ppn, ServiceSpan)>, FtlError> {
        let channels = self.channel_cursors.len();
        let planes_per_channel = self.planes.len() / channels;
        let transfer = self.flash.config().page_transfer_time();
        let mut horizon: Vec<SimTime> = (0..channels)
            .map(|c| start.max(self.flash.channel_next_free(c as u32)))
            .collect();
        let mut placed = vec![0u64; channels];
        let mut score = horizon.clone();
        // Full planes met in a row per channel: once every plane of a
        // channel was full, the channel has no space left.
        let mut full = vec![0usize; channels];
        let pages = pages.into_iter();
        let mut programmed = Vec::with_capacity(pages.size_hint().0);
        for (content, ready) in pages {
            let (ppn, span) = loop {
                let ch = (0..channels)
                    .filter(|&c| full[c] < planes_per_channel)
                    .min_by_key(|&c| score[c])
                    .ok_or(FtlError::CapacityExhausted)?;
                let attempt =
                    self.next_plane(ch, horizon[ch], evicted)
                        .and_then(|(plane, gc_done)| {
                            if gc_done > horizon[ch] {
                                horizon[ch] = gc_done;
                                score[ch] = gc_done + transfer * placed[ch];
                            }
                            self.program_in_plane(plane, horizon[ch].max(ready))
                        });
                match attempt {
                    Ok(done) => {
                        placed[ch] += 1;
                        score[ch] += transfer;
                        full[ch] = 0;
                        break done;
                    }
                    // The channel's cursor moved on, so a retry on this
                    // channel probes its next plane.
                    Err(FtlError::CapacityExhausted) => full[ch] += 1,
                    Err(e) => return Err(e),
                }
            };
            queue_write_back(evicted, self.commit_fresh(content, ppn, owner));
            programmed.push((ppn, span));
        }
        Ok(programmed)
    }

    /// Takes `channel`'s next plane ([`Ftl::advance_plane_cursor`])
    /// and garbage-collects it first when it is low on free blocks
    /// (queuing the dirty translation pages the collection
    /// evicts on `evicted`). Returns the plane and when its collection
    /// ended (`now` when none ran).
    fn next_plane(
        &mut self,
        channel: usize,
        now: SimTime,
        evicted: &mut Vec<u64>,
    ) -> Result<(usize, SimTime), FtlError> {
        let plane = self.advance_plane_cursor(channel);
        if self.free_block_count(plane) < GC_FREE_BLOCK_THRESHOLD {
            return Ok((plane, self.collect_plane(plane, now, evicted)?));
        }
        Ok((plane, now))
    }

    /// Takes `channel`'s next plane, advancing the channel's plane
    /// cursor.
    fn advance_plane_cursor(&mut self, channel: usize) -> usize {
        let planes_per_channel = self.planes.len() / self.channel_cursors.len();
        let cursor = self.channel_cursors[channel];
        self.channel_cursors[channel] = (cursor + 1) % planes_per_channel;
        channel * planes_per_channel + cursor
    }

    /// Programs one fresh page of `plane` at `at`: into the plane's
    /// open block, or its least-worn free block once the open block is
    /// full. A status-FAIL program retires its block and retries in the
    /// plane's next block; this terminates because every failure
    /// retires one block for good.
    fn program_in_plane(
        &mut self,
        plane: usize,
        at: SimTime,
    ) -> Result<(Ppn, ServiceSpan), FtlError> {
        let g = self.flash.config().geometry;
        loop {
            let open = self.planes[plane]
                .open_block
                .map(|b| self.plane_block_addr(plane, b));
            let addr = match open {
                Some(addr) if self.flash.frontier(addr) < g.pages_per_block => addr,
                _ => {
                    if let Some(prev) = self.planes[plane].open_block.take() {
                        self.planes[plane].full_blocks.push(prev);
                    }
                    let next = self
                        .take_free_block(plane)
                        .ok_or(FtlError::CapacityExhausted)?;
                    self.planes[plane].open_block = Some(next);
                    self.plane_block_addr(plane, next)
                }
            };
            let ppn = g.pack(addr.page(self.flash.frontier(addr)));
            match self.flash.program_page(ppn, at) {
                Ok(span) => return Ok((ppn, span)),
                Err(FlashError::ProgramFailed(_)) => {
                    self.stats.program_remaps += 1;
                    self.retire_block(addr, true);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Points `content` at `ppn`, the page it was just programmed to:
    /// the mapping entry (dirtying the CMT) or the translation page's
    /// location, the valid bits and the journal record; the page it
    /// replaces is invalidated. A first-written data page goes to
    /// `owner`. Returns the dirty translation page the CMT update
    /// evicted, if any.
    fn commit_fresh(
        &mut self,
        content: PageContent,
        ppn: Ppn,
        owner: Option<TeeId>,
    ) -> Option<u64> {
        let (old, evicted) = match content {
            PageContent::Data(lpn) => {
                let old = self.mapping.update(lpn, ppn);
                if let (Some(tee), None) = (owner, old) {
                    // A fresh page written by a TEE belongs to that TEE.
                    let _ = self.mapping.set_owner(lpn, tee);
                }
                self.journal_note(JournalRecord::MapUpdate {
                    lpn: lpn.raw(),
                    ppn: ppn.raw(),
                });
                (old, self.cmt.update(lpn).evicted_dirty)
            }
            PageContent::Translation(tvpn) => {
                self.journal_note(JournalRecord::TransPersist {
                    tvpn,
                    ppn: ppn.raw(),
                });
                (self.translation_ppns.insert(tvpn, ppn), None)
            }
        };
        mark_valid(&mut self.blocks, self.flash.config().geometry, ppn, content);
        if let Some(old) = old {
            self.invalidate(old);
        }
        evicted
    }

    /// Pops the least-worn free block of a plane, falling back to a
    /// never-used block.
    fn take_free_block(&mut self, plane_idx: usize) -> Option<u32> {
        let g = self.flash.config().geometry;
        // Prefer recycled blocks with the lowest erase count (dynamic
        // wear leveling).
        let plane = &self.planes[plane_idx];
        if !plane.free_blocks.is_empty() {
            let best = plane
                .free_blocks
                .iter()
                .enumerate()
                .min_by_key(|(_, &b)| self.flash.erase_count(self.plane_block_addr(plane_idx, b)))
                .map(|(i, _)| i)
                .expect("non-empty free list");
            return Some(self.planes[plane_idx].free_blocks.swap_remove(best));
        }
        while self.planes[plane_idx].next_fresh < g.blocks_per_plane {
            let b = self.planes[plane_idx].next_fresh;
            self.planes[plane_idx].next_fresh += 1;
            // A born/grown-bad or journal-reserved block inside the
            // fresh range is skipped here (and leaves the retired-fresh
            // count as the cursor passes it).
            let flat = g.block_index(self.plane_block_addr(plane_idx, b));
            if self.grown_bad.contains(&flat) || self.journal_reserved.contains(&flat) {
                self.planes[plane_idx].retired_fresh -= 1;
                continue;
            }
            return Some(b);
        }
        None
    }

    fn free_block_count(&self, plane_idx: usize) -> u32 {
        let g = self.flash.config().geometry;
        let plane = &self.planes[plane_idx];
        plane.free_blocks.len() as u32 + (g.blocks_per_plane - plane.next_fresh)
            - plane.retired_fresh
    }

    /// Greedy garbage collection of one plane: pick the full block with
    /// the fewest valid pages, relocate them, erase it. The dirty
    /// translation pages the relocations evict from the CMT are queued
    /// on `evicted` for the caller that triggered the collection.
    fn collect_plane(
        &mut self,
        plane_idx: usize,
        now: SimTime,
        evicted: &mut Vec<u64>,
    ) -> Result<SimTime, FtlError> {
        let g = self.flash.config().geometry;
        let victim_pos = {
            let plane = &self.planes[plane_idx];
            // A retired block parked in the full list is pure drain
            // work: relocate its valid pages and drop it, however many
            // it holds (it can never re-enter service).
            let retired_pos = plane.full_blocks.iter().position(|&b| {
                self.grown_bad
                    .contains(&g.block_index(self.plane_block_addr(plane_idx, b)))
            });
            // Fewest valid pages first; ties go to the block listed
            // first.
            let pos = retired_pos.or_else(|| {
                plane
                    .full_blocks
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &b)| {
                        let idx = g.block_index(self.plane_block_addr(plane_idx, b));
                        self.blocks.get(&idx).map_or(0, |i| i.valid_count)
                    })
                    .map(|(i, _)| i)
            });
            match pos {
                Some(p) => p,
                None => return Ok(now),
            }
        };
        let victim = self.planes[plane_idx].full_blocks.swap_remove(victim_pos);
        let victim_addr = self.plane_block_addr(plane_idx, victim);
        let victim_idx = g.block_index(victim_addr);
        self.stats.gc_runs += 1;

        let mut t = now;
        for (page, content) in self.live_pages(victim_idx) {
            let old_ppn = g.pack(victim_addr.page(page));
            // Relocate: read, program to a free block in the same plane
            // (never triggering nested GC).
            let read = self.flash.read_page_reliable(old_ppn, t)?;
            let (new_ppn, prog) = self.program_in_plane(plane_idx, read.end)?;
            t = prog.end;
            queue_write_back(evicted, self.relocate(old_ppn, new_ppn, content));
            self.stats.gc_pages_moved += 1;
        }
        self.blocks.remove(&victim_idx);
        if self.grown_bad.contains(&victim_idx) {
            // A retired victim is drained, never erased: it leaves the
            // plane's lists for good.
        } else {
            // The relocation records (and anything else pending) must
            // be durable *before* the erase: a crash between an
            // unsynced move and the erase would leave the journal's
            // last word pointing into the erased block.
            t = self.journal_sync(t)?;
            match self.flash.erase_block(victim_addr, t) {
                Ok(span) => {
                    self.planes[plane_idx].free_blocks.push(victim);
                    t = span.end;
                }
                Err(FlashError::EraseFailed(_)) => {
                    // Status FAIL on erase: the block is worn out.
                    // Retire it instead of returning it to service (its
                    // valid pages were just relocated, so nothing is
                    // lost).
                    self.retire_block(victim_addr, true);
                }
                Err(e) => return Err(e.into()),
            }
        }
        t = self.maybe_static_wear_level(plane_idx, t, evicted)?;
        Ok(t)
    }

    /// Static wear leveling: when the erase-count spread within a plane
    /// exceeds the threshold, migrate the *coldest* full block's data
    /// into the *hottest* free block so the hot block stops cycling.
    fn maybe_static_wear_level(
        &mut self,
        plane_idx: usize,
        now: SimTime,
        evicted: &mut Vec<u64>,
    ) -> Result<SimTime, FtlError> {
        let g = self.flash.config().geometry;
        let plane = &self.planes[plane_idx];
        if plane.free_blocks.is_empty() || plane.full_blocks.is_empty() {
            return Ok(now);
        }
        let hottest_free_pos = plane
            .free_blocks
            .iter()
            .enumerate()
            .max_by_key(|(_, &b)| self.flash.erase_count(self.plane_block_addr(plane_idx, b)))
            .map(|(i, _)| i)
            .expect("non-empty");
        let coldest_full_pos = plane
            .full_blocks
            .iter()
            .enumerate()
            .min_by_key(|(_, &b)| self.flash.erase_count(self.plane_block_addr(plane_idx, b)))
            .map(|(i, _)| i)
            .expect("non-empty");
        let hot = plane.free_blocks[hottest_free_pos];
        let cold = plane.full_blocks[coldest_full_pos];
        let hot_wear = self
            .flash
            .erase_count(self.plane_block_addr(plane_idx, hot));
        let cold_wear = self
            .flash
            .erase_count(self.plane_block_addr(plane_idx, cold));
        if hot_wear.saturating_sub(cold_wear) < self.config.wear_delta_threshold {
            return Ok(now);
        }

        // Move cold data into the hot block.
        self.planes[plane_idx]
            .free_blocks
            .swap_remove(hottest_free_pos);
        let pos = self.planes[plane_idx]
            .full_blocks
            .iter()
            .position(|&b| b == cold)
            .expect("cold block is full");
        self.planes[plane_idx].full_blocks.swap_remove(pos);

        let cold_addr = self.plane_block_addr(plane_idx, cold);
        let hot_addr = self.plane_block_addr(plane_idx, hot);
        let cold_idx = g.block_index(cold_addr);
        let mut t = now;
        for (page, content) in self.live_pages(cold_idx) {
            let old_ppn = g.pack(cold_addr.page(page));
            let read = self.flash.read_page_reliable(old_ppn, t)?;
            let dest_page = self.flash.frontier(hot_addr);
            if dest_page >= g.pages_per_block {
                break;
            }
            let new_ppn = g.pack(hot_addr.page(dest_page));
            let prog = match self.flash.program_page(new_ppn, read.end) {
                Ok(prog) => prog,
                Err(FlashError::ProgramFailed(_)) => {
                    // The hot block failed mid-migration: retire it and
                    // abandon the migration. Pages already moved are
                    // valid in the hot block; the rest stay valid in
                    // the cold block, which goes back to the full list
                    // un-erased.
                    self.stats.program_remaps += 1;
                    self.retire_block(hot_addr, true);
                    self.planes[plane_idx].full_blocks.push(hot);
                    self.planes[plane_idx].full_blocks.push(cold);
                    return Ok(t);
                }
                Err(e) => return Err(e.into()),
            };
            t = prog.end;
            queue_write_back(evicted, self.relocate(old_ppn, new_ppn, content));
        }
        self.blocks.remove(&cold_idx);
        self.planes[plane_idx].full_blocks.push(hot);
        self.stats.wl_migrations += 1;
        // Migration records must be durable before the source erase
        // (same rule as the GC path).
        t = self.journal_sync(t)?;
        match self.flash.erase_block(cold_addr, t) {
            Ok(span) => {
                self.planes[plane_idx].free_blocks.push(cold);
                Ok(span.end)
            }
            Err(FlashError::EraseFailed(_)) => {
                // The cold block failed its erase mid-migration: retire
                // it (its data already moved into the hot block).
                self.retire_block(cold_addr, true);
                Ok(t)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// The valid pages of block `idx` and what each holds, in page
    /// order: the relocation list of a GC or wear-leveling pass.
    fn live_pages(&self, idx: u64) -> Vec<(u32, PageContent)> {
        self.blocks
            .get(&idx)
            .map(|info| info.valid().collect())
            .unwrap_or_default()
    }

    /// Moves a programmed page's bookkeeping from `old` to `new` after
    /// a relocation program (GC or static wear leveling): the stored
    /// bytes, the block records, and the mapping entry (updating the
    /// CMT) or translation-page location, journaled. Returns the dirty
    /// translation page the CMT update evicted, if any.
    fn relocate(&mut self, old: Ppn, new: Ppn, content: PageContent) -> Option<u64> {
        if let Some(data) = self.flash.read_data(old).map(<[u8]>::to_vec) {
            self.flash.write_data(new, &data);
        }
        // `old` is where `content` lives, so the commit invalidates it.
        self.commit_fresh(content, new, None)
    }

    /// Retires `addr` into the grown-bad-block table and detaches it
    /// from the owning plane's allocation lists. An open block moves to
    /// the full list so garbage collection can drain its valid pages
    /// (data already programmed stays readable; the block just accepts
    /// no further programs or erases). `runtime` retirements count in
    /// [`FtlStats::blocks_retired`]; the factory born-bad install does
    /// not.
    fn retire_block(&mut self, addr: BlockAddr, runtime: bool) {
        let g = self.flash.config().geometry;
        let flat = g.block_index(addr);
        if self.journal_reserved.contains(&flat) {
            // The journal manages its own bad blocks by skipping them;
            // a reserved block never participates in plane accounting.
            return;
        }
        if !self.grown_bad.insert(flat) {
            return;
        }
        self.journal_note(JournalRecord::Retire { block: flat });
        if runtime {
            self.stats.blocks_retired += 1;
        }
        let plane_idx = self.plane_index_of(addr);
        let plane = &mut self.planes[plane_idx];
        if addr.block >= plane.next_fresh {
            plane.retired_fresh += 1;
            return;
        }
        if plane.open_block == Some(addr.block) {
            plane.open_block = None;
            plane.full_blocks.push(addr.block);
        }
        if let Some(pos) = plane.free_blocks.iter().position(|&b| b == addr.block) {
            plane.free_blocks.swap_remove(pos);
        }
    }

    /// Inverse of [`Ftl::plane_block_addr`]: the flat plane index of a
    /// block address.
    fn plane_index_of(&self, addr: BlockAddr) -> usize {
        let g = self.flash.config().geometry;
        let chip_idx = (addr.channel * g.chips_per_channel + addr.chip) as usize;
        let die_idx = chip_idx * g.dies_per_chip as usize + addr.die as usize;
        die_idx * g.planes_per_die as usize + addr.plane as usize
    }

    fn plane_block_addr(&self, plane_idx: usize, block: u32) -> BlockAddr {
        let g = self.flash.config().geometry;
        let planes_per_die = g.planes_per_die as usize;
        let die_idx = plane_idx / planes_per_die;
        let plane = (plane_idx % planes_per_die) as u32;
        let dies_per_chip = g.dies_per_chip as usize;
        let chip_idx = die_idx / dies_per_chip;
        let die = (die_idx % dies_per_chip) as u32;
        let chips_per_channel = g.chips_per_channel as usize;
        let channel = (chip_idx / chips_per_channel) as u32;
        let chip = (chip_idx % chips_per_channel) as u32;
        BlockAddr {
            channel,
            chip,
            die,
            plane,
            block,
        }
    }

    fn invalidate(&mut self, ppn: Ppn) {
        let (block, page) = self.flash.config().geometry.block_page(ppn);
        if let Some(info) = self.blocks.get_mut(&block) {
            info.clear(page);
        }
    }
}

/// Records `content` as valid at `ppn` in its block's record. (A free
/// function so recovery can fill `blocks` while it walks the mapping
/// table.)
fn mark_valid(
    blocks: &mut FastMap<u64, BlockInfo>,
    g: FlashGeometry,
    ppn: Ppn,
    content: PageContent,
) {
    let (block, page) = g.block_page(ppn);
    blocks.entry(block).or_default().set(page, content);
}

/// Queues a dirty translation page for write-back unless it is already
/// queued.
fn queue_write_back(evicted: &mut Vec<u64>, tvpn: Option<u64>) {
    if let Some(tvpn) = tvpn {
        if !evicted.contains(&tvpn) {
            evicted.push(tvpn);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn setup() -> (Ftl, WorldMonitor) {
        (
            Ftl::new(FlashConfig::tiny(), FtlConfig::default()),
            WorldMonitor::with_table5_cost(),
        )
    }

    fn journaled_setup() -> (Ftl, WorldMonitor) {
        let config = FtlConfig {
            journal_blocks: 4,
            ..FtlConfig::default()
        };
        (
            Ftl::new(FlashConfig::tiny(), config),
            WorldMonitor::with_table5_cost(),
        )
    }

    fn tee(raw: u16) -> TeeId {
        TeeId::new(raw).unwrap()
    }

    /// A page read as the device serves it: translation, then flash.
    fn read_lpn(
        ftl: &mut Ftl,
        requestor: Requestor,
        lpn: Lpn,
        monitor: &mut WorldMonitor,
        now: SimTime,
    ) -> Result<SimTime, FtlError> {
        let translation = ftl.translate(requestor, lpn, monitor, now)?;
        let span = ftl
            .flash_mut()
            .read_page(translation.ppn, translation.ready_at)?;
        ftl.record_logical_reads(1);
        Ok(span.end)
    }

    #[test]
    fn journal_reservation_spreads_across_planes_and_shrinks_free_count() {
        let (ftl, _m) = journaled_setup();
        let journal = ftl.journal().unwrap();
        // tiny geometry has 4 planes: 4 reserved blocks land one per
        // plane, each at the top of its plane's block range.
        let planes: Vec<u32> = journal
            .blocks()
            .iter()
            .map(|b| b.channel * 2 + b.die) // 2ch x 1chip x 2die x 1plane
            .collect();
        let mut sorted = planes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "one journal block per plane: {planes:?}");
        assert!(journal.blocks().iter().all(|b| b.block == 7));
        // Reserved blocks are excluded from allocation but are NOT
        // grown-bad.
        assert!(ftl.grown_bad_blocks().is_empty());
    }

    #[test]
    fn synced_writes_survive_recovery_and_unsynced_ones_do_not() {
        let (mut ftl, mut m) = journaled_setup();
        let mut t = SimTime::ZERO;
        for i in 0..6u64 {
            t = ftl.write(Requestor::Host, Lpn::new(i), &mut m, t).unwrap();
        }
        t = ftl.journal_sync(t).unwrap();
        let synced_ppns: Vec<Ppn> = (0..6)
            .map(|i| ftl.current_ppn(Lpn::new(i)).unwrap())
            .collect();
        // Two more writes whose records never reach flash.
        for i in 6..8u64 {
            t = ftl.write(Requestor::Host, Lpn::new(i), &mut m, t).unwrap();
        }

        let recovery = ftl.recover(t).unwrap();
        assert_eq!(recovery.mapped_pages, 6);
        assert!(!recovery.clean_shutdown);
        assert!(!recovery.epoch_regressed);
        assert!(recovery.records_replayed >= 6);
        for (i, &ppn) in synced_ppns.iter().enumerate() {
            assert_eq!(ftl.current_ppn(Lpn::new(i as u64)), Some(ppn));
        }
        assert_eq!(ftl.current_ppn(Lpn::new(6)), None);
        assert_eq!(ftl.current_ppn(Lpn::new(7)), None);
        // The rebuilt device still serves reads and writes.
        let end = recovery.end_time;
        read_lpn(&mut ftl, Requestor::Host, Lpn::new(0), &mut m, end).unwrap();
        ftl.write(Requestor::Host, Lpn::new(100), &mut m, end)
            .unwrap();
    }

    #[test]
    fn recovery_clears_tee_ownership() {
        let (mut ftl, mut m) = journaled_setup();
        let t = ftl
            .write(Requestor::Host, Lpn::new(1), &mut m, SimTime::ZERO)
            .unwrap();
        ftl.set_id_bits(&[Lpn::new(1)], tee(3)).unwrap();
        let t = ftl.journal_sync(t).unwrap();
        let recovery = ftl.recover(t).unwrap();
        // Sessions die with the power; storage ownership resets: the
        // old TEE id no longer grants access, the host still reads.
        let end = recovery.end_time;
        assert!(matches!(
            ftl.translate(Requestor::Tee(tee(3)), Lpn::new(1), &mut m, end),
            Err(FtlError::AccessDenied { .. })
        ));
        read_lpn(&mut ftl, Requestor::Host, Lpn::new(1), &mut m, end).unwrap();
    }

    #[test]
    fn recovery_without_journal_rebuilds_empty() {
        let (mut ftl, mut m) = setup();
        let t = ftl
            .write(Requestor::Host, Lpn::new(5), &mut m, SimTime::ZERO)
            .unwrap();
        let recovery = ftl.recover(t).unwrap();
        assert_eq!(recovery.records_replayed, 0);
        assert_eq!(recovery.mapped_pages, 0);
        assert_eq!(ftl.current_ppn(Lpn::new(5)), None);
    }

    #[test]
    fn trim_is_durable_after_sync() {
        let (mut ftl, mut m) = journaled_setup();
        let t = ftl
            .write(Requestor::Host, Lpn::new(9), &mut m, SimTime::ZERO)
            .unwrap();
        ftl.trim(Requestor::Host, Lpn::new(9), t).unwrap();
        let t = ftl.journal_sync(t).unwrap();
        let recovery = ftl.recover(t).unwrap();
        assert_eq!(recovery.mapped_pages, 0);
        assert_eq!(ftl.current_ppn(Lpn::new(9)), None);
    }

    #[test]
    fn write_then_read_round_trips() {
        let (mut ftl, mut m) = setup();
        let t = ftl
            .write(Requestor::Host, Lpn::new(5), &mut m, SimTime::ZERO)
            .unwrap();
        let done = read_lpn(&mut ftl, Requestor::Host, Lpn::new(5), &mut m, t).unwrap();
        assert!(done > t);
        assert_eq!(ftl.stats().writes, 1);
        assert_eq!(ftl.stats().reads, 1);
    }

    #[test]
    fn unmapped_read_errors() {
        let (mut ftl, mut m) = setup();
        assert_eq!(
            ftl.translate(Requestor::Host, Lpn::new(1), &mut m, SimTime::ZERO),
            Err(FtlError::Unmapped(Lpn::new(1)))
        );
    }

    #[test]
    fn id_bits_gate_tee_access() {
        let (mut ftl, mut m) = setup();
        ftl.write(Requestor::Host, Lpn::new(1), &mut m, SimTime::ZERO)
            .unwrap();
        // Unowned: no TEE may read it.
        let err = ftl
            .translate(Requestor::Tee(tee(1)), Lpn::new(1), &mut m, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, FtlError::AccessDenied { .. }));

        ftl.set_id_bits(&[Lpn::new(1)], tee(1)).unwrap();
        assert!(read_lpn(
            &mut ftl,
            Requestor::Tee(tee(1)),
            Lpn::new(1),
            &mut m,
            SimTime::ZERO
        )
        .is_ok());
        // A different TEE is still rejected (brute-force probe, §4.3).
        assert!(matches!(
            ftl.translate(Requestor::Tee(tee(2)), Lpn::new(1), &mut m, SimTime::ZERO),
            Err(FtlError::AccessDenied { .. })
        ));
        assert_eq!(ftl.stats().access_denied, 2);
    }

    #[test]
    fn set_id_bits_requires_mapped_pages() {
        let (mut ftl, _m) = setup();
        assert_eq!(
            ftl.set_id_bits(&[Lpn::new(9)], tee(1)),
            Err(FtlError::Unmapped(Lpn::new(9)))
        );
    }

    #[test]
    fn overwrite_invalidates_old_page() {
        let (mut ftl, mut m) = setup();
        ftl.write(Requestor::Host, Lpn::new(1), &mut m, SimTime::ZERO)
            .unwrap();
        assert_eq!(ftl.valid_pages(), 1);
        ftl.write(Requestor::Host, Lpn::new(1), &mut m, SimTime::ZERO)
            .unwrap();
        // Out-of-place: still exactly one valid page.
        assert_eq!(ftl.valid_pages(), 1);
    }

    #[test]
    fn cmt_hit_avoids_world_switch() {
        let (mut ftl, mut m) = setup();
        ftl.write(Requestor::Host, Lpn::new(1), &mut m, SimTime::ZERO)
            .unwrap();
        let switches_before = m.stats().switches;
        // The write loaded the translation page; this lookup hits.
        let tr = ftl
            .translate(Requestor::Host, Lpn::new(1), &mut m, SimTime::ZERO)
            .unwrap();
        assert!(tr.cmt_hit);
        assert_eq!(m.stats().switches, switches_before);
    }

    #[test]
    fn mapping_in_secure_world_switches_per_request() {
        let config = FtlConfig {
            mapping_in_secure_world: true,
            ..FtlConfig::default()
        };
        let mut ftl = Ftl::new(FlashConfig::tiny(), config);
        let mut m = WorldMonitor::with_table5_cost();
        // Map pages in two different 64-page request granules.
        assert_eq!(SECURE_TRANSLATION_BATCH, 64);
        ftl.write(Requestor::Host, Lpn::new(1), &mut m, SimTime::ZERO)
            .unwrap();
        ftl.write(Requestor::Host, Lpn::new(70), &mut m, SimTime::ZERO)
            .unwrap();
        let before = m.stats().switches;
        // First lookup of a granule pays the secure-world round trip.
        ftl.translate(Requestor::Host, Lpn::new(1), &mut m, SimTime::ZERO)
            .unwrap();
        assert_eq!(m.stats().switches, before + 2);
        // Another page in the same granule reuses the copied entries.
        ftl.translate(Requestor::Host, Lpn::new(2), &mut m, SimTime::ZERO)
            .ok(); // may be unmapped; the switch accounting is the point
        let same_granule_switches = m.stats().switches;
        assert_eq!(same_granule_switches, before + 2, "no extra switch");
        // A different granule pays again.
        ftl.translate(Requestor::Host, Lpn::new(70), &mut m, SimTime::ZERO)
            .unwrap();
        assert_eq!(m.stats().switches, before + 4);
    }

    #[test]
    fn gc_reclaims_space_under_overwrites() {
        let mut ftl = Ftl::new(FlashConfig::tiny(), FtlConfig::default());
        let mut m = WorldMonitor::with_table5_cost();
        // tiny: 4 planes x 8 blocks x 16 pages = 512 pages. Overwrite a
        // small working set far beyond capacity.
        let mut t = SimTime::ZERO;
        for i in 0..1500u64 {
            t = ftl
                .write(Requestor::Host, Lpn::new(i % 16), &mut m, t)
                .unwrap();
        }
        assert!(ftl.stats().gc_runs > 0, "GC must have run");
        assert_eq!(ftl.valid_pages(), 16);
    }

    #[test]
    fn gc_preserves_data_and_ownership() {
        let mut ftl = Ftl::new(FlashConfig::tiny(), FtlConfig::default());
        let mut m = WorldMonitor::with_table5_cost();
        let mut t = SimTime::ZERO;
        // A TEE-owned page with content.
        t = ftl
            .write(Requestor::Host, Lpn::new(999), &mut m, t)
            .unwrap();
        let ppn = ftl
            .translate(Requestor::Host, Lpn::new(999), &mut m, t)
            .unwrap()
            .ppn;
        ftl.flash_mut().write_data(ppn, b"precious");
        ftl.set_id_bits(&[Lpn::new(999)], tee(3)).unwrap();
        // Randomly overwrite a working set at ~60% device utilization:
        // GC victims then hold a mix of valid and invalid pages and must
        // relocate the live ones. (A cyclic pattern would always leave a
        // fully-invalid oldest block and never exercise relocation.)
        let mut lcg: u64 = 0xDEADBEEF;
        for _ in 0..3000u64 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lpn = (lcg >> 33) % 300;
            t = ftl
                .write(Requestor::Host, Lpn::new(lpn), &mut m, t)
                .unwrap();
        }
        assert!(ftl.stats().gc_pages_moved > 0);
        let tr = ftl
            .translate(Requestor::Tee(tee(3)), Lpn::new(999), &mut m, t)
            .unwrap();
        assert_eq!(ftl.flash().read_data(tr.ppn), Some(&b"precious"[..]));
    }

    #[test]
    fn wear_spread_stays_bounded() {
        let config = FtlConfig {
            wear_delta_threshold: 8,
            ..FtlConfig::default()
        };
        let mut ftl = Ftl::new(FlashConfig::tiny(), config);
        let mut m = WorldMonitor::with_table5_cost();
        let mut t = SimTime::ZERO;
        // Hammer a tiny hot set; static WL should keep the spread sane.
        for i in 0..6000u64 {
            t = ftl
                .write(Requestor::Host, Lpn::new(i % 8), &mut m, t)
                .unwrap();
        }
        assert!(
            ftl.wear_spread() <= 3 * ftl.config().wear_delta_threshold,
            "spread {} too wide",
            ftl.wear_spread()
        );
    }

    #[test]
    fn translation_miss_pays_switch_and_flash() {
        let config = FtlConfig {
            // One-page CMT: every new translation page evicts.
            cmt_capacity: ByteSize::from_bytes(4096),
            ..FtlConfig::default()
        };
        let mut ftl = Ftl::new(FlashConfig::tiny(), config);
        let mut m = WorldMonitor::with_table5_cost();
        ftl.write(Requestor::Host, Lpn::new(0), &mut m, SimTime::ZERO)
            .unwrap();
        // Touch a far-away translation page, then come back.
        ftl.write(Requestor::Host, Lpn::new(512), &mut m, SimTime::ZERO)
            .unwrap();
        let before = m.stats().switches;
        let tr = ftl
            .translate(Requestor::Host, Lpn::new(0), &mut m, SimTime::ZERO)
            .unwrap();
        assert!(!tr.cmt_hit);
        assert_eq!(m.stats().switches, before + 2);
        assert!(tr.ready_at.saturating_since(SimTime::ZERO) >= SimDuration::from_micros(7));
    }

    #[test]
    fn trim_invalidates_and_unmaps() {
        let (mut ftl, mut m) = setup();
        ftl.write(Requestor::Host, Lpn::new(3), &mut m, SimTime::ZERO)
            .unwrap();
        assert_eq!(ftl.valid_pages(), 1);
        assert!(ftl
            .trim(Requestor::Host, Lpn::new(3), SimTime::ZERO)
            .unwrap()
            .is_some());
        assert_eq!(ftl.valid_pages(), 0);
        assert_eq!(
            ftl.translate(Requestor::Host, Lpn::new(3), &mut m, SimTime::ZERO),
            Err(FtlError::Unmapped(Lpn::new(3)))
        );
        // Trimming again is a no-op.
        assert_eq!(
            ftl.trim(Requestor::Host, Lpn::new(3), SimTime::ZERO),
            Ok(None)
        );
    }

    #[test]
    fn trim_enforces_ownership() {
        // Regression: a TEE must not TRIM another TEE's (or unowned)
        // pages — TRIM destroys data just like a write would.
        let (mut ftl, mut m) = setup();
        ftl.write(Requestor::Host, Lpn::new(7), &mut m, SimTime::ZERO)
            .unwrap();
        ftl.set_id_bits(&[Lpn::new(7)], tee(1)).unwrap();
        // A foreign TEE is rejected and the page survives.
        let err = ftl
            .trim(Requestor::Tee(tee(2)), Lpn::new(7), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, FtlError::AccessDenied { lpn, .. } if lpn == Lpn::new(7)));
        assert_eq!(ftl.stats().access_denied, 1);
        assert_eq!(ftl.valid_pages(), 1);
        assert!(read_lpn(
            &mut ftl,
            Requestor::Tee(tee(1)),
            Lpn::new(7),
            &mut m,
            SimTime::ZERO
        )
        .is_ok());
        // The owner may trim its own page.
        assert!(ftl
            .trim(Requestor::Tee(tee(1)), Lpn::new(7), SimTime::ZERO)
            .unwrap()
            .is_some());
        assert_eq!(ftl.valid_pages(), 0);
        // A TEE trimming an unmapped page is a plain no-op.
        assert_eq!(
            ftl.trim(Requestor::Tee(tee(1)), Lpn::new(99), SimTime::ZERO),
            Ok(None)
        );
    }

    /// Victim choice is fewest-valid-first, and of blocks tied on valid
    /// pages the one listed first in the plane's full list goes.
    #[test]
    fn gc_victim_is_fewest_valid_first_on_ties() {
        let mut ftl = Ftl::new(FlashConfig::tiny(), FtlConfig::default());
        let mut m = WorldMonitor::with_table5_cost();
        let mut t = SimTime::ZERO;
        // Host writes stripe across the 4 planes, so plane 0 holds every
        // fourth LPN: 65 pages, 4 full blocks and one open page.
        for lpn in 0..257u64 {
            t = ftl
                .write(Requestor::Host, Lpn::new(lpn), &mut m, t)
                .unwrap();
        }
        let full = ftl.planes[0].full_blocks.clone();
        assert_eq!(full.len(), 4);
        // Leave 13, 11, 11 and 15 valid pages in those blocks.
        let g = ftl.flash().config().geometry;
        for (&block, trims) in full.iter().zip([3, 5, 5, 1]) {
            let lpns: Vec<Lpn> = (0..257u64)
                .map(Lpn::new)
                .filter(|&lpn| {
                    ftl.current_ppn(lpn).is_some_and(|ppn| {
                        let addr = g.unpack(ppn).block_addr();
                        ftl.plane_index_of(addr) == 0 && addr.block == block
                    })
                })
                .take(trims)
                .collect();
            for lpn in lpns {
                assert!(ftl.trim(Requestor::Host, lpn, t).unwrap().is_some());
            }
        }
        let valid: Vec<u32> = full
            .iter()
            .map(|&b| {
                let idx = g.block_index(ftl.plane_block_addr(0, b));
                ftl.blocks.get(&idx).map_or(0, |i| i.valid_count)
            })
            .collect();
        assert_eq!(valid, [13, 11, 11, 15]);
        ftl.collect_plane(0, t, &mut Vec::new()).unwrap();
        let plane = &ftl.planes[0];
        assert!(
            plane.free_blocks.contains(&full[1]),
            "the first block of the tied pair is the victim"
        );
        assert!(
            plane.full_blocks.contains(&full[2]),
            "the later block of the tied pair stays"
        );
    }

    #[test]
    fn greedy_gc_survives_random_churn() {
        let mut ftl = Ftl::new(FlashConfig::tiny(), FtlConfig::default());
        let mut m = WorldMonitor::with_table5_cost();
        let mut t = SimTime::ZERO;
        let mut lcg: u64 = 7;
        for _ in 0..2500u64 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lpn = (lcg >> 33) % 200;
            t = ftl
                .write(Requestor::Host, Lpn::new(lpn), &mut m, t)
                .unwrap();
        }
        assert!(ftl.stats().gc_runs > 0);
        assert_eq!(ftl.valid_pages(), 200, "GC lost pages");
    }

    #[test]
    fn batch_read_is_atomic_on_access_denial() {
        let (mut ftl, mut m) = setup();
        let mut t = SimTime::ZERO;
        for i in 0..4u64 {
            t = ftl.write(Requestor::Host, Lpn::new(i), &mut m, t).unwrap();
        }
        ftl.set_id_bits(&[Lpn::new(0), Lpn::new(1)], tee(1))
            .unwrap();
        let flash_reads_before = ftl.flash().stats().reads;
        // Page 2 is not owned by TEE 1: the whole batch is refused at
        // translation, before any flash traffic.
        let err = ftl
            .translate_batch(
                Requestor::Tee(tee(1)),
                &[Lpn::new(0), Lpn::new(2), Lpn::new(1)],
                &mut m,
                t,
            )
            .unwrap_err();
        assert!(matches!(err, FtlError::AccessDenied { lpn, .. } if lpn == Lpn::new(2)));
        assert_eq!(ftl.flash().stats().reads, flash_reads_before);
        assert_eq!(ftl.stats().reads, 0);
    }

    #[test]
    fn write_batch_matches_sequential_post_state() {
        let lpns: Vec<Lpn> = (0..12).map(Lpn::new).collect();
        let (mut batched, mut mb) = setup();
        let out = batched
            .write_batch(
                Requestor::Host,
                &WriteBatchRequest::from_lpns(&lpns),
                &mut mb,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(out.pages.len(), 12);

        let (mut sequential, mut ms) = setup();
        let mut t = SimTime::ZERO;
        for &lpn in &lpns {
            t = sequential.write(Requestor::Host, lpn, &mut ms, t).unwrap();
        }

        // Identical post-state: same valid-page count, every page
        // translatable to a programmed physical page, same counters.
        assert_eq!(batched.valid_pages(), sequential.valid_pages());
        assert_eq!(batched.stats().writes, sequential.stats().writes);
        for &lpn in &lpns {
            let tr = batched
                .translate(Requestor::Host, lpn, &mut mb, out.finished)
                .unwrap();
            assert!(batched.flash().is_written(tr.ppn));
        }
        // And the batch's single secure-world visit beats the chained
        // per-page switches.
        assert!(out.finished.saturating_since(SimTime::ZERO) < t.saturating_since(SimTime::ZERO));
    }

    #[test]
    fn write_batch_amortizes_world_switches() {
        let (mut ftl, mut m) = setup();
        let lpns: Vec<Lpn> = (0..8).map(Lpn::new).collect();
        let before = m.stats().switches;
        ftl.write_batch(
            Requestor::Host,
            &WriteBatchRequest::from_lpns(&lpns),
            &mut m,
            SimTime::ZERO,
        )
        .unwrap();
        // One secure entry + one exit for the whole batch (the
        // sequential path pays a pair per page).
        assert_eq!(m.stats().switches, before + 2);
    }

    #[test]
    fn block_table_holds_only_programmed_blocks() {
        // The steered first batch strides the plane-major flat block
        // index across the device; the table must stay as small as the
        // set of blocks actually programmed.
        let mut ftl = Ftl::new(FlashConfig::table3(), FtlConfig::default());
        let mut m = WorldMonitor::with_table5_cost();
        let lpns: Vec<Lpn> = (0..64).map(Lpn::new).collect();
        let out = ftl
            .write_batch(
                Requestor::Host,
                &WriteBatchRequest::from_lpns(&lpns),
                &mut m,
                SimTime::ZERO,
            )
            .unwrap();
        let g = ftl.flash().config().geometry;
        let programmed: FastSet<u64> = out
            .pages
            .iter()
            .map(|p| g.block_index(g.unpack(p.ppn).block_addr()))
            .collect();
        assert_eq!(ftl.blocks.len(), programmed.len());
        assert_eq!(ftl.valid_pages(), 64);
        let widest = programmed.iter().copied().max().unwrap();
        assert!(
            widest >= g.total_blocks() / 2,
            "flat index {widest} does not stride the device"
        );
    }

    #[test]
    fn write_batch_is_atomic_on_foreign_page() {
        let (mut ftl, mut m) = setup();
        let mut t = SimTime::ZERO;
        for i in 0..4u64 {
            t = ftl.write(Requestor::Host, Lpn::new(i), &mut m, t).unwrap();
        }
        ftl.set_id_bits(&[Lpn::new(0), Lpn::new(1)], tee(1))
            .unwrap();
        let programs_before = ftl.flash().stats().programs;
        let writes_before = ftl.stats().writes;
        // Page 2 belongs to nobody: the whole batch is refused before
        // any allocation or flash traffic.
        let err = ftl
            .write_batch(
                Requestor::Tee(tee(1)),
                &WriteBatchRequest::from_lpns(&[Lpn::new(0), Lpn::new(2), Lpn::new(1)]),
                &mut m,
                t,
            )
            .unwrap_err();
        assert!(matches!(err, FtlError::AccessDenied { lpn, .. } if lpn == Lpn::new(2)));
        assert_eq!(ftl.flash().stats().programs, programs_before);
        assert_eq!(ftl.stats().writes, writes_before);
    }

    #[test]
    fn write_batch_grants_fresh_pages_to_the_writing_tee() {
        let (mut ftl, mut m) = setup();
        // Fresh (unmapped) pages written by a TEE become TEE-owned.
        ftl.write_batch(
            Requestor::Tee(tee(4)),
            &WriteBatchRequest::from_lpns(&[Lpn::new(10), Lpn::new(11)]),
            &mut m,
            SimTime::ZERO,
        )
        .unwrap();
        assert!(read_lpn(
            &mut ftl,
            Requestor::Tee(tee(4)),
            Lpn::new(10),
            &mut m,
            SimTime::ZERO
        )
        .is_ok());
        assert!(matches!(
            ftl.translate(Requestor::Tee(tee(5)), Lpn::new(10), &mut m, SimTime::ZERO),
            Err(FtlError::AccessDenied { .. })
        ));
    }

    #[test]
    fn write_batch_overlaps_channels() {
        // A 16-page batch must beat 16 chained sequential writes on the
        // same (fresh) device: channel overlap plus switch amortization.
        let pages = 16u64;
        let lpns: Vec<Lpn> = (0..pages).map(Lpn::new).collect();
        let (mut batched, mut mb) = setup();
        let out = batched
            .write_batch(
                Requestor::Host,
                &WriteBatchRequest::from_lpns(&lpns),
                &mut mb,
                SimTime::ZERO,
            )
            .unwrap();

        let (mut serial, mut ms) = setup();
        let mut chained = SimTime::ZERO;
        for &lpn in &lpns {
            chained = serial
                .write(Requestor::Host, lpn, &mut ms, chained)
                .unwrap();
        }
        let batch_latency = out.finished.saturating_since(SimTime::ZERO);
        let serial_latency = chained.saturating_since(SimTime::ZERO);
        assert!(
            batch_latency < serial_latency,
            "batch {batch_latency} must beat serial {serial_latency}"
        );
    }

    #[test]
    fn write_batch_survives_gc_churn() {
        // Overwrite a small working set far beyond device capacity in
        // batches: GC must fire mid-batch and mapping consistency hold.
        let mut ftl = Ftl::new(FlashConfig::tiny(), FtlConfig::default());
        let mut m = WorldMonitor::with_table5_cost();
        let mut t = SimTime::ZERO;
        for round in 0..60u64 {
            let lpns: Vec<Lpn> = (0..24).map(|i| Lpn::new((round * 7 + i) % 32)).collect();
            let out = ftl
                .write_batch(
                    Requestor::Host,
                    &WriteBatchRequest::from_lpns(&lpns),
                    &mut m,
                    t,
                )
                .unwrap();
            t = out.finished;
        }
        assert!(ftl.stats().gc_runs > 0, "GC must have fired mid-batch");
        assert_eq!(ftl.valid_pages(), 32);
        for lpn in 0..32u64 {
            let tr = ftl
                .translate(Requestor::Host, Lpn::new(lpn), &mut m, t)
                .unwrap();
            assert!(ftl.flash().is_written(tr.ppn), "stale mapping for {lpn}");
        }
    }

    #[test]
    fn write_batch_survives_near_full_device() {
        // Regression: on a nearly-full device a plane can run dry in
        // the middle of a batch. The steering must retry the channel's
        // other planes and the other channels instead of reporting
        // CapacityExhausted where sequential writes would succeed.
        // tiny: 512 physical pages; a 380-page working set is ~74%
        // utilization, so free blocks are permanently scarce.
        let working_set = 380u64;
        let mut ftl = Ftl::new(FlashConfig::tiny(), FtlConfig::default());
        let mut m = WorldMonitor::with_table5_cost();
        let mut t = SimTime::ZERO;
        let lpns: Vec<Lpn> = (0..working_set).map(Lpn::new).collect();
        for chunk in lpns.chunks(64) {
            let out = ftl
                .write_batch(
                    Requestor::Host,
                    &WriteBatchRequest::from_lpns(chunk),
                    &mut m,
                    t,
                )
                .unwrap();
            t = out.finished;
        }
        // Keep overwriting 64-page slices of the working set: every
        // batch races GC for the last free blocks.
        for round in 0..40u64 {
            let base = (round * 37) % (working_set - 64);
            let slice: Vec<Lpn> = (base..base + 64).map(Lpn::new).collect();
            let out = ftl
                .write_batch(
                    Requestor::Host,
                    &WriteBatchRequest::from_lpns(&slice),
                    &mut m,
                    t,
                )
                .unwrap();
            t = out.finished;
        }
        assert!(ftl.stats().gc_runs > 0);
        assert_eq!(ftl.valid_pages(), working_set);
    }

    #[test]
    fn flush_cmt_scales_with_channels() {
        // Dirty a set of translation pages, then flush: the batched
        // flush must get faster as the device grows channels.
        let mut latencies = Vec::new();
        for channels in [2u32, 16] {
            let mut flash_config = FlashConfig::table3();
            flash_config.geometry = flash_config.geometry.with_channels(channels);
            let mut ftl = Ftl::new(flash_config, FtlConfig::default());
            let mut m = WorldMonitor::with_table5_cost();
            let mut t = SimTime::ZERO;
            // 32 distinct translation pages, one write each (512
            // entries per translation page).
            for i in 0..32u64 {
                t = ftl
                    .write(Requestor::Host, Lpn::new(i * 512), &mut m, t)
                    .unwrap();
            }
            let done = ftl.flush_cmt(t).unwrap();
            latencies.push(done.saturating_since(t));
        }
        assert!(
            latencies[1] < latencies[0],
            "16-channel flush {} must beat 2-channel flush {}",
            latencies[1],
            latencies[0]
        );
    }

    #[test]
    fn capacity_exhaustion_is_reported() {
        // 1-plane-equivalent stress: fill the whole tiny device with
        // unique pages (no invalid pages => GC can't help).
        let mut ftl = Ftl::new(FlashConfig::tiny(), FtlConfig::default());
        let mut m = WorldMonitor::with_table5_cost();
        let total = FlashConfig::tiny().geometry.total_pages();
        let mut t = SimTime::ZERO;
        let mut hit_capacity = false;
        for i in 0..total + 64 {
            match ftl.write(Requestor::Host, Lpn::new(i), &mut m, t) {
                Ok(done) => t = done,
                Err(FtlError::CapacityExhausted) => {
                    hit_capacity = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(hit_capacity);
    }

    #[test]
    fn program_fail_retires_block_and_resteers_the_page() {
        let (mut ftl, mut m) = setup();
        // Script the third program to report status FAIL.
        ftl.install_fault_plan(FaultPlan {
            program_fail_ops: vec![2],
            ..FaultPlan::none()
        });
        let mut t = SimTime::ZERO;
        for i in 0..4u64 {
            t = ftl.write(Requestor::Host, Lpn::new(i), &mut m, t).unwrap();
        }
        assert_eq!(ftl.stats().program_remaps, 1);
        assert_eq!(ftl.stats().blocks_retired, 1);
        assert_eq!(ftl.grown_bad_blocks().len(), 1);
        assert_eq!(ftl.valid_pages(), 4, "every page landed somewhere");
        // The retired block never accepts the write cursor again.
        for i in 0..64u64 {
            t = ftl.write(Requestor::Host, Lpn::new(i), &mut m, t).unwrap();
        }
        assert_eq!(ftl.stats().blocks_retired, 1);
    }

    #[test]
    fn batch_program_fail_completes_all_pages() {
        let (mut ftl, mut m) = setup();
        ftl.install_fault_plan(FaultPlan {
            program_fail_ops: vec![10],
            ..FaultPlan::none()
        });
        let lpns: Vec<Lpn> = (0..64).map(Lpn::new).collect();
        let outcome = ftl
            .write_batch(
                Requestor::Host,
                &WriteBatchRequest::from_lpns(&lpns),
                &mut m,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(outcome.pages.len(), 64);
        assert_eq!(ftl.stats().program_remaps, 1);
        assert!(!ftl.grown_bad_blocks().is_empty());
        // Every page is mapped, readable, and no PPN was handed out
        // twice.
        let mut seen: Vec<u64> = outcome.pages.iter().map(|p| p.ppn.raw()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 64);
        let mut t = outcome.finished;
        for &lpn in &lpns {
            t = read_lpn(&mut ftl, Requestor::Host, lpn, &mut m, t).unwrap();
        }
    }

    #[test]
    fn batch_programs_issue_in_request_order() {
        let mut flash_config = FlashConfig::tiny();
        flash_config.geometry = flash_config.geometry.with_channels(3);
        let mut ftl = Ftl::new(flash_config, FtlConfig::default());
        let mut m = WorldMonitor::with_table5_cost();
        ftl.install_fault_plan(FaultPlan {
            program_fail_ops: vec![1],
            ..FaultPlan::none()
        });
        let g = ftl.flash().config().geometry;
        // Program ordinal 0 lands on channel 0.
        ftl.write(Requestor::Host, Lpn::new(0), &mut m, SimTime::ZERO)
            .unwrap();
        let ppn = ftl.current_ppn(Lpn::new(0)).unwrap();
        assert_eq!(g.unpack(ppn).channel, 0);
        // Keep channel 0's bus busy until just past the next batch's
        // secure-world entry, so the batch steers to channels [1, 2, 0].
        let batch_at = SimTime::ZERO + SimDuration::from_millis(10);
        ftl.flash_mut()
            .read_page(ppn, batch_at - SimDuration::from_micros(50))
            .unwrap();
        let lpns: Vec<Lpn> = (1..4).map(Lpn::new).collect();
        let out = ftl
            .write_batch(
                Requestor::Host,
                &WriteBatchRequest::from_lpns(&lpns),
                &mut m,
                batch_at,
            )
            .unwrap();
        // Programs issue in request order, so program ordinal 1 hits
        // the batch's first page; it retries in its own plane.
        assert_eq!(ftl.stats().program_remaps, 1);
        let retired = ftl.grown_bad_blocks();
        assert_eq!(retired.len(), 1);
        assert_eq!(g.block_from_index(retired[0]).channel, 1);
        let channels: Vec<u32> = out.pages.iter().map(|p| g.unpack(p.ppn).channel).collect();
        assert_eq!(channels, vec![1, 2, 0]);
    }

    #[test]
    fn erase_fail_retires_the_block_for_good() {
        let mut ftl = Ftl::new(FlashConfig::tiny(), FtlConfig::default());
        ftl.install_fault_plan(FaultPlan {
            erase_fail_ops: vec![0],
            ..FaultPlan::none()
        });
        let mut m = WorldMonitor::with_table5_cost();
        // Churn a small working set until GC erases blocks; the first
        // erase fails and retires its block.
        let mut t = SimTime::ZERO;
        for i in 0..1500u64 {
            t = ftl
                .write(Requestor::Host, Lpn::new(i % 16), &mut m, t)
                .unwrap();
        }
        assert!(ftl.stats().gc_runs > 0);
        assert_eq!(ftl.stats().blocks_retired, 1);
        assert_eq!(ftl.grown_bad_blocks().len(), 1);
        assert_eq!(ftl.valid_pages(), 16);
    }

    #[test]
    fn born_bad_blocks_are_never_allocated() {
        let (mut ftl, mut m) = setup();
        ftl.install_fault_plan(FaultPlan {
            initial_bad_fraction: 0.2,
            ..FaultPlan::none()
        });
        let bad = ftl.grown_bad_blocks();
        assert!(!bad.is_empty());
        let g = FlashConfig::tiny().geometry;
        let mut t = SimTime::ZERO;
        for i in 0..200u64 {
            t = ftl.write(Requestor::Host, Lpn::new(i), &mut m, t).unwrap();
            let ppn = ftl
                .translate(Requestor::Host, Lpn::new(i), &mut m, t)
                .unwrap()
                .ppn;
            let idx = g.block_index(g.unpack(ppn).block_addr());
            assert!(!bad.contains(&idx), "allocated into born-bad block {idx}");
        }
        // Factory list is not a runtime retirement.
        assert_eq!(ftl.stats().blocks_retired, 0);
    }

    #[test]
    fn remap_decisions_are_deterministic() {
        let run = || {
            let (mut ftl, mut m) = setup();
            ftl.install_fault_plan(FaultPlan {
                program_fail_rate: 0.01,
                erase_fail_rate: 0.01,
                seed: 99,
                ..FaultPlan::none()
            });
            let mut t = SimTime::ZERO;
            let mut ppns = Vec::new();
            for i in 0..600u64 {
                t = ftl
                    .write(Requestor::Host, Lpn::new(i % 48), &mut m, t)
                    .unwrap();
            }
            for i in 0..48u64 {
                ppns.push(
                    ftl.translate(Requestor::Host, Lpn::new(i), &mut m, t)
                        .unwrap()
                        .ppn,
                );
            }
            (ppns, ftl.grown_bad_blocks(), t)
        };
        let (a_ppns, a_bad, a_t) = run();
        let (b_ppns, b_bad, b_t) = run();
        assert_eq!(a_ppns, b_ppns);
        assert_eq!(a_bad, b_bad);
        assert!(!a_bad.is_empty(), "plan should have retired something");
        assert_eq!(a_t, b_t);
    }

    /// A 64-bit LCG step: the tests' deterministic random stream.
    fn lcg_next(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// Where each translation page was last persisted, by page number.
    fn persisted(ftl: &Ftl, tvpns: u64) -> Vec<Option<Ppn>> {
        (0..tvpns)
            .map(|t| ftl.translation_ppns.get(t).copied())
            .collect()
    }

    #[test]
    fn every_dirty_eviction_is_written_back() {
        // A two-page CMT over 200 LPNs spread across 38 translation
        // pages: nearly every mapping update evicts a dirty page, and
        // GC relocations and trims update mappings too.
        let config = FtlConfig {
            cmt_capacity: ByteSize::from_kib(8),
            ..FtlConfig::default()
        };
        let mut ftl = Ftl::new(FlashConfig::tiny(), config);
        let mut m = WorldMonitor::with_table5_cost();
        const TVPNS: u64 = 38;
        let lpn_of =
            |i: u64| Lpn::new((i % TVPNS) * crate::cmt::ENTRIES_PER_TRANSLATION_PAGE + i / TVPNS);
        // Translation pages whose entries changed since their last
        // write-back: each must stay dirty in the CMT until written.
        let mut unwritten: FastSet<u64> = FastSet::default();
        let mut t = SimTime::ZERO;
        let mut rng = 11u64;
        let mut trims = 0;
        for step in 0..2400 {
            let mapped_before: Vec<Option<Ppn>> =
                (0..200).map(|i| ftl.current_ppn(lpn_of(i))).collect();
            let persisted_before = persisted(&ftl, TVPNS);
            let lpn = lpn_of(lcg_next(&mut rng) % 200);
            match lcg_next(&mut rng) % 8 {
                0 => {
                    if let Some(done) = ftl.trim(Requestor::Host, lpn, t).unwrap() {
                        t = done;
                        trims += 1;
                    }
                }
                1 => {
                    if let Ok(tr) = ftl.translate(Requestor::Host, lpn, &mut m, t) {
                        t = tr.ready_at;
                    }
                }
                _ => t = ftl.write(Requestor::Host, lpn, &mut m, t).unwrap(),
            }
            for (i, before) in mapped_before.into_iter().enumerate() {
                let lpn = lpn_of(i as u64);
                if ftl.current_ppn(lpn) != before {
                    unwritten.insert(CachedMappingTable::translation_page_of(lpn));
                }
            }
            // A page written back during the step counts as clean: the
            // step's own updates to it may come before the write-back.
            for (tvpn, ppn) in persisted(&ftl, TVPNS).into_iter().enumerate() {
                if ppn != persisted_before[tvpn] {
                    unwritten.remove(&(tvpn as u64));
                }
            }
            for &tvpn in &unwritten {
                assert!(
                    ftl.cmt.is_dirty(tvpn),
                    "step {step}: translation page {tvpn} left the CMT dirty without a write-back"
                );
            }
        }
        assert!(ftl.stats().gc_pages_moved > 0, "GC must relocate pages");
        assert!(trims > 0);
    }

    /// Every valid page's block record points back at it, and the valid
    /// pages are exactly the mapped LPNs plus the live translation
    /// pages.
    fn assert_block_records_consistent(ftl: &Ftl, context: &str) {
        let ppb = u64::from(ftl.flash().config().geometry.pages_per_block);
        let mut valid = 0u64;
        for (&block, info) in &ftl.blocks {
            assert_eq!(info.valid().count() as u32, info.valid_count, "{context}");
            for (page, content) in info.valid() {
                let ppn = Ppn::new(block * ppb + u64::from(page));
                let at = match content {
                    PageContent::Data(lpn) => ftl.current_ppn(lpn),
                    PageContent::Translation(tvpn) => ftl.translation_ppns.get(tvpn).copied(),
                };
                assert_eq!(at, Some(ppn), "{context}: {content:?} recorded at {ppn:?}");
                valid += 1;
            }
        }
        let translation_pages = ftl.translation_ppns.iter().count();
        assert_eq!(valid, ftl.valid_pages(), "{context}");
        assert_eq!(
            valid,
            (ftl.mapping.len() + translation_pages) as u64,
            "{context}: valid pages vs mapped LPNs plus translation pages"
        );
    }

    /// Every block of every plane is accounted for once: below the
    /// fresh cursor a block in service is listed once and a retired
    /// one never as free; behind it every block is untouched and
    /// `retired_fresh` counts the retired and reserved ones.
    fn assert_planes_consistent(ftl: &Ftl, context: &str) {
        let g = ftl.flash().config().geometry;
        for (plane_idx, plane) in ftl.planes.iter().enumerate() {
            let mut retired_fresh = 0;
            for b in 0..g.blocks_per_plane {
                let addr = ftl.plane_block_addr(plane_idx, b);
                let flat = g.block_index(addr);
                let reserved = ftl.journal_reserved.contains(&flat);
                let retired = reserved || ftl.grown_bad.contains(&flat);
                let free = plane.free_blocks.iter().filter(|&&f| f == b).count();
                let listed = free
                    + plane.full_blocks.iter().filter(|&&f| f == b).count()
                    + usize::from(plane.open_block == Some(b));
                let at = format!("{context}: plane {plane_idx} block {b} listed {listed}");
                if b >= plane.next_fresh {
                    let used = (ftl.flash.frontier(addr), ftl.flash.erase_count(addr));
                    assert!(
                        listed == 0 && (retired || used == (0, 0)),
                        "{at}, used {used:?}"
                    );
                    retired_fresh += u32::from(retired);
                } else if retired {
                    // A journal block is never listed; a retired one may stay full.
                    assert!(free == 0 && listed <= usize::from(!reserved), "{at}");
                } else {
                    assert_eq!(listed, 1, "{at}");
                }
            }
            assert_eq!(
                plane.retired_fresh, retired_fresh,
                "{context}: plane {plane_idx}"
            );
        }
    }

    #[test]
    fn block_records_match_the_mapping() {
        // A four-page CMT so translation pages are written back and
        // relocated too; a low wear threshold so static wear leveling
        // migrates blocks; scripted program and erase failures.
        let config = FtlConfig {
            cmt_capacity: ByteSize::from_kib(16),
            wear_delta_threshold: 2,
            journal_blocks: 8,
            ..FtlConfig::default()
        };
        let mut ftl = Ftl::new(FlashConfig::tiny(), config);
        ftl.install_fault_plan(FaultPlan {
            program_fail_ops: vec![90, 400, 650],
            erase_fail_ops: vec![6],
            ..FaultPlan::none()
        });
        let mut m = WorldMonitor::with_table5_cost();
        let lpn_of =
            |i: u64| Lpn::new((i % 12) * crate::cmt::ENTRIES_PER_TRANSLATION_PAGE + i / 12);
        let mut t = SimTime::ZERO;
        let mut rng = 5u64;
        for round in 0..3 {
            for step in 0..100 {
                // Sixteen hot LPNs of the 120 take half the writes, so
                // erase counts drift apart.
                let r = lcg_next(&mut rng);
                let i = if r.is_multiple_of(2) {
                    r / 2 % 16
                } else {
                    r / 2 % 120
                };
                if lcg_next(&mut rng).is_multiple_of(7) {
                    t = ftl
                        .trim(Requestor::Host, lpn_of(i), t)
                        .unwrap()
                        .unwrap_or(t);
                } else {
                    t = ftl.write(Requestor::Host, lpn_of(i), &mut m, t).unwrap();
                }
                let context = format!("round {round} step {step}");
                assert_block_records_consistent(&ftl, &context);
                assert_planes_consistent(&ftl, &context);
            }
            t = ftl.journal_sync(t).unwrap();
            let mapped: Vec<Option<Ppn>> = (0..120).map(|i| ftl.current_ppn(lpn_of(i))).collect();
            t = ftl.recover(t).unwrap().end_time;
            let context = format!("after recovery {round}");
            assert_block_records_consistent(&ftl, &context);
            assert_planes_consistent(&ftl, &context);
            let recovered: Vec<Option<Ppn>> =
                (0..120).map(|i| ftl.current_ppn(lpn_of(i))).collect();
            assert_eq!(recovered, mapped, "a synced mapping survives recovery");
        }
        let stats = ftl.stats();
        assert!(stats.gc_pages_moved > 0, "GC must relocate pages");
        assert!(stats.wl_migrations > 0, "static wear leveling must run");
        assert!(stats.program_remaps > 0, "a scripted program must fail");
        assert!(stats.blocks_retired > 0);
    }
}
