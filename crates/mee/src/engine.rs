//! The MEE timing/traffic engine.
//!
//! Decomposes every program-visible cache-line access into its DRAM data
//! access plus the metadata traffic (encryption counters and
//! integrity-tree nodes; data MACs ride with their lines) implied by the
//! configured counter mode, all filtered through the two-level metadata
//! hierarchy: the on-chip counter cache (L1), then — when configured —
//! the MAC-sealed [`L2MetaStore`] in a reserved region of SSD DRAM, and
//! only then the home location with its Merkle verification walk.
//! Metadata is write-back at both levels: updates dirty L1 blocks, L1
//! victims demote into L2, and dirty L2 victims reach their home
//! location on eviction — which is what keeps Table 6's extra-traffic
//! percentages tied to write intensity.

use iceclave_dram::{Dram, MemOp};
use iceclave_types::{ByteSize, CacheLine, ChunkTable, SimDuration, SimTime, LINES_PER_PAGE};

use crate::cache::MetaCache;
use crate::counters::{PageClass, SplitCounterBlock};
use crate::faults::{MacFault, MacFaultInjector, MacFaultPlan};
use crate::l2::L2MetaStore;
use crate::tree::TreeGeometry;

/// Which counter organization protects DRAM.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum CounterMode {
    /// No memory protection (the ISC baseline and Figure 8's
    /// "Non-Encryption").
    Unprotected,
    /// Conventional split counters for every page (Figure 8's "SC-64").
    SplitOnly,
    /// IceClave's hybrid: major-only counters for read-only pages,
    /// split counters for writable pages (§4.4).
    Hybrid,
}

/// AES pad-generation latency (Table 3: 60 ns).
const AES_LATENCY: SimDuration = SimDuration::from_nanos(60);
/// MAC computation/verification latency per block.
const MAC_LATENCY: SimDuration = SimDuration::from_nanos(40);
/// Pages of protected DRAM (sets the integrity-tree geometry): 4 GiB of
/// protected memory is 2^20 pages.
const PROTECTED_PAGES: u64 = 1 << 20;

/// What an MEE run varies. The AES and MAC latencies and the protected
/// page count are constants of this module.
#[derive(Copy, Clone, Debug)]
pub struct MeeConfig {
    /// Counter organization.
    pub mode: CounterMode,
    /// Counter-cache capacity (Table 3: 128 KiB).
    pub counter_cache: ByteSize,
    /// Counter-cache associativity.
    pub cache_ways: usize,
    /// Capacity of the second-level counter store in the reserved
    /// SSD-DRAM region ([`crate::L2MetaStore`]); `ByteSize::ZERO` (the
    /// default) disables the level entirely, leaving the engine's
    /// timing byte-identical to the SRAM-only hierarchy. The region is
    /// carved out of the **top** of the protected DRAM address space,
    /// so L2 traffic contends with program data on the same banks and
    /// buses.
    pub l2_capacity: ByteSize,
    /// Associativity of the second-level counter store.
    pub l2_ways: usize,
}

impl MeeConfig {
    fn with_mode(mode: CounterMode) -> Self {
        MeeConfig {
            mode,
            counter_cache: ByteSize::from_kib(128),
            cache_ways: 8,
            l2_capacity: ByteSize::ZERO,
            l2_ways: 16,
        }
    }

    /// Enables the DRAM-backed second-level counter store with
    /// `capacity` bytes of sealed blocks.
    pub fn with_l2(mut self, capacity: ByteSize) -> Self {
        self.l2_capacity = capacity;
        self
    }

    /// No protection (ISC baseline).
    pub fn unprotected() -> Self {
        Self::with_mode(CounterMode::Unprotected)
    }

    /// Split counters everywhere (SC-64 baseline of Figure 8).
    pub fn split_only() -> Self {
        Self::with_mode(CounterMode::SplitOnly)
    }

    /// IceClave's hybrid-counter scheme.
    pub fn hybrid() -> Self {
        Self::with_mode(CounterMode::Hybrid)
    }
}

/// Traffic and latency statistics, the source of Table 5's encryption /
/// verification times and Table 6's extra-traffic percentages.
#[derive(Clone, Debug, Default)]
pub struct MeeStats {
    /// Program-visible line reads.
    pub data_reads: u64,
    /// Program-visible line writes.
    pub data_writes: u64,
    /// Extra DRAM reads for encryption counters.
    pub extra_enc_reads: u64,
    /// Extra DRAM writes for counters (evictions, overflow
    /// re-encryption).
    pub extra_enc_writes: u64,
    /// Extra DRAM reads for integrity-tree nodes.
    pub extra_ver_reads: u64,
    /// Extra DRAM writes for integrity-tree nodes.
    pub extra_ver_writes: u64,
    /// DMA fill writes (flash-to-DRAM staging); kept separate from
    /// program traffic so Table 1/6 ratios cover program accesses only.
    pub fill_writes: u64,
    /// DMA seal reads (DRAM-to-flash draining); the write-side mirror
    /// of `fill_writes`, also billed separately from program traffic.
    pub seal_reads: u64,
    /// Whole-page re-encryptions caused by minor-counter overflow.
    pub overflow_reencryptions: u64,
    /// RO/RW page migrations (hybrid mode).
    pub migrations: u64,
    /// MAC verifications performed.
    pub verifications: u64,
    /// Pad generations performed.
    pub encryptions: u64,
    /// Total latency added to reads beyond the raw DRAM access.
    pub read_overhead: SimDuration,
    /// Total latency added to writes beyond the raw DRAM access.
    pub write_overhead: SimDuration,
    /// Per-block-kind L1 (on-chip cache) traffic.
    pub meta_traffic: MetaTraffic,
    /// L2 probes that hit (L1 miss served by the DRAM store).
    pub l2_hits: u64,
    /// L2 probes that missed (the access fell through to the tree
    /// walk).
    pub l2_misses: u64,
    /// L1 victims demoted into the L2 store (each is one sealed-block
    /// DRAM write into the reserved region).
    pub l2_demotions: u64,
    /// Dirty L2 victims written back to their home metadata location.
    pub l2_writebacks: u64,
    /// L2 MAC mismatches absorbed by discarding the sealed block and
    /// falling back to the authoritative home Merkle walk (suspected
    /// corruption, not tampering — no TEE is harmed).
    pub mac_fallbacks: u64,
    /// MAC mismatches whose authoritative home walk *also* failed:
    /// genuine tampering, escalated to a TEE integrity abort.
    pub tamper_events: u64,
}

/// Per-block-kind metadata-cache traffic: hits and misses of the
/// on-chip L1 cache split by what the block holds. Data MACs ride with
/// their lines and never occupy the cache, so there is no MAC kind.
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct MetaTraffic {
    /// L1 hits on encryption-counter blocks (split or major).
    pub counter_hits: u64,
    /// L1 misses on encryption-counter blocks.
    pub counter_misses: u64,
    /// L1 hits on integrity-tree nodes.
    pub tree_hits: u64,
    /// L1 misses on integrity-tree nodes.
    pub tree_misses: u64,
}

impl MetaTraffic {
    fn rate(hits: u64, misses: u64) -> f64 {
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// L1 hit rate on counter blocks.
    pub fn counter_hit_rate(&self) -> f64 {
        Self::rate(self.counter_hits, self.counter_misses)
    }

    /// L1 hit rate on data-MAC blocks: always 0, since data MACs ride
    /// with their lines and never occupy the cache (Table 5 prints the
    /// row as "n/a (colocated)").
    pub fn mac_hit_rate(&self) -> f64 {
        0.0
    }

    /// L1 hit rate on integrity-tree nodes.
    pub fn tree_hit_rate(&self) -> f64 {
        Self::rate(self.tree_hits, self.tree_misses)
    }
}

impl MeeStats {
    /// Extra encryption traffic as a fraction of regular data traffic
    /// (Table 6, "Encryption" column).
    pub fn encryption_traffic_overhead(&self) -> f64 {
        let regular = self.data_reads + self.data_writes;
        if regular == 0 {
            return 0.0;
        }
        (self.extra_enc_reads + self.extra_enc_writes) as f64 / regular as f64
    }

    /// Extra verification traffic as a fraction of regular data traffic
    /// (Table 6, "Integrity Verification" column).
    pub fn verification_traffic_overhead(&self) -> f64 {
        let regular = self.data_reads + self.data_writes;
        if regular == 0 {
            return 0.0;
        }
        (self.extra_ver_reads + self.extra_ver_writes) as f64 / regular as f64
    }

    /// Mean latency added to each read (Table 5, "memory verification").
    pub fn mean_read_overhead(&self) -> SimDuration {
        if self.data_reads == 0 {
            SimDuration::ZERO
        } else {
            self.read_overhead / self.data_reads
        }
    }

    /// Mean latency added to each write (Table 5, "memory encryption").
    pub fn mean_write_overhead(&self) -> SimDuration {
        if self.data_writes == 0 {
            SimDuration::ZERO
        } else {
            self.write_overhead / self.data_writes
        }
    }

    /// L2 probe hit rate in `[0,1]`, zero when the level is disabled or
    /// never probed.
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_hits as f64 / total as f64
        }
    }
}

/// The two completion times of one sealed page.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct SealSpan {
    /// When the page's data has been read out of DRAM — the outbound
    /// stream exists from here on, so downstream encryption and the
    /// flash program may start.
    pub data_out: SimTime,
    /// When the seal's metadata work (counter-epoch increment, outbound
    /// MAC generation) has drained; it proceeds concurrently with the
    /// downstream stages and only gates durability.
    pub sealed: SimTime,
}

/// Metadata block kinds, encoded in the low bits of block ids so that
/// ids of different kinds spread across counter-cache sets (tags in high
/// bits would alias every kind's offset 0 into the same set).
/// Tag 2 is unused: data MACs have no block of their own, and the
/// tags fix each block's cache set, so the others keep their values.
const KIND_SPLIT: u64 = 0;
const KIND_MAJOR: u64 = 1;
const KIND_STREE: u64 = 3;
const KIND_MTREE: u64 = 4;
/// Low bits of a metadata block id holding the kind tag (shared with
/// the L2 store's stride-aware set indexing).
pub(crate) const KIND_BITS: u64 = 3;
const KIND_MASK: u64 = (1 << KIND_BITS) - 1;

const fn meta_id(kind: u64, payload: u64) -> u64 {
    (payload << KIND_BITS) | kind
}

const fn tree_node_payload(level: u32, index: u64) -> u64 {
    ((level as u64) << 40) | index
}

/// DRAM line used to store a metadata block (a distinct high region of
/// the physical address space).
fn meta_line(id: u64) -> CacheLine {
    CacheLine::new((1 << 44) + id)
}

/// Pages per [`ChunkTable`] chunk of the per-page metadata (36 KiB of
/// counter blocks). TEE regions are 65,536 DRAM pages wide and a run
/// writes runs of pages in each (input fills, the working half's class
/// setup, a program's working set), so most of a chunk is used once it
/// is added. Measured over the four perfbench workloads, 64-page chunks
/// raised `fig11`'s peak RSS from 6.4 to 8.5 MiB, 2048-page chunks
/// raised `colocated`'s by 0.3 MiB, and 128 to 1024 pages were within
/// noise of each other.
const PAGE_CHUNK: usize = 512;

/// The timing/traffic MEE.
///
/// See the crate docs for an example.
#[derive(Debug)]
pub struct MeeEngine {
    config: MeeConfig,
    cache: MetaCache,
    l2: Option<L2MetaStore>,
    /// Per-DRAM-page protection class (hybrid mode); unwritten pages
    /// are writable.
    page_class: ChunkTable<PageClass, PAGE_CHUNK>,
    /// Per-DRAM-page split-counter block; unwritten pages read as a
    /// fresh block (all counters zero).
    split_counters: ChunkTable<SplitCounterBlock, PAGE_CHUNK>,
    split_tree: TreeGeometry,
    major_tree: TreeGeometry,
    stats: MeeStats,
    mac_faults: Option<MacFaultInjector>,
    /// Latched when a MAC mismatch survived the home-walk fallback
    /// (tampering); consumed by [`MeeEngine::take_tamper_event`].
    tampered: bool,
    /// Monotone counter-state epoch: bumped once per acknowledged
    /// write batch and sealed into the metadata journal, so recovery
    /// can reject a rolled-back (stale) counter image. Never decreases
    /// over a device's lifetime, including across reboots.
    counter_epoch: u64,
}

impl MeeEngine {
    /// Creates an engine with cold caches and zeroed counters. When
    /// `config.l2_capacity` is non-zero (and memory is protected at
    /// all), the second-level store is placed in a reserved region at
    /// the **top** of the protected DRAM address space — its slot lines
    /// go through the same bank/bus map as program data, so L2 traffic
    /// contends realistically.
    pub fn new(config: MeeConfig) -> Self {
        let l2_blocks = config.l2_capacity.as_bytes() / 64;
        let l2 = (l2_blocks > 0 && config.mode != CounterMode::Unprotected).then(|| {
            let top = PROTECTED_PAGES * LINES_PER_PAGE;
            let base = top.saturating_sub(l2_blocks);
            L2MetaStore::new(config.l2_capacity, config.l2_ways, base)
        });
        MeeEngine {
            config,
            cache: MetaCache::new(config.counter_cache, config.cache_ways),
            l2,
            page_class: ChunkTable::new(PageClass::Writable),
            split_counters: ChunkTable::new(SplitCounterBlock::new()),
            split_tree: TreeGeometry::for_leaves(PROTECTED_PAGES),
            major_tree: TreeGeometry::for_leaves(PROTECTED_PAGES.div_ceil(8)),
            stats: MeeStats::default(),
            mac_faults: None,
            tampered: false,
            counter_epoch: 0,
        }
    }

    /// The current counter-state epoch.
    pub fn counter_epoch(&self) -> u64 {
        self.counter_epoch
    }

    /// Advances the counter-state epoch by one and returns the new
    /// value. Called once per acknowledged write batch, immediately
    /// before the epoch is sealed into the metadata journal.
    pub fn advance_counter_epoch(&mut self) -> u64 {
        self.counter_epoch += 1;
        self.counter_epoch
    }

    /// Restores the epoch from the highest journal seal during
    /// recovery. The caller (the recovery path) is responsible for
    /// rejecting regressions before calling this; the engine itself
    /// only ever moves the epoch forward.
    pub fn restore_counter_epoch(&mut self, epoch: u64) {
        self.counter_epoch = self.counter_epoch.max(epoch);
    }

    /// Installs a deterministic L2 MAC-check fault schedule (replacing
    /// any previous one). A no-op schedule may also be installed; it
    /// simply never fires.
    pub fn install_mac_fault_plan(&mut self, plan: MacFaultPlan) {
        self.mac_faults = Some(MacFaultInjector::new(plan));
    }

    /// Consumes the pending tamper event, if a MAC mismatch escalated
    /// past the home-walk fallback since the last call. The runtime
    /// polls this after every protected access and throws the running
    /// TEE out with an integrity abort when it fires.
    pub fn take_tamper_event(&mut self) -> bool {
        core::mem::take(&mut self.tampered)
    }

    /// The engine configuration.
    pub fn config(&self) -> &MeeConfig {
        &self.config
    }

    /// Declares the protection class of a DRAM page (hybrid mode only;
    /// pages default to writable). This is the zero-cost variant used
    /// while setting up fresh TEE memory; use
    /// [`MeeEngine::migrate_page`] for a live permission change.
    pub fn set_page_class(&mut self, page: u64, class: PageClass) {
        if self.config.mode == CounterMode::Hybrid {
            *self.page_class.get_mut(page) = class;
        }
    }

    /// Dynamic permission change of a live page (§4.4): increments the
    /// major counter, moves the page between the two trees, re-encrypts
    /// all 64 lines and invalidates stale metadata. Returns the
    /// completion time.
    pub fn migrate_page(
        &mut self,
        dram: &mut Dram,
        page: u64,
        class: PageClass,
        now: SimTime,
    ) -> SimTime {
        if self.config.mode != CounterMode::Hybrid {
            return now;
        }
        let current = self.effective_class(page);
        if current == class {
            return now;
        }
        *self.page_class.get_mut(page) = class;
        let major = self.split_counters.get(page).major();
        *self.split_counters.get_mut(page) = SplitCounterBlock::with_major(major + 1);
        // Stale counter metadata of the old tree must not be reused —
        // at either level of the hierarchy.
        let stale = self.counter_id(page, current);
        let l1_dirty = self.cache.invalidate(stale);
        let l2_dirty = self.l2.as_mut().is_some_and(|l2| l2.invalidate(stale));
        if l1_dirty || l2_dirty {
            let _ = dram.access(meta_line(stale), MemOp::Write, now);
            self.note_writeback(stale);
        }
        self.stats.migrations += 1;
        // Re-encrypt the page under the new counter: read + write every
        // line, one pad per line.
        self.reencrypt_page(dram, page, now)
    }

    /// DMA-fills one whole DRAM page (flash-to-DRAM staging through the
    /// MEE's streaming encryption path): 64 line writes plus a counter
    /// initialization, billed separately from program traffic. Sets the
    /// page's protection class. Returns the fill completion time.
    pub fn fill_page(
        &mut self,
        dram: &mut Dram,
        page: u64,
        class: PageClass,
        now: SimTime,
    ) -> SimTime {
        let first = CacheLine::new(page * LINES_PER_PAGE);
        let end = dram.access_run(first, LINES_PER_PAGE, MemOp::Write, now);
        self.stats.fill_writes += LINES_PER_PAGE;
        if self.config.mode == CounterMode::Unprotected {
            return end;
        }
        self.set_page_class(page, class);
        // Fresh counter epoch for the filled page; the streaming cipher
        // pipeline hides per-line AES latency at fill time. The bulk
        // fill engine has its own counter datapath: it writes the new
        // counter block straight to DRAM *without* polluting the
        // core-side counter cache (the program's first read takes the
        // compulsory miss, as in the paper's USIMM experiment).
        let major = self.split_counters.get(page).major();
        *self.split_counters.get_mut(page) = SplitCounterBlock::with_major(major + 1);
        let id = self.counter_id(page, self.effective_class(page));
        self.cache.invalidate(id);
        // The home write below supersedes any sealed L2 copy.
        if let Some(l2) = self.l2.as_mut() {
            let _ = l2.invalidate(id);
        }
        let _ = dram.access(meta_line(id), MemOp::Write, end);
        self.stats.extra_enc_writes += 1;
        self.stats.encryptions += LINES_PER_PAGE;
        end + AES_LATENCY
    }

    /// Seals one whole DRAM page for flash persistence (DRAM-to-flash
    /// draining through the MEE's streaming path): 64 line reads, a
    /// counter-epoch increment and an outbound MAC generation, billed
    /// separately from program traffic. The returned [`SealSpan`]
    /// separates the data read-out (which gates downstream encryption
    /// and the flash program) from the metadata completion (which only
    /// gates durability).
    pub fn seal_page(&mut self, dram: &mut Dram, page: u64, now: SimTime) -> SealSpan {
        let first = CacheLine::new(page * LINES_PER_PAGE);
        let end = dram.access_run(first, LINES_PER_PAGE, MemOp::Read, now);
        self.stats.seal_reads += LINES_PER_PAGE;
        if self.config.mode == CounterMode::Unprotected {
            return SealSpan {
                data_out: end,
                sealed: end,
            };
        }
        // The outbound copy gets a fresh counter epoch (its flash-bound
        // MAC must never reuse a pad) — written straight to DRAM by the
        // bulk engine, without polluting the core-side counter cache,
        // exactly like the fill datapath.
        let major = self.split_counters.get(page).major();
        *self.split_counters.get_mut(page) = SplitCounterBlock::with_major(major + 1);
        let id = self.counter_id(page, self.effective_class(page));
        let _ = self.cache.invalidate(id);
        if let Some(l2) = self.l2.as_mut() {
            let _ = l2.invalidate(id);
        }
        let _ = dram.access(meta_line(id), MemOp::Write, end);
        self.stats.extra_enc_writes += 1;
        self.stats.encryptions += LINES_PER_PAGE;
        self.stats.verifications += 1;
        SealSpan {
            data_out: end,
            sealed: end + AES_LATENCY + MAC_LATENCY,
        }
    }

    /// A protected read of one cache line. Returns the time the verified
    /// plaintext is available.
    pub fn read_line(&mut self, dram: &mut Dram, line: CacheLine, now: SimTime) -> SimTime {
        let data = dram.access(line, MemOp::Read, now);
        self.stats.data_reads += 1;
        if self.config.mode == CounterMode::Unprotected {
            return data.end;
        }
        let page = line.page_index();
        let class = self.effective_class(page);

        // Counter fetch (+ verification walk on a miss). The data MAC
        // is stored alongside its line (in the ECC-spare bits, as
        // Synergy-style designs do), so it arrives with the data: no
        // separate MAC fetch or write-back, which leaves tree nodes as
        // the only verification traffic and matches Table 6's
        // encryption > verification ordering for read-heavy workloads.
        let (counter_ready, counter_hit) = self.fetch_counter(dram, page, class, false, now);

        // With the counter on-chip the engine precomputes the pad while
        // the data streams (SGX-style decryption pipelining); only a
        // counter miss serializes the AES behind the metadata fetch.
        let pad_ready = if counter_hit {
            now
        } else {
            counter_ready + AES_LATENCY
        };
        self.stats.encryptions += 1;
        let plaintext = data.end.max(pad_ready);
        // Recompute the data MAC and compare; pipelined unless the
        // metadata path stalled.
        let verify_cost = if counter_hit {
            SimDuration::ZERO
        } else {
            MAC_LATENCY
        };
        let done = plaintext.max(counter_ready) + verify_cost;
        self.stats.verifications += 1;
        self.stats.read_overhead += done.saturating_since(data.end);
        done
    }

    /// A protected write (write-back) of one cache line. Returns the
    /// time the encrypted line and its metadata updates are complete.
    pub fn write_line(&mut self, dram: &mut Dram, line: CacheLine, now: SimTime) -> SimTime {
        if self.config.mode == CounterMode::Unprotected {
            let span = dram.access(line, MemOp::Write, now);
            self.stats.data_writes += 1;
            return span.end;
        }
        let page = line.page_index();
        let class = self.effective_class(page);
        let class = if class == PageClass::ReadOnly {
            // Writing a read-only page forces a permission change first.
            let _ = self.migrate_page(dram, page, PageClass::Writable, now);
            PageClass::Writable
        } else {
            class
        };

        // Counter read-modify-write.
        let (counter_ready, counter_hit) = self.fetch_counter(dram, page, class, true, now);
        let line_in_page = (line.raw() % LINES_PER_PAGE) as usize;
        let overflowed = self.split_counters.get_mut(page).increment(line_in_page);
        let mut t = counter_ready;
        if overflowed {
            self.stats.overflow_reencryptions += 1;
            t = self.reencrypt_page(dram, page, t);
        }

        // Writes are *posted*: the store retires once the line is in
        // the write queue, and the engine encrypts it when the queue
        // drains — by which time the counter (fetched above, occupying
        // DRAM but not the program) has arrived. Only a minor-counter
        // overflow, whose page re-encryption must complete first,
        // gates the program.
        let _ = counter_hit;
        let gate = if overflowed { t } else { now };
        self.stats.encryptions += 1;
        let data = dram.access(line, MemOp::Write, gate);
        self.stats.data_writes += 1;

        // The data MAC rides with the line; only the tree path updates.
        let done = self.update_tree_path(dram, page, class, data.end);
        self.stats.verifications += 1;
        self.stats.write_overhead += done.saturating_since(data.end);
        done
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MeeStats {
        &self.stats
    }

    /// Counter-cache (L1) hit rate over every metadata kind.
    pub fn cache_hit_rate(&self) -> f64 {
        let t = &self.stats.meta_traffic;
        MetaTraffic::rate(
            t.counter_hits + t.tree_hits,
            t.counter_misses + t.tree_misses,
        )
    }

    /// The second-level store, when configured.
    pub fn l2_store(&self) -> Option<&L2MetaStore> {
        self.l2.as_ref()
    }

    /// Functional counter-state probe for equivalence tests: the line
    /// counter of `line_in_page` within `page`, zero when untouched.
    /// The metadata hierarchy is a pure performance layer — this value
    /// must be identical whatever the L1/L2 configuration.
    pub fn line_counter(&self, page: u64, line_in_page: usize) -> u128 {
        self.split_counters.get(page).line_counter(line_in_page)
    }

    /// The split-counter tree geometry (for reports).
    pub fn split_tree(&self) -> TreeGeometry {
        self.split_tree
    }

    /// The major-counter tree geometry (for reports).
    pub fn major_tree(&self) -> TreeGeometry {
        self.major_tree
    }

    fn effective_class(&self, page: u64) -> PageClass {
        match self.config.mode {
            CounterMode::Hybrid => *self.page_class.get(page),
            _ => PageClass::Writable,
        }
    }

    fn counter_id(&self, page: u64, class: PageClass) -> u64 {
        match class {
            PageClass::Writable => meta_id(KIND_SPLIT, page),
            PageClass::ReadOnly => meta_id(KIND_MAJOR, page / 8),
        }
    }

    fn tree_for(&self, class: PageClass) -> (u64, TreeGeometry) {
        match class {
            PageClass::Writable => (KIND_STREE, self.split_tree),
            PageClass::ReadOnly => (KIND_MTREE, self.major_tree),
        }
    }

    fn leaf_index(&self, page: u64, class: PageClass) -> u64 {
        match class {
            PageClass::Writable => page % self.split_tree.leaves(),
            PageClass::ReadOnly => (page / 8) % self.major_tree.leaves(),
        }
    }

    /// L1 lookup with per-kind accounting. A miss inserts the block;
    /// the victim (if any) is demoted into L2 — or, without an L2,
    /// written back to its home location when dirty. Returns whether
    /// the block was already on-chip.
    fn l1_access(&mut self, dram: &mut Dram, id: u64, dirty: bool, now: SimTime) -> bool {
        let out = if dirty {
            self.cache.access_dirty(id)
        } else {
            self.cache.access(id)
        };
        let t = &mut self.stats.meta_traffic;
        match (id & KIND_MASK, out.hit) {
            (KIND_SPLIT | KIND_MAJOR, true) => t.counter_hits += 1,
            (KIND_SPLIT | KIND_MAJOR, false) => t.counter_misses += 1,
            (_, true) => t.tree_hits += 1,
            (_, false) => t.tree_misses += 1,
        }
        self.handle_l1_eviction(dram, out.evicted, now);
        out.hit
    }

    /// Routes an L1 victim down the hierarchy. With an L2 the victim is
    /// demoted whether clean or dirty (victim-cache style — read-mostly
    /// metadata must populate L2 for scans to benefit); the sealed-slot
    /// write issues first, then any displaced dirty home write-back.
    /// Without an L2, dirty victims write straight home as before.
    fn handle_l1_eviction(&mut self, dram: &mut Dram, evicted: Option<(u64, bool)>, now: SimTime) {
        let Some((block, was_dirty)) = evicted else {
            return;
        };
        match self.l2.as_mut() {
            Some(l2) => {
                let demotion = l2.demote(block, was_dirty);
                self.stats.l2_demotions += 1;
                self.note_writeback(block); // the sealed-slot write is metadata traffic too
                let _ = dram.access(demotion.slot, MemOp::Write, now);
                if let Some(victim) = demotion.home_writeback {
                    self.stats.l2_writebacks += 1;
                    self.note_writeback(victim);
                    let _ = dram.access(meta_line(victim), MemOp::Write, now);
                }
            }
            None => {
                if was_dirty {
                    let _ = dram.access(meta_line(block), MemOp::Write, now);
                    self.note_writeback(block);
                }
            }
        }
    }

    /// Consults the DRAM-resident L2 store after an L1 miss. On a hit
    /// the sealed block is fetched from its reserved-region slot and
    /// its session MAC checked; that single MAC binds id + payload +
    /// epoch, so the block is trusted **without any tree walk** and
    /// promotes (exclusively) into L1, carrying its deferred write-back
    /// obligation. Returns the verified-ready time, or `None` on a
    /// miss.
    fn l2_probe(&mut self, dram: &mut Dram, id: u64, now: SimTime) -> Option<SimTime> {
        let l2 = self.l2.as_mut()?;
        match l2.take(id) {
            Some(promotion) => {
                self.stats.l2_hits += 1;
                let fetch = dram.access(promotion.line, MemOp::Read, now);
                self.note_meta_read(id);
                // The session-MAC check of the sealed block.
                self.stats.verifications += 1;
                match self
                    .mac_faults
                    .as_mut()
                    .map_or(MacFault::None, MacFaultInjector::check_outcome)
                {
                    MacFault::None => {}
                    // Suspected corruption of the sealed copy: it is
                    // discarded (it already left the store) and the
                    // caller falls through to the home location, whose
                    // Merkle walk is authoritative. The counters
                    // themselves live in the functional state — the
                    // hierarchy is timing-only — so nothing is lost;
                    // the fallback costs the walk instead of one MAC
                    // check. Home fetches are speculative in hardware,
                    // so they are modeled from `now`, overlapping the
                    // failed check.
                    MacFault::Mismatch => {
                        self.stats.mac_fallbacks += 1;
                        return None;
                    }
                    // The home walk will fail too: genuine tampering.
                    // Latch the event for the runtime to escalate to
                    // ThrowOutTEE; the fallback walk still executes so
                    // the timing of the detection path is realistic.
                    MacFault::Tamper => {
                        self.stats.mac_fallbacks += 1;
                        self.stats.tamper_events += 1;
                        self.tampered = true;
                        return None;
                    }
                }
                if promotion.dirty {
                    self.cache.mark_dirty(id);
                }
                Some(fetch.end + MAC_LATENCY)
            }
            None => {
                self.stats.l2_misses += 1;
                None
            }
        }
    }

    /// Fetches (and on a miss, verifies) the counter block of `page`,
    /// consulting L1 → L2 → home-with-tree-walk in order; a `dirty`
    /// fetch (a counter update) leaves the block dirty in L1. Returns
    /// the ready time and whether the counter came from the hierarchy
    /// (L1 or L2) rather than a verification walk.
    ///
    /// An L2 hit reports `true`: the sealed block's single MAC check is
    /// the only exposed serialization — pad generation and the data-MAC
    /// compare are speculated while it completes, exactly as they are
    /// for an on-chip hit — so the hit costs one DRAM fetch plus one
    /// MAC check, not the multi-fetch walk.
    fn fetch_counter(
        &mut self,
        dram: &mut Dram,
        page: u64,
        class: PageClass,
        dirty: bool,
        now: SimTime,
    ) -> (SimTime, bool) {
        let id = self.counter_id(page, class);
        if self.l1_access(dram, id, dirty, now) {
            return (now, true);
        }
        if let Some(ready) = self.l2_probe(dram, id, now) {
            return (ready, true);
        }
        self.stats.extra_enc_reads += 1;
        let counter_end = dram.access(meta_line(id), MemOp::Read, now).end;
        let walk_end = self.verify_walk(dram, page, class, now);
        (counter_end.max(walk_end), false)
    }

    /// Walks the integrity tree from the counter leaf upward until a
    /// trusted ancestor — an L1-cached node, an L2-sealed node (one
    /// fetch + one MAC check), or the root register. The MEE issues the
    /// whole path's fetches in parallel with the counter fetch
    /// (hardware walks are speculative); the exposed latency is the
    /// slowest fetch plus one MAC check.
    fn verify_walk(
        &mut self,
        dram: &mut Dram,
        page: u64,
        class: PageClass,
        start: SimTime,
    ) -> SimTime {
        let (kind, tree) = self.tree_for(class);
        let leaf = self.leaf_index(page, class);
        let mut ready = start;
        for level in 1..=tree.depth() {
            let node_id = meta_id(kind, tree_node_payload(level, tree.ancestor(leaf, level)));
            let hit = self.l1_access(dram, node_id, false, start);
            self.stats.verifications += 1;
            if hit {
                break; // trusted cached ancestor: stop here
            }
            if let Some(node_ready) = self.l2_probe(dram, node_id, start) {
                // A MAC-verified sealed ancestor is as trusted as a
                // cached one: the walk stops here.
                ready = ready.max(node_ready);
                break;
            }
            self.stats.extra_ver_reads += 1;
            ready = ready.max(dram.access(meta_line(node_id), MemOp::Read, start).end);
        }
        ready + MAC_LATENCY
    }

    /// Dirties the counter's tree path: cached ancestors are updated in
    /// place (lazy Bonsai propagation — uncached ancestors are left to
    /// be recomputed when their children are written back). Off the
    /// store's critical path: only traffic effects, no added latency.
    fn update_tree_path(
        &mut self,
        dram: &mut Dram,
        page: u64,
        class: PageClass,
        t: SimTime,
    ) -> SimTime {
        let (kind, tree) = self.tree_for(class);
        let leaf = self.leaf_index(page, class);
        for level in 1..=tree.depth() {
            let node_id = meta_id(kind, tree_node_payload(level, tree.ancestor(leaf, level)));
            if !self.cache.contains(node_id) {
                break;
            }
            let _ = self.l1_access(dram, node_id, true, t);
        }
        t
    }

    /// Whole-page re-encryption (minor overflow or permission change):
    /// 64 line reads and 64 line writes of extra traffic.
    fn reencrypt_page(&mut self, dram: &mut Dram, page: u64, now: SimTime) -> SimTime {
        let first = CacheLine::new(page * LINES_PER_PAGE);
        let mut t = now;
        for i in 0..LINES_PER_PAGE {
            let l = CacheLine::new(first.raw() + i);
            let r = dram.access(l, MemOp::Read, t);
            let w = dram.access(l, MemOp::Write, r.end + AES_LATENCY);
            t = w.end;
        }
        self.stats.extra_enc_reads += LINES_PER_PAGE;
        self.stats.extra_enc_writes += LINES_PER_PAGE;
        self.stats.encryptions += LINES_PER_PAGE;
        t
    }

    /// Attributes one metadata write to encryption (counters) or
    /// verification (tree nodes) traffic.
    fn note_writeback(&mut self, id: u64) {
        match id & KIND_MASK {
            KIND_SPLIT | KIND_MAJOR => self.stats.extra_enc_writes += 1,
            _ => self.stats.extra_ver_writes += 1,
        }
    }

    /// Attributes one metadata read the same way.
    fn note_meta_read(&mut self, id: u64) {
        match id & KIND_MASK {
            KIND_SPLIT | KIND_MAJOR => self.stats.extra_enc_reads += 1,
            _ => self.stats.extra_ver_reads += 1,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use iceclave_dram::DramConfig;

    fn setup(mode: CounterMode) -> (Dram, MeeEngine) {
        let config = MeeConfig {
            mode,
            ..MeeConfig::hybrid()
        };
        (Dram::new(DramConfig::table3()), MeeEngine::new(config))
    }

    #[test]
    fn unprotected_adds_no_overhead() {
        let (mut dram, mut mee) = setup(CounterMode::Unprotected);
        let t = mee.read_line(&mut dram, CacheLine::new(0), SimTime::ZERO);
        let stats = mee.stats();
        assert_eq!(stats.extra_enc_reads + stats.extra_ver_reads, 0);
        assert_eq!(stats.read_overhead, SimDuration::ZERO);
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn protected_read_costs_more_than_raw() {
        let (mut dram, mut mee) = setup(CounterMode::SplitOnly);
        let protected_done = mee.read_line(&mut dram, CacheLine::new(0), SimTime::ZERO);
        let (mut dram2, mut mee2) = setup(CounterMode::Unprotected);
        let raw_done = mee2.read_line(&mut dram2, CacheLine::new(0), SimTime::ZERO);
        assert!(protected_done > raw_done);
        assert!(mee.stats().extra_enc_reads > 0);
    }

    #[test]
    fn second_read_of_same_page_hits_counter_cache() {
        let (mut dram, mut mee) = setup(CounterMode::SplitOnly);
        mee.read_line(&mut dram, CacheLine::new(0), SimTime::ZERO);
        let before = mee.stats().extra_enc_reads;
        mee.read_line(&mut dram, CacheLine::new(1), SimTime::ZERO);
        // Same page, same counter block: no extra counter fetch.
        assert_eq!(mee.stats().extra_enc_reads, before);
    }

    #[test]
    fn hybrid_ro_counters_cover_eight_pages() {
        let (mut dram, mut mee) = setup(CounterMode::Hybrid);
        for p in 0..8 {
            mee.set_page_class(p, PageClass::ReadOnly);
        }
        // Touch one line of each of the 8 RO pages: one counter block.
        for p in 0..8u64 {
            mee.read_line(&mut dram, CacheLine::new(p * 64), SimTime::ZERO);
        }
        let ro_fetches = mee.stats().extra_enc_reads;
        assert_eq!(ro_fetches, 1, "8 RO pages share one major block");

        let (mut dram2, mut mee2) = setup(CounterMode::SplitOnly);
        for p in 0..8u64 {
            mee2.read_line(&mut dram2, CacheLine::new(p * 64), SimTime::ZERO);
        }
        assert_eq!(mee2.stats().extra_enc_reads, 8, "split: one per page");
    }

    #[test]
    fn seal_bills_counter_epoch_and_mac() {
        let (mut dram, mut mee) = setup(CounterMode::Hybrid);
        let span = mee.seal_page(&mut dram, 7, SimTime::ZERO);
        let s = mee.stats();
        assert_eq!(s.seal_reads, LINES_PER_PAGE);
        assert_eq!(s.extra_enc_writes, 1, "fresh counter epoch persisted");
        assert_eq!(s.verifications, 1, "outbound MAC generated");
        assert!(span.data_out > SimTime::ZERO);
        // Metadata work extends past the data read-out.
        assert!(span.sealed > span.data_out);
        // Unprotected mode drains without metadata work.
        let (mut dram2, mut mee2) = setup(CounterMode::Unprotected);
        let span2 = mee2.seal_page(&mut dram2, 7, SimTime::ZERO);
        assert_eq!(span2.sealed, span2.data_out);
        assert_eq!(mee2.stats().extra_enc_writes, 0);
    }

    #[test]
    fn minor_overflow_reencrypts_page() {
        let (mut dram, mut mee) = setup(CounterMode::SplitOnly);
        let line = CacheLine::new(0);
        let mut t = SimTime::ZERO;
        // 64 writes to the same line overflow its 6-bit minor counter.
        for _ in 0..64 {
            t = mee.write_line(&mut dram, line, t);
        }
        assert_eq!(mee.stats().overflow_reencryptions, 1);
        assert!(mee.stats().extra_enc_writes >= LINES_PER_PAGE);
    }

    #[test]
    fn migration_changes_class_and_bills_reencryption() {
        let (mut dram, mut mee) = setup(CounterMode::Hybrid);
        mee.set_page_class(3, PageClass::ReadOnly);
        let before = mee.stats().extra_enc_writes;
        let t = mee.migrate_page(&mut dram, 3, PageClass::Writable, SimTime::ZERO);
        assert!(t > SimTime::ZERO);
        assert_eq!(mee.stats().migrations, 1);
        assert_eq!(mee.stats().extra_enc_writes - before, LINES_PER_PAGE);
        // A second migration to the same class is free.
        let t2 = mee.migrate_page(&mut dram, 3, PageClass::Writable, t);
        assert_eq!(t2, t);
    }

    #[test]
    fn write_to_ro_page_forces_migration() {
        let (mut dram, mut mee) = setup(CounterMode::Hybrid);
        mee.set_page_class(5, PageClass::ReadOnly);
        mee.write_line(&mut dram, CacheLine::new(5 * 64), SimTime::ZERO);
        assert_eq!(mee.stats().migrations, 1);
    }

    #[test]
    fn write_traffic_produces_dirty_writebacks() {
        let (mut dram, mut mee) = setup(CounterMode::SplitOnly);
        // Touch many distinct pages to force counter-block evictions.
        let mut t = SimTime::ZERO;
        for page in 0..8192u64 {
            t = mee.write_line(&mut dram, CacheLine::new(page * 64), t);
        }
        assert!(
            mee.stats().extra_enc_writes > 0,
            "evictions should write back dirty counters"
        );
    }

    /// A small hierarchy that thrashes quickly: 4 KiB L1 (64 blocks)
    /// over a 64 KiB L2 (1024 sealed blocks).
    fn setup_small_l2(mode: CounterMode, l2_kib: u64) -> (Dram, MeeEngine) {
        let config = MeeConfig {
            mode,
            counter_cache: ByteSize::from_kib(4),
            l2_capacity: ByteSize::from_kib(l2_kib),
            ..MeeConfig::hybrid()
        };
        (Dram::new(DramConfig::table3()), MeeEngine::new(config))
    }

    /// Sweeps line 0 of `pages` pages, returning the engine clock.
    fn sweep(dram: &mut Dram, mee: &mut MeeEngine, pages: u64, mut t: SimTime) -> SimTime {
        for p in 0..pages {
            t = mee.read_line(dram, CacheLine::new(p * LINES_PER_PAGE), t);
        }
        t
    }

    #[test]
    fn l2_is_disabled_by_default_and_under_unprotected() {
        let mee = MeeEngine::new(MeeConfig::hybrid());
        assert!(mee.l2_store().is_none(), "ZERO capacity leaves no L2");
        let cfg = MeeConfig::unprotected().with_l2(ByteSize::from_mib(8));
        assert!(MeeEngine::new(cfg).l2_store().is_none());
    }

    #[test]
    fn l2_region_is_carved_from_the_top_of_protected_dram() {
        let cfg = MeeConfig::split_only().with_l2(ByteSize::from_mib(8));
        let mee = MeeEngine::new(cfg);
        let l2 = mee.l2_store().expect("configured");
        let blocks = (8 << 20) / 64;
        assert_eq!(l2.capacity_blocks() as u64, blocks);
        let top = PROTECTED_PAGES * LINES_PER_PAGE;
        assert_eq!(l2.base_line(), top - blocks);
    }

    #[test]
    fn l1_victims_demote_and_rereferences_hit_l2() {
        let (mut dram, mut mee) = setup_small_l2(CounterMode::SplitOnly, 64);
        // 512 split counter blocks: 8x the 64-block L1, inside the
        // 1024-block L2. Pass 1 is compulsory misses + demotions; pass 2
        // must be (almost) pure L2 hits.
        let t = sweep(&mut dram, &mut mee, 512, SimTime::ZERO);
        assert!(mee.stats().l2_demotions > 0, "L1 victims must demote");
        let misses_before = mee.stats().l2_misses;
        sweep(&mut dram, &mut mee, 512, t);
        let s = mee.stats();
        assert!(s.l2_hits > 400, "second pass should hit L2: {}", s.l2_hits);
        assert_eq!(
            s.l2_misses, misses_before,
            "second pass takes no new L2 misses"
        );
        assert!(s.l2_hit_rate() > 0.0);
    }

    #[test]
    fn l2_hit_beats_the_merkle_walk() {
        // Same thrashing sweep twice; the steady-state (second pass)
        // mean read overhead must be measurably lower with the L2 than
        // without — the 1-fetch + 1-MAC hit vs the multi-fetch walk.
        let steady_overhead = |l2_kib: u64| {
            let (mut dram, mut mee) = setup_small_l2(CounterMode::SplitOnly, l2_kib);
            let t = sweep(&mut dram, &mut mee, 512, SimTime::ZERO);
            let warm = mee.stats().clone();
            sweep(&mut dram, &mut mee, 512, t);
            let s = mee.stats();
            (s.read_overhead - warm.read_overhead) / (s.data_reads - warm.data_reads)
        };
        let without = {
            let (mut dram, mut mee) = setup(CounterMode::SplitOnly);
            // No-L2 control with the same small L1.
            let config = MeeConfig {
                counter_cache: ByteSize::from_kib(4),
                ..*mee.config()
            };
            mee = MeeEngine::new(config);
            let t = sweep(&mut dram, &mut mee, 512, SimTime::ZERO);
            let warm = mee.stats().clone();
            sweep(&mut dram, &mut mee, 512, t);
            let s = mee.stats();
            (s.read_overhead - warm.read_overhead) / (s.data_reads - warm.data_reads)
        };
        let with = steady_overhead(64);
        assert!(
            with.as_nanos_f64() * 1.3 < without.as_nanos_f64(),
            "L2 steady overhead {with} vs SRAM-only {without}"
        );
    }

    #[test]
    fn hierarchy_is_exclusive() {
        let (mut dram, mut mee) = setup_small_l2(CounterMode::SplitOnly, 64);
        let mut t = SimTime::ZERO;
        // Mixed reads and writes over a thrashing working set, with
        // re-references so promotions happen too.
        for round in 0..3u64 {
            for p in 0..300u64 {
                let line = CacheLine::new(p * LINES_PER_PAGE + round);
                t = if p % 3 == 0 {
                    mee.write_line(&mut dram, line, t)
                } else {
                    mee.read_line(&mut dram, line, t)
                };
            }
        }
        let l2 = mee.l2_store().expect("configured");
        for block in l2.resident_blocks() {
            assert!(
                !mee.cache.contains(block),
                "block {block} resident in both levels"
            );
        }
    }

    #[test]
    fn dirty_demotions_eventually_write_home() {
        let (mut dram, mut mee) = setup_small_l2(CounterMode::SplitOnly, 8);
        // Tiny L2 (128 blocks): dirty counters demoted from L1 overflow
        // the store and must drain to their home locations.
        let mut t = SimTime::ZERO;
        for p in 0..2048u64 {
            t = mee.write_line(&mut dram, CacheLine::new(p * LINES_PER_PAGE), t);
        }
        let s = mee.stats();
        assert!(s.l2_writebacks > 0, "dirty L2 victims must go home");
        assert!(s.extra_enc_writes >= s.l2_writebacks);
    }

    #[test]
    fn per_kind_hit_rates_split_the_aggregate() {
        let (mut dram, mut mee) = setup(CounterMode::SplitOnly);
        let mut t = SimTime::ZERO;
        for i in 0..200u64 {
            t = mee.read_line(&mut dram, CacheLine::new(i), t);
        }
        let traffic = mee.stats().meta_traffic;
        assert!(traffic.counter_hit_rate() > 0.0);
        assert!(traffic.tree_hits + traffic.tree_misses > 0);
    }

    #[test]
    fn migration_invalidates_stale_l2_copies() {
        let (mut dram, mut mee) = setup_small_l2(CounterMode::Hybrid, 64);
        // Dirty the page's split counter, thrash it out of L1 into L2,
        // then migrate the page: the sealed copy must not survive.
        let mut t = mee.write_line(&mut dram, CacheLine::new(0), SimTime::ZERO);
        t = sweep(&mut dram, &mut mee, 512, t);
        let split_id = 0u64 << 3; // KIND_SPLIT, page 0
        let in_l2 = mee.l2_store().expect("l2").contains(split_id);
        mee.migrate_page(&mut dram, 0, PageClass::ReadOnly, t);
        assert!(!mee.l2_store().expect("l2").contains(split_id));
        // If the stale copy was sealed dirty, its home write-back was
        // billed by the migration.
        let _ = in_l2;
    }

    #[test]
    fn mac_mismatch_falls_back_without_harm() {
        let (mut dram, mut mee) = setup_small_l2(CounterMode::SplitOnly, 64);
        mee.install_mac_fault_plan(MacFaultPlan {
            mismatch_ops: vec![0, 2],
            ..MacFaultPlan::none()
        });
        // Pass 1 populates L2 via demotions; pass 2 produces the L2
        // hits whose MAC checks the scripted ordinals corrupt.
        let t = sweep(&mut dram, &mut mee, 512, SimTime::ZERO);
        sweep(&mut dram, &mut mee, 512, t);
        let s = mee.stats();
        assert_eq!(s.mac_fallbacks, 2, "both scripted checks fell back");
        assert_eq!(s.tamper_events, 0);
        assert!(!mee.take_tamper_event(), "corruption never escalates");
        // The fallback is pure recovery: functional counter state is
        // untouched by which level served the fetch.
        assert_eq!(mee.line_counter(0, 0), 0);
    }

    #[test]
    fn tamper_latches_one_event_for_escalation() {
        let (mut dram, mut mee) = setup_small_l2(CounterMode::SplitOnly, 64);
        mee.install_mac_fault_plan(MacFaultPlan {
            tamper_ops: vec![1],
            ..MacFaultPlan::none()
        });
        let t = sweep(&mut dram, &mut mee, 512, SimTime::ZERO);
        sweep(&mut dram, &mut mee, 512, t);
        let s = mee.stats();
        assert_eq!(s.tamper_events, 1);
        assert_eq!(s.mac_fallbacks, 1, "a tamper is also a failed check");
        assert!(mee.take_tamper_event(), "event latched");
        assert!(!mee.take_tamper_event(), "event consumed");
    }

    #[test]
    fn empty_mac_plan_changes_nothing() {
        let run = |install: bool| {
            let (mut dram, mut mee) = setup_small_l2(CounterMode::SplitOnly, 64);
            if install {
                mee.install_mac_fault_plan(MacFaultPlan::none());
            }
            let t = sweep(&mut dram, &mut mee, 512, SimTime::ZERO);
            let t = sweep(&mut dram, &mut mee, 512, t);
            (t, mee.stats().clone())
        };
        let (t_with, s_with) = run(true);
        let (t_without, s_without) = run(false);
        assert_eq!(t_with, t_without, "no-op plan is timing-invisible");
        assert_eq!(s_with.l2_hits, s_without.l2_hits);
        assert_eq!(s_with.mac_fallbacks, 0);
    }

    #[test]
    fn stats_overheads_are_consistent() {
        let (mut dram, mut mee) = setup(CounterMode::SplitOnly);
        let mut t = SimTime::ZERO;
        for i in 0..100u64 {
            t = mee.read_line(&mut dram, CacheLine::new(i), t);
        }
        let s = mee.stats();
        assert_eq!(s.data_reads, 100);
        assert!(s.mean_read_overhead() > SimDuration::ZERO);
        assert!(s.encryption_traffic_overhead() >= 0.0);
        assert!(mee.cache_hit_rate() > 0.0);
    }
}
