//! The IceClave runtime: TEE lifecycle, access control, and the
//! protected data path (§4.5, §4.6, Table 2).

use std::error::Error;
use std::fmt;

use iceclave_cipher::{CipherEngine, PageIv};
use iceclave_cpu::OpCounts;
use iceclave_exec::PowerLossPlan;
use iceclave_ftl::{FaultPlan, FtlError, JournalRecord, Requestor};
use iceclave_mee::{MacFaultPlan, MeeEngine, PageClass};
use iceclave_sim::Resource;
use iceclave_trustzone::{AccessType, MemoryMap, ProtectionFault, Region, World};
use iceclave_types::{
    ByteSize, CacheLine, DenseTable, Hertz, Lpn, Ppn, RecoveryStats, SimDuration, SimTime, TeeId,
    WindowTable, LINES_PER_PAGE, PAGE_SIZE,
};

use crate::config::{IceClaveConfig, Link, SECURE_REGION};
use crate::platform::SsdPlatform;

/// One TEE slot per value of the 4-bit mapping-entry ID field (§4.3),
/// the reserved unowned id 0 included.
const TEE_SLOTS: usize = 1 << iceclave_types::tee::DEFAULT_ID_BITS;

/// TEE creation cost (Table 5: 95 us, measured on the Cosmos+ FPGA).
pub(crate) const TEE_CREATE: SimDuration = SimDuration::from_micros(95);
/// TEE deletion cost (Table 5: 58 us).
pub(crate) const TEE_DELETE: SimDuration = SimDuration::from_micros(58);
/// Stream-cipher engine clock (shared with the controller, §5).
const CIPHER_CLOCK: Hertz = Hertz::from_mhz(800);
/// Largest offloaded binary accepted (popular in-storage programs are
/// 28–528 KiB, §4.5).
const MAX_CODE_SIZE: ByteSize = ByteSize::from_mib(1);

/// Why a TEE was thrown out (§4.5: access-control violation, corrupted
/// memory/metadata, or a program exception).
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum AbortReason {
    /// The program touched memory outside its TEE region.
    AccessViolation,
    /// Memory or metadata failed integrity verification.
    IntegrityFailure,
    /// The in-storage program raised an exception.
    ProgramException,
}

/// Lifecycle state of a TEE.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum TeeStatus {
    /// Created and executing.
    Running,
    /// Cleanly terminated.
    Terminated,
    /// Aborted via `ThrowOutTEE`.
    Aborted(AbortReason),
}

/// Errors surfaced by the runtime API.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IceClaveError {
    /// All TEE identifiers are in use (4 ID bits = 15 live TEEs).
    NoFreeIds,
    /// The offloaded binary exceeds the configured limit or available
    /// space (TEE creation fails, §4.5).
    CodeTooLarge {
        /// Requested binary size.
        requested: ByteSize,
        /// Maximum accepted.
        limit: ByteSize,
    },
    /// No free 16 MiB TEE region slots remain.
    RegionExhausted,
    /// The TEE id is unknown or no longer live.
    UnknownTee(TeeId),
    /// The TEE is not running (terminated or aborted).
    NotRunning(TeeId),
    /// FTL-level failure (including the §4.3 ID-bit access denial).
    Ftl(FtlError),
    /// A TrustZone protection fault (e.g. a normal-world write to the
    /// protected mapping table).
    Protection(ProtectionFault),
    /// The program accessed memory outside its TEE region; the TEE has
    /// been thrown out.
    RegionViolation {
        /// The offending TEE.
        tee: TeeId,
        /// The out-of-bounds line offset.
        line_offset: u64,
    },
    /// The ticket is not (or no longer) usable with `wait_batch` — it
    /// was never issued by this runtime, or some or all of its
    /// completions were already drained through
    /// `poll_completions`/`drain_completions` (mixing the two drain
    /// styles on one ticket is not supported).
    UnknownTicket(iceclave_types::Ticket),
    /// A metadata MAC mismatch survived the authoritative home-walk
    /// fallback: the memory is genuinely tampered with, and the TEE has
    /// been thrown out with [`AbortReason::IntegrityFailure`] (§4.5).
    Integrity {
        /// The TEE whose protected memory failed verification.
        tee: TeeId,
    },
    /// Power was cut (see [`IceClave::install_power_loss_plan`]): every
    /// volatile byte on the controller is gone and no API call can make
    /// progress until the device is rebooted through
    /// [`IceClave::recover`].
    PowerLost,
    /// [`IceClave::recover`] was called on a device configured without
    /// a metadata-journal region
    /// (`FtlConfig::journal_blocks == 0`): there is no durable
    /// metadata to replay, so a reboot cannot restore any mapping.
    NoJournal,
}

impl fmt::Display for IceClaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IceClaveError::NoFreeIds => f.write_str("no free TEE identifiers"),
            IceClaveError::CodeTooLarge { requested, limit } => {
                write!(f, "binary of {requested} exceeds the {limit} limit")
            }
            IceClaveError::RegionExhausted => f.write_str("no free TEE memory regions"),
            IceClaveError::UnknownTee(id) => write!(f, "{id} is not a live TEE"),
            IceClaveError::NotRunning(id) => write!(f, "{id} is not running"),
            IceClaveError::Ftl(e) => write!(f, "ftl: {e}"),
            IceClaveError::Protection(e) => write!(f, "protection: {e}"),
            IceClaveError::RegionViolation { tee, line_offset } => {
                write!(f, "{tee} accessed line {line_offset} outside its region")
            }
            IceClaveError::UnknownTicket(ticket) => {
                write!(f, "{ticket} is unknown or already drained")
            }
            IceClaveError::Integrity { tee } => {
                write!(f, "{tee} failed memory integrity verification")
            }
            IceClaveError::PowerLost => {
                f.write_str("power was cut; reboot the device through recover()")
            }
            IceClaveError::NoJournal => {
                f.write_str("the device has no metadata-journal region to recover from")
            }
        }
    }
}

impl Error for IceClaveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IceClaveError::Ftl(e) => Some(e),
            IceClaveError::Protection(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FtlError> for IceClaveError {
    fn from(e: FtlError) -> Self {
        IceClaveError::Ftl(e)
    }
}

impl From<ProtectionFault> for IceClaveError {
    fn from(e: ProtectionFault) -> Self {
        IceClaveError::Protection(e)
    }
}

/// Runtime counters for reports.
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct RuntimeStats {
    /// TEEs created.
    pub created: u64,
    /// TEEs cleanly terminated.
    pub terminated: u64,
    /// TEEs thrown out.
    pub aborted: u64,
    /// Identifier reuses (an id served more than one TEE, §4.3).
    pub id_reuses: u64,
    /// Flash pages streamed through the cipher engine into TEEs.
    pub pages_loaded: u64,
    /// Pages drained out of TEEs and programmed to flash.
    pub pages_stored: u64,
    /// Read attempts re-issued by the executor's read-retry ladder.
    pub read_retries: u64,
    /// Read pages that exhausted the retry ladder (uncorrectable).
    pub uncorrectable_pages: u64,
    /// Pages that completed `Failed` instead of aborting their batch.
    pub pages_failed: u64,
}

#[derive(Debug)]
pub(crate) struct TeeState {
    pub(crate) status: TeeStatus,
    lpns: Vec<Lpn>,
    /// First DRAM page of the TEE's preallocated region.
    pub(crate) region_page: u64,
    /// Pages in the region.
    pub(crate) region_pages: u64,
    /// Ring cursor for input fills (first half of the region is the
    /// read-only input buffer, second half the writable working set).
    pub(crate) next_fill: u64,
    /// Ring cursor for outbound seals (pages drained from the working
    /// half toward flash by the batched write path).
    pub(crate) next_seal: u64,
}

impl TeeState {
    pub(crate) fn input_pages(&self) -> u64 {
        self.region_pages / 2
    }
}

/// The IceClave runtime (Figure 3).
///
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct IceClave {
    /// The SSD platform (FTL, DRAM, cores, monitor).
    pub(crate) platform: SsdPlatform,
    pub(crate) mee: MeeEngine,
    pub(crate) cipher: CipherEngine,
    /// The lanes of the config's [`Link`], one page per lane at a
    /// time: a stream-cipher engine per channel (§5 puts the cipher
    /// units between the flash controllers and the internal bus, so
    /// each channel ciphers its own stream), one PCIe link all
    /// channels share, or none.
    pub(crate) lanes: Vec<Resource>,
    /// Per-LPN IVs of functionally encrypted page content (the model's
    /// stand-in for the IV metadata the controller keeps in the
    /// out-of-band area). Keyed by LPN so GC relocation cannot orphan
    /// them.
    pub(crate) page_ivs: DenseTable<PageIv>,
    memory_map: MemoryMap,
    pub(crate) config: IceClaveConfig,
    /// TEE state indexed by raw id. A slot fills when its id first
    /// serves a TEE and keeps the last TEE's status after teardown, so
    /// an occupied slot also means "this id has been used since boot".
    tees: [Option<TeeState>; TEE_SLOTS],
    free_ids: Vec<TeeId>,
    free_regions: Vec<u64>,
    pub(crate) stats: RuntimeStats,
    /// The event-driven batch executor behind the submission API.
    pub(crate) exec: iceclave_exec::Executor<crate::exec_driver::Stage>,
    /// Per-ticket in-flight pipeline state, indexed by ticket id (ids
    /// start at 1).
    pub(crate) jobs: WindowTable<crate::exec_driver::Job>,
    /// Ticket-level errors of batches that failed mid-flight.
    pub(crate) failed: crate::slab::ErrorSlab,
    /// The fair-queueing channel arbiter across TEEs
    /// (Figures 17/18): read pages queue in per-tenant lanes per
    /// channel and are granted in virtual-time order, one page at a
    /// time per channel.
    pub(crate) arbiter: iceclave_ftl::WfqArbiter,
}

impl IceClave {
    /// Brings up the runtime: programs the TZASC regions of Figure 4,
    /// initializes the security engines, and prepares the TEE id pool.
    pub fn new(config: IceClaveConfig) -> Self {
        let platform = SsdPlatform::new(config.platform.clone());
        let mut memory_map = MemoryMap::new();
        memory_map
            .define(
                iceclave_types::PhysAddr::new(0),
                SECURE_REGION,
                Region::Secure,
            )
            .expect("secure region fits");
        memory_map
            .define(
                iceclave_types::PhysAddr::new(SECURE_REGION.as_bytes()),
                config.platform.ftl.cmt_capacity,
                Region::Protected,
            )
            .expect("protected region fits");

        let free_ids = Self::build_free_ids();
        let free_regions = Self::build_free_regions(&config);
        let arbiter = Self::build_arbiter(&config);
        let lanes = Self::build_lanes(&config);

        IceClave {
            platform,
            mee: MeeEngine::new(config.mee),
            cipher: CipherEngine::new([0x1C; 10], CIPHER_CLOCK, 0xACE1_CAFE),
            lanes,
            page_ivs: DenseTable::new(),
            memory_map,
            config,
            tees: Default::default(),
            free_ids,
            free_regions,
            stats: RuntimeStats::default(),
            exec: iceclave_exec::Executor::new(),
            jobs: WindowTable::new(1),
            failed: crate::slab::ErrorSlab::new(),
            arbiter,
        }
    }

    /// The runtime configuration.
    pub fn config(&self) -> &IceClaveConfig {
        &self.config
    }

    /// The underlying platform (for stats and experiment plumbing).
    pub fn platform(&self) -> &SsdPlatform {
        &self.platform
    }

    /// Mutable platform access (experiment plumbing: population, core
    /// scheduling).
    pub fn platform_mut(&mut self) -> &mut SsdPlatform {
        &mut self.platform
    }

    /// The memory-encryption engine (for traffic reports).
    pub fn mee(&self) -> &MeeEngine {
        &self.mee
    }

    /// Read-only view of the WFQ channel arbiter (queue introspection
    /// for the fairness and lifecycle test suites).
    pub fn arbiter(&self) -> &iceclave_ftl::WfqArbiter {
        &self.arbiter
    }

    /// The stream-cipher engine (for functional encryption in tests).
    pub fn cipher_mut(&mut self) -> &mut CipherEngine {
        &mut self.cipher
    }

    /// Installs a deterministic flash fault schedule: born-bad blocks
    /// retire into the FTL's grown-bad table immediately, and every
    /// subsequent device operation draws from the plan's sub-streams
    /// (see `iceclave_flash::faults`).
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.platform.ftl.install_fault_plan(plan);
    }

    /// Installs a deterministic L2 MAC-check fault schedule on the MEE
    /// (see `iceclave_mee::faults`). Corruption mismatches recover
    /// internally; tampering escalates to [`IceClaveError::Integrity`]
    /// at the next protected access.
    pub fn install_mac_fault_plan(&mut self, plan: MacFaultPlan) {
        self.mee.install_mac_fault_plan(plan);
    }

    /// Arms a power-loss cut point (see
    /// [`iceclave_exec::PowerLossPlan`]): the executor halts dead at
    /// the scripted event index, after which every API call fails with
    /// [`IceClaveError::PowerLost`] until the device is rebooted
    /// through [`IceClave::recover`]. An empty plan only counts events
    /// and is event-for-event invisible.
    pub fn install_power_loss_plan(&mut self, plan: PowerLossPlan) {
        self.exec.set_power_plan(plan);
    }

    /// True once an armed power-loss plan has tripped: the device is
    /// dead until [`IceClave::recover`] reboots it.
    pub fn power_lost(&self) -> bool {
        self.exec.power_lost()
    }

    /// Executor events processed since a power-loss plan (possibly an
    /// empty one) was installed — the event horizon a crash sweep
    /// samples its cut points from. `None` when no plan is installed.
    pub fn events_processed(&self) -> Option<u64> {
        self.exec.events_processed()
    }

    /// The MEE's current counter epoch: advanced and journal-sealed on
    /// every durable write batch, restored (never regressed) by
    /// [`IceClave::recover`].
    pub fn counter_epoch(&self) -> u64 {
        self.mee.counter_epoch()
    }

    /// Clean shutdown: flushes the cached mapping table, seals the
    /// current counter epoch under a clean-shutdown journal record and
    /// syncs the journal, so the next [`IceClave::recover`] takes the
    /// fast path (`clean_boot`, no dirty replay semantics to distrust).
    ///
    /// # Errors
    ///
    /// [`IceClaveError::PowerLost`] on a dead device; FTL errors if the
    /// flush or journal sync fails.
    pub fn shutdown(&mut self, now: SimTime) -> Result<SimTime, IceClaveError> {
        self.ensure_powered()?;
        let t = self.platform.ftl.flush_cmt(now)?;
        self.platform
            .ftl
            .journal_append(JournalRecord::CleanShutdown {
                epoch: self.mee.counter_epoch(),
            });
        let t = self.platform.ftl.journal_sync(t)?;
        Ok(t)
    }

    /// Reboot after a crash (or a clean shutdown): replays the metadata
    /// journal through the real flash read path, rebuilds the mapping
    /// and grown-bad tables and the per-LPN IV store, restores the MEE
    /// counter epoch to the highest sealed value, and discards every
    /// volatile structure — TEE sessions, in-flight tickets, CMT, WFQ
    /// lanes, undrained completions. Flash-durable bytes are all that
    /// survives; acknowledged writes are readable afterwards.
    ///
    /// # Errors
    ///
    /// [`IceClaveError::NoJournal`] when the device was configured
    /// without a journal region; [`IceClaveError::Integrity`] (with
    /// [`TeeId::UNOWNED`]) when the journal's epoch seals regress —
    /// the rollback-attack signature; FTL errors if the journal region
    /// itself is unreadable.
    pub fn recover(&mut self, now: SimTime) -> Result<RecoveryStats, IceClaveError> {
        if !self.platform.ftl.journal_enabled() {
            return Err(IceClaveError::NoJournal);
        }
        // In-flight pages that never pushed a completion died with the
        // rail; count them before the job table is discarded.
        let pages_lost: u64 = self.jobs.iter().map(|(_, job)| job.unretired_pages()).sum();
        let recovery = self.platform.ftl.recover(now)?;
        if recovery.epoch_regressed {
            // A sealed epoch ran backwards: someone replayed a stale
            // journal image over a newer device. Refuse to boot.
            return Err(IceClaveError::Integrity {
                tee: TeeId::UNOWNED,
            });
        }

        // Everything volatile is rebuilt from scratch; only the flash
        // array (recovered above), the DRAM/monitor timing models and
        // the cumulative controller counters carry over.
        self.mee = MeeEngine::new(self.config.mee);
        self.mee.restore_counter_epoch(recovery.max_epoch);
        self.page_ivs = DenseTable::new();
        for &(lpn, base, ppa) in &recovery.ivs {
            self.page_ivs.insert(lpn, PageIv::compose(base, ppa));
        }
        self.lanes = Self::build_lanes(&self.config);
        self.tees = Default::default();
        self.free_ids = Self::build_free_ids();
        self.free_regions = Self::build_free_regions(&self.config);
        self.arbiter = Self::build_arbiter(&self.config);
        self.exec = iceclave_exec::Executor::new();
        self.jobs = WindowTable::new(1);
        self.failed = crate::slab::ErrorSlab::new();

        Ok(RecoveryStats {
            clean_boot: recovery.clean_shutdown,
            records_replayed: recovery.records_replayed,
            torn_records: recovery.torn_records,
            pages_read: recovery.pages_read,
            pages_lost,
            recovery_time: recovery.end_time.saturating_since(now),
        })
    }

    /// The TZASC memory map (Figure 4).
    pub fn memory_map(&self) -> &MemoryMap {
        &self.memory_map
    }

    /// Runtime statistics.
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// Host-side dataset staging (block-I/O path, before any offload).
    ///
    /// # Errors
    ///
    /// Propagates FTL failures.
    pub fn populate(
        &mut self,
        base: Lpn,
        pages: u64,
        now: SimTime,
    ) -> Result<SimTime, IceClaveError> {
        self.ensure_powered()?;
        let t = self.platform.populate(base, pages, now)?;
        // Host staging is acknowledged synchronously, so its mapping
        // records must be durable before the call returns.
        let t = self.platform.ftl.journal_sync(t)?;
        Ok(t)
    }

    /// `OffloadCode` (Table 2): creates a TEE for a binary of
    /// `code_bytes`, grants it `lpns` via `SetIDBits`, and bills the
    /// Table 5 creation cost. Returns the TEE id and completion time.
    ///
    /// # Errors
    ///
    /// [`IceClaveError::CodeTooLarge`], [`IceClaveError::NoFreeIds`],
    /// [`IceClaveError::RegionExhausted`], or an FTL error if a granted
    /// page is unmapped.
    pub fn offload_code(
        &mut self,
        code_bytes: u64,
        lpns: &[Lpn],
        now: SimTime,
    ) -> Result<(TeeId, SimTime), IceClaveError> {
        self.ensure_powered()?;
        let requested = ByteSize::from_bytes(code_bytes);
        let limit = MAX_CODE_SIZE.min(self.config.tee_region);
        if requested > limit {
            return Err(IceClaveError::CodeTooLarge { requested, limit });
        }
        let id = self.free_ids.pop().ok_or(IceClaveError::NoFreeIds)?;
        let region_page = match self.free_regions.pop() {
            Some(p) => p,
            None => {
                self.free_ids.push(id);
                return Err(IceClaveError::RegionExhausted);
            }
        };
        if let Err(e) = self.platform.ftl.set_id_bits(lpns, id) {
            self.free_ids.push(id);
            self.free_regions.push(region_page);
            return Err(e.into());
        }
        if self.tee(id).is_some() {
            self.stats.id_reuses += 1;
        }

        let region_pages = self.config.tee_region.as_bytes() / PAGE_SIZE;
        // Working half starts writable; input half becomes read-only as
        // it is filled.
        for p in region_pages / 2..region_pages {
            self.mee
                .set_page_class(region_page + p, PageClass::Writable);
        }
        self.tees[usize::from(id.raw())] = Some(TeeState {
            status: TeeStatus::Running,
            lpns: lpns.to_vec(),
            region_page,
            region_pages,
            next_fill: 0,
            next_seal: 0,
        });
        self.stats.created += 1;
        let done = self
            .platform
            .monitor
            .call_into(World::Secure, now, |t| t + TEE_CREATE);
        Ok((id, done))
    }

    /// `ReadMappingEntry` (Table 2): address translation through the
    /// protected mapping table, with the ID-bit permission check.
    ///
    /// # Errors
    ///
    /// [`FtlError::AccessDenied`] (wrapped) when the ID bits do not
    /// match — the defense against the §4.3 probing attack.
    pub fn read_mapping_entry(
        &mut self,
        tee: TeeId,
        lpn: Lpn,
        now: SimTime,
    ) -> Result<(Ppn, SimTime), IceClaveError> {
        self.ensure_running(tee)?;
        let translation = self.platform.ftl.translate(
            Requestor::Tee(tee),
            lpn,
            &mut self.platform.monitor,
            now,
        )?;
        Ok((translation.ppn, translation.ready_at))
    }

    /// Host-side data staging with functional content: encrypts
    /// `plaintext` through the controller's stream cipher (all data
    /// crossing the flash boundary is ciphertext, §5) and stores it at
    /// `lpn`'s physical page. The page must already be populated.
    ///
    /// # Errors
    ///
    /// FTL errors if `lpn` is unmapped.
    pub fn host_store_data(
        &mut self,
        lpn: Lpn,
        plaintext: &[u8],
        now: SimTime,
    ) -> Result<(), IceClaveError> {
        self.ensure_powered()?;
        let translation =
            self.platform
                .ftl
                .translate(Requestor::Host, lpn, &mut self.platform.monitor, now)?;
        if self.config.link == Link::Cipher {
            let (ciphertext, iv) = self.cipher.encrypt_page(lpn.raw() as u32, plaintext);
            self.platform
                .ftl
                .flash_mut()
                .write_data(translation.ppn, &ciphertext);
            self.page_ivs.insert(lpn.raw(), iv);
            // The IV is metadata the stored bytes are useless without;
            // journal it with the same synchronous durability as the
            // staging itself.
            self.platform.ftl.journal_append(JournalRecord::IvSeal {
                lpn: lpn.raw(),
                iv_base: iv.base(),
                iv_ppa: iv.ppa(),
            });
        } else {
            self.platform
                .ftl
                .flash_mut()
                .write_data(translation.ppn, plaintext);
        }
        self.platform.ftl.journal_sync(now)?;
        Ok(())
    }

    /// A protected read of one cache line at `line_offset` within the
    /// TEE's region.
    ///
    /// # Errors
    ///
    /// [`IceClaveError::RegionViolation`] when the offset is out of
    /// bounds: the TEE is thrown out ([`IceClave::throw_out`]), which
    /// reclaims its id and region and fails its in-flight tickets.
    pub fn mem_read(
        &mut self,
        tee: TeeId,
        line_offset: u64,
        now: SimTime,
    ) -> Result<SimTime, IceClaveError> {
        let line = self.checked_line(tee, line_offset, now)?;
        let done = self.mee.read_line(&mut self.platform.dram, line, now);
        self.escalate_tamper(tee, done)?;
        Ok(done)
    }

    /// A protected write of one cache line at `line_offset` within the
    /// TEE's region.
    ///
    /// # Errors
    ///
    /// As [`IceClave::mem_read`].
    pub fn mem_write(
        &mut self,
        tee: TeeId,
        line_offset: u64,
        now: SimTime,
    ) -> Result<SimTime, IceClaveError> {
        let line = self.checked_line(tee, line_offset, now)?;
        let done = self.mee.write_line(&mut self.platform.dram, line, now);
        self.escalate_tamper(tee, done)?;
        Ok(done)
    }

    /// Escalates a pending MEE tamper event: corruption is absorbed
    /// inside the engine (home-walk fallback), so a latched event means
    /// the authoritative walk failed too — throw the TEE out with an
    /// integrity abort, exactly the §4.5 ThrowOutTEE path.
    fn escalate_tamper(&mut self, tee: TeeId, now: SimTime) -> Result<(), IceClaveError> {
        if self.mee.take_tamper_event() {
            let _ = self.throw_out(tee, AbortReason::IntegrityFailure, now);
            return Err(IceClaveError::Integrity { tee });
        }
        Ok(())
    }

    /// Runs a compute demand for the TEE on the embedded cores.
    ///
    /// # Errors
    ///
    /// The TEE must be running.
    pub fn compute(
        &mut self,
        tee: TeeId,
        ops: &OpCounts,
        now: SimTime,
    ) -> Result<SimTime, IceClaveError> {
        self.ensure_running(tee)?;
        Ok(self.platform.compute(ops, now))
    }

    /// `GetResult` (Table 2): copies `bytes` of results into the secure
    /// metadata region and DMAs them to the host (workflow steps 7–8).
    ///
    /// # Errors
    ///
    /// The TEE must be running.
    pub fn get_result(
        &mut self,
        tee: TeeId,
        bytes: u64,
        now: SimTime,
    ) -> Result<SimTime, IceClaveError> {
        let first = CacheLine::new(self.ensure_running(tee)?.region_page * LINES_PER_PAGE);
        // Copy into the metadata region happens in the secure world.
        let lines = ByteSize::from_bytes(bytes).cache_lines();
        let copy_done = self.platform.dram.access_run(
            first,
            lines.min(LINES_PER_PAGE * 4),
            iceclave_dram::MemOp::Read,
            now,
        );
        let copy_done = self
            .platform
            .monitor
            .call_into(World::Secure, copy_done, |t| t);
        let dma = self.platform.pcie_transfer_time(bytes);
        Ok(copy_done + dma)
    }

    /// `TerminateTEE` (Table 2): reclaims the region, clears ID bits,
    /// returns the identifier to the pool, and bills the Table 5
    /// deletion cost.
    ///
    /// # Errors
    ///
    /// [`IceClaveError::UnknownTee`].
    pub fn terminate_tee(&mut self, tee: TeeId, now: SimTime) -> Result<SimTime, IceClaveError> {
        let done = self.reclaim(tee, TeeStatus::Terminated, now)?;
        self.stats.terminated += 1;
        Ok(done)
    }

    /// `ThrowOutTEE` (Table 2): aborts the TEE with `reason`,
    /// reclaiming its resources.
    ///
    /// # Errors
    ///
    /// [`IceClaveError::UnknownTee`].
    pub fn throw_out(
        &mut self,
        tee: TeeId,
        reason: AbortReason,
        now: SimTime,
    ) -> Result<SimTime, IceClaveError> {
        let done = self.reclaim(tee, TeeStatus::Aborted(reason), now)?;
        self.stats.aborted += 1;
        Ok(done)
    }

    /// Lifecycle status of a TEE (live or historical ids return their
    /// last status; unknown ids return `None`).
    pub fn status(&self, tee: TeeId) -> Option<TeeStatus> {
        self.tee(tee).map(|s| s.status)
    }

    /// **Attack surface check**: what happens when a normal-world
    /// program tries to write the protected mapping table directly. The
    /// MMU faults — this is the Figure 6 permission matrix at work.
    ///
    /// # Errors
    ///
    /// Always returns the [`ProtectionFault`] (as an error) — that is
    /// the point.
    pub fn attempt_mapping_table_write(&self) -> Result<(), IceClaveError> {
        let table_addr = iceclave_types::PhysAddr::new(SECURE_REGION.as_bytes() + 64);
        self.memory_map
            .check(World::Normal, table_addr, AccessType::Write)?;
        Ok(())
    }

    /// **Attack surface check**: normal-world read of the protected
    /// mapping table — allowed by design (that is the §4.2
    /// optimization).
    ///
    /// # Errors
    ///
    /// Never for the protected region; present for symmetry.
    pub fn attempt_mapping_table_read(&self) -> Result<(), IceClaveError> {
        let table_addr = iceclave_types::PhysAddr::new(SECURE_REGION.as_bytes() + 64);
        self.memory_map
            .check(World::Normal, table_addr, AccessType::Read)?;
        Ok(())
    }

    // ---- internals ---------------------------------------------------

    /// TEE ids 1..16 (0 is reserved as unowned), recycled LIFO.
    fn build_free_ids() -> Vec<TeeId> {
        let mut free_ids: Vec<TeeId> = (1..16u16)
            .rev()
            .map(|raw| TeeId::new(raw).expect("raw < 16"))
            .collect();
        free_ids.shrink_to_fit();
        free_ids
    }

    fn build_free_regions(config: &IceClaveConfig) -> Vec<u64> {
        let region_base_page =
            (SECURE_REGION.as_bytes() + config.platform.ftl.cmt_capacity.as_bytes()) / PAGE_SIZE;
        let region_pages = config.tee_region.as_bytes() / PAGE_SIZE;
        (0..config.region_slots())
            .rev()
            .map(|slot| region_base_page + slot * region_pages)
            .collect()
    }

    fn build_lanes(config: &IceClaveConfig) -> Vec<Resource> {
        match config.link {
            Link::Cipher => (0..config.platform.flash.geometry.channels)
                .map(|i| Resource::new(format!("cipher-engine{i}")))
                .collect(),
            Link::Plain => Vec::new(),
            Link::Pcie => vec![Resource::new("pcie")],
        }
    }

    fn build_arbiter(config: &IceClaveConfig) -> iceclave_ftl::WfqArbiter {
        iceclave_ftl::WfqArbiter::new(config.platform.flash.geometry.channels as usize)
    }

    /// Every externally visible operation checks this first: a tripped
    /// power-loss injector means the controller is off — nothing can
    /// be submitted, drained or stored until [`IceClave::recover`].
    pub(crate) fn ensure_powered(&self) -> Result<(), IceClaveError> {
        if self.exec.power_lost() {
            return Err(IceClaveError::PowerLost);
        }
        Ok(())
    }

    /// The TEE's slot, live or historical. An id wider than the 4-bit
    /// pool reads as absent.
    pub(crate) fn tee(&self, tee: TeeId) -> Option<&TeeState> {
        self.tees.get(usize::from(tee.raw()))?.as_ref()
    }

    pub(crate) fn tee_mut(&mut self, tee: TeeId) -> Option<&mut TeeState> {
        self.tees.get_mut(usize::from(tee.raw()))?.as_mut()
    }

    /// The TEE's state, provided it is running.
    pub(crate) fn ensure_running(&self, tee: TeeId) -> Result<&TeeState, IceClaveError> {
        match self.tee(tee) {
            Some(state) if state.status == TeeStatus::Running => Ok(state),
            Some(_) => Err(IceClaveError::NotRunning(tee)),
            None => Err(IceClaveError::UnknownTee(tee)),
        }
    }

    /// Bounds-checks a TEE-relative line offset; violations throw the
    /// TEE out (§4.5 abort condition 1).
    fn checked_line(
        &mut self,
        tee: TeeId,
        line_offset: u64,
        now: SimTime,
    ) -> Result<CacheLine, IceClaveError> {
        let state = self.ensure_running(tee)?;
        if line_offset < state.region_pages * LINES_PER_PAGE {
            return Ok(CacheLine::new(
                state.region_page * LINES_PER_PAGE + line_offset,
            ));
        }
        self.throw_out(tee, AbortReason::AccessViolation, now)?;
        Err(IceClaveError::RegionViolation { tee, line_offset })
    }

    fn reclaim(
        &mut self,
        tee: TeeId,
        status: TeeStatus,
        now: SimTime,
    ) -> Result<SimTime, IceClaveError> {
        let state = self.tee_mut(tee).ok_or(IceClaveError::UnknownTee(tee))?;
        if state.status != TeeStatus::Running {
            return Err(IceClaveError::NotRunning(tee));
        }
        state.status = status;
        let lpns = state.lpns.clone();
        let region_page = state.region_page;
        // The TEE's in-flight executor tickets die with it: their
        // remaining pages fail immediately, so no stale stage event can
        // ever touch the recycled region or act under the recycled id.
        self.cancel_tickets_of(tee, now);
        // The arbiter forgets the tenant's lanes so a future TEE
        // recycling the id starts with a clean virtual clock.
        self.arbiter.forget_tee(tee);
        self.platform.ftl.clear_id_bits(&lpns);
        self.free_regions.push(region_page);
        self.free_ids.push(tee);
        Ok(self
            .platform
            .monitor
            .call_into(World::Secure, now, |t| t + TEE_DELETE))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use iceclave_types::PageWrite;

    fn setup_with_data(pages: u64) -> (IceClave, SimTime) {
        let mut ice = IceClave::new(IceClaveConfig::tiny());
        let t = ice.populate(Lpn::new(0), pages, SimTime::ZERO).unwrap();
        (ice, t)
    }

    fn lpns(range: std::ops::Range<u64>) -> Vec<Lpn> {
        range.map(Lpn::new).collect()
    }

    #[test]
    fn lifecycle_happy_path() {
        let (mut ice, t) = setup_with_data(8);
        let (tee, t) = ice.offload_code(64 << 10, &lpns(0..8), t).unwrap();
        assert_eq!(ice.status(tee), Some(TeeStatus::Running));
        let t = ice
            .submit_batch_async(tee, &[Lpn::new(0)], t)
            .and_then(|tk| ice.wait_batch(tk))
            .unwrap()
            .finished;
        let t = ice.mem_write(tee, 10_000, t).unwrap();
        let t = ice.mem_read(tee, 10_000, t).unwrap();
        let t = ice.get_result(tee, 4096, t).unwrap();
        ice.terminate_tee(tee, t).unwrap();
        assert_eq!(ice.status(tee), Some(TeeStatus::Terminated));
        let s = ice.stats();
        assert_eq!(s.created, 1);
        assert_eq!(s.terminated, 1);
        assert_eq!(s.pages_loaded, 1);
    }

    #[test]
    fn creation_bills_table5_cost() {
        let (mut ice, t) = setup_with_data(2);
        let switches_before = ice.platform().monitor.stats().switches;
        let (_tee, done) = ice.offload_code(1024, &lpns(0..2), t).unwrap();
        // 95us creation plus two world switches.
        let elapsed = done.saturating_since(t);
        assert_eq!(elapsed.as_nanos(), 95_000 + 2 * 3_800);
        assert_eq!(ice.platform().monitor.stats().switches, switches_before + 2);
    }

    #[test]
    fn oversized_binary_is_rejected() {
        let (mut ice, t) = setup_with_data(2);
        let err = ice.offload_code(64 << 20, &lpns(0..2), t).unwrap_err();
        assert!(matches!(err, IceClaveError::CodeTooLarge { .. }));
    }

    #[test]
    fn id_bits_isolate_tees_from_each_other() {
        let (mut ice, t) = setup_with_data(8);
        let (alice, t) = ice.offload_code(1024, &lpns(0..4), t).unwrap();
        let (mallory, t) = ice.offload_code(1024, &lpns(4..8), t).unwrap();
        // Mallory probes Alice's pages through every API (§4.3 attack).
        assert!(matches!(
            ice.read_mapping_entry(mallory, Lpn::new(0), t),
            Err(IceClaveError::Ftl(FtlError::AccessDenied { .. }))
        ));
        assert!(matches!(
            ice.submit_batch_async(mallory, &[Lpn::new(1)], t),
            Err(IceClaveError::Ftl(FtlError::AccessDenied { .. }))
        ));
        // Alice still works.
        assert!(ice
            .submit_batch_async(alice, &[Lpn::new(0)], t)
            .and_then(|tk| ice.wait_batch(tk))
            .is_ok());
    }

    #[test]
    fn region_violation_throws_the_tee_out() {
        let (mut ice, t) = setup_with_data(2);
        let (tee, t) = ice.offload_code(1024, &lpns(0..2), t).unwrap();
        let region_lines = ice.config().tee_region.as_bytes() / 64;
        let err = ice.mem_read(tee, region_lines + 1, t).unwrap_err();
        assert!(matches!(err, IceClaveError::RegionViolation { .. }));
        assert_eq!(
            ice.status(tee),
            Some(TeeStatus::Aborted(AbortReason::AccessViolation))
        );
        // A dead TEE cannot keep issuing requests.
        assert!(matches!(
            ice.mem_read(tee, 0, t),
            Err(IceClaveError::NotRunning(_))
        ));
    }

    #[test]
    fn mapping_table_is_readable_but_not_writable_from_normal_world() {
        let (ice, _) = setup_with_data(1);
        assert!(ice.attempt_mapping_table_read().is_ok());
        let err = ice.attempt_mapping_table_write().unwrap_err();
        assert!(matches!(err, IceClaveError::Protection(_)));
    }

    #[test]
    fn tee_ids_are_reused_after_termination() {
        let (mut ice, mut t) = setup_with_data(2);
        let pages = lpns(0..2);
        let mut first_id = None;
        for _ in 0..20 {
            let (tee, t2) = ice.offload_code(1024, &pages, t).unwrap();
            if first_id.is_none() {
                first_id = Some(tee);
            }
            t = ice.terminate_tee(tee, t2).unwrap();
        }
        // Only 15 ids exist; 20 sequential TEEs require reuse.
        assert!(ice.stats().id_reuses > 0);
        assert_eq!(ice.stats().created, 20);
    }

    #[test]
    fn id_pool_exhaustion_is_reported() {
        let (mut ice, mut t) = setup_with_data(15);
        let mut live = Vec::new();
        for i in 0..15u64 {
            match ice.offload_code(1024, &lpns(i..i + 1), t) {
                Ok((tee, t2)) => {
                    live.push(tee);
                    t = t2;
                }
                Err(e) => panic!("creation {i} failed early: {e}"),
            }
        }
        assert!(matches!(
            ice.offload_code(1024, &lpns(0..1), t),
            Err(IceClaveError::NoFreeIds)
        ));
    }

    #[test]
    fn offload_rolls_back_on_unmapped_grant() {
        let (mut ice, t) = setup_with_data(2);
        let err = ice.offload_code(1024, &lpns(0..5), t).unwrap_err();
        assert!(matches!(err, IceClaveError::Ftl(FtlError::Unmapped(_))));
        // The id and the region were returned to the pools.
        let (tee, t2) = ice.offload_code(1024, &lpns(0..2), t).unwrap();
        ice.terminate_tee(tee, t2).unwrap();
    }

    #[test]
    fn flash_loads_fill_protected_input_pages() {
        let (mut ice, t) = setup_with_data(4);
        let (tee, t) = ice.offload_code(1024, &lpns(0..4), t).unwrap();
        let mut t2 = t;
        for i in 0..4u64 {
            t2 = ice
                .submit_batch_async(tee, &[Lpn::new(i)], t2)
                .and_then(|tk| ice.wait_batch(tk))
                .unwrap()
                .finished;
        }
        assert_eq!(ice.stats().pages_loaded, 4);
        assert!(ice.mee().stats().fill_writes >= 4 * 64);
        assert!(ice.cipher_mut().pages_decrypted() == 0); // timing path only
    }

    #[test]
    fn write_batch_round_trips_payloads() {
        let (mut ice, t) = setup_with_data(4);
        let (tee, t) = ice.offload_code(1024, &lpns(0..4), t).unwrap();
        let writes: Vec<PageWrite> = (0..4u64)
            .map(|i| PageWrite::with_data(Lpn::new(i), vec![i as u8 ^ 0x5A; 4096]))
            .collect();
        let done = ice
            .submit_write_batch_async_as(tee, writes, t)
            .and_then(|tk| ice.wait_batch(tk))
            .unwrap();
        assert_eq!(done.len(), 4);
        assert!(done.finished > t);
        assert_eq!(ice.stats().pages_stored, 4);
        // Read back through the protected read path: byte-identical.
        let read = ice
            .submit_batch_async(tee, &[Lpn::new(2)], done.finished)
            .and_then(|tk| ice.wait_batch(tk))
            .unwrap();
        assert_eq!(
            read.completions[0].data.as_deref(),
            Some(&[0x58u8; 4096][..])
        );
        assert!(ice.mee().stats().seal_reads >= 4 * 64);
    }

    #[test]
    fn write_batch_on_foreign_page_throws_the_tee_out() {
        let (mut ice, t) = setup_with_data(6);
        let (tee, t) = ice.offload_code(1024, &lpns(0..4), t).unwrap();
        let programs_before = ice.platform().ftl.flash().stats().programs;
        let err = ice
            .submit_write_batch_async(tee, &[Lpn::new(0), Lpn::new(5)], t)
            .unwrap_err();
        assert!(matches!(
            err,
            IceClaveError::Ftl(FtlError::AccessDenied { lpn, .. }) if lpn == Lpn::new(5)
        ));
        assert_eq!(
            ice.status(tee),
            Some(TeeStatus::Aborted(AbortReason::AccessViolation))
        );
        // The atomic denial programmed nothing.
        assert_eq!(ice.platform().ftl.flash().stats().programs, programs_before);
        assert_eq!(ice.stats().pages_stored, 0);
        assert!(matches!(
            ice.submit_write_batch_async(tee, &[Lpn::new(0)], t),
            Err(IceClaveError::NotRunning(_))
        ));
    }

    #[test]
    fn empty_write_batch_is_free() {
        let (mut ice, t) = setup_with_data(2);
        let (tee, t) = ice.offload_code(1024, &lpns(0..2), t).unwrap();
        let done = ice
            .submit_write_batch_async(tee, &[], t)
            .and_then(|tk| ice.wait_batch(tk))
            .unwrap();
        assert!(done.is_empty());
        assert_eq!(done.finished, t);
    }

    /// A runtime whose MEE thrashes its tiny counter cache into a
    /// small L2 store, so protected reads produce L2 MAC checks.
    fn setup_thrashing_l2() -> (IceClave, TeeId, SimTime) {
        let mut cfg = IceClaveConfig::tiny();
        cfg.mee.counter_cache = ByteSize::from_kib(4);
        cfg.mee = cfg.mee.with_l2(ByteSize::from_kib(64));
        let mut ice = IceClave::new(cfg);
        let t = ice.populate(Lpn::new(0), 2, SimTime::ZERO).unwrap();
        let (tee, t) = ice.offload_code(1024, &lpns(0..2), t).unwrap();
        (ice, tee, t)
    }

    #[test]
    fn mac_corruption_recovers_without_aborting() {
        let (mut ice, tee, mut t) = setup_thrashing_l2();
        ice.install_mac_fault_plan(iceclave_mee::MacFaultPlan {
            mismatch_ops: vec![0, 1],
            ..iceclave_mee::MacFaultPlan::none()
        });
        // Two passes over 512 pages: pass 1 demotes counters into L2,
        // pass 2 hits them — the scripted MAC mismatches recover via
        // the home Merkle walk and the program never notices.
        for _ in 0..2 {
            for page in 0..512u64 {
                t = ice.mem_read(tee, page * LINES_PER_PAGE, t).unwrap();
            }
        }
        assert_eq!(ice.mee().stats().mac_fallbacks, 2);
        assert_eq!(ice.mee().stats().tamper_events, 0);
        assert_eq!(ice.status(tee), Some(TeeStatus::Running));
    }

    #[test]
    fn tampered_metadata_throws_the_tee_out() {
        let (mut ice, tee, mut t) = setup_thrashing_l2();
        ice.install_mac_fault_plan(iceclave_mee::MacFaultPlan {
            tamper_ops: vec![0],
            ..iceclave_mee::MacFaultPlan::none()
        });
        let mut err = None;
        'sweep: for _ in 0..3 {
            for page in 0..512u64 {
                match ice.mem_read(tee, page * LINES_PER_PAGE, t) {
                    Ok(done) => t = done,
                    Err(e) => {
                        err = Some(e);
                        break 'sweep;
                    }
                }
            }
        }
        // Only when the authoritative walk also fails does the access
        // escalate to the paper's ThrowOutTEE integrity abort.
        assert_eq!(err, Some(IceClaveError::Integrity { tee }));
        assert_eq!(
            ice.status(tee),
            Some(TeeStatus::Aborted(AbortReason::IntegrityFailure))
        );
        assert_eq!(ice.mee().stats().tamper_events, 1);
        // The dead TEE rejects further accesses.
        assert!(ice.mem_read(tee, 0, t).is_err());
    }

    #[test]
    fn throw_out_records_reason() {
        let (mut ice, t) = setup_with_data(2);
        let (tee, t) = ice.offload_code(1024, &lpns(0..2), t).unwrap();
        ice.throw_out(tee, AbortReason::IntegrityFailure, t)
            .unwrap();
        assert_eq!(
            ice.status(tee),
            Some(TeeStatus::Aborted(AbortReason::IntegrityFailure))
        );
        assert_eq!(ice.stats().aborted, 1);
    }

    #[test]
    fn region_violations_reclaim_the_tee() {
        // More violators than there are ids: each must hand its id and
        // region back, and its in-flight read must fail, not deliver
        // pages to a TEE that was thrown out.
        let (mut ice, mut t) = setup_with_data(4);
        let region_lines = ice.config().tee_region.as_bytes() / 64;
        for round in 0..20u64 {
            let (tee, t2) = match ice.offload_code(1024, &lpns(0..4), t) {
                Ok(created) => created,
                Err(e) => panic!("round {round}: offload failed: {e}"),
            };
            let ticket = ice.submit_batch_async(tee, &lpns(0..4), t2).unwrap();
            let err = if round % 2 == 0 {
                ice.mem_read(tee, region_lines + round, t2)
            } else {
                ice.mem_write(tee, region_lines + round, t2)
            }
            .unwrap_err();
            assert!(matches!(err, IceClaveError::RegionViolation { .. }));
            assert_eq!(
                ice.status(tee),
                Some(TeeStatus::Aborted(AbortReason::AccessViolation))
            );
            let events = ice.drain_completions();
            assert_eq!(events.len(), 4, "round {round}");
            for event in &events {
                assert_eq!(event.ticket, ticket);
                assert!(
                    matches!(event.status, iceclave_types::PageStatus::Failed { .. }),
                    "round {round}: page {} retired {:?}",
                    event.index,
                    event.status
                );
            }
            t = events
                .iter()
                .map(|e| e.breakdown.ready)
                .fold(t2, SimTime::max);
        }
        assert_eq!(ice.stats().aborted, 20);
        assert_eq!(ice.in_flight_tickets(), 0);
    }

    #[test]
    fn ids_outside_the_pool_are_unknown() {
        let (mut ice, t) = setup_with_data(2);
        let (live, t) = ice.offload_code(1024, &lpns(0..2), t).unwrap();
        let wide = TeeId::with_bits(200, 8).unwrap();
        assert_eq!(
            ice.mem_read(wide, 0, t),
            Err(IceClaveError::UnknownTee(wide))
        );
        assert_eq!(ice.status(wide), None);
        assert_eq!(
            ice.terminate_tee(wide, t),
            Err(IceClaveError::UnknownTee(wide))
        );
        assert_eq!(ice.status(live), Some(TeeStatus::Running));
    }

    #[test]
    fn recover_forgets_every_tee() {
        let mut cfg = IceClaveConfig::tiny();
        cfg.platform.ftl.journal_blocks = 6;
        let mut ice = IceClave::new(cfg);
        let t = ice.populate(Lpn::new(0), 2, SimTime::ZERO).unwrap();
        let (tee, t) = ice.offload_code(1024, &lpns(0..2), t).unwrap();
        ice.recover(t).unwrap();
        assert_eq!(ice.status(tee), None);
        // The first id handed out after the reboot is a fresh use.
        let (again, _) = ice.offload_code(1024, &lpns(0..2), t).unwrap();
        assert_eq!(again, tee);
        assert_eq!(ice.stats().id_reuses, 0);
    }
}
