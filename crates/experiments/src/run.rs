//! The workload executor: replays instrumented batches against an
//! execution mode and measures the paper's metrics.
//!
//! The pipeline model is classic double buffering: the flash (or PCIe)
//! load of batch *i* is issued when the compute of batch *i-1* starts,
//! and the compute of batch *i* starts at
//! `max(compute_end(i-1), load_done(i))` — load stall is therefore
//! exactly the time the cores sat waiting on I/O, the quantity the
//! Figure 11 breakdown plots.

use std::convert::Infallible;

use iceclave_core::{IceClave, IceClaveError};
use iceclave_cpu::{CoreModel, SgxModel};
use iceclave_dram::{Dram, DramConfig};
use iceclave_ftl::Requestor;
use iceclave_isc::SsdPlatform;
use iceclave_mee::{CounterMode, MeeConfig, MeeEngine, PageClass};
use iceclave_sim::{Resource, ResourcePool, SimRng};
use iceclave_types::{
    ByteSize, CacheLine, FaultStats, Lpn, RecoveryStats, SimDuration, SimTime, TeeId,
    TicketAttribution, LINES_PER_PAGE, PAGE_SIZE,
};
use iceclave_workloads::{Batch, Workload, WorkloadConfig, WorkloadKind, WorkloadOutput};

use crate::capacity::CapacityModel;
use crate::modes::{Mode, Overrides, HOST_DRAM};

/// Everything measured from one workload execution.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The workload that ran.
    pub workload: WorkloadKind,
    /// The execution mode.
    pub mode: Mode,
    /// End-to-end runtime (populate/setup excluded).
    pub total: SimDuration,
    /// Time compute sat waiting for flash/PCIe (the "load time" bars).
    pub load_stall: SimDuration,
    /// Pure operator compute time.
    pub ops_time: SimDuration,
    /// DRAM access time (including MEE additions).
    pub mem_time: SimDuration,
    /// Latency added by memory encryption/verification (part of
    /// `mem_time`).
    pub sec_overhead: SimDuration,
    /// Cached-mapping-table miss rate (§6.3 reports 0.17%).
    pub cmt_miss_rate: f64,
    /// Counter-cache (L1) hit rate, all block kinds.
    pub counter_cache_hit_rate: f64,
    /// L1 hit rate on encryption-counter blocks only.
    pub counter_hit_rate: f64,
    /// L1 hit rate on data-MAC blocks only (zero when MACs are
    /// co-located with the data).
    pub mac_hit_rate: f64,
    /// L1 hit rate on integrity-tree nodes only.
    pub tree_hit_rate: f64,
    /// Second-level (DRAM) counter-store hit rate; zero when disabled.
    pub l2_hit_rate: f64,
    /// Mean latency the MEE added to each program read.
    pub mean_read_overhead: SimDuration,
    /// Table 6: extra encryption traffic / regular traffic.
    pub enc_traffic: f64,
    /// Table 6: extra verification traffic / regular traffic.
    pub ver_traffic: f64,
    /// World switches taken.
    pub world_switches: u64,
    /// Fault-and-recovery accounting (all zero when no fault plan was
    /// installed; see `iceclave_flash::faults`).
    pub faults: FaultStats,
    /// Integrity-metadata traffic attributed to executor tickets (the
    /// sum of per-ticket MEE deltas; zero for host-mode runs and for
    /// workloads that never use the batched async path).
    pub ticket_meta: TicketAttribution,
    /// Energy breakdown of the run (derived from activity counters).
    pub energy: crate::energy::EnergyBreakdown,
    /// Crash-recovery accounting, when the run rebooted the device
    /// through `IceClave::recover` (`None` for the standard
    /// experiments, which never lose power; see
    /// `tests/crash_recovery.rs` and the `crash_recovery` bench).
    pub recovery: Option<RecoveryStats>,
    /// The workload's computed answer (identical across modes).
    pub output: WorkloadOutput,
}

impl RunResult {
    /// Speedup of `self` over `baseline` (>1 means `self` is faster).
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        baseline.total / self.total
    }
}

/// Runs `kind` under `mode` and returns the measurements.
///
/// # Panics
///
/// Panics if the simulated runtime misbehaves (offload failures etc.);
/// experiment configurations are trusted inputs.
pub fn run(
    mode: Mode,
    kind: WorkloadKind,
    wl_config: &WorkloadConfig,
    overrides: &Overrides,
) -> RunResult {
    let workload = kind.build(wl_config);
    let mut batches = Vec::new();
    let output = workload.run(&mut |b| batches.push(b));
    if mode.is_host() {
        run_host(
            mode, kind, wl_config, overrides, &*workload, &batches, output,
        )
    } else {
        run_ssd(
            mode, kind, wl_config, overrides, &*workload, &batches, output,
        )
        .expect("ssd run must not fail on trusted configuration")
    }
}

// ------------------------------------------------------------- SSD ----

/// Per-tenant execution state on the SSD (shared by the single-tenant
/// runner and the Figures 17/18 multi-tenant scheduler).
#[derive(Debug)]
pub(crate) struct SsdSession {
    tee: TeeId,
    base_lpn: u64,
    dataset_pages: u64,
    staged: ByteSize,
    input_line_span: u64,
    working_line_base: u64,
    working_line_span: u64,
    /// Staged-table probes are radix-partitioned (standard for joins
    /// whose build side exceeds the cache): each partition is
    /// cache-sized, so probes sweep a small window at a time.
    staged_line_span: u64,
    input_cursor: u64,
    rng: SimRng,
    /// Virtual time of this tenant's compute stream.
    pub(crate) clock: SimTime,
    prev_compute_start: SimTime,
    /// Anchor for streaming loads: scans prefetch ahead of compute, so
    /// their flash requests are issued as early as the device accepts
    /// them (the resource timelines provide the back-pressure).
    stream_anchor: SimTime,
    /// Completion times of recently issued load batches: streaming
    /// prefetch is bounded to four batches in flight, which saturates
    /// the channels for one tenant without camping the whole device
    /// queue indefinitely (multi-tenant fairness, Figures 17/18).
    inflight_loads: [SimTime; 4],
    /// Durability horizon of the latest transactional commit batch:
    /// updated pages persist through a write ticket (group commit,
    /// overlapped with the next batch's compute via the shared flash
    /// timelines); the run is only finished once it has drained.
    pending_commit: SimTime,
    load_stall: SimDuration,
    mem_time: SimDuration,
    ops_time: SimDuration,
}

/// Memory-level parallelism of the executing core: accesses are issued
/// in groups of this size, overlapping across DRAM banks.
const MLP: u64 = 4;

impl SsdSession {
    pub(crate) fn new(
        ice: &IceClave,
        tee: TeeId,
        base_lpn: u64,
        workload: &dyn Workload,
        scale_factor: f64,
        start: SimTime,
        rng: SimRng,
    ) -> Self {
        let region_pages = ice.config().tee_region.as_bytes() / PAGE_SIZE;
        let input_pages = region_pages / 2;
        // Random working accesses spread over the *modeled* structure
        // size (clamped to the region half): a hash table that would be
        // hundreds of MiB at the paper's 32 GiB scale must sweep enough
        // DRAM to thrash the counter cache the way the real one would.
        let working_half_lines = (region_pages - input_pages) * LINES_PER_PAGE;
        // working_set() already reports the modeled footprint.
        let modeled_lines = workload.working_set().cache_lines();
        // One radix partition of the staged table: 1 MiB windows.
        let staged_modeled = (workload.staged_bytes().cache_lines() as f64 * scale_factor) as u64;
        let staged_span = staged_modeled.clamp(64, 16_384);
        SsdSession {
            tee,
            base_lpn,
            dataset_pages: workload.dataset_pages(),
            staged: workload.staged_bytes(),
            input_line_span: input_pages * LINES_PER_PAGE,
            working_line_base: input_pages * LINES_PER_PAGE,
            working_line_span: modeled_lines.clamp(64, working_half_lines),
            staged_line_span: staged_span,
            input_cursor: 0,
            rng,
            clock: start,
            prev_compute_start: start,
            stream_anchor: start,
            inflight_loads: [start; 4],
            pending_commit: start,
            load_stall: SimDuration::ZERO,
            mem_time: SimDuration::ZERO,
            ops_time: SimDuration::ZERO,
        }
    }

    fn next_input_offset(&mut self) -> u64 {
        let off = self.input_cursor % self.input_line_span;
        self.input_cursor += 1;
        off
    }

    fn random_working(&mut self) -> u64 {
        self.working_line_base + self.rng.gen_below(self.working_line_span)
    }

    fn random_staged(&mut self) -> u64 {
        self.working_line_base + self.rng.gen_below(self.staged_line_span)
    }

    /// Executes one batch through the runtime, advancing this tenant's
    /// clock.
    pub(crate) fn step(
        &mut self,
        ice: &mut IceClave,
        batch: &Batch,
        cap: &CapacityModel,
    ) -> Result<(), IceClaveError> {
        // Streaming scans prefetch: requests are issued at the stream
        // anchor and queue on the flash resources, keeping every
        // channel bus saturated (the device's internal bandwidth).
        // Data-dependent random access (transactions) cannot prefetch
        // past the previous batch's compute.
        let issue = if batch.random_access {
            self.prev_compute_start
        } else {
            // Bounded lookahead: this batch's requests go out once the
            // batch four positions back has fully arrived.
            self.stream_anchor.max(self.inflight_loads[0])
        };
        let mut load_done = issue;
        let page_hit = cap.page_cache_hit();
        // Streaming input is filled read-only (major counters);
        // transactional pages are about to be updated in place, so they
        // are filled writable (§4.4's dynamic permissions).
        let fill_class = if batch.random_access {
            PageClass::Writable
        } else {
            PageClass::ReadOnly
        };
        // The whole step's page set is submitted as ONE batch, so the
        // executor can stripe it across every bus — this is the
        // channel parallelism Figures 12/13 measure.
        let mut lpns: Vec<Lpn> = Vec::new();
        for run in &batch.flash_reads {
            for lpn in run.iter() {
                if batch.random_access && self.rng.gen_bool(page_hit) {
                    continue; // already resident in SSD DRAM
                }
                lpns.push(Lpn::new(self.base_lpn + lpn.raw()));
            }
        }
        // Staged-table lookups that miss the modeled DRAM capacity are
        // re-fetched from flash at page granularity, coalesced (~128
        // row misses per 4 KiB page) and prefetched with the batch's
        // loads — partitioned probing makes the page set known ahead.
        let staged_hit = cap.staged_hit(self.staged);
        let mut staged_lpns: Vec<Lpn> = Vec::new();
        if batch.staged_reads > 0 && staged_hit < 1.0 {
            let mut misses = 0u64;
            for _ in 0..batch.staged_reads {
                if !self.rng.gen_bool(staged_hit) {
                    misses += 1;
                }
            }
            for _ in 0..misses.div_ceil(128) {
                let lpn = self.base_lpn + self.rng.gen_below(self.dataset_pages);
                staged_lpns.push(Lpn::new(lpn));
            }
        }
        // Both load batches are submitted to the event-driven executor
        // as concurrent tickets before either is drained: the staged
        // re-fetches interleave with the main scan at stage granularity
        // (channel gaps, decrypt lanes) instead of queueing wholesale
        // behind it. Staged re-fetches stream in read-only (they back
        // lookups, not in-place updates).
        let main_ticket = if lpns.is_empty() {
            None
        } else {
            Some(ice.submit_batch_async_as(self.tee, &lpns, fill_class, issue)?)
        };
        let staged_ticket = if staged_lpns.is_empty() {
            None
        } else {
            Some(ice.submit_batch_async(self.tee, &staged_lpns, issue)?)
        };
        if let Some(ticket) = main_ticket {
            load_done = load_done.max(ice.wait_batch(ticket)?.finished);
        }
        if let Some(ticket) = staged_ticket {
            load_done = load_done.max(ice.wait_batch(ticket)?.finished);
        }
        self.inflight_loads.rotate_left(1);
        self.inflight_loads[3] = load_done;
        let compute_start = self.clock.max(load_done);
        self.load_stall += compute_start.saturating_since(self.clock);

        let tee = self.tee;
        let t = issue_grouped(
            batch.input_lines,
            compute_start,
            || self.next_input_offset(),
            |off, at| ice.mem_read(tee, off, at),
        )?;
        // Staged-table lookups: partitioned probing within cache-sized
        // windows (the refetch pages were prefetched with the loads).
        let t = issue_grouped(
            batch.staged_reads,
            t,
            || self.random_staged(),
            |off, at| ice.mem_read(tee, off, at),
        )?;
        let t = issue_grouped(
            batch.working_reads,
            t,
            || self.random_working(),
            |off, at| ice.mem_read(tee, off, at),
        )?;
        // Transactional writes update records inside the fetched pages
        // (the input ring); analytic writes go to the small working
        // structures.
        let t = issue_grouped(
            batch.working_writes,
            t,
            || {
                if batch.random_access {
                    self.rng.gen_below(self.input_line_span)
                } else {
                    self.random_working()
                }
            },
            |off, at| ice.mem_write(tee, off, at),
        )?;
        self.mem_time += t.saturating_since(compute_start);
        let done = ice.compute(self.tee, &batch.ops, t)?;
        self.ops_time += done.saturating_since(t);
        // Transactional batches persist their updated pages through the
        // batched, channel-parallel program path (group commit): the
        // write batch is issued when the batch's compute retires and
        // drains concurrently with the next batch's loads — the shared
        // flash timelines provide the contention; only the end of the
        // run waits for the last commit.
        if batch.random_access && batch.working_writes > 0 && !lpns.is_empty() {
            let dirty = (batch.working_writes as usize).min(lpns.len());
            let ticket = ice.submit_write_batch_async(self.tee, &lpns[..dirty], done)?;
            let commit = ice.wait_batch(ticket)?;
            self.pending_commit = self.pending_commit.max(commit.finished);
        }
        self.prev_compute_start = compute_start;
        self.clock = done;
        Ok(())
    }

    /// The tenant's clock including the drain of its last commit batch.
    pub(crate) fn drained_clock(&self) -> SimTime {
        self.clock.max(self.pending_commit)
    }
}

/// Issues `count` memory accesses in groups of [`MLP`]: the accesses
/// of a group all start when the slowest access of the previous group
/// ends (the first group at `start`). Returns when the last access
/// ends, or `start` when `count` is zero.
fn issue_grouped<E>(
    count: u64,
    start: SimTime,
    mut offset: impl FnMut() -> u64,
    mut access: impl FnMut(u64, SimTime) -> Result<SimTime, E>,
) -> Result<SimTime, E> {
    let (mut group_start, mut end) = (start, start);
    for issued in 1..=count {
        end = end.max(access(offset(), group_start)?);
        if issued % MLP == 0 {
            group_start = end;
        }
    }
    Ok(end)
}

/// Runs an SSD-side mode with an explicit runtime configuration
/// (ablation studies that tweak knobs outside [`Overrides`]).
pub fn run_with_config(
    config: iceclave_core::IceClaveConfig,
    mode: Mode,
    kind: WorkloadKind,
    wl_config: &WorkloadConfig,
) -> RunResult {
    let workload = kind.build(wl_config);
    let mut batches = Vec::new();
    let output = workload.run(&mut |b| batches.push(b));
    run_ssd_with(config, mode, kind, wl_config, &*workload, &batches, output)
        .expect("ssd run must not fail on trusted configuration")
}

#[allow(clippy::too_many_arguments)]
fn run_ssd(
    mode: Mode,
    kind: WorkloadKind,
    wl_config: &WorkloadConfig,
    overrides: &Overrides,
    workload: &dyn Workload,
    batches: &[Batch],
    output: WorkloadOutput,
) -> Result<RunResult, IceClaveError> {
    let config = mode.ssd_config(overrides);
    run_ssd_with(config, mode, kind, wl_config, workload, batches, output)
}

#[allow(clippy::too_many_arguments)]
fn run_ssd_with(
    config: iceclave_core::IceClaveConfig,
    mode: Mode,
    kind: WorkloadKind,
    wl_config: &WorkloadConfig,
    workload: &dyn Workload,
    batches: &[Batch],
    output: WorkloadOutput,
) -> Result<RunResult, IceClaveError> {
    let cap = CapacityModel {
        modeled_dataset: wl_config.modeled_bytes,
        dram: config.platform.dram.capacity,
        usable_fraction: 0.75,
        scale_factor: wl_config.scale_factor(),
    };
    let mut ice = IceClave::new(config);
    let pages = workload.dataset_pages();
    let t = ice.populate(Lpn::new(0), pages, SimTime::ZERO)?;
    let run_start = t;
    let flash_base = (
        ice.platform().ftl.flash().stats().reads,
        ice.platform().ftl.flash().stats().programs,
    );
    let lpns: Vec<Lpn> = (0..pages).map(Lpn::new).collect();
    let (tee, t) = ice.offload_code(256 << 10, &lpns, t)?;
    let rng = SimRng::new(wl_config.seed).derive(&format!("exec/{}", kind.label()));
    let mut session = SsdSession::new(&ice, tee, 0, workload, wl_config.scale_factor(), t, rng);
    for batch in batches {
        session.step(&mut ice, batch, &cap)?;
    }
    let t = ice.get_result(tee, 64 << 10, session.drained_clock())?;
    let t = ice.terminate_tee(tee, t)?;

    let mee_stats = ice.mee().stats().clone();
    let flash_stats = ice.platform().ftl.flash().stats();
    let activity = crate::energy::Activity {
        flash_reads: flash_stats.reads - flash_base.0,
        flash_programs: flash_stats.programs - flash_base.1,
        dram_accesses: ice.platform().dram.stats().accesses(),
        core_busy: ice.platform().cores.busy_time(),
        on_host: false,
        cipher_pages: ice.stats().pages_loaded,
        mee_ops: mee_stats.encryptions + mee_stats.verifications,
    };
    let energy = crate::energy::EnergyModel::default().evaluate(&activity);
    let ftl_stats = ice.platform().ftl.stats();
    let rt_stats = ice.stats();
    let faults = FaultStats {
        read_retries: rt_stats.read_retries,
        uncorrectable_pages: rt_stats.uncorrectable_pages,
        corrected_bursts: flash_stats.corrected_bursts,
        program_remaps: ftl_stats.program_remaps,
        blocks_retired: ftl_stats.blocks_retired,
        mac_fallbacks: mee_stats.mac_fallbacks,
    };
    Ok(RunResult {
        workload: kind,
        mode,
        total: t.saturating_since(run_start),
        load_stall: session.load_stall,
        ops_time: session.ops_time,
        mem_time: session.mem_time,
        sec_overhead: mee_stats.read_overhead + mee_stats.write_overhead,
        cmt_miss_rate: ice.platform().ftl.cmt().miss_rate(),
        counter_cache_hit_rate: ice.mee().cache_hit_rate(),
        counter_hit_rate: mee_stats.meta_traffic.counter_hit_rate(),
        mac_hit_rate: mee_stats.meta_traffic.mac_hit_rate(),
        tree_hit_rate: mee_stats.meta_traffic.tree_hit_rate(),
        l2_hit_rate: mee_stats.l2_hit_rate(),
        mean_read_overhead: mee_stats.mean_read_overhead(),
        enc_traffic: mee_stats.encryption_traffic_overhead(),
        ver_traffic: mee_stats.verification_traffic_overhead(),
        world_switches: ice.platform().monitor.stats().switches,
        energy,
        faults,
        ticket_meta: rt_stats.ticket_meta,
        recovery: None,
        output,
    })
}

// ------------------------------------------------------------ Host ----

/// Host DRAM model: same DDR3-1600 timing at twice the channels
/// (standing in for the server's dual-channel DDR4).
fn host_dram_config() -> DramConfig {
    DramConfig {
        channels: 2,
        capacity: HOST_DRAM,
        ..DramConfig::table3()
    }
}

#[allow(clippy::too_many_arguments)]
fn run_host(
    mode: Mode,
    kind: WorkloadKind,
    wl_config: &WorkloadConfig,
    overrides: &Overrides,
    workload: &dyn Workload,
    batches: &[Batch],
    output: WorkloadOutput,
) -> RunResult {
    // The SSD side: plain block reads (no in-storage compute).
    let mut ssd_config = Mode::Isc.ssd_config(overrides);
    // Host experiments never change the SSD core; only flash parameters
    // matter for the device side.
    ssd_config.platform.core_model = CoreModel::a72_1_6ghz();
    let mut platform = SsdPlatform::new(ssd_config.platform.clone());
    let pages = workload.dataset_pages();
    let run_start = platform
        .populate(Lpn::new(0), pages, SimTime::ZERO)
        .expect("population fits the device");
    let flash_base = (
        platform.ftl.flash().stats().reads,
        platform.ftl.flash().stats().programs,
    );

    let core = CoreModel::i7_7700k();
    let mut cores = ResourcePool::new("host-core", 1);
    let mut pcie = Resource::new("pcie");
    let mut dram = Dram::new(host_dram_config());
    let mee_config = if mode == Mode::HostSgx {
        MeeConfig {
            mode: CounterMode::SplitOnly,
            ..MeeConfig::split_only()
        }
    } else {
        MeeConfig::unprotected()
    };
    let mut mee = MeeEngine::new(mee_config);
    let cap = CapacityModel {
        modeled_dataset: wl_config.modeled_bytes,
        dram: HOST_DRAM,
        usable_fraction: 0.75,
        scale_factor: wl_config.scale_factor(),
    };
    let sgx = (mode == Mode::HostSgx).then(SgxModel::default);

    // Host memory layout: a 256 MiB input ring then the working region
    // (spanning the modeled structure size, as on the SSD side).
    let input_pages: u64 = 65_536;
    let input_line_span = input_pages * LINES_PER_PAGE;
    let working_line_base = input_line_span;
    let working_line_span = workload
        .working_set()
        .cache_lines()
        .clamp(64, input_line_span);
    let mut input_cursor = 0u64;
    let mut fill_cursor = 0u64;
    let mut rng = SimRng::new(wl_config.seed).derive(&format!("host/{}", kind.label()));

    let mut clock = run_start;
    let mut prev_compute_start = run_start;
    let mut load_stall = SimDuration::ZERO;
    let mut mem_time = SimDuration::ZERO;
    let mut ops_time = SimDuration::ZERO;
    let mut touched = ByteSize::ZERO;
    let staged = workload.staged_bytes();
    let page_transfer = {
        let bytes = u64::from(PAGE_SIZE as u32);
        let bw = ssd_config.platform.pcie_bandwidth;
        SimDuration::from_ps(((bytes as u128 * 1_000_000_000_000u128) / bw as u128) as u64)
    };

    let staged_span =
        ((staged.cache_lines() as f64 * wl_config.scale_factor()) as u64).clamp(64, 16_384);

    let stream_anchor = run_start;
    for batch in batches {
        // Same issue discipline as the SSD side: scans prefetch, random
        // access cannot.
        let issue = if batch.random_access {
            prev_compute_start
        } else {
            stream_anchor
        };
        let mut load_done = issue;
        // Host flash accesses are cold (direct-I/O transactional path;
        // no device-content caching in host RAM) — the SSD's own DRAM
        // is the only flash cache in the model, which is what Figure 16
        // varies.
        let page_hit = 0.0;
        for run_ in &batch.flash_reads {
            for lpn in run_.iter() {
                if batch.random_access && rng.gen_bool(page_hit) {
                    continue; // already in host memory
                }
                let flash_done = platform
                    .ftl
                    .read(Requestor::Host, lpn, &mut platform.monitor, issue)
                    .expect("populated page");
                let over_pcie = pcie.acquire(flash_done, page_transfer);
                let slot = fill_cursor % input_pages;
                fill_cursor += 1;
                let filled = mee.fill_page(&mut dram, slot, PageClass::Writable, over_pcie.end);
                load_done = load_done.max(filled);
            }
        }
        // Prefetched coalesced re-fetches for staged misses, as on the
        // SSD side (rare on the host: 16 GiB of RAM).
        let staged_hit = cap.staged_hit(staged);
        if batch.staged_reads > 0 && staged_hit < 1.0 {
            let mut misses = 0u64;
            for _ in 0..batch.staged_reads {
                if !rng.gen_bool(staged_hit) {
                    misses += 1;
                }
            }
            for _ in 0..misses.div_ceil(128) {
                let lpn = rng.gen_below(pages);
                let flash_done = platform
                    .ftl
                    .read(Requestor::Host, Lpn::new(lpn), &mut platform.monitor, issue)
                    .expect("populated page");
                load_done = load_done.max(pcie.acquire(flash_done, page_transfer).end);
            }
        }
        let compute_start = clock.max(load_done);
        load_stall += compute_start.saturating_since(clock);

        let mut t = compute_start;
        if let Some(sgx) = &sgx {
            // Enclave boundary crossing per batch (ecall + ocall).
            t += sgx.transition_time(&core, 2);
        }
        let Ok(end) = issue_grouped(
            batch.input_lines,
            t,
            || {
                let off = input_cursor % input_line_span;
                input_cursor += 1;
                off
            },
            |off, at| Ok::<_, Infallible>(mee.read_line(&mut dram, CacheLine::new(off), at)),
        );
        // Staged lookups (refetch pages prefetched with the loads;
        // partitioned probing within cache-sized windows).
        let Ok(end) = issue_grouped(
            batch.staged_reads,
            end,
            || working_line_base + rng.gen_below(staged_span),
            |off, at| Ok::<_, Infallible>(mee.read_line(&mut dram, CacheLine::new(off), at)),
        );
        let Ok(end) = issue_grouped(
            batch.working_reads,
            end,
            || working_line_base + rng.gen_below(working_line_span),
            |off, at| Ok::<_, Infallible>(mee.read_line(&mut dram, CacheLine::new(off), at)),
        );
        let Ok(end) = issue_grouped(
            batch.working_writes,
            end,
            || working_line_base + rng.gen_below(working_line_span),
            |off, at| Ok::<_, Infallible>(mee.write_line(&mut dram, CacheLine::new(off), at)),
        );
        t = end;
        if let Some(sgx) = &sgx {
            // EPC paging once the streamed enclave data exceeds the EPC.
            let before = sgx.paging_time(&core, touched);
            touched += ByteSize::from_bytes(batch.flash_pages() * PAGE_SIZE);
            let after = sgx.paging_time(&core, touched);
            t += after.saturating_sub(before);
        }
        mem_time += t.saturating_since(compute_start);
        // §6.2 measures 103% extra computing time inside the enclave
        // (MEE on every miss, checked memory semantics); applied to the
        // CPU component — the documented SGX calibration.
        let mut service = core.time_for(&batch.ops);
        if sgx.is_some() {
            service = service.mul_f64(2.03);
        }
        let done = cores.acquire(t, service).end;
        ops_time += done.saturating_since(t);
        prev_compute_start = compute_start;
        clock = done;
    }

    let mee_stats = mee.stats().clone();
    let flash_stats = platform.ftl.flash().stats();
    let activity = crate::energy::Activity {
        flash_reads: flash_stats.reads - flash_base.0,
        flash_programs: flash_stats.programs - flash_base.1,
        dram_accesses: dram.stats().accesses(),
        core_busy: cores.busy_time(),
        on_host: true,
        cipher_pages: 0,
        mee_ops: mee_stats.encryptions + mee_stats.verifications,
    };
    let energy = crate::energy::EnergyModel::default().evaluate(&activity);
    RunResult {
        workload: kind,
        mode,
        total: clock.saturating_since(run_start),
        load_stall,
        ops_time,
        mem_time,
        sec_overhead: mee_stats.read_overhead + mee_stats.write_overhead,
        cmt_miss_rate: platform.ftl.cmt().miss_rate(),
        counter_cache_hit_rate: mee.cache_hit_rate(),
        counter_hit_rate: mee_stats.meta_traffic.counter_hit_rate(),
        mac_hit_rate: mee_stats.meta_traffic.mac_hit_rate(),
        tree_hit_rate: mee_stats.meta_traffic.tree_hit_rate(),
        l2_hit_rate: mee_stats.l2_hit_rate(),
        mean_read_overhead: mee_stats.mean_read_overhead(),
        enc_traffic: mee_stats.encryption_traffic_overhead(),
        ver_traffic: mee_stats.verification_traffic_overhead(),
        world_switches: platform.monitor.stats().switches,
        energy,
        faults: FaultStats::default(),
        ticket_meta: TicketAttribution::default(),
        recovery: None,
        output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> WorkloadConfig {
        WorkloadConfig::test()
    }

    #[test]
    fn iceclave_beats_host_on_scans() {
        // Big enough that the ~200us TEE lifecycle amortizes.
        let cfg = WorkloadConfig {
            functional_bytes: iceclave_types::ByteSize::from_mib(4),
            ..WorkloadConfig::test()
        };
        let host = run(Mode::Host, WorkloadKind::TpchQ1, &cfg, &Overrides::none());
        let ice = run(
            Mode::IceClave,
            WorkloadKind::TpchQ1,
            &cfg,
            &Overrides::none(),
        );
        assert_eq!(host.output, ice.output, "answers must agree");
        let speedup = ice.speedup_over(&host);
        assert!(
            speedup > 1.2,
            "IceClave should beat Host on I/O-bound scans, got {speedup:.2}x"
        );
    }

    #[test]
    fn iceclave_overhead_over_isc_is_small() {
        let cfg = test_config();
        let isc = run(Mode::Isc, WorkloadKind::Aggregate, &cfg, &Overrides::none());
        let ice = run(
            Mode::IceClave,
            WorkloadKind::Aggregate,
            &cfg,
            &Overrides::none(),
        );
        let overhead = ice.total / isc.total - 1.0;
        assert!(
            (0.0..0.35).contains(&overhead),
            "security overhead {overhead:.3} out of range"
        );
    }

    #[test]
    fn sgx_is_slower_than_plain_host() {
        let cfg = test_config();
        let host = run(Mode::Host, WorkloadKind::Filter, &cfg, &Overrides::none());
        let sgx = run(
            Mode::HostSgx,
            WorkloadKind::Filter,
            &cfg,
            &Overrides::none(),
        );
        assert!(sgx.total > host.total);
        assert_eq!(host.output, sgx.output);
    }

    #[test]
    fn sc64_is_slower_than_hybrid() {
        // The hybrid advantage appears once the input stream sweeps
        // more pages than the 128 KiB counter cache covers (2048 split
        // blocks = 8 MiB), so this test needs a larger-than-default
        // functional scale.
        let cfg = WorkloadConfig {
            functional_bytes: iceclave_types::ByteSize::from_mib(16),
            ..WorkloadConfig::test()
        };
        let hybrid = run(
            Mode::IceClave,
            WorkloadKind::TpchQ1,
            &cfg,
            &Overrides::none(),
        );
        let sc64 = run(
            Mode::IceClaveSc64,
            WorkloadKind::TpchQ1,
            &cfg,
            &Overrides::none(),
        );
        assert!(
            sc64.mem_time > hybrid.mem_time,
            "SC-64 mem {} vs hybrid mem {}",
            sc64.mem_time,
            hybrid.mem_time
        );
        assert!(sc64.counter_cache_hit_rate < hybrid.counter_cache_hit_rate);
    }

    #[test]
    fn mapping_in_secure_world_is_slower() {
        let cfg = test_config();
        let ice = run(
            Mode::IceClave,
            WorkloadKind::Arithmetic,
            &cfg,
            &Overrides::none(),
        );
        let ablation = run(
            Mode::IceClaveMapSecure,
            WorkloadKind::Arithmetic,
            &cfg,
            &Overrides::none(),
        );
        assert!(ablation.total > ice.total);
        assert!(ablation.world_switches > ice.world_switches);
    }

    #[test]
    fn more_channels_speed_up_iceclave() {
        let cfg = test_config();
        let ch4 = run(
            Mode::IceClave,
            WorkloadKind::Filter,
            &cfg,
            &Overrides {
                channels: Some(4),
                ..Overrides::none()
            },
        );
        let ch32 = run(
            Mode::IceClave,
            WorkloadKind::Filter,
            &cfg,
            &Overrides {
                channels: Some(32),
                ..Overrides::none()
            },
        );
        assert!(ch32.total < ch4.total);
    }

    #[test]
    fn results_are_deterministic() {
        let cfg = test_config();
        let a = run(Mode::IceClave, WorkloadKind::TpcB, &cfg, &Overrides::none());
        let b = run(Mode::IceClave, WorkloadKind::TpcB, &cfg, &Overrides::none());
        assert_eq!(a.total, b.total);
        assert_eq!(a.output, b.output);
    }
}
