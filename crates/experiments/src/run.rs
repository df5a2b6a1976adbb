//! The workload executor: replays instrumented batches against an
//! execution mode and measures the paper's metrics.
//!
//! Every mode runs the same loop on the same device pipeline
//! ([`IceClave`]); the mode only picks its configuration
//! ([`Mode::ssd_config`]). The host modes are that device configured as
//! the host: their flash pages cross one PCIe link that every channel
//! shares into host DRAM, one host core computes, and their
//! transactional commits cross the link back and are programmed.
//!
//! The pipeline model is classic double buffering: the flash load of
//! batch *i* is issued when the compute of batch *i-1* starts, and the
//! compute of batch *i* starts at `max(compute_end(i-1),
//! load_done(i))` — load stall is therefore exactly the time the cores
//! sat waiting on I/O, the quantity the Figure 11 breakdown plots.

use iceclave_core::{IceClave, IceClaveConfig, IceClaveError, Link};
use iceclave_cpu::SgxModel;
use iceclave_mee::PageClass;
use iceclave_sim::SimRng;
use iceclave_types::{ByteSize, Lpn, SimDuration, SimTime, TeeId, LINES_PER_PAGE, PAGE_SIZE};
use iceclave_workloads::{Batch, Workload, WorkloadConfig, WorkloadKind, WorkloadOutput};

use crate::capacity::CapacityModel;
use crate::modes::{Mode, Overrides};

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
    /// L1 hit rate on data-MAC blocks only: always 0, since data MACs
    /// ride with their lines and never occupy the cache (see
    /// [`MetaTraffic::mac_hit_rate`](iceclave_mee::MetaTraffic::mac_hit_rate)).
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
    /// Energy breakdown of the run (derived from activity counters).
    pub energy: crate::energy::EnergyBreakdown,
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
    run_with_config(mode.ssd_config(overrides), mode, kind, wl_config)
}

/// Per-tenant execution state (shared by the single-tenant runner and
/// the Figures 17/18 multi-tenant scheduler).
#[derive(Debug)]
pub(crate) struct Session {
    pub(crate) tee: TeeId,
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
    /// Host modes read with direct I/O: no dataset page is cached in
    /// host memory, so every random access goes to flash.
    direct_io: bool,
    /// Host+SGX: the enclave's boundary crossings and EPC paging. Its
    /// 103% compute cost (§6.2) is in the config's core model.
    sgx: Option<SgxModel>,
    /// Enclave data streamed in so far (drives EPC paging).
    touched: ByteSize,
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

impl Session {
    /// Offloads `workload`'s program over its dataset, which starts at
    /// `base_lpn` (`OffloadCode` at `at`), and starts the tenant's
    /// clock once the TEE exists.
    pub(crate) fn offload(
        ice: &mut IceClave,
        mode: Mode,
        base_lpn: u64,
        workload: &dyn Workload,
        scale_factor: f64,
        at: SimTime,
        rng: SimRng,
    ) -> Result<Self, IceClaveError> {
        let lpns: Vec<Lpn> = (0..workload.dataset_pages())
            .map(|i| Lpn::new(base_lpn + i))
            .collect();
        let (tee, start) = ice.offload_code(256 << 10, &lpns, at)?;
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
        Ok(Session {
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
            direct_io: mode.is_host(),
            sgx: (mode == Mode::HostSgx).then(SgxModel::default),
            touched: ByteSize::ZERO,
            clock: start,
            prev_compute_start: start,
            stream_anchor: start,
            inflight_loads: [start; 4],
            pending_commit: start,
            load_stall: SimDuration::ZERO,
            mem_time: SimDuration::ZERO,
            ops_time: SimDuration::ZERO,
        })
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
        let page_hit = if self.direct_io {
            0.0
        } else {
            cap.page_cache_hit()
        };
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
        let mut t = compute_start;
        if let Some(sgx) = &self.sgx {
            // Enclave boundary crossing per batch (ecall + ocall).
            t += sgx.transition_time(&ice.config().platform.core_model, 2);
        }
        let t = issue_grouped(
            batch.input_lines,
            t,
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
        let mut t = issue_grouped(
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
        if let Some(sgx) = &self.sgx {
            // EPC paging once the streamed enclave data exceeds the EPC.
            let core = &ice.config().platform.core_model;
            let before = sgx.paging_time(core, self.touched);
            self.touched += ByteSize::from_bytes(batch.flash_pages() * PAGE_SIZE);
            t += sgx.paging_time(core, self.touched).saturating_sub(before);
        }
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
fn issue_grouped(
    count: u64,
    start: SimTime,
    mut offset: impl FnMut() -> u64,
    mut access: impl FnMut(u64, SimTime) -> Result<SimTime, IceClaveError>,
) -> Result<SimTime, IceClaveError> {
    let (mut group_start, mut end) = (start, start);
    for issued in 1..=count {
        end = end.max(access(offset(), group_start)?);
        if issued % MLP == 0 {
            group_start = end;
        }
    }
    Ok(end)
}

/// Runs `kind` under `mode` on an explicit runtime configuration
/// (ablation studies that tweak knobs outside [`Overrides`]).
///
/// A host-mode run is timed from the end of `OffloadCode` to the
/// durability of its last commit: a host program has no TEE, so it
/// pays no TEE creation, no `GetResult` and no `TerminateTEE`. A
/// device-mode run pays all three (Table 5).
///
/// # Panics
///
/// As [`run()`].
pub fn run_with_config(
    config: IceClaveConfig,
    mode: Mode,
    kind: WorkloadKind,
    wl_config: &WorkloadConfig,
) -> RunResult {
    execute(config, mode, kind, wl_config).expect("run must not fail on trusted configuration")
}

fn execute(
    config: IceClaveConfig,
    mode: Mode,
    kind: WorkloadKind,
    wl_config: &WorkloadConfig,
) -> Result<RunResult, IceClaveError> {
    let workload = kind.build(wl_config);
    let mut batches = Vec::new();
    let output = workload.run(&mut |b| batches.push(b));
    let cap = CapacityModel::new(wl_config, config.platform.dram.capacity);
    let mut ice = IceClave::new(config);
    let t = ice.populate(Lpn::new(0), workload.dataset_pages(), SimTime::ZERO)?;
    let flash_base = (
        ice.platform().ftl.flash().stats().reads,
        ice.platform().ftl.flash().stats().programs,
    );
    let rng = SimRng::new(wl_config.seed).derive(&format!("exec/{}", kind.label()));
    let mut session = Session::offload(
        &mut ice,
        mode,
        0,
        &*workload,
        wl_config.scale_factor(),
        t,
        rng,
    )?;
    let run_start = if mode.is_host() { session.clock } else { t };
    for batch in &batches {
        session.step(&mut ice, batch, &cap)?;
    }
    let end = if mode.is_host() {
        session.drained_clock()
    } else {
        let t = ice.get_result(session.tee, 64 << 10, session.drained_clock())?;
        ice.terminate_tee(session.tee, t)?
    };

    let mee_stats = ice.mee().stats().clone();
    let flash_stats = ice.platform().ftl.flash().stats();
    let activity = crate::energy::Activity {
        flash_reads: flash_stats.reads - flash_base.0,
        flash_programs: flash_stats.programs - flash_base.1,
        dram_accesses: ice.platform().dram.stats().accesses(),
        core_busy: ice.platform().cores.busy_time(),
        on_host: mode.is_host(),
        // Only a cipher link runs pages through the stream cipher.
        cipher_pages: if ice.config().link == Link::Cipher {
            ice.stats().pages_loaded
        } else {
            0
        },
        mee_ops: mee_stats.encryptions + mee_stats.verifications,
    };
    let energy = crate::energy::EnergyModel::default().evaluate(&activity);
    Ok(RunResult {
        workload: kind,
        mode,
        total: end.saturating_since(run_start),
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
        output,
    })
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
    fn host_fetches_and_persists_what_isc_does() {
        // Host reads every page with direct I/O and ships its commits
        // back over PCIe to be programmed, so it spends at least ISC's
        // flash energy on the transactions, and exactly ISC's on a scan
        // that reads the same pages and writes none.
        let cfg = test_config();
        for kind in [WorkloadKind::TpcB, WorkloadKind::TpcC, WorkloadKind::TpchQ1] {
            let host = run(Mode::Host, kind, &cfg, &Overrides::none());
            let isc = run(Mode::Isc, kind, &cfg, &Overrides::none());
            let (host_uj, isc_uj) = (host.energy.flash_uj, isc.energy.flash_uj);
            if kind == WorkloadKind::TpchQ1 {
                assert_eq!(host_uj, isc_uj, "{kind}");
            } else {
                assert!(
                    host_uj >= isc_uj,
                    "{kind}: Host {host_uj} uJ vs ISC {isc_uj} uJ"
                );
            }
        }
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
