//! The stage semantics behind the asynchronous batch API: IceClave's
//! [`StageMachine`] implementation and the `IceClave` submission /
//! completion methods.
//!
//! The executor (`iceclave_exec`) owns the event heap, the ticket
//! table and the completion queue; this module owns what each stage
//! *does* on the simulator:
//!
//! ```text
//!  read ticket                      write ticket
//!  ───────────                      ────────────
//!  submit: translate + ID-bit       submit: ownership check (atomic,
//!    check (atomic, §4.5), assign     §4.5), assign seal slots,
//!    fill slots, schedule one         MEE seal drain, schedule one
//!    FlashRead per page at its        Lane per page at its seal
//!    translation-ready time           read-out time (none on a
//!  FlashRead: die + channel bus,      plain link)
//!    then the link's lane: the      Lane: the link's lane timeline
//!    channel's decrypt lane         Program: ONE event per batch —
//!    (inline), the shared PCIe        the single secure-world entry
//!    lane (a Lane event at the        of `Ftl::write_batch`, fired
//!    flash completion) or none        when the last page crossed
//!  Fill:      MEE fill + DRAM         the lane
//!    → completion (plaintext)       → one completion per page at
//!                                     its durable time
//! ```
//!
//! The lane is the config's [`Link`]: a Trivium engine per channel
//! (IceClave), nothing (ISC), or one PCIe link every channel shares
//! (the host baselines, whose DRAM is host memory).
//!
//! Because every stage acquires its resource at the simulated time the
//! event fires, pages of different tickets interleave on the shared
//! timelines in *time* order rather than call order. Access control
//! and address translation snapshot at submission (tickets in flight
//! have no ordering guarantees between each other — drain a ticket
//! before submitting work that depends on it).

use iceclave_cipher::{CipherEngine, PageIv};
use iceclave_exec::{Executor, StageEvent, StageMachine};
use iceclave_ftl::FlashError;
use iceclave_ftl::{FtlError, JournalRecord, Requestor, WfqArbiter};
use iceclave_mee::{MeeEngine, PageClass, SealSpan};
use iceclave_sim::Resource;
use iceclave_types::{
    BatchCompletion, CompletionEvent, DenseTable, FaultStats, LatencyBreakdown, Lpn, PageError,
    PageErrorCause, PageStatus, PageWrite, Ppn, SimDuration, SimTime, TeeId, Ticket, TicketKind,
    WindowTable, WriteBatchRequest, WritePageRequest, PAGE_SIZE,
};

use crate::config::{IceClaveConfig, Link};
use crate::platform::SsdPlatform;
use crate::runtime::{AbortReason, IceClave, IceClaveError, RuntimeStats};
use crate::slab::ErrorSlab;

/// Read-retry ladder depth: how many times the FlashRead stage
/// re-senses a page whose raw-bit-error burst exceeded the ECC before
/// reporting it uncorrectable. Four rungs mirror a typical NAND
/// read-retry table (shifted-Vref re-reads).
pub const READ_RETRY_LIMIT: u32 = 4;

/// Extra sensing latency per retry rung: rung `k` fires `k *
/// READ_RETRY_STEP_US` microseconds after the failed attempt, modeling
/// the progressively slower shifted-Vref / soft-decision re-reads of a
/// real controller.
pub const READ_RETRY_STEP_US: u64 = 60;

/// One pipeline stage of an in-flight page (the executor's event
/// payload).
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Stage {
    /// Read path: die cell read + channel bus transfer. On a
    /// [`Link::Cipher`] link it also advances the channel's
    /// stream-decipher lane inline — the lane is fed only by its
    /// channel bus, so flash-completion order is its arrival order and
    /// no separate event is needed.
    FlashRead,
    /// Read path: MEE fill into the TEE's input ring (retires the
    /// page).
    Fill,
    /// One page crossing a lane of the config's [`Link`]: every
    /// outbound page of a write batch (stream-encrypt, or the PCIe
    /// transfer from host memory), and a host read's inbound PCIe
    /// transfer. The shared PCIe lane needs its own event so pages of
    /// every channel book it in arrival order.
    Lane,
    /// Write path: the whole batch's single secure-world program phase
    /// (`Ftl::write_batch`), fired once the last page crossed its lane.
    /// Kept as one event so the batch pays one secure-world entry, not
    /// one per page.
    Program,
}

/// Per-page in-flight state.
#[derive(Clone, Debug)]
struct PageState {
    lpn: Lpn,
    /// Reads: the translated physical page. Writes: placeholder until
    /// the program phase allocates.
    ppn: Ppn,
    /// Reads: the page's channel, which is also its cipher lane.
    /// Writes: round-robin over the link's lanes, as the target
    /// channel is unknown until allocation.
    lane: usize,
    /// Read fill slot in the TEE's input ring.
    slot: u64,
    /// Read fill protection class.
    class: PageClass,
    breakdown: LatencyBreakdown,
    /// Write payload (persisted at program time).
    payload: Option<Vec<u8>>,
    /// Whether this page has already pushed its completion (used by
    /// ticket cancellation at TEE teardown to fail only the remainder).
    retired: bool,
    /// Read attempts already spent on this page (0 = the first
    /// FlashRead event; >0 = a retry-ladder rung).
    attempts: u32,
}

/// Per-ticket in-flight state.
#[derive(Debug)]
pub struct Job {
    tee: TeeId,
    kind: TicketKind,
    submitted: SimTime,
    pages: Vec<PageState>,
    /// Write path: per-page seal spans (read-out gates encryption,
    /// metadata completion gates durability).
    sealed: Vec<SealSpan>,
    /// Write path: per-page lane completion times.
    encrypted: Vec<SimTime>,
    /// Write path: lane stages still outstanding before the program
    /// phase may fire.
    pending_encrypts: usize,
    /// Fault/recovery activity charged to this ticket (the retries,
    /// ECC corrections, remaps and retirements it triggered).
    faults: FaultStats,
}

impl Job {
    /// Pages that have not pushed a completion yet — what a power cut
    /// destroys (the durability contract never covered them).
    pub(crate) fn unretired_pages(&self) -> u64 {
        self.pages.iter().filter(|p| !p.retired).count() as u64
    }
}

/// Disjoint borrows of every runtime component a stage can touch —
/// the [`StageMachine`] the executor drives.
pub(crate) struct StageCtx<'a> {
    pub platform: &'a mut SsdPlatform,
    pub mee: &'a mut MeeEngine,
    pub cipher: &'a mut CipherEngine,
    pub lanes: &'a mut [Resource],
    pub page_ivs: &'a mut DenseTable<PageIv>,
    pub config: &'a IceClaveConfig,
    pub stats: &'a mut RuntimeStats,
    pub jobs: &'a mut WindowTable<Job>,
    pub failed: &'a mut ErrorSlab,
    pub arbiter: &'a mut WfqArbiter,
}

/// Grants `channel`'s next queued page (if the channel is free and any
/// tenant lane is backlogged) and schedules its flash-read stage no
/// earlier than `floor` — the page-boundary preemption point: the next
/// grant is decided only when the previous page's flash service ends,
/// so a deep in-flight ticket yields the channel between pages.
fn kick_channel(
    arbiter: &mut WfqArbiter,
    exec: &mut Executor<Stage>,
    channel: usize,
    floor: SimTime,
) {
    if let Some(grant) = arbiter.try_issue(channel) {
        exec.schedule_weighted(
            grant.ready.max(floor),
            grant.vstart,
            grant.ticket,
            grant.page,
            Stage::FlashRead,
        );
    }
}

/// Deciphers the functional content of a page, if any was stored.
/// Pages staged through `IceClave::host_store_data` or written with
/// payloads come back as the original plaintext; content written
/// directly to flash (no recorded IV) is returned as stored.
fn decipher_content(
    platform: &SsdPlatform,
    cipher: &mut CipherEngine,
    page_ivs: &DenseTable<PageIv>,
    link: Link,
    lpn: Lpn,
    ppn: Ppn,
) -> Option<Vec<u8>> {
    // One allocation per page: the snapshot buffer is deciphered in
    // place and then owned by the job until the Fill stage hands it to
    // the completion event.
    let mut stored = platform.ftl.flash().read_data(ppn)?.to_vec();
    if link == Link::Cipher {
        if let Some(iv) = page_ivs.get(lpn.raw()) {
            let iv = *iv;
            cipher.decrypt_page_in_place(&iv, &mut stored);
        }
    }
    Some(stored)
}

impl StageCtx<'_> {
    /// Retires `page` of `ticket` as failed at `at`, recording the
    /// first ticket-level error.
    fn fail_page(
        &mut self,
        exec: &mut Executor<Stage>,
        ticket: Ticket,
        page: u32,
        at: SimTime,
        error: IceClaveError,
        cause: PageErrorCause,
    ) {
        self.failed.record(ticket.raw(), error);
        self.fail_page_with(exec, ticket, page, at, cause);
    }

    /// Retires `page` of `ticket` as a *soft* per-page failure at `at`:
    /// the completion carries [`PageStatus::Failed`] with the structured
    /// `reason`, but no ticket-level error is recorded —
    /// [`IceClave::wait_batch`] still returns `Ok` and the batch
    /// degrades gracefully to a partial completion.
    fn fail_page_soft(
        &mut self,
        exec: &mut Executor<Stage>,
        ticket: Ticket,
        page: u32,
        at: SimTime,
        cause: PageErrorCause,
    ) {
        self.stats.pages_failed += 1;
        self.fail_page_with(exec, ticket, page, at, cause);
    }

    fn fail_page_with(
        &mut self,
        exec: &mut Executor<Stage>,
        ticket: Ticket,
        page: u32,
        at: SimTime,
        cause: PageErrorCause,
    ) {
        let Some(job) = self.jobs.get_mut(ticket.raw()) else {
            return;
        };
        let state = &mut job.pages[page as usize];
        state.breakdown.ready = at;
        state.retired = true;
        let reason = PageError {
            ppn: state.ppn,
            attempts: state.attempts.max(1),
            cause,
        };
        let event = CompletionEvent {
            ticket,
            kind: job.kind,
            tee: job.tee,
            index: page,
            lpn: state.lpn,
            status: PageStatus::Failed { reason },
            breakdown: state.breakdown,
            data: None,
        };
        if exec.push_completion(event) {
            if let Some(job) = self.jobs.remove(ticket.raw()) {
                exec.notify_close(ticket, &job.faults);
            }
        }
    }

    /// The write ticket's single program phase: one secure-world entry
    /// for the whole batch, ciphertext-ready gating per page, GC-aware
    /// channel steering and coalesced CMT write-back — all inside
    /// [`iceclave_ftl::Ftl::write_batch`].
    fn program_batch(&mut self, ev: StageEvent<Stage>, exec: &mut Executor<Stage>) {
        let Some(job) = self.jobs.get_mut(ev.ticket.raw()) else {
            return;
        };
        let batch = WriteBatchRequest {
            requests: job
                .pages
                .iter()
                .zip(&job.encrypted)
                .map(|(page, &ready)| WritePageRequest {
                    lpn: page.lpn,
                    ready,
                })
                .collect(),
        };
        // The secure world is entered against the submission time: the
        // admit horizon of every channel already reflects whatever the
        // executor interleaved since then.
        let (remaps_before, retired_before) = {
            let ftl_stats = self.platform.ftl.stats();
            (ftl_stats.program_remaps, ftl_stats.blocks_retired)
        };
        let result = self.platform.ftl.write_batch(
            Requestor::Tee(job.tee),
            &batch,
            &mut self.platform.monitor,
            job.submitted,
        );
        {
            let ftl_stats = self.platform.ftl.stats();
            job.faults.program_remaps += ftl_stats.program_remaps - remaps_before;
            job.faults.blocks_retired += ftl_stats.blocks_retired - retired_before;
        }
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                // Mid-flight failure (device full, or ownership revoked
                // while in flight — e.g. the TEE was torn down between
                // submission and drain). The submission-time access
                // check already ran, so this is not a second §4.5
                // abort; the ticket fails with the error.
                let pages = job.pages.len() as u32;
                for page in 0..pages {
                    self.fail_page(
                        exec,
                        ev.ticket,
                        page,
                        ev.at,
                        e.clone().into(),
                        PageErrorCause::ProgramFailed,
                    );
                }
                return;
            }
        };

        // Functional payloads: ciphertext lands at the new physical
        // page; the IV rides in the per-LPN out-of-band store so GC
        // relocation cannot orphan it.
        for (page, out) in job.pages.iter_mut().zip(&outcome.pages) {
            if let Some(mut plaintext) = page.payload.take() {
                // The payload buffer was moved in at submission and is
                // ciphered in place — the write path's last copy is
                // the flash store itself.
                if self.config.link == Link::Cipher {
                    let iv = self
                        .cipher
                        .encrypt_page_in_place(page.lpn.raw() as u32, &mut plaintext);
                    self.page_ivs.insert(page.lpn.raw(), iv);
                    // The stored ciphertext is unreadable without its
                    // IV: seal it alongside the mapping records
                    // `Ftl::write_batch` already journaled.
                    self.platform.ftl.journal_append(JournalRecord::IvSeal {
                        lpn: page.lpn.raw(),
                        iv_base: iv.base(),
                        iv_ppa: iv.ppa(),
                    });
                }
                // Garbage collection later in the batch may have moved
                // the page (a block retired mid-batch drains first):
                // the payload goes wherever the page lives now.
                let ppn = self.platform.ftl.current_ppn(page.lpn).unwrap_or(out.ppn);
                self.platform.ftl.flash_mut().write_data(ppn, &plaintext);
            }
        }
        // Acked ⇒ durable: before any page of this batch may push a
        // completion, its mapping updates, IV seals and a fresh
        // counter-epoch seal must be journal-synced to flash. The sync
        // end time floors every page's durable time, so a drained
        // (acknowledged) write is always replayable after a crash.
        let mut durable_floor = SimTime::ZERO;
        if self.platform.ftl.journal_enabled() {
            let epoch = self.mee.advance_counter_epoch();
            self.platform
                .ftl
                .journal_append(JournalRecord::EpochSeal { epoch });
            match self.platform.ftl.journal_sync(outcome.finished) {
                Ok(end) => durable_floor = end,
                Err(e) => {
                    // The journal region is full (or unwritable): the
                    // batch's durability cannot be guaranteed, so the
                    // ticket fails rather than ack an unreplayable
                    // write.
                    let pages = job.pages.len() as u32;
                    for page in 0..pages {
                        self.fail_page(
                            exec,
                            ev.ticket,
                            page,
                            ev.at,
                            e.clone().into(),
                            PageErrorCause::ProgramFailed,
                        );
                    }
                    return;
                }
            }
        }
        self.stats.pages_stored += job.pages.len() as u64;
        exec.note_finished(ev.ticket, outcome.finished.max(durable_floor));

        // Fairness accounting: `Ftl::write_batch` booked the channel
        // programs itself, so debit each written page against the
        // tenant's lane — a write-heavy tenant's subsequent reads pay
        // for the channel time its programs consumed.
        let geometry = self.platform.ftl.flash().config().geometry;
        for out in &outcome.pages {
            let channel = geometry.unpack(out.ppn).channel as usize;
            self.arbiter.charge(channel, job.tee, 1);
        }

        // Durable = program done AND seal metadata (counter + MAC)
        // drained; the metadata work overlapped the channel programs.
        let mut closed = false;
        for (index, (page, out)) in job.pages.iter_mut().zip(&outcome.pages).enumerate() {
            let durable = out
                .flash
                .end
                .max(job.sealed[index].sealed)
                .max(durable_floor);
            page.ppn = out.ppn;
            page.breakdown.flash_done = out.flash.end;
            page.breakdown.ready = durable;
            page.retired = true;
            closed = exec.push_completion(CompletionEvent {
                ticket: ev.ticket,
                kind: TicketKind::Write,
                tee: job.tee,
                index: index as u32,
                lpn: page.lpn,
                status: PageStatus::Done,
                breakdown: page.breakdown,
                data: None,
            });
        }
        if closed {
            if let Some(job) = self.jobs.remove(ev.ticket.raw()) {
                exec.notify_close(ev.ticket, &job.faults);
            }
        }
    }
}

impl StageMachine for StageCtx<'_> {
    type Stage = Stage;

    fn advance(&mut self, ev: StageEvent<Stage>, exec: &mut Executor<Stage>) {
        if ev.stage == Stage::Program {
            self.program_batch(ev, exec);
            return;
        }
        let Some(job) = self.jobs.get_mut(ev.ticket.raw()) else {
            // A cancelled ticket's stage events are no-ops — but a
            // granted flash read still holds its channel in the WFQ
            // arbiter; free it so the next tenant's grant can issue.
            if ev.stage == Stage::FlashRead {
                if let Some(channel) = self.arbiter.release(ev.ticket, ev.page) {
                    kick_channel(self.arbiter, exec, channel, ev.at);
                }
            }
            return;
        };
        let idx = ev.page as usize;
        match ev.stage {
            Stage::FlashRead => {
                let (lpn, snapshot, arrival) = {
                    let page = &job.pages[idx];
                    // The flash sees the page at its translation-ready
                    // time; the event time only fixed the issue order.
                    (page.lpn, page.ppn, page.breakdown.prepared)
                };
                // Refresh the physical location: garbage collection
                // triggered by a concurrent ticket may have relocated
                // the page since submission (the delivered bytes were
                // snapshotted then; this read is the timing of wherever
                // the page lives now). A page trimmed mid-flight falls
                // back to the snapshot location: it usually still
                // completes with its snapshotted bytes, and only
                // retires Failed in the rare case GC already erased
                // that block — racing a trim against an in-flight read
                // is client misuse either way.
                let ppn = self.platform.ftl.current_ppn(lpn).unwrap_or(snapshot);
                if ppn != snapshot {
                    let geometry = self.platform.ftl.flash().config().geometry;
                    let page = &mut job.pages[idx];
                    page.ppn = ppn;
                    // The decrypt lane follows the channel that
                    // actually streams the page.
                    page.lane = geometry.unpack(ppn).channel as usize;
                }
                // Burst-level ECC corrections happen inside the read
                // itself; the stats delta attributes them to this
                // ticket's page.
                let bursts_before = self.platform.ftl.flash().stats().corrected_bursts;
                let read = self.platform.ftl.flash_mut().read_page(ppn, arrival);
                job.faults.corrected_bursts +=
                    self.platform.ftl.flash().stats().corrected_bursts - bursts_before;
                match read {
                    Ok(span) => {
                        let page = &mut job.pages[idx];
                        page.breakdown.flash_done = span.end;
                        let (at, next) = match self.config.link {
                            // The decrypt lane is advanced inline
                            // rather than via its own event: a lane
                            // serves only its channel, the channel bus
                            // serializes the flash spans feeding it,
                            // and successive `acquire` calls on one
                            // resource end at strictly increasing
                            // times — so processing here, in
                            // flash-completion order, is
                            // timing-identical to popping a Lane event
                            // at `span.end`, one event round-trip
                            // cheaper.
                            Link::Cipher => {
                                let service = self.cipher.page_latency(PAGE_SIZE);
                                let done = self.lanes[page.lane].acquire(span.end, service).end;
                                (done, Stage::Fill)
                            }
                            Link::Plain => (span.end, Stage::Fill),
                            // Every channel feeds the one PCIe lane, so
                            // it is booked from its own event: issue
                            // order here is not its arrival order.
                            Link::Pcie => (span.end, Stage::Lane),
                        };
                        page.breakdown.cipher_done = at;
                        exec.schedule(at, ev.ticket, ev.page, next);
                        // WFQ preemption point: this page's flash
                        // service ends at span.end — only now does the
                        // arbiter decide which tenant's page gets the
                        // channel next. If GC relocated the page since
                        // the grant, the granted channel never carried
                        // this transfer: free it immediately instead
                        // of idling it until the foreign span ends.
                        if let Some(channel) = self.arbiter.release(ev.ticket, ev.page) {
                            let floor = if job.pages[idx].lane == channel {
                                span.end
                            } else {
                                ev.at
                            };
                            kick_channel(self.arbiter, exec, channel, floor);
                        }
                    }
                    // An uncorrectable burst climbs the read-retry
                    // ladder: re-sense the page with a stepped extra
                    // latency per rung (shifted-Vref model), keeping
                    // the WFQ grant — the channel really is busy
                    // retrying. Each rung redraws the fault stream, so
                    // transient bursts recover and only persistent ones
                    // exhaust the budget.
                    Err(FlashError::ReadUncorrectable { .. })
                        if job.pages[idx].attempts + 1 < READ_RETRY_LIMIT =>
                    {
                        let page = &mut job.pages[idx];
                        page.attempts += 1;
                        self.stats.read_retries += 1;
                        job.faults.read_retries += 1;
                        let backoff =
                            SimDuration::from_micros(READ_RETRY_STEP_US * page.attempts as u64);
                        exec.schedule(ev.at + backoff, ev.ticket, ev.page, Stage::FlashRead);
                    }
                    // Ladder exhausted: the page degrades to a soft
                    // per-page failure — the rest of the ticket still
                    // completes and `wait_batch` returns `Ok` with this
                    // page marked `Failed`.
                    Err(FlashError::ReadUncorrectable { .. }) => {
                        job.pages[idx].attempts += 1;
                        self.stats.uncorrectable_pages += 1;
                        job.faults.uncorrectable_pages += 1;
                        if let Some(channel) = self.arbiter.release(ev.ticket, ev.page) {
                            kick_channel(self.arbiter, exec, channel, ev.at);
                        }
                        self.fail_page_soft(
                            exec,
                            ev.ticket,
                            ev.page,
                            ev.at,
                            PageErrorCause::Uncorrectable,
                        );
                    }
                    // A stale mapping is an internal invariant
                    // violation; surface it as a failed page rather
                    // than a panic.
                    Err(e) => {
                        if let Some(channel) = self.arbiter.release(ev.ticket, ev.page) {
                            kick_channel(self.arbiter, exec, channel, ev.at);
                        }
                        self.fail_page(
                            exec,
                            ev.ticket,
                            ev.page,
                            ev.at,
                            FtlError::from(e).into(),
                            PageErrorCause::Uncorrectable,
                        )
                    }
                }
            }
            Stage::Fill => {
                let (slot, class) = {
                    let page = &job.pages[idx];
                    (page.slot, page.class)
                };
                let done = self
                    .mee
                    .fill_page(&mut self.platform.dram, slot, class, ev.at);
                let page = &mut job.pages[idx];
                page.breakdown.ready = done;
                page.retired = true;
                // Functional content was snapshotted at submission
                // (with the translation), so a concurrent ticket's GC
                // pass relocating the physical page mid-flight cannot
                // corrupt the delivered bytes.
                let data = page.payload.take();
                let (lpn, breakdown) = (page.lpn, page.breakdown);
                let tee = job.tee;
                // A page counts as loaded only once it actually sits in
                // the TEE's input ring.
                self.stats.pages_loaded += 1;
                if exec.push_completion(CompletionEvent {
                    ticket: ev.ticket,
                    kind: TicketKind::Read,
                    tee,
                    index: ev.page,
                    lpn,
                    status: PageStatus::Done,
                    breakdown,
                    data,
                }) {
                    if let Some(job) = self.jobs.remove(ev.ticket.raw()) {
                        exec.notify_close(ev.ticket, &job.faults);
                    }
                }
            }
            Stage::Lane => {
                // A plain link schedules no Lane event.
                let service = if self.config.link == Link::Pcie {
                    self.platform.pcie_transfer_time(PAGE_SIZE)
                } else {
                    self.cipher.page_latency(PAGE_SIZE)
                };
                let page = &mut job.pages[idx];
                // A read's `lane` is its channel: it only gets here on
                // a PCIe link, whose one lane serves every channel.
                let lane = page.lane % self.lanes.len();
                let span = self.lanes[lane].acquire(ev.at, service);
                page.breakdown.cipher_done = span.end;
                if job.kind == TicketKind::Read {
                    exec.schedule(span.end, ev.ticket, ev.page, Stage::Fill);
                    return;
                }
                job.encrypted[idx] = span.end;
                job.pending_encrypts -= 1;
                if job.pending_encrypts == 0 {
                    // Last page crossed the lane: fire the batch's single
                    // program phase. The event carries the tenant's
                    // virtual tag, so same-tick program phases of
                    // different tenants dequeue in virtual-time order
                    // rather than submission order.
                    let at = job.encrypted.iter().copied().fold(ev.at, SimTime::max);
                    let vtime = self.arbiter.program_tag(job.tee);
                    exec.schedule_weighted(at, vtime, ev.ticket, 0, Stage::Program);
                }
            }
            Stage::Program => unreachable!("handled before the per-page dispatch"),
        }
    }
}

impl IceClave {
    /// Runs `f` with the executor split off from the stage context
    /// (disjoint field borrows of the runtime).
    fn drive<R>(&mut self, f: impl FnOnce(&mut Executor<Stage>, &mut StageCtx<'_>) -> R) -> R {
        let mut ctx = StageCtx {
            platform: &mut self.platform,
            mee: &mut self.mee,
            cipher: &mut self.cipher,
            lanes: &mut self.lanes,
            page_ivs: &mut self.page_ivs,
            config: &self.config,
            stats: &mut self.stats,
            jobs: &mut self.jobs,
            failed: &mut self.failed,
            arbiter: &mut self.arbiter,
        };
        f(&mut self.exec, &mut ctx)
    }

    /// Submits a multi-page read batch to the event-driven executor
    /// without waiting for it, filling the pages read-only. See
    /// [`IceClave::submit_batch_async_as`].
    ///
    /// # Errors
    ///
    /// As [`IceClave::submit_batch_async_as`].
    ///
    /// # Examples
    ///
    /// Submit a read batch without blocking, then drain its pages from
    /// the completion queue:
    ///
    /// ```
    /// use iceclave_core::{IceClave, IceClaveConfig};
    /// use iceclave_types::{Lpn, PageStatus, SimTime};
    ///
    /// let mut ice = IceClave::new(IceClaveConfig::tiny());
    /// let t = ice.populate(Lpn::new(0), 8, SimTime::ZERO)?;
    /// let lpns: Vec<Lpn> = (0..8).map(Lpn::new).collect();
    /// let (tee, t) = ice.offload_code(64 * 1024, &lpns, t)?;
    ///
    /// let ticket = ice.submit_batch_async(tee, &lpns, t)?;
    /// assert_eq!(ice.in_flight_tickets(), 1);
    /// let events = ice.drain_completions();
    /// assert_eq!(events.len(), 8);
    /// assert!(events.iter().all(|e| e.ticket == ticket));
    /// assert!(events.iter().all(|e| e.status == PageStatus::Done));
    /// # Ok::<(), iceclave_core::IceClaveError>(())
    /// ```
    pub fn submit_batch_async(
        &mut self,
        tee: TeeId,
        lpns: &[Lpn],
        now: SimTime,
    ) -> Result<Ticket, IceClaveError> {
        self.submit_batch_async_as(tee, lpns, PageClass::ReadOnly, now)
    }

    /// The batched protected read path: translates, permission-checks,
    /// reads, deciphers and MEE-fills a whole page set as one
    /// channel-parallel ticket, filling the pages as `class` (read-only
    /// for streaming input, §4.4). The call returns the ticket without
    /// waiting for it.
    ///
    /// Pipeline shape (workflow steps 3–6 of Figure 9, batched):
    ///
    /// 1. every page is translated through the protected mapping table
    ///    (ID-bit check included) **at submission**, and its
    ///    input-ring slot assigned — a denied page aborts the batch
    ///    *before any flash traffic* and throws the TEE out (§4.5:
    ///    access violations are fatal to the enclave);
    /// 2. each channel serves the batch's pages FIFO in request order,
    ///    so the channel buses fill concurrently;
    /// 3. each page crosses a lane of the config's [`Link`] in
    ///    flash-completion order: its channel's stream-decipher engine,
    ///    overlapping decryption with the other channels' transfers, or
    ///    the PCIe link all channels share; a plain link has no lane;
    /// 4. the MEE fill datapath writes each deciphered page into the
    ///    TEE's input ring (counter initialization overlapped the same
    ///    way).
    ///
    /// Each stage runs as an executor event, interleaved with every
    /// other in-flight ticket, and each page retires into the
    /// completion queue ([`IceClave::poll_completions`]) with its
    /// deciphered content when functional data was stored;
    /// [`IceClave::wait_batch`] runs one ticket to completion instead.
    ///
    /// Tickets in flight together have no ordering guarantees between
    /// each other: a submitter that needs to read pages a still-open
    /// write ticket is updating must drain that ticket first.
    ///
    /// # Errors
    ///
    /// The TEE must be running. On [`FtlError::AccessDenied`] the TEE
    /// is thrown out ([`AbortReason::AccessViolation`]) and the error
    /// is returned; other FTL errors pass through with the TEE intact.
    pub fn submit_batch_async_as(
        &mut self,
        tee: TeeId,
        lpns: &[Lpn],
        class: PageClass,
        now: SimTime,
    ) -> Result<Ticket, IceClaveError> {
        self.ensure_powered()?;
        self.ensure_running(tee)?;
        if lpns.is_empty() {
            return Ok(self.exec.open_ticket(0, now));
        }
        let translations = match self.platform.ftl.translate_batch(
            Requestor::Tee(tee),
            lpns,
            &mut self.platform.monitor,
            now,
        ) {
            Ok(translations) => translations,
            Err(e @ FtlError::AccessDenied { .. }) => {
                // ThrowOutTEE: touching a page outside the granted
                // region is an access violation, not a recoverable
                // error (§4.5).
                self.throw_out(tee, AbortReason::AccessViolation, now)?;
                return Err(e.into());
            }
            Err(e) => return Err(e.into()),
        };
        let geometry = self.platform.ftl.flash().config().geometry;

        // Input-ring slots are assigned in request order at submission,
        // so the ring semantics match N sequential reads exactly. The
        // functional content is snapshotted here too — consistent with
        // the translation snapshot, and immune to a concurrent
        // ticket's GC relocating the physical page mid-flight.
        let snapshots: Vec<Option<Vec<u8>>> = translations
            .iter()
            .zip(lpns)
            .map(|(translation, &lpn)| {
                decipher_content(
                    &self.platform,
                    &mut self.cipher,
                    &self.page_ivs,
                    self.config.link,
                    lpn,
                    translation.ppn,
                )
            })
            .collect();
        let state = self.tee_mut(tee).expect("running tee exists");
        let pages: Vec<PageState> = translations
            .iter()
            .zip(lpns)
            .zip(snapshots)
            .map(|((translation, &lpn), snapshot)| {
                let slot = state.region_page + (state.next_fill % state.input_pages());
                state.next_fill += 1;
                let mut breakdown = LatencyBreakdown::at_submission(now);
                breakdown.prepared = translation.ready_at;
                PageState {
                    lpn,
                    ppn: translation.ppn,
                    lane: geometry.unpack(translation.ppn).channel as usize,
                    slot,
                    class,
                    breakdown,
                    payload: snapshot,
                    retired: false,
                    attempts: 0,
                }
            })
            .collect();

        // Logical-read accounting happens at submission; the flash
        // stages run later, page by page.
        self.platform.ftl.record_logical_reads(lpns.len() as u64);
        let ticket = self.exec.open_ticket(lpns.len() as u32, now);
        // Every page enters its channel's per-tenant WFQ lane under its
        // *chain-effective* ready time, so it never overtakes its own
        // ticket's earlier pages on that channel; the arbiter grants one
        // page per channel at a time in virtual-time order.
        let mut chain_ready: Vec<Option<SimTime>> = vec![None; geometry.channels as usize];
        for (index, page) in pages.iter().enumerate() {
            let channel = page.lane;
            let ready = match chain_ready[channel] {
                Some(prev) => page.breakdown.prepared.max(prev),
                None => page.breakdown.prepared,
            };
            chain_ready[channel] = Some(ready);
            self.arbiter
                .enqueue(channel, tee, ticket, index as u32, ready);
        }
        for (channel, ready) in chain_ready.iter().enumerate() {
            if ready.is_some() {
                kick_channel(&mut self.arbiter, &mut self.exec, channel, now);
            }
        }
        self.jobs.insert(
            ticket.raw(),
            Job {
                tee,
                kind: TicketKind::Read,
                submitted: now,
                pages,
                sealed: Vec::new(),
                encrypted: Vec::new(),
                pending_encrypts: 0,
                faults: FaultStats::default(),
            },
        );
        Ok(ticket)
    }

    /// Submits a multi-page timing-only write batch to the executor
    /// without waiting for it. See
    /// [`IceClave::submit_write_batch_async_as`].
    ///
    /// # Errors
    ///
    /// As [`IceClave::submit_write_batch_async_as`].
    pub fn submit_write_batch_async(
        &mut self,
        tee: TeeId,
        lpns: &[Lpn],
        now: SimTime,
    ) -> Result<Ticket, IceClaveError> {
        let writes: Vec<PageWrite> = lpns.iter().copied().map(PageWrite::new).collect();
        self.submit_write_batch_async_as(tee, writes, now)
    }

    /// The batched protected write path — the program-side mirror of
    /// [`IceClave::submit_batch_async_as`]: ownership-checks, seals,
    /// encrypts, allocates and programs a whole page set as one
    /// channel-parallel ticket. The call returns the ticket without
    /// waiting for it.
    ///
    /// Pipeline shape (workflow steps 3–6 of Figure 9, reversed):
    ///
    /// 1. the FTL ownership-checks every page **at submission** — a
    ///    foreign page aborts the batch *before any DRAM, allocation
    ///    or flash traffic* and throws the TEE out (§4.5);
    /// 2. the MEE drains the source pages out of the TEE's working
    ///    half in request order ([`MeeEngine::seal_page`]): the DRAM
    ///    read-out gates the
    ///    downstream stages, while the counter-epoch increments and
    ///    outbound MAC generation run concurrently with the channel
    ///    programs and gate durability alone;
    /// 3. each outbound page crosses a lane of the config's [`Link`]
    ///    from its seal read-out, pipelining across pages: the
    ///    stream-cipher engines encrypt it (all data crossing the flash
    ///    boundary is ciphertext, §5), or the PCIe link carries it from
    ///    host memory; a plain link has no lane;
    /// 4. once the last page crossed its lane — by which point the
    ///    channel admit horizons reflect everything the executor
    ///    interleaved meanwhile — the batch enters the secure world
    ///    **once**, steers each page's fresh allocation to the
    ///    earliest-available channel (a GC pass stalls only its own
    ///    channel and routes later pages around it) and programs the
    ///    pages in request order, each admitted only once its page is
    ///    ready, coalescing dirty translation-page write-backs to one
    ///    persist per batch.
    ///
    /// A page is durable when its program and its seal metadata have
    /// both drained (and, on a journaled device, the batch's journal
    /// sync has ended); it retires into the completion queue at that
    /// time, its `ready_at()`. The batch finishes when every page is
    /// durable and the secure world has been exited.
    ///
    /// Writes carrying [`PageWrite::data`] persist that plaintext
    /// (stream-ciphered) at the page's new physical location, so a
    /// later read ticket returns the exact bytes. The batch is taken by
    /// value so each payload moves into the in-flight job unchanged —
    /// no copy is made between submission and the flash store.
    ///
    /// # Errors
    ///
    /// As [`IceClave::submit_batch_async_as`].
    pub fn submit_write_batch_async_as(
        &mut self,
        tee: TeeId,
        writes: Vec<PageWrite>,
        now: SimTime,
    ) -> Result<Ticket, IceClaveError> {
        self.ensure_powered()?;
        self.ensure_running(tee)?;
        if writes.is_empty() {
            return Ok(self.exec.open_ticket(0, now));
        }
        if let Err(e) = self
            .platform
            .ftl
            .check_write_access(Requestor::Tee(tee), writes.iter().map(|w| w.lpn))
        {
            if matches!(e, FtlError::AccessDenied { .. }) {
                // ThrowOutTEE: writing a page outside the granted
                // region is an access violation (§4.5).
                self.throw_out(tee, AbortReason::AccessViolation, now)?;
            }
            return Err(e.into());
        }

        // Stage 1 at submission: MEE drain of the source pages (working
        // half of the TEE region), in request order. Only the DRAM
        // read-out gates the downstream stages; the seal's
        // counter-increment + MAC generation run concurrently and gate
        // durability alone.
        let (working_base, working_pages, first_seal) = {
            let state = self.tee_mut(tee).expect("running tee exists");
            let first_seal = state.next_seal;
            state.next_seal += writes.len() as u64;
            (
                state.region_page + state.input_pages(),
                (state.region_pages - state.input_pages()).max(1),
                first_seal,
            )
        };
        let sealed: Vec<SealSpan> = (first_seal..first_seal + writes.len() as u64)
            .map(|n| {
                let slot = working_base + n % working_pages;
                self.mee.seal_page(&mut self.platform.dram, slot, now)
            })
            .collect();

        // The target channel is unknown until the FTL allocates, so
        // outbound pages go to the link's lanes round-robin. Payloads
        // move out of the request into the job.
        let lanes = self.lanes.len().max(1);
        let pages: Vec<PageState> = writes
            .into_iter()
            .enumerate()
            .map(|(i, write)| {
                let mut breakdown = LatencyBreakdown::at_submission(now);
                breakdown.prepared = sealed[i].data_out;
                PageState {
                    lpn: write.lpn,
                    ppn: Ppn::new(0),
                    lane: i % lanes,
                    slot: 0,
                    class: PageClass::Writable,
                    breakdown,
                    payload: write.data,
                    retired: false,
                    attempts: 0,
                }
            })
            .collect();

        let count = pages.len();
        let ticket = self.exec.open_ticket(count as u32, now);
        let (encrypted, pending_encrypts) = if self.config.link != Link::Plain {
            for (index, span) in sealed.iter().enumerate() {
                self.exec
                    .schedule(span.data_out, ticket, index as u32, Stage::Lane);
            }
            (vec![now; count], count)
        } else {
            // No lane: the program phase fires when the last seal
            // read-out completes (virtual-time tagged, as in the
            // Lane-gated path).
            let encrypted: Vec<SimTime> = sealed.iter().map(|s| s.data_out).collect();
            let at = encrypted.iter().copied().fold(now, SimTime::max);
            let vtime = self.arbiter.program_tag(tee);
            self.exec
                .schedule_weighted(at, vtime, ticket, 0, Stage::Program);
            (encrypted, 0)
        };
        self.jobs.insert(
            ticket.raw(),
            Job {
                tee,
                kind: TicketKind::Write,
                submitted: now,
                pages,
                encrypted,
                pending_encrypts,
                sealed,
                faults: FaultStats::default(),
            },
        );
        Ok(ticket)
    }

    /// Advances the executor to `now` and drains every completion that
    /// became ready at or before `now`, in the documented stable drain
    /// order of [`iceclave_exec::completion`] (quoted by
    /// [`iceclave_exec::DRAIN_ORDER_CONTRACT`]). Two identical runs
    /// drain identical sequences.
    ///
    /// # Examples
    ///
    /// Poll the completion queue as simulated time advances:
    ///
    /// ```
    /// use iceclave_core::{IceClave, IceClaveConfig};
    /// use iceclave_types::{Lpn, SimDuration, SimTime};
    ///
    /// let mut ice = IceClave::new(IceClaveConfig::tiny());
    /// let t = ice.populate(Lpn::new(0), 4, SimTime::ZERO)?;
    /// let lpns: Vec<Lpn> = (0..4).map(Lpn::new).collect();
    /// let (tee, t) = ice.offload_code(64 * 1024, &lpns, t)?;
    /// let ticket = ice.submit_batch_async(tee, &lpns, t)?;
    ///
    /// // Nothing can have completed at submission time...
    /// assert!(ice.poll_completions(t).is_empty());
    /// // ...while ten simulated milliseconds retire every page, in
    /// // the documented drain order.
    /// let events = ice.poll_completions(t + SimDuration::from_millis(10));
    /// assert_eq!(events.len(), 4);
    /// assert!(events.iter().all(|e| e.ticket == ticket));
    /// assert_eq!(ice.in_flight_tickets(), 0);
    /// # Ok::<(), iceclave_core::IceClaveError>(())
    /// ```
    pub fn poll_completions(&mut self, now: SimTime) -> Vec<CompletionEvent> {
        self.sweep_stale_errors();
        self.drive(|exec, ctx| exec.run_until(ctx, now));
        if self.exec.power_lost() {
            // The completion queue lives in controller DRAM: whatever
            // was queued but undrained at the cut is gone with it.
            return Vec::new();
        }
        self.exec.poll(now)
    }

    /// Runs every in-flight ticket to completion and drains the whole
    /// completion queue (same order contract as
    /// [`IceClave::poll_completions`]).
    pub fn drain_completions(&mut self) -> Vec<CompletionEvent> {
        self.sweep_stale_errors();
        self.drive(|exec, ctx| exec.run_to_idle(ctx));
        if self.exec.power_lost() {
            // The completion queue lives in controller DRAM: whatever
            // was queued but undrained at the cut is gone with it.
            return Vec::new();
        }
        self.exec.drain_all()
    }

    /// Forgets ticket errors whose tickets were already retired by an
    /// *earlier* drain. Only [`IceClave::wait_batch`] consumes a
    /// ticket's error; a ticket drained through the polling API never
    /// reaches it, so without this sweep its error would stay on the
    /// list for the rest of the run.
    fn sweep_stale_errors(&mut self) {
        let exec = &self.exec;
        self.failed
            .retain(|raw| exec.issued_at(Ticket::new(raw)).is_some());
    }

    /// Number of tickets with pages still in flight.
    pub fn in_flight_tickets(&self) -> usize {
        self.exec.open_tickets()
    }

    /// The executor's event clock: the high-water mark of processed
    /// simulated time.
    pub fn exec_clock(&self) -> SimTime {
        self.exec.clock()
    }

    /// Fails every in-flight ticket of `tee` at `now` (TEE teardown):
    /// un-retired pages push `Failed` completions, the jobs are
    /// dropped, and each ticket records [`IceClaveError::NotRunning`].
    /// Stage events still on the heap become no-ops, so nothing can
    /// touch the TEE's recycled region or identifier afterward.
    pub(crate) fn cancel_tickets_of(&mut self, tee: TeeId, now: SimTime) {
        // The job slab iterates in ascending ticket-id order, so the
        // cancellation order is deterministic by construction.
        let tickets: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, job)| job.tee == tee)
            .map(|(raw, _)| raw)
            .collect();
        for raw in tickets {
            let ticket = Ticket::new(raw);
            // Purge the dead ticket's queued pages from the channel
            // arbiter; channels whose in-flight grant it held go to
            // the next tenant immediately.
            for channel in self.arbiter.cancel_ticket(ticket) {
                kick_channel(&mut self.arbiter, &mut self.exec, channel, now);
            }
            self.failed.record(raw, IceClaveError::NotRunning(tee));
            let mut job = self.jobs.remove(raw).expect("ticket was just listed");
            for (index, page) in job.pages.iter_mut().enumerate() {
                if page.retired {
                    continue;
                }
                page.retired = true;
                page.breakdown.ready = now;
                self.exec.push_completion(CompletionEvent {
                    ticket,
                    kind: job.kind,
                    tee,
                    index: index as u32,
                    lpn: page.lpn,
                    status: PageStatus::Failed {
                        reason: PageError {
                            ppn: page.ppn,
                            attempts: page.attempts,
                            cause: PageErrorCause::Cancelled,
                        },
                    },
                    breakdown: page.breakdown,
                    data: None,
                });
            }
            // Every page is now retired, which closed the ticket —
            // report whatever faults it accumulated before death.
            self.exec.notify_close(ticket, &job.faults);
        }
    }

    /// Runs the heap until `ticket` — read or write — closes, then
    /// returns its completion: every page's event in page order, and
    /// `finished` at the ticket's close (for a write, once every page
    /// is durable and the secure world has been exited). Events of
    /// other in-flight tickets that are due earlier run on the way;
    /// their completions stay queued for
    /// [`IceClave::poll_completions`].
    ///
    /// # Errors
    ///
    /// [`IceClaveError::UnknownTicket`] for a ticket that was never
    /// issued here or already (even partially) drained through the
    /// polling API, or the ticket's own mid-flight error.
    pub fn wait_batch(&mut self, ticket: Ticket) -> Result<BatchCompletion, IceClaveError> {
        self.ensure_powered()?;
        let Some(issued) = self.exec.issued_at(ticket) else {
            return Err(self
                .failed
                .remove(ticket.raw())
                .unwrap_or(IceClaveError::UnknownTicket(ticket)));
        };
        if self.exec.drained_of(ticket).unwrap_or(0) > 0 {
            // Part of the batch already left through poll_completions;
            // a waited completion would silently miss those pages.
            // Mixing the two drain styles on one ticket is not
            // supported — fail loudly instead.
            return Err(IceClaveError::UnknownTicket(ticket));
        }
        self.drive(|exec, ctx| exec.run_ticket(ctx, ticket));
        if self.exec.power_lost() {
            // The cut landed mid-drain: the ticket never closed and
            // its partial completions died with the controller DRAM.
            return Err(IceClaveError::PowerLost);
        }
        let finished = self.exec.finished_at(ticket).unwrap_or(issued);
        let mut completions = self.exec.take_ticket_completions(ticket);
        if let Some(error) = self.failed.remove(ticket.raw()) {
            return Err(error);
        }
        // Page indexes are unique within a ticket.
        completions.sort_unstable_by_key(|e| e.index);
        Ok(BatchCompletion {
            issued,
            finished,
            completions,
        })
    }
}
