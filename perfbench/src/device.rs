//! The device-level closed loop, driven through `IceClave`'s public
//! API.
//!
//! Each tenant (TEE) is one client replaying its program's batches in
//! order. For batch *i* it waits for the read ticket of batch *i*,
//! submits batch *i+1*'s flash pages as the next read ticket (so the
//! load overlaps this batch's compute), issues the batch's DRAM lines
//! through `mem_read`/`mem_write`, calls `compute`, and, for a
//! random-access batch, commits the dirtied pages as one write ticket.
//! Completions are drained with `drain_completions`, which runs every
//! in-flight ticket to idle: each drain is a quiescent point.

use iceclave_core::{IceClave, IceClaveConfig, IceClaveError, PowerLossPlan, RecoveryStats};
use iceclave_mee::PageClass;
use iceclave_sim::SimRng;
use iceclave_types::{
    ByteSize, CompletionEvent, LatencyBreakdown, Lpn, SimDuration, SimTime, TeeId, Ticket,
    TicketKind, LINES_PER_PAGE, PAGE_SIZE,
};
use iceclave_workloads::{Batch, WorkloadConfig, WorkloadKind, WorkloadOutput};

use crate::checks::{self, Tally};
use crate::probe::{Family, Probe, NONE};

/// Memory-level parallelism of the executing core: lines are issued in
/// groups of this size, as `iceclave_experiments` does.
const MLP: usize = 4;
/// Offloaded binary size and result size, as in `iceclave_experiments`.
const CODE_BYTES: u64 = 256 << 10;
const RESULT_BYTES: u64 = 64 << 10;

/// One program's inputs: the batches its workload emitted.
#[derive(Debug)]
pub struct Program {
    pub kind: WorkloadKind,
    pub batches: Vec<Batch>,
    pub output: WorkloadOutput,
    pub dataset_pages: u64,
    pub working_set: ByteSize,
}

impl Program {
    pub fn generate(kind: WorkloadKind, config: &WorkloadConfig) -> Program {
        let workload = kind.build(config);
        let mut batches = Vec::new();
        let output = workload.run(&mut |b| batches.push(b));
        Program {
            kind,
            batches,
            output,
            dataset_pages: workload.dataset_pages(),
            working_set: workload.working_set(),
        }
    }

    pub fn flash_pages(&self) -> u64 {
        self.batches.iter().map(Batch::flash_pages).sum()
    }

    pub fn dram_lines(&self) -> u64 {
        self.batches
            .iter()
            .map(|b| b.dram_reads() + b.working_writes)
            .sum()
    }
}

/// Per-page latencies of drained completions, whole and per stage.
#[derive(Debug, Default)]
pub struct Latencies {
    pub read: Vec<SimDuration>,
    pub write: Vec<SimDuration>,
    /// Read stages: prepare (translate), flash, cipher (decrypt), fill.
    pub read_stages: [Vec<SimDuration>; 4],
    /// Write stages: seal, cipher (encrypt), program, durable.
    pub write_stages: [Vec<SimDuration>; 4],
}

impl Latencies {
    fn record(&mut self, kind: TicketKind, b: &LatencyBreakdown) {
        // Reads pass flash before the cipher, writes the cipher before
        // flash; stages a config skips (no cipher on ISC) read zero.
        let (first, second) = match kind {
            TicketKind::Read => (b.flash_done, b.cipher_done),
            TicketKind::Write => (b.cipher_done, b.flash_done),
        };
        let prepared = b.prepared.max(b.submitted);
        let first = first.max(prepared);
        let second = second.max(first);
        let ready = b.ready.max(second);
        let (total, stages) = match kind {
            TicketKind::Read => (&mut self.read, &mut self.read_stages),
            TicketKind::Write => (&mut self.write, &mut self.write_stages),
        };
        total.push(b.total());
        let bounds = [b.submitted, prepared, first, second, ready];
        for (stage, w) in stages.iter_mut().zip(bounds.windows(2)) {
            stage.push(w[1].saturating_since(w[0]));
        }
    }
}

/// Cumulative device counters, snapshotted around a leg.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub flash_reads: u64,
    pub flash_programs: u64,
    pub flash_erases: u64,
    pub translations: u64,
    pub logical_writes: u64,
    pub gc_runs: u64,
    pub access_denied: u64,
    pub cmt_hits: u64,
    pub cmt_misses: u64,
    pub journal_records: u64,
    pub journal_pages: u64,
    pub channel_busy: SimDuration,
    pub die_busy: SimDuration,
    pub switches: u64,
    pub dram_accesses: u64,
    pub dram_row_hits: u64,
    pub dram_latency: SimDuration,
    pub core_busy: SimDuration,
}

impl Counters {
    pub fn of(ice: &IceClave) -> Counters {
        let platform = ice.platform();
        let ftl = &platform.ftl;
        let flash = ftl.flash();
        let journal = ftl.journal();
        let dram = platform.dram.stats();
        Counters {
            flash_reads: flash.stats().reads,
            flash_programs: flash.stats().programs,
            flash_erases: flash.stats().erases,
            translations: ftl.stats().translations,
            logical_writes: ftl.stats().writes,
            gc_runs: ftl.stats().gc_runs,
            access_denied: ftl.stats().access_denied,
            cmt_hits: ftl.cmt().hits(),
            cmt_misses: ftl.cmt().misses(),
            journal_records: journal.map_or(0, |j| j.records_synced()),
            journal_pages: journal.map_or(0, |j| j.pages_written()),
            channel_busy: flash.channels().iter().map(|r| r.busy_time()).sum(),
            die_busy: flash.dies().iter().map(|r| r.busy_time()).sum(),
            switches: platform.monitor.stats().switches,
            dram_accesses: dram.accesses(),
            dram_row_hits: dram.row_hits,
            dram_latency: dram.total_latency,
            core_busy: platform.cores.busy_time(),
        }
    }

    /// The activity between `before` and `self`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            flash_reads: self.flash_reads - before.flash_reads,
            flash_programs: self.flash_programs - before.flash_programs,
            flash_erases: self.flash_erases - before.flash_erases,
            translations: self.translations - before.translations,
            logical_writes: self.logical_writes - before.logical_writes,
            gc_runs: self.gc_runs - before.gc_runs,
            access_denied: self.access_denied - before.access_denied,
            cmt_hits: self.cmt_hits - before.cmt_hits,
            cmt_misses: self.cmt_misses - before.cmt_misses,
            journal_records: self.journal_records - before.journal_records,
            journal_pages: self.journal_pages - before.journal_pages,
            channel_busy: self.channel_busy.saturating_sub(before.channel_busy),
            die_busy: self.die_busy.saturating_sub(before.die_busy),
            switches: self.switches - before.switches,
            dram_accesses: self.dram_accesses - before.dram_accesses,
            dram_row_hits: self.dram_row_hits - before.dram_row_hits,
            dram_latency: self.dram_latency.saturating_sub(before.dram_latency),
            core_busy: self.core_busy.saturating_sub(before.core_busy),
        }
    }
}

/// What to run on a device.
#[derive(Debug)]
pub struct LegPlan<'a> {
    pub programs: &'a [&'a Program],
    /// Tenant id of each program: names its RNG stream, so a program
    /// touches the same DRAM lines on every config, alone or colocated.
    pub tenants: &'a [u32],
    /// All tenants at once (the earliest clock steps next) instead of
    /// back to back.
    pub concurrent: bool,
    /// Op-log capture (`enable_tracing`/`take_trace`) during the leg.
    pub capture: bool,
    /// Leg id in the span trace.
    pub leg: u8,
}

/// What one leg measured.
#[derive(Debug, Default)]
pub struct Leg {
    /// Per program: offload to teardown.
    pub runtimes: Vec<SimDuration>,
    /// First offload to last teardown.
    pub span: SimDuration,
    pub end: SimTime,
    /// Pages retired per program.
    pub retired: Vec<u64>,
    pub pages_submitted: u64,
    pub pages_drained: u64,
    pub lat: Latencies,
    pub inflight_sum: u64,
    pub inflight_samples: u64,
    pub queued_sum: u64,
    pub queued_samples: u64,
    pub queued_max: u64,
    pub write_tickets: u64,
    /// Distinct LPNs written, ascending.
    pub written: Vec<u64>,
    pub trace_records: u64,
    pub trace_bytes: u64,
    pub events: u64,
}

/// A fresh device with the programs' datasets populated back to back.
#[derive(Debug)]
pub struct Device {
    pub ice: IceClave,
    /// When population finished: legs start here.
    pub ready: SimTime,
    bases: Vec<u64>,
}

impl Device {
    /// Set-up: `IceClave::new` (with an empty power-loss plan, which
    /// only counts executor events) and `populate`.
    pub fn new(
        config: IceClaveConfig,
        programs: &[&Program],
        probe: &mut Probe,
        tally: &mut Tally,
    ) -> Device {
        let mut ice = IceClave::new(config);
        ice.install_power_loss_plan(PowerLossPlan::none());
        let mut t = SimTime::ZERO;
        let mut base = 0;
        let mut bases = Vec::with_capacity(programs.len());
        for program in programs {
            bases.push(base);
            let r = probe.call(Family::Populate, 0, NONE, NONE, 1, || {
                ice.populate(Lpn::new(base), program.dataset_pages, t)
            });
            t = tally.call("populate", r).unwrap_or(t);
            base += program.dataset_pages;
        }
        Device {
            ice,
            ready: t,
            bases,
        }
    }

    /// Runs the plan's programs and reports what the leg measured.
    pub fn run(&mut self, plan: &LegPlan, seed: u64, probe: &mut Probe, tally: &mut Tally) -> Leg {
        let events_before = self.ice.events_processed().unwrap_or(0);
        if plan.capture {
            self.ice.enable_tracing();
        }
        let n = plan.programs.len();
        let start = self.ready;
        let mut ctx = Ctx {
            ice: &mut self.ice,
            probe,
            tally,
            leg: plan.leg,
            book: Book::new(n),
            out: Leg {
                runtimes: vec![SimDuration::ZERO; n],
                ..Leg::default()
            },
        };
        let client = |ctx: &mut Ctx, i: usize, at: SimTime| {
            Client::offload(
                ctx,
                i,
                plan.programs[i],
                plan.tenants[i],
                self.bases[i],
                seed,
                at,
            )
        };
        let mut end = start;
        if plan.concurrent {
            let mut clients: Vec<Client> =
                (0..n).filter_map(|i| client(&mut ctx, i, start)).collect();
            while let Some(c) = clients
                .iter_mut()
                .filter(|c| !c.finished())
                .min_by_key(|c| c.clock)
            {
                c.step(&mut ctx);
            }
            for c in &clients {
                let done = c.teardown(&mut ctx);
                ctx.out.runtimes[c.index] = done.saturating_since(start);
                end = end.max(done);
            }
        } else {
            for i in 0..n {
                let Some(mut c) = client(&mut ctx, i, end) else {
                    continue;
                };
                while !c.finished() {
                    c.step(&mut ctx);
                }
                let done = c.teardown(&mut ctx);
                ctx.out.runtimes[i] = done.saturating_since(end);
                end = done;
            }
        }
        if ctx.book.open > 0 {
            ctx.drain();
        }
        let Ctx {
            ice,
            probe,
            tally,
            book,
            mut out,
            ..
        } = ctx;
        let retired: u64 = book.retired.iter().sum();
        tally.check(checks::all_retired(out.pages_submitted, retired), || {
            format!("{} pages submitted, {retired} retired", out.pages_submitted)
        });
        let in_flight = ice.in_flight_tickets();
        tally.check(checks::quiescent(in_flight), || {
            format!("{in_flight} tickets in flight at the end of a leg")
        });
        if plan.capture {
            let log = probe.call(Family::TakeTrace, plan.leg, NONE, NONE, 1, || {
                ice.take_trace()
            });
            tally.check(log.is_some(), || "op-log capture returned no log".into());
            if let Some(log) = log {
                out.trace_records = log.len() as u64;
                out.trace_bytes = log.as_bytes().len() as u64;
            }
        }
        out.events = ice.events_processed().unwrap_or(0) - events_before;
        out.span = end.saturating_since(start);
        out.end = end;
        out.retired = book.retired;
        out.pages_drained = book.drained;
        out.lat = book.lat;
        out.written.sort_unstable();
        out.written.dedup();
        out
    }

    /// Reboots through `IceClave::recover`, then reads every LPN of
    /// `written` back through a fresh TEE. Returns the recovery stats
    /// and the LPNs that read back `Done`.
    pub fn reboot_and_read_back(
        &mut self,
        written: &[u64],
        at: SimTime,
        probe: &mut Probe,
        tally: &mut Tally,
    ) -> Option<(RecoveryStats, Vec<u64>)> {
        let ice = &mut self.ice;
        let r = probe.call(Family::Recover, 0, NONE, NONE, 1, || ice.recover(at));
        let stats = tally.call("recover", r)?;
        let t = at + stats.recovery_time;
        let lpns: Vec<Lpn> = written.iter().map(|&l| Lpn::new(l)).collect();
        let r = probe.call(Family::Lifecycle, 0, NONE, NONE, 1, || {
            ice.offload_code(CODE_BYTES, &lpns, t)
        });
        let (tee, t) = tally.call("offload_code after recover", r)?;
        let r = probe.call(Family::SubmitRead, 0, NONE, NONE, 1, || {
            ice.submit_batch_async(tee, &lpns, t)
        });
        let ticket = tally.call("read-back submit", r)?;
        let events = probe.call(Family::Drain, 0, NONE, NONE, 1, || ice.drain_completions());
        let done: Vec<u64> = events
            .iter()
            .filter(|e| e.ticket == ticket && e.status.is_done())
            .map(|e| e.lpn.raw())
            .collect();
        let failed = (events.len() - done.len()) as u64;
        tally.record(events.len() as u64, failed, || {
            format!("{failed} read-back pages did not retire Done")
        });
        let in_flight = ice.in_flight_tickets();
        tally.check(checks::quiescent(in_flight), || {
            format!("{in_flight} tickets in flight after the read-back")
        });
        let end = events
            .iter()
            .map(CompletionEvent::ready_at)
            .fold(t, SimTime::max);
        let r = probe.call(Family::Lifecycle, 0, NONE, NONE, 1, || {
            ice.terminate_tee(tee, end)
        });
        tally.call("terminate_tee after read-back", r);
        Some((stats, done))
    }
}

/// A submitted ticket and how much of it has retired.
#[derive(Clone, Copy, Debug)]
struct Entry {
    client: usize,
    pages: u32,
    retired: u32,
    last_ready: SimTime,
}

/// Every ticket of a leg, indexed by raw ticket id.
#[derive(Debug)]
struct Book {
    entries: Vec<Option<Entry>>,
    /// Tickets with pages not yet drained.
    open: usize,
    lat: Latencies,
    /// Pages retired per client.
    retired: Vec<u64>,
    /// Per client: when its last commit became durable.
    commit: Vec<SimTime>,
    drained: u64,
}

impl Book {
    fn new(clients: usize) -> Book {
        Book {
            entries: Vec::new(),
            open: 0,
            lat: Latencies::default(),
            retired: vec![0; clients],
            commit: vec![SimTime::ZERO; clients],
            drained: 0,
        }
    }

    fn opened(&mut self, ticket: Ticket, client: usize, pages: usize, at: SimTime) {
        let i = ticket.raw() as usize;
        if self.entries.len() <= i {
            self.entries.resize(i + 1, None);
        }
        self.entries[i] = Some(Entry {
            client,
            pages: pages as u32,
            retired: 0,
            last_ready: at,
        });
        self.open += 1;
    }

    fn entry(&self, ticket: Ticket) -> Option<&Entry> {
        self.entries.get(ticket.raw() as usize)?.as_ref()
    }

    fn closed(&self, ticket: Ticket) -> bool {
        self.entry(ticket).is_none_or(|e| e.retired == e.pages)
    }

    fn absorb(&mut self, events: &[CompletionEvent], tally: &mut Tally) {
        let mut failed = 0;
        let mut first_failure = None;
        for e in events {
            self.drained += 1;
            let Some(Some(entry)) = self.entries.get_mut(e.ticket.raw() as usize) else {
                failed += 1;
                first_failure.get_or_insert_with(|| format!("completion of unknown {}", e.ticket));
                continue;
            };
            entry.retired += 1;
            entry.last_ready = entry.last_ready.max(e.breakdown.ready);
            self.retired[entry.client] += 1;
            if e.kind == TicketKind::Write {
                self.commit[entry.client] = self.commit[entry.client].max(e.breakdown.ready);
            }
            if entry.retired == entry.pages {
                self.open -= 1;
            }
            if !e.status.is_done() {
                failed += 1;
                first_failure.get_or_insert_with(|| {
                    format!(
                        "page {} of {} retired {:?}",
                        e.lpn.raw(),
                        e.ticket,
                        e.status
                    )
                });
            } else {
                self.lat.record(e.kind, &e.breakdown);
            }
        }
        tally.record(events.len() as u64, failed, || {
            first_failure.unwrap_or_default()
        });
    }
}

/// The state a leg's clients share.
struct Ctx<'a> {
    ice: &'a mut IceClave,
    probe: &'a mut Probe,
    tally: &'a mut Tally,
    leg: u8,
    book: Book,
    out: Leg,
}

impl Ctx<'_> {
    /// Runs every in-flight ticket to idle and files the completions.
    fn drain(&mut self) {
        let ice = &mut *self.ice;
        let events = self.probe.call(Family::Drain, self.leg, NONE, NONE, 1, || {
            ice.drain_completions()
        });
        self.book.absorb(&events, self.tally);
        let in_flight = self.ice.in_flight_tickets();
        self.tally.check(checks::quiescent(in_flight), || {
            format!("{in_flight} tickets in flight after a drain")
        });
    }

    /// Samples executor and arbiter occupancy after a submission.
    fn sample(&mut self, read: bool) {
        self.out.inflight_sum += self.ice.in_flight_tickets() as u64;
        self.out.inflight_samples += 1;
        if read {
            let queued = self.ice.arbiter().queued_total() as u64;
            self.out.queued_sum += queued;
            self.out.queued_samples += 1;
            self.out.queued_max = self.out.queued_max.max(queued);
        }
    }
}

/// API errors of a run of `mem_read`/`mem_write` calls.
#[derive(Default)]
struct LineErrors {
    count: u64,
    first: Option<IceClaveError>,
}

/// Issues `lines` [`MLP`] at a time from `t`; returns when the last
/// group completed.
fn issue_lines(
    ice: &mut IceClave,
    tee: TeeId,
    write: bool,
    lines: &[u64],
    mut t: SimTime,
    errors: &mut LineErrors,
) -> SimTime {
    for group in lines.chunks(MLP) {
        let mut end = t;
        for &line in group {
            let r = if write {
                ice.mem_write(tee, line, t)
            } else {
                ice.mem_read(tee, line, t)
            };
            match r {
                Ok(done) => end = end.max(done),
                Err(e) => {
                    errors.count += 1;
                    errors.first.get_or_insert(e);
                }
            }
        }
        t = end;
    }
    t
}

/// One tenant replaying its program.
struct Client<'p> {
    index: usize,
    program: &'p Program,
    tenant: u32,
    tee: TeeId,
    base: u64,
    rng: SimRng,
    next: usize,
    clock: SimTime,
    input_span: u64,
    input_cursor: u64,
    working_base: u64,
    working_span: u64,
    /// The read ticket of batch `next`, submitted early, and when.
    pending: Option<(Option<Ticket>, SimTime)>,
    lines: Vec<u64>,
}

impl<'p> Client<'p> {
    fn offload(
        ctx: &mut Ctx,
        index: usize,
        program: &'p Program,
        tenant: u32,
        base: u64,
        seed: u64,
        at: SimTime,
    ) -> Option<Client<'p>> {
        let lpns: Vec<Lpn> = (0..program.dataset_pages)
            .map(|i| Lpn::new(base + i))
            .collect();
        let ice = &mut *ctx.ice;
        let r = ctx
            .probe
            .call(Family::Lifecycle, ctx.leg, tenant, NONE, 1, || {
                ice.offload_code(CODE_BYTES, &lpns, at)
            });
        let (tee, after) = ctx.tally.call("offload_code", r)?;
        // The TEE region's first half is the input ring, the second
        // the working half; random lines sweep the program's working
        // set, clamped to that half, as `iceclave_experiments` does.
        let region_pages = ctx.ice.config().tee_region.as_bytes() / PAGE_SIZE;
        let input_pages = region_pages / 2;
        let working_half_lines = (region_pages - input_pages) * LINES_PER_PAGE;
        Some(Client {
            index,
            program,
            tenant,
            tee,
            base,
            rng: SimRng::new(seed).derive(&format!(
                "perfbench/tenant{tenant}/{}",
                program.kind.label()
            )),
            next: 0,
            clock: after,
            input_span: input_pages * LINES_PER_PAGE,
            input_cursor: 0,
            working_base: input_pages * LINES_PER_PAGE,
            working_span: program
                .working_set
                .cache_lines()
                .clamp(64, working_half_lines),
            pending: None,
            lines: Vec::new(),
        })
    }

    fn finished(&self) -> bool {
        self.next >= self.program.batches.len()
    }

    fn lpns(&self, batch: &Batch) -> Vec<Lpn> {
        batch
            .flash_reads
            .iter()
            .flat_map(|run| run.iter())
            .map(|lpn| Lpn::new(self.base + lpn.raw()))
            .collect()
    }

    fn random_working(&mut self) -> u64 {
        self.working_base + self.rng.gen_below(self.working_span)
    }

    /// Submits batch `index`'s flash pages as one read ticket at `at`.
    fn submit_read(
        &mut self,
        ctx: &mut Ctx,
        index: usize,
        at: SimTime,
    ) -> (Option<Ticket>, SimTime) {
        let batch = &self.program.batches[index];
        let lpns = self.lpns(batch);
        if lpns.is_empty() {
            return (None, at);
        }
        // Scans fill read-only (major counters); random-access pages
        // are about to be updated, so they fill writable.
        let class = if batch.random_access {
            PageClass::Writable
        } else {
            PageClass::ReadOnly
        };
        let (ice, tee) = (&mut *ctx.ice, self.tee);
        let r = ctx.probe.call(
            Family::SubmitRead,
            ctx.leg,
            self.tenant,
            index as u32,
            1,
            || ice.submit_batch_async_as(tee, &lpns, class, at),
        );
        let ticket = ctx.tally.call("submit_batch_async_as", r);
        if let Some(ticket) = ticket {
            ctx.book.opened(ticket, self.index, lpns.len(), at);
            ctx.out.pages_submitted += lpns.len() as u64;
            ctx.sample(true);
        }
        (ticket, at)
    }

    fn step(&mut self, ctx: &mut Ctx) {
        let index = self.next;
        let program = self.program;
        let batch = &program.batches[index];
        let (ticket, issued) = match self.pending.take() {
            Some(pending) => pending,
            None => self.submit_read(ctx, index, self.clock),
        };
        let mut load_done = issued;
        if let Some(ticket) = ticket {
            if !ctx.book.closed(ticket) {
                ctx.drain();
            }
            load_done = ctx.book.entry(ticket).map_or(issued, |e| e.last_ready);
        }
        let compute_start = self.clock.max(load_done);
        if index + 1 < program.batches.len() {
            self.pending = Some(self.submit_read(ctx, index + 1, compute_start));
        }
        let t = self.touch_lines(ctx, batch, index, compute_start);
        let (ice, tee) = (&mut *ctx.ice, self.tee);
        let r = ctx.probe.call(
            Family::Compute,
            ctx.leg,
            self.tenant,
            index as u32,
            1,
            || ice.compute(tee, &batch.ops, t),
        );
        let done = ctx.tally.call("compute", r).unwrap_or(t);
        if batch.random_access && batch.working_writes > 0 {
            self.commit(ctx, batch, index, done);
        }
        self.clock = done;
        self.next += 1;
    }

    /// The batch's DRAM lines: the input stream swept sequentially over
    /// the input half, then staged and working lookups and working
    /// writes at random over the working set.
    fn touch_lines(
        &mut self,
        ctx: &mut Ctx,
        batch: &Batch,
        index: usize,
        start: SimTime,
    ) -> SimTime {
        let mut lines = std::mem::take(&mut self.lines);
        lines.clear();
        for _ in 0..batch.input_lines {
            lines.push(self.input_cursor % self.input_span);
            self.input_cursor += 1;
        }
        let staged_at = lines.len();
        for _ in 0..batch.staged_reads {
            lines.push(self.random_working());
        }
        let working_at = lines.len();
        for _ in 0..batch.working_reads {
            lines.push(self.random_working());
        }
        let writes_at = lines.len();
        for _ in 0..batch.working_writes {
            lines.push(self.random_working());
        }
        let (reads, writes) = lines.split_at(writes_at);
        let mut errors = LineErrors::default();
        let (ice, tee, leg, tenant) = (&mut *ctx.ice, self.tee, ctx.leg, self.tenant);
        let mut t = start;
        if !reads.is_empty() {
            t = ctx.probe.call(
                Family::MemRead,
                leg,
                tenant,
                index as u32,
                reads.len() as u32,
                || {
                    let t = issue_lines(ice, tee, false, &reads[..staged_at], t, &mut errors);
                    let t = issue_lines(
                        ice,
                        tee,
                        false,
                        &reads[staged_at..working_at],
                        t,
                        &mut errors,
                    );
                    issue_lines(ice, tee, false, &reads[working_at..], t, &mut errors)
                },
            );
        }
        if !writes.is_empty() {
            t = ctx.probe.call(
                Family::MemWrite,
                leg,
                tenant,
                index as u32,
                writes.len() as u32,
                || issue_lines(ice, tee, true, writes, t, &mut errors),
            );
        }
        ctx.tally.record(lines.len() as u64, errors.count, || {
            format!("mem_read/mem_write: {:?}", errors.first)
        });
        self.lines = lines;
        t
    }

    /// Commits the batch's dirtied pages as one write ticket at `at`.
    fn commit(&mut self, ctx: &mut Ctx, batch: &Batch, index: usize, at: SimTime) {
        let lpns = self.lpns(batch);
        let dirty = &lpns[..(batch.working_writes as usize).min(lpns.len())];
        if dirty.is_empty() {
            return;
        }
        let (ice, tee) = (&mut *ctx.ice, self.tee);
        let r = ctx.probe.call(
            Family::SubmitWrite,
            ctx.leg,
            self.tenant,
            index as u32,
            1,
            || ice.submit_write_batch_async(tee, dirty, at),
        );
        if let Some(ticket) = ctx.tally.call("submit_write_batch_async", r) {
            ctx.book.opened(ticket, self.index, dirty.len(), at);
            ctx.out.pages_submitted += dirty.len() as u64;
            ctx.out.write_tickets += 1;
            ctx.out.written.extend(dirty.iter().map(|l| l.raw()));
            ctx.sample(false);
        }
    }

    /// Drains the last commits, then `get_result` and `terminate_tee`.
    /// Returns the teardown time.
    fn teardown(&self, ctx: &mut Ctx) -> SimTime {
        if ctx.book.open > 0 {
            ctx.drain();
        }
        let horizon = self.clock.max(ctx.book.commit[self.index]);
        let (ice, tee) = (&mut *ctx.ice, self.tee);
        let r = ctx
            .probe
            .call(Family::Lifecycle, ctx.leg, self.tenant, NONE, 2, || {
                ice.get_result(tee, RESULT_BYTES, horizon)
                    .and_then(|t| ice.terminate_tee(tee, t))
            });
        ctx.tally
            .call("get_result/terminate_tee", r)
            .unwrap_or(horizon)
    }
}
