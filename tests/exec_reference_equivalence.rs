//! Equivalence of the flattened executor and the reference
//! implementation (`iceclave_testkit::RefExecutor`).
//!
//! The hot-path rewrite (windowed ticket slab, in-place completion
//! drain) must be *invisible*: for any interleaved
//! read/write schedule, the flattened [`Executor`] and the frozen
//! pre-flattening [`RefExecutor`] must produce identical completion
//! sequences — same order, same bytes, same [`LatencyBreakdown`]s.
//! One toy stage machine implements both driver traits so the two
//! executors run literally the same stage logic.

use std::collections::HashMap;

use proptest::prelude::*;

use iceclave_repro::iceclave_exec::{Executor, StageEvent, StageMachine};
use iceclave_repro::iceclave_types::{
    CompletionEvent, LatencyBreakdown, Lpn, PageStatus, SimDuration, SimTime, TeeId, Ticket,
    TicketKind,
};
use iceclave_testkit::{RefExecutor, RefStageMachine};

const CHANNELS: usize = 4;

/// The toy pipeline: a contended "channel" stage, then a fixed-latency
/// "flash" stage that retires the page.
#[derive(Copy, Clone, Debug)]
enum ToyStage {
    Prepare,
    Flash,
}

/// Everything the toy machine needs from an executor. Implemented for
/// both [`Executor`] and [`RefExecutor`] so the stage logic below is
/// shared verbatim.
trait Driver {
    fn schedule_weighted(
        &mut self,
        at: SimTime,
        vtime: u64,
        ticket: Ticket,
        page: u32,
        s: ToyStage,
    );
    fn push_completion(&mut self, event: CompletionEvent) -> bool;
}

impl Driver for Executor<ToyStage> {
    fn schedule_weighted(
        &mut self,
        at: SimTime,
        vtime: u64,
        ticket: Ticket,
        page: u32,
        s: ToyStage,
    ) {
        Executor::schedule_weighted(self, at, vtime, ticket, page, s);
    }
    fn push_completion(&mut self, event: CompletionEvent) -> bool {
        Executor::push_completion(self, event)
    }
}

impl Driver for RefExecutor<ToyStage> {
    fn schedule_weighted(
        &mut self,
        at: SimTime,
        vtime: u64,
        ticket: Ticket,
        page: u32,
        s: ToyStage,
    ) {
        RefExecutor::schedule_weighted(self, at, vtime, ticket, page, s);
    }
    fn push_completion(&mut self, event: CompletionEvent) -> bool {
        RefExecutor::push_completion(self, event)
    }
}

#[derive(Copy, Clone, Debug)]
struct PageMeta {
    kind: TicketKind,
    tee: TeeId,
    lpn: Lpn,
    submitted: SimTime,
}

/// Deterministic toy timing model: per-channel busy timelines plus
/// per-page metadata stashed at submission. One instance per executor;
/// both instances see the same schedule.
#[derive(Default)]
struct ToyModel {
    chan_free: [SimTime; CHANNELS],
    meta: HashMap<(u64, u32), PageMeta>,
}

impl ToyModel {
    #[allow(clippy::too_many_arguments)]
    fn submit<D: Driver>(
        &mut self,
        d: &mut D,
        ticket: Ticket,
        kind: TicketKind,
        tee: TeeId,
        base_lpn: u64,
        pages: u32,
        now: SimTime,
    ) {
        for page in 0..pages {
            let lpn = Lpn::new(base_lpn + u64::from(page));
            self.meta.insert(
                (ticket.raw(), page),
                PageMeta {
                    kind,
                    tee,
                    lpn,
                    submitted: now,
                },
            );
            // Tags collide across tenants (0..3), so same-vtime
            // same-tick events tie-break through the ticket-id and
            // page components of the event key.
            let vtime = u64::from(tee.raw()) % 3;
            d.schedule_weighted(now, vtime, ticket, page, ToyStage::Prepare);
        }
    }

    fn step<D: Driver>(&mut self, ev: StageEvent<ToyStage>, d: &mut D) {
        let meta = self.meta[&(ev.ticket.raw(), ev.page)];
        match ev.stage {
            ToyStage::Prepare => {
                let ch = (meta.lpn.raw() as usize) % CHANNELS;
                let extra = if meta.kind == TicketKind::Write {
                    60
                } else {
                    0
                };
                let service = SimDuration::from_nanos(180 + (meta.lpn.raw() % 7) * 35 + extra);
                let start = ev.at.max(self.chan_free[ch]);
                let end = start + service;
                self.chan_free[ch] = end;
                let vtime = u64::from(meta.tee.raw()) % 3;
                d.schedule_weighted(end, vtime, ev.ticket, ev.page, ToyStage::Flash);
            }
            ToyStage::Flash => {
                let cipher_done = ev.at + SimDuration::from_nanos(150);
                let ready = cipher_done + SimDuration::from_nanos(40);
                let data = match meta.kind {
                    TicketKind::Read => Some(vec![meta.lpn.raw() as u8; 8]),
                    TicketKind::Write => None,
                };
                d.push_completion(CompletionEvent {
                    ticket: ev.ticket,
                    kind: meta.kind,
                    tee: meta.tee,
                    index: ev.page,
                    lpn: meta.lpn,
                    status: PageStatus::Done,
                    breakdown: LatencyBreakdown {
                        submitted: meta.submitted,
                        prepared: ev.at,
                        flash_done: ev.at,
                        cipher_done,
                        ready,
                    },
                    data,
                });
            }
        }
    }
}

impl StageMachine for ToyModel {
    type Stage = ToyStage;
    fn advance(&mut self, ev: StageEvent<ToyStage>, exec: &mut Executor<ToyStage>) {
        self.step(ev, exec);
    }
}

impl RefStageMachine for ToyModel {
    type Stage = ToyStage;
    fn advance(&mut self, ev: StageEvent<ToyStage>, exec: &mut RefExecutor<ToyStage>) {
        self.step(ev, exec);
    }
}

/// One submitted batch of the generated schedule.
#[derive(Copy, Clone, Debug)]
struct Batch {
    write: bool,
    tee: u16,
    base_lpn: u64,
    pages: u32,
    gap_ns: u64,
}

fn batch_strategy() -> impl Strategy<Value = Batch> {
    (any::<bool>(), 0u16..4, 0u64..32, 0u32..5, 0u64..500).prop_map(
        |(write, tee, base_lpn, pages, gap_ns)| Batch {
            write,
            tee,
            base_lpn,
            pages,
            gap_ns,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary interleaved read/write schedules produce identical
    /// completion sequences, bytes, and latency breakdowns through the
    /// flattened executor and the reference implementation.
    #[test]
    fn flattened_executor_matches_reference(batches in prop::collection::vec(batch_strategy(), 1..12)) {
        let mut exec: Executor<ToyStage> = Executor::new();
        let mut reference: RefExecutor<ToyStage> = RefExecutor::new();
        let mut model_a = ToyModel::default();
        let mut model_b = ToyModel::default();

        let mut now = SimTime::ZERO;
        let mut tickets: Vec<(Ticket, Ticket)> = Vec::new();
        for batch in &batches {
            now += SimDuration::from_nanos(batch.gap_ns);
            let kind = if batch.write { TicketKind::Write } else { TicketKind::Read };
            let tee = TeeId::new(batch.tee).unwrap();

            let ta = exec.open_ticket(batch.pages, now);
            let tb = reference.open_ticket(batch.pages, now);
            prop_assert_eq!(ta, tb, "ticket allocators diverged");
            tickets.push((ta, tb));

            model_a.submit(&mut exec, ta, kind, tee, batch.base_lpn, batch.pages, now);
            model_b.submit(&mut reference, tb, kind, tee, batch.base_lpn, batch.pages, now);

            // Interleave partial progress with further submissions:
            // both executors step to `now` and drain what is due.
            exec.run_until(&mut model_a, now);
            reference.run_until(&mut model_b, now);
            prop_assert_eq!(exec.poll(now), reference.poll(now));
        }

        exec.run_to_idle(&mut model_a);
        reference.run_to_idle(&mut model_b);

        for &(ta, tb) in &tickets {
            prop_assert_eq!(exec.is_closed(ta), reference.is_closed(tb));
            prop_assert_eq!(exec.finished_at(ta), reference.finished_at(tb));
        }

        // The final drain must agree event-for-event: order, payload
        // bytes, and every stage timestamp of the breakdown.
        prop_assert_eq!(exec.drain_all(), reference.drain_all());
        prop_assert_eq!(exec.pending_events(), 0);
        prop_assert_eq!(reference.pending_events(), 0);
    }
}
