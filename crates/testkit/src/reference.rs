//! The reference executor: the pre-flattening ticket bookkeeping,
//! kept as the ordering oracle for the executor's hot path.
//!
//! [`RefExecutor`] is the executor as it stood before its hot path was
//! flattened: a `BTreeMap` ticket table over the binary-heap
//! [`KeyedEventQueue`] it was frozen on (the executor uses that queue
//! too). The runtime never runs it. Its only job is to let the
//! equivalence test (`tests/exec_reference_equivalence.rs`) run
//! arbitrary interleaved schedules through both implementations and
//! assert identical completion sequences, bytes, and latency
//! breakdowns. Keep its semantics frozen; behavioral changes belong in
//! [`iceclave_exec::Executor`].

use std::collections::BTreeMap;

use iceclave_exec::{CompletionQueue, StageEvent};
use iceclave_sim::KeyedEventQueue;
use iceclave_types::{CompletionEvent, SimTime, Ticket};

#[derive(Copy, Clone, Debug)]
struct TicketState {
    pages: u32,
    remaining: u32,
    drained: u32,
    finished: SimTime,
}

/// The stage semantics driven by the reference executor — the same
/// shape as [`iceclave_exec::StageMachine`], phrased over
/// [`RefExecutor`] so one toy machine type can implement both traits
/// and the tests can drive the two executors with literally the same
/// stage logic.
pub trait RefStageMachine {
    /// The machine-defined stage payload carried by every event.
    type Stage;

    /// Processes one due event.
    fn advance(&mut self, event: StageEvent<Self::Stage>, exec: &mut RefExecutor<Self::Stage>);
}

/// The same-tick event ordering key (mirrors the flattened
/// executor): *(virtual time, ticket id, page index)*.
type EventKey = (u64, u64, u32);

/// The pre-flattening batch executor: `BinaryHeap` event queue plus
/// `BTreeMap` ticket table (see the [module docs](self)).
#[derive(Debug)]
pub struct RefExecutor<S> {
    events: KeyedEventQueue<EventKey, (Ticket, u32, S)>,
    completions: CompletionQueue,
    next_ticket: u64,
    tickets: BTreeMap<u64, TicketState>,
}

impl<S> RefExecutor<S> {
    /// An idle executor with no tickets in flight.
    pub fn new() -> Self {
        RefExecutor {
            events: KeyedEventQueue::new(),
            completions: CompletionQueue::new(),
            next_ticket: 1,
            tickets: BTreeMap::new(),
        }
    }

    /// Opens a ticket for a `pages`-page batch submitted at `now`.
    pub fn open_ticket(&mut self, pages: u32, now: SimTime) -> Ticket {
        let ticket = Ticket::new(self.next_ticket);
        self.next_ticket += 1;
        self.tickets.insert(
            ticket.raw(),
            TicketState {
                pages,
                remaining: pages,
                drained: 0,
                finished: now,
            },
        );
        ticket
    }

    /// Schedules a stage event under the fair-queueing tag `vtime`
    /// (same key shape as the flattened executor).
    pub fn schedule_weighted(
        &mut self,
        at: SimTime,
        vtime: u64,
        ticket: Ticket,
        page: u32,
        stage: S,
    ) {
        self.events
            .push(at, (vtime, ticket.raw(), page), (ticket, page, stage));
    }

    /// Retires one page into the completion queue; `true` when the
    /// ticket closed.
    pub fn push_completion(&mut self, event: CompletionEvent) -> bool {
        let ticket = event.ticket.raw();
        let ready = event.ready_at();
        self.completions.push(event);
        let Some(state) = self.tickets.get_mut(&ticket) else {
            return true;
        };
        state.remaining = state.remaining.saturating_sub(1);
        state.finished = state.finished.max(ready);
        state.remaining == 0
    }

    /// True when every page of `ticket` has retired.
    pub fn is_closed(&self, ticket: Ticket) -> bool {
        self.tickets
            .get(&ticket.raw())
            .is_none_or(|s| s.remaining == 0)
    }

    /// When `ticket` finished, if it is closed and not yet drained.
    pub fn finished_at(&self, ticket: Ticket) -> Option<SimTime> {
        self.tickets
            .get(&ticket.raw())
            .filter(|s| s.remaining == 0)
            .map(|s| s.finished)
    }

    /// Number of stage events waiting on the heap.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Processes every stage event due at or before `now`.
    pub fn run_until<M>(&mut self, machine: &mut M, now: SimTime)
    where
        M: RefStageMachine<Stage = S>,
    {
        while let Some((at, _, (ticket, page, stage))) = self.events.pop_due(now) {
            machine.advance(
                StageEvent {
                    at,
                    ticket,
                    page,
                    stage,
                },
                self,
            );
        }
    }

    /// Processes every pending stage event regardless of time.
    pub fn run_to_idle<M>(&mut self, machine: &mut M)
    where
        M: RefStageMachine<Stage = S>,
    {
        self.run_until(machine, SimTime::from_ps(u64::MAX));
    }

    /// Drains every completion ready at or before `now` in the
    /// documented order, retiring fully drained tickets.
    pub fn poll(&mut self, now: SimTime) -> Vec<CompletionEvent> {
        let drained = self.completions.drain_due(now);
        self.bookkeep_drained(&drained);
        drained
    }

    /// Drains every queued completion in the documented order.
    pub fn drain_all(&mut self) -> Vec<CompletionEvent> {
        let drained = self.completions.drain_all();
        self.bookkeep_drained(&drained);
        drained
    }

    fn bookkeep_drained(&mut self, drained: &[CompletionEvent]) {
        for ev in drained {
            if let Some(state) = self.tickets.get_mut(&ev.ticket.raw()) {
                state.drained += 1;
            }
        }
        self.tickets
            .retain(|_, s| s.remaining > 0 || s.drained < s.pages);
    }
}

impl<S> Default for RefExecutor<S> {
    fn default() -> Self {
        Self::new()
    }
}
