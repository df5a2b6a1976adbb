//! The deterministic discrete-event executor driving batches at stage
//! granularity.

use iceclave_sim::KeyedEventQueue;
use iceclave_types::{CompletionEvent, FaultStats, SimTime, Ticket, WindowTable};

use crate::completion::{CompletionQueue, RetireObserver};
use crate::power::{PowerLossInjector, PowerLossPlan};

/// One due stage event handed to the [`StageMachine`].
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct StageEvent<S> {
    /// The simulated time the event fires.
    pub at: SimTime,
    /// The batch the event belongs to.
    pub ticket: Ticket,
    /// The page index within the batch (stage events that act on the
    /// whole batch use index 0).
    pub page: u32,
    /// The machine-defined stage payload.
    pub stage: S,
}

/// The stage semantics the executor drives.
///
/// The executor owns *when* and *in which order* stages run (the event
/// heap, the ticket table, the completion queue); the machine owns
/// *what* a stage does — acquiring simulator resource timelines,
/// scheduling successor stages, and retiring pages. `advance` receives
/// the executor back so it can call [`Executor::schedule`] and
/// [`Executor::push_completion`].
pub trait StageMachine {
    /// The machine-defined stage payload carried by every event.
    type Stage;

    /// Processes one due event.
    fn advance(&mut self, event: StageEvent<Self::Stage>, exec: &mut Executor<Self::Stage>);
}

#[derive(Copy, Clone, Debug)]
struct TicketState {
    pages: u32,
    remaining: u32,
    drained: u32,
    issued: SimTime,
    finished: SimTime,
}

/// The same-tick event ordering key: *(virtual time, ticket id, page
/// index)* — the fair-queueing start tag, then the submission order.
type EventKey = (u64, u64, u32);

/// The deterministic batch executor: an event heap over stage events,
/// a ticket table, and the [`CompletionQueue`].
///
/// Determinism contract: events fire in ascending time; events due at
/// the same simulated tick fire in *(virtual time, ticket id, page
/// index)* order. The virtual-time component carries the
/// fair-queueing arbiter's start tags
/// ([`Executor::schedule_weighted`]) so that contended same-tick
/// stages dequeue in fair-queueing order across tenants; stages
/// scheduled through [`Executor::schedule`] use virtual time 0, which
/// leaves the *(ticket id, page index)* tie order. Two identical
/// submission sequences therefore process every stage — and drain
/// every completion — in exactly the same order.
#[derive(Debug)]
pub struct Executor<S> {
    events: KeyedEventQueue<EventKey, (Ticket, u32, S)>,
    /// High-water mark of processed simulated time: events scheduled
    /// in the past run like any late arrival but never rewind it.
    clock: SimTime,
    completions: CompletionQueue,
    next_ticket: u64,
    /// In-flight ticket state by raw ticket id.
    tickets: WindowTable<TicketState>,
    power: Option<PowerLossInjector>,
}

impl<S> Executor<S> {
    /// An idle executor with no tickets in flight.
    pub fn new() -> Self {
        Executor {
            events: KeyedEventQueue::new(),
            clock: SimTime::ZERO,
            completions: CompletionQueue::new(),
            next_ticket: 1,
            tickets: WindowTable::new(1),
            power: None,
        }
    }

    /// Arms a [`PowerLossPlan`] (replacing any previous injector): the
    /// run loops consult it before every event and halt dead once it
    /// trips. An armed [`PowerLossPlan::none`] only counts events and
    /// is event-for-event invisible.
    pub fn set_power_plan(&mut self, plan: PowerLossPlan) {
        self.power = Some(PowerLossInjector::new(plan));
    }

    /// True once an armed power-loss plan has tripped: no further
    /// stage event will ever run on this executor.
    pub fn power_lost(&self) -> bool {
        self.power.as_ref().is_some_and(PowerLossInjector::tripped)
    }

    /// Stage events processed since a power plan was armed (`None`
    /// when no injector is installed).
    pub fn events_processed(&self) -> Option<u64> {
        self.power.as_ref().map(PowerLossInjector::events_processed)
    }

    /// True when the armed injector says the next event must not run.
    fn power_cut(&mut self) -> bool {
        self.power
            .as_mut()
            .is_some_and(PowerLossInjector::check_cut)
    }

    /// Counts one popped event against the armed injector.
    fn power_note_event(&mut self) {
        if let Some(p) = self.power.as_mut() {
            p.note_event();
        }
    }

    /// Opens a ticket for a `pages`-page batch submitted at `now`.
    /// A zero-page ticket is born closed with `finished == now`.
    pub fn open_ticket(&mut self, pages: u32, now: SimTime) -> Ticket {
        let ticket = Ticket::new(self.next_ticket);
        self.next_ticket += 1;
        self.tickets.insert(
            ticket.raw(),
            TicketState {
                pages,
                remaining: pages,
                drained: 0,
                issued: now,
                finished: now,
            },
        );
        ticket
    }

    /// Schedules a stage event for `(ticket, page)` at `at` with
    /// virtual time 0 (same-tick ties fall back to the documented
    /// *(ticket id, page index)* order).
    pub fn schedule(&mut self, at: SimTime, ticket: Ticket, page: u32, stage: S) {
        self.schedule_weighted(at, 0, ticket, page, stage);
    }

    /// Schedules a stage event for `(ticket, page)` at `at` under the
    /// fair-queueing start tag `vtime`: events due at the same
    /// simulated tick dequeue in ascending *(vtime, ticket id, page
    /// index)* order, so the arbiter's virtual-time order — not the
    /// incidental FIFO order per channel — decides who advances first.
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

    /// Retires one page into the completion queue, folding its ready
    /// time into the ticket's finish time. Returns `true` when this was
    /// the ticket's last outstanding page (the ticket is now closed).
    pub fn push_completion(&mut self, event: CompletionEvent) -> bool {
        let ticket = event.ticket.raw();
        let ready = event.ready_at();
        self.completions.push(event);
        let Some(state) = self.tickets.get_mut(ticket) else {
            debug_assert!(false, "completion for unknown ticket#{ticket}");
            return true;
        };
        debug_assert!(state.remaining > 0, "ticket#{ticket} over-completed");
        state.remaining = state.remaining.saturating_sub(1);
        state.finished = state.finished.max(ready);
        state.remaining == 0
    }

    /// Installs a [`RetireObserver`] on the completion queue, replacing
    /// (and returning) any previous one. Every subsequent retirement
    /// flows through `observer.on_retire`.
    pub fn install_observer(
        &mut self,
        observer: Box<dyn RetireObserver>,
    ) -> Option<Box<dyn RetireObserver>> {
        self.completions.set_observer(observer)
    }

    /// Removes and returns the retirement observer, disabling capture.
    pub fn take_observer(&mut self) -> Option<Box<dyn RetireObserver>> {
        self.completions.take_observer()
    }

    /// True when a retirement observer is installed.
    pub fn has_observer(&self) -> bool {
        self.completions.has_observer()
    }

    /// Tells the observer (if any) that `ticket` closed, with the
    /// fault activity its driver charged to it. The close time is the
    /// ticket's recorded finish time; the call is a no-op for tickets
    /// that are still open or already retired.
    pub fn notify_close(&mut self, ticket: Ticket, faults: &FaultStats) {
        if !self.completions.has_observer() {
            return;
        }
        let Some(finished) = self.finished_at(ticket) else {
            return;
        };
        self.completions.notify_close(ticket, finished, faults);
    }

    /// Folds a batch-level completion time (e.g. the write path's
    /// secure-world exit) into the ticket's finish time.
    pub fn note_finished(&mut self, ticket: Ticket, at: SimTime) {
        if let Some(state) = self.tickets.get_mut(ticket.raw()) {
            state.finished = state.finished.max(at);
        }
    }

    /// True when every page of `ticket` has retired (unknown and
    /// already-drained tickets count as closed).
    pub fn is_closed(&self, ticket: Ticket) -> bool {
        self.tickets
            .get(ticket.raw())
            .is_none_or(|s| s.remaining == 0)
    }

    /// When `ticket` finished, if it is closed and not yet drained.
    pub fn finished_at(&self, ticket: Ticket) -> Option<SimTime> {
        self.tickets
            .get(ticket.raw())
            .filter(|s| s.remaining == 0)
            .map(|s| s.finished)
    }

    /// When `ticket` was submitted, if it is not yet drained.
    pub fn issued_at(&self, ticket: Ticket) -> Option<SimTime> {
        self.tickets.get(ticket.raw()).map(|s| s.issued)
    }

    /// Number of `ticket`'s completions already drained through
    /// [`Executor::poll`]/[`Executor::drain_all`], if the ticket is not
    /// yet retired.
    pub fn drained_of(&self, ticket: Ticket) -> Option<u32> {
        self.tickets.get(ticket.raw()).map(|s| s.drained)
    }

    /// Number of tickets with pages still in flight.
    pub fn open_tickets(&self) -> usize {
        self.tickets.iter().filter(|(_, s)| s.remaining > 0).count()
    }

    /// Number of stage events waiting on the heap.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// The executor's event clock (high-water mark of processed
    /// simulated time).
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Processes every stage event due at or before `now`. Stops dead
    /// (leaving pending events on the heap) if an armed power plan
    /// trips.
    pub fn run_until<M>(&mut self, machine: &mut M, now: SimTime)
    where
        M: StageMachine<Stage = S>,
    {
        self.run_loop(machine, Some(now), None);
    }

    /// Processes stage events (in global time order) until `ticket`
    /// closes — the engine of `IceClave::wait_batch`. Events of
    /// other in-flight tickets that are due earlier run on the way.
    /// Stops dead (the ticket never closes) if an armed power plan
    /// trips.
    pub fn run_ticket<M>(&mut self, machine: &mut M, ticket: Ticket)
    where
        M: StageMachine<Stage = S>,
    {
        self.run_loop(machine, None, Some(ticket));
    }

    /// Processes every pending stage event regardless of time. Stops
    /// dead if an armed power plan trips.
    pub fn run_to_idle<M>(&mut self, machine: &mut M)
    where
        M: StageMachine<Stage = S>,
    {
        self.run_loop(machine, None, None);
    }

    /// The one event loop behind the three `run_*` entry points: until
    /// `until` (when given) closes, the armed power plan trips or no
    /// event is left (due at or before `due`, when given), pops the
    /// next event and advances the machine with it.
    fn run_loop<M>(&mut self, machine: &mut M, due: Option<SimTime>, until: Option<Ticket>)
    where
        M: StageMachine<Stage = S>,
    {
        while until.is_none_or(|t| !self.is_closed(t)) && !self.power_cut() {
            let next = match due {
                Some(now) => self.events.pop_due(now),
                None => self.events.pop(),
            };
            let Some((at, _, (ticket, page, stage))) = next else {
                if let Some(t) = until {
                    debug_assert!(false, "{t} can never close: event heap ran dry");
                }
                break;
            };
            self.power_note_event();
            self.clock = self.clock.max(at);
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

    /// Drains every completion ready at or before `now` in the
    /// documented drain order (see the [`crate::completion`] module
    /// docs), retiring fully drained tickets. Does **not** advance the
    /// event loop — callers run [`Executor::run_until`] first.
    pub fn poll(&mut self, now: SimTime) -> Vec<CompletionEvent> {
        let drained = self.completions.drain_due(now);
        self.bookkeep_drained(&drained);
        drained
    }

    /// Drains every queued completion regardless of ready time (same
    /// order contract as [`Executor::poll`]), retiring fully drained
    /// tickets.
    pub fn drain_all(&mut self) -> Vec<CompletionEvent> {
        let drained = self.completions.drain_all();
        self.bookkeep_drained(&drained);
        drained
    }

    /// Removes and returns every queued completion of `ticket`, sorted
    /// by *(ready, page index)*, retiring the ticket if it is closed.
    pub fn take_ticket_completions(&mut self, ticket: Ticket) -> Vec<CompletionEvent> {
        let taken = self.completions.take_ticket(ticket);
        if let Some(state) = self.tickets.get_mut(ticket.raw()) {
            state.drained += taken.len() as u32;
        }
        self.retire_drained();
        taken
    }

    /// Counts `drained` against their tickets and forgets closed
    /// tickets whose completions have all been drained (bookkeeping
    /// stays bounded across long runs).
    fn bookkeep_drained(&mut self, drained: &[CompletionEvent]) {
        for ev in drained {
            if let Some(state) = self.tickets.get_mut(ev.ticket.raw()) {
                state.drained += 1;
            }
        }
        self.retire_drained();
    }

    /// Forgets closed tickets whose completions have all been drained
    /// (bookkeeping stays bounded across long runs).
    fn retire_drained(&mut self) {
        self.tickets
            .retain(|s| s.remaining > 0 || s.drained < s.pages);
    }
}

impl<S> Default for Executor<S> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use iceclave_types::{LatencyBreakdown, Lpn, PageStatus, SimDuration, TeeId, TicketKind};

    /// A toy machine: every page takes `hops` stage events, each 10 ns
    /// apart, then retires.
    struct Toy {
        hops: u32,
        trace: Vec<(u64, u32, u32)>,
    }

    impl StageMachine for Toy {
        type Stage = u32;

        fn advance(&mut self, ev: StageEvent<u32>, exec: &mut Executor<u32>) {
            self.trace.push((ev.ticket.raw(), ev.page, ev.stage));
            if ev.stage + 1 < self.hops {
                exec.schedule(
                    ev.at + SimDuration::from_nanos(10),
                    ev.ticket,
                    ev.page,
                    ev.stage + 1,
                );
            } else {
                let mut breakdown = LatencyBreakdown::at_submission(SimTime::ZERO);
                breakdown.ready = ev.at;
                exec.push_completion(CompletionEvent {
                    ticket: ev.ticket,
                    kind: TicketKind::Read,
                    tee: TeeId::new(1).unwrap(),
                    index: ev.page,
                    lpn: Lpn::new(u64::from(ev.page)),
                    status: PageStatus::Done,
                    breakdown,
                    data: None,
                });
            }
        }
    }

    fn at(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(ns)
    }

    fn submit(exec: &mut Executor<u32>, pages: u32, now: SimTime) -> Ticket {
        let ticket = exec.open_ticket(pages, now);
        for page in 0..pages {
            exec.schedule(now, ticket, page, 0);
        }
        ticket
    }

    #[test]
    fn same_tick_stages_run_in_ticket_then_page_order() {
        let mut exec = Executor::new();
        let mut toy = Toy {
            hops: 1,
            trace: Vec::new(),
        };
        // Submit in reverse page order within one tick.
        let t1 = exec.open_ticket(2, at(0));
        let t2 = exec.open_ticket(1, at(0));
        exec.schedule(at(0), t2, 0, 0);
        exec.schedule(at(0), t1, 1, 0);
        exec.schedule(at(0), t1, 0, 0);
        exec.run_to_idle(&mut toy);
        assert_eq!(
            toy.trace,
            vec![(t1.raw(), 0, 0), (t1.raw(), 1, 0), (t2.raw(), 0, 0)]
        );
    }

    #[test]
    fn same_tick_weighted_stages_run_in_vtime_order() {
        let mut exec = Executor::new();
        let mut toy = Toy {
            hops: 1,
            trace: Vec::new(),
        };
        // Ticket 2 carries a smaller virtual-time tag than ticket 1:
        // the arbiter's order overrides the ticket-id tie-break.
        let t1 = exec.open_ticket(1, at(0));
        let t2 = exec.open_ticket(1, at(0));
        exec.schedule_weighted(at(0), 20, t1, 0, 0);
        exec.schedule_weighted(at(0), 10, t2, 0, 0);
        exec.run_to_idle(&mut toy);
        assert_eq!(toy.trace, vec![(t2.raw(), 0, 0), (t1.raw(), 0, 0)]);
    }

    #[test]
    fn run_ticket_closes_the_target_and_runs_earlier_events() {
        let mut exec = Executor::new();
        let mut toy = Toy {
            hops: 3,
            trace: Vec::new(),
        };
        let t1 = submit(&mut exec, 2, at(0));
        let t2 = submit(&mut exec, 1, at(0));
        exec.run_ticket(&mut toy, t2);
        assert!(exec.is_closed(t2));
        // t1's events at the same ticks ran on the way (lower ticket).
        assert!(exec.is_closed(t1));
        assert_eq!(exec.finished_at(t2), Some(at(20)));
    }

    #[test]
    fn run_until_leaves_future_events_pending() {
        let mut exec = Executor::new();
        let mut toy = Toy {
            hops: 3,
            trace: Vec::new(),
        };
        let t = submit(&mut exec, 1, at(0));
        exec.run_until(&mut toy, at(10));
        assert!(!exec.is_closed(t));
        assert_eq!(exec.pending_events(), 1);
        assert_eq!(exec.clock(), at(10));
        exec.run_until(&mut toy, at(20));
        assert!(exec.is_closed(t));
        assert_eq!(exec.poll(at(20)).len(), 1);
    }

    #[test]
    fn clock_is_monotone() {
        // An event scheduled before the clock's high-water mark runs
        // like a late arrival but never rewinds the clock.
        let mut exec = Executor::new();
        let mut toy = Toy {
            hops: 1,
            trace: Vec::new(),
        };
        submit(&mut exec, 1, at(10));
        exec.run_to_idle(&mut toy);
        assert_eq!(exec.clock(), at(10));
        let late = submit(&mut exec, 1, at(5));
        exec.run_to_idle(&mut toy);
        assert!(exec.is_closed(late));
        assert_eq!(exec.clock(), at(10), "never rewinds");
    }

    #[test]
    fn zero_page_ticket_is_born_closed() {
        let mut exec: Executor<u32> = Executor::new();
        let t = exec.open_ticket(0, at(5));
        assert!(exec.is_closed(t));
        assert_eq!(exec.finished_at(t), Some(at(5)));
        assert_eq!(exec.issued_at(t), Some(at(5)));
    }

    #[test]
    fn drained_tickets_are_retired() {
        let mut exec = Executor::new();
        let mut toy = Toy {
            hops: 1,
            trace: Vec::new(),
        };
        let t = submit(&mut exec, 2, at(0));
        exec.run_to_idle(&mut toy);
        assert_eq!(exec.open_tickets(), 0);
        let events = exec.take_ticket_completions(t);
        assert_eq!(events.len(), 2);
        assert_eq!(exec.finished_at(t), None, "ticket forgotten after drain");
    }

    #[test]
    fn identical_runs_trace_identically() {
        let run = || {
            let mut exec = Executor::new();
            let mut toy = Toy {
                hops: 2,
                trace: Vec::new(),
            };
            submit(&mut exec, 3, at(0));
            submit(&mut exec, 2, at(5));
            exec.run_to_idle(&mut toy);
            let drained: Vec<(u64, u32)> = exec
                .poll(at(1_000))
                .iter()
                .map(|e| (e.ticket.raw(), e.index))
                .collect();
            (toy.trace, drained)
        };
        assert_eq!(run(), run());
    }
}
