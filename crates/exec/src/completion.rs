//! The completion queue of the asynchronous batch API.
//!
//! This module's documentation is the **single source of truth** for
//! the drain-order contract. Other docs (`iceclave_types::ticket`, the
//! executor, the umbrella crate) link here instead of restating the
//! order, and the regression tests quote it verbatim through
//! [`DRAIN_ORDER_CONTRACT`]:
//!
//! > Completions drain in ascending ready time; completions that
//! > became ready at the same simulated tick drain in (ticket id,
//! > page index) order.

use std::any::Any;
use std::fmt;

use iceclave_types::{CompletionEvent, FaultStats, SimTime, Ticket};

/// The drain-order contract, verbatim from the module documentation
/// above (a unit test asserts the two stay identical, so there is no
/// second place to update). Regression tests quote this constant in
/// their assertions.
pub const DRAIN_ORDER_CONTRACT: &str = "Completions drain in ascending ready time; \
     completions that became ready at the same simulated tick drain in \
     (ticket id, page index) order.";

/// A tap on the retirement stream: sees every page as it retires and
/// every ticket as it closes.
///
/// The queue invokes the observer from [`CompletionQueue::push`] — the
/// single point every retirement already passes — so a capture layer
/// (e.g. `iceclave_obs`'s ticket op-log) records the stream without the
/// executor or its driver knowing the observer's concrete type. With no
/// observer installed the cost is one `Option` branch per retirement.
///
/// `on_retire` fires once per page, in retirement (not drain) order.
/// `on_close` fires once per ticket after its last page retired; the
/// *driver* calls it (via [`crate::Executor::notify_close`]) because
/// only the driver knows the fault activity it charged to the ticket
/// while the ticket was in flight.
pub trait RetireObserver {
    /// One page retired into the completion queue.
    fn on_retire(&mut self, event: &CompletionEvent);

    /// `ticket` closed at `finished` with the fault activity charged
    /// to it over its lifetime.
    fn on_close(&mut self, ticket: Ticket, finished: SimTime, faults: &FaultStats);

    /// Recovers the concrete observer after [`CompletionQueue::take_observer`]
    /// (`Box<dyn RetireObserver>` cannot be downcast directly).
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// Retired pages waiting to be drained by the submitter.
///
/// Every page of every in-flight ticket lands here exactly once, and
/// drains in the **documented, stable order** of the
/// [module documentation](self) ([`DRAIN_ORDER_CONTRACT`]) — never in
/// the incidental order the executor's stages happened to retire
/// them.
///
/// # Examples
///
/// ```
/// use iceclave_exec::CompletionQueue;
/// use iceclave_types::{
///     CompletionEvent, LatencyBreakdown, Lpn, PageStatus, SimTime, TeeId, Ticket, TicketKind,
/// };
///
/// let page = |ticket: u64, index: u32| CompletionEvent {
///     ticket: Ticket::new(ticket),
///     kind: TicketKind::Read,
///     tee: TeeId::new(1).unwrap(),
///     index,
///     lpn: Lpn::new(index as u64),
///     status: PageStatus::Done,
///     breakdown: LatencyBreakdown::at_submission(SimTime::ZERO),
///     data: None,
/// };
/// let mut q = CompletionQueue::new();
/// // Pushed out of order; all ready at the same tick.
/// q.push(page(2, 0));
/// q.push(page(1, 3));
/// q.push(page(1, 0));
/// let drained = q.drain_due(SimTime::ZERO);
/// let order: Vec<(u64, u32)> = drained.iter().map(|e| (e.ticket.raw(), e.index)).collect();
/// assert_eq!(order, vec![(1, 0), (1, 3), (2, 0)]);
/// ```
#[derive(Default)]
pub struct CompletionQueue {
    pending: Vec<CompletionEvent>,
    /// Reusable partition buffer: holds the kept (not-yet-due) events
    /// during a drain, then swaps with `pending`, so steady-state
    /// polling allocates nothing beyond the returned batch.
    scratch: Vec<CompletionEvent>,
    /// Optional tap on the retirement stream ([`RetireObserver`]).
    observer: Option<Box<dyn RetireObserver>>,
}

impl fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompletionQueue")
            .field("pending", &self.pending)
            .field("observer", &self.observer.is_some())
            .finish_non_exhaustive()
    }
}

impl CompletionQueue {
    /// An empty queue.
    pub fn new() -> Self {
        CompletionQueue {
            pending: Vec::new(),
            scratch: Vec::new(),
            observer: None,
        }
    }

    /// Enqueues one retired page, notifying the installed observer (if
    /// any) before the event is queued.
    pub fn push(&mut self, event: CompletionEvent) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_retire(&event);
        }
        self.pending.push(event);
    }

    /// Installs `observer` as the retirement tap, replacing (and
    /// returning) any previous one.
    pub fn set_observer(
        &mut self,
        observer: Box<dyn RetireObserver>,
    ) -> Option<Box<dyn RetireObserver>> {
        self.observer.replace(observer)
    }

    /// Removes and returns the installed observer, disabling capture.
    pub fn take_observer(&mut self) -> Option<Box<dyn RetireObserver>> {
        self.observer.take()
    }

    /// True when a retirement observer is installed.
    pub fn has_observer(&self) -> bool {
        self.observer.is_some()
    }

    /// Forwards a ticket-close notification to the observer (if any).
    pub fn notify_close(&mut self, ticket: Ticket, finished: SimTime, faults: &FaultStats) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_close(ticket, finished, faults);
        }
    }

    /// Number of undrained completions.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is waiting to be drained.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Extracts every event matching `take` in the documented sorted
    /// order, keeping the rest queued. Early-returns an unallocated
    /// `Vec` when nothing matches; when everything matches, the whole
    /// buffer moves out wholesale. Mixed drains partition through the
    /// reusable `scratch` buffer instead of building two fresh `Vec`s.
    fn extract(&mut self, mut take: impl FnMut(&CompletionEvent) -> bool) -> Vec<CompletionEvent> {
        let mut matching = 0;
        for ev in &self.pending {
            if take(ev) {
                matching += 1;
            }
        }
        if matching == 0 {
            return Vec::new();
        }
        let mut out = if matching == self.pending.len() {
            std::mem::take(&mut self.pending)
        } else {
            let mut due = Vec::with_capacity(matching);
            self.scratch.clear();
            self.scratch.reserve(self.pending.len() - matching);
            for ev in self.pending.drain(..) {
                if take(&ev) {
                    due.push(ev);
                } else {
                    self.scratch.push(ev);
                }
            }
            std::mem::swap(&mut self.pending, &mut self.scratch);
            due
        };
        Self::sort(&mut out);
        out
    }

    /// Drains every completion ready at or before `now`, in the
    /// documented *(ready, ticket id, page index)* order. Later
    /// completions stay queued.
    pub fn drain_due(&mut self, now: SimTime) -> Vec<CompletionEvent> {
        self.extract(|e| e.ready_at() <= now)
    }

    /// Drains every queued completion regardless of ready time, in the
    /// documented *(ready, ticket id, page index)* order.
    pub fn drain_all(&mut self) -> Vec<CompletionEvent> {
        let mut all = std::mem::take(&mut self.pending);
        Self::sort(&mut all);
        all
    }

    /// Removes and returns every queued completion of `ticket`, sorted
    /// by *(ready, page index)* — how `IceClave::wait_batch` drains
    /// exactly its own batch.
    pub fn take_ticket(&mut self, ticket: Ticket) -> Vec<CompletionEvent> {
        self.extract(|e| e.ticket == ticket)
    }

    /// The key is unique per event (a ticket's page indexes are), so
    /// an unstable sort gives the same order without a stable sort's
    /// scratch buffer.
    fn sort(events: &mut [CompletionEvent]) {
        events.sort_unstable_by_key(|e| (e.ready_at(), e.ticket, e.index));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use iceclave_types::{LatencyBreakdown, Lpn, PageStatus, SimDuration, TeeId, TicketKind};

    fn event(ticket: u64, index: u32, ready_ns: u64) -> CompletionEvent {
        let mut breakdown = LatencyBreakdown::at_submission(SimTime::ZERO);
        breakdown.ready = SimTime::ZERO + SimDuration::from_nanos(ready_ns);
        CompletionEvent {
            ticket: Ticket::new(ticket),
            kind: TicketKind::Read,
            tee: TeeId::new(1).unwrap(),
            index,
            lpn: Lpn::new(u64::from(index)),
            status: PageStatus::Done,
            breakdown,
            data: None,
        }
    }

    fn at(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(ns)
    }

    /// The module documentation is the single source of truth for the
    /// drain order; [`DRAIN_ORDER_CONTRACT`] must quote it verbatim so
    /// the regression tests and the docs can never diverge.
    #[test]
    fn contract_constant_quotes_the_module_doc() {
        let source = include_str!("completion.rs");
        let doc_text: String = source
            .lines()
            .take_while(|line| line.starts_with("//!"))
            .map(|line| line.trim_start_matches("//!").trim_start_matches(" >"))
            .collect::<Vec<&str>>()
            .join(" ");
        let normalize = |s: &str| s.split_whitespace().collect::<Vec<&str>>().join(" ");
        assert!(
            normalize(&doc_text).contains(&normalize(DRAIN_ORDER_CONTRACT)),
            "module doc no longer contains the drain-order contract verbatim:\n{DRAIN_ORDER_CONTRACT}"
        );
    }

    #[test]
    fn same_tick_drains_by_ticket_then_page_index() {
        // Regression for the documented stable order: push in reverse
        // and shuffled order, all at the same tick.
        let mut q = CompletionQueue::new();
        for (ticket, index) in [(3, 1), (1, 2), (2, 0), (1, 0), (3, 0), (1, 1)] {
            q.push(event(ticket, index, 100));
        }
        let drained = q.drain_due(at(100));
        let order: Vec<(u64, u32)> = drained.iter().map(|e| (e.ticket.raw(), e.index)).collect();
        assert_eq!(
            order,
            vec![(1, 0), (1, 1), (1, 2), (2, 0), (3, 0), (3, 1)],
            "violated the documented contract: {DRAIN_ORDER_CONTRACT}"
        );
    }

    #[test]
    fn drain_due_leaves_future_completions_queued() {
        let mut q = CompletionQueue::new();
        q.push(event(1, 0, 50));
        q.push(event(1, 1, 500));
        assert_eq!(q.drain_due(at(100)).len(), 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.drain_due(at(500)).len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn ready_time_orders_before_ticket_id() {
        let mut q = CompletionQueue::new();
        q.push(event(1, 0, 200));
        q.push(event(2, 0, 100));
        let drained = q.drain_due(at(200));
        assert_eq!(drained[0].ticket.raw(), 2, "earlier tick first");
        assert_eq!(drained[1].ticket.raw(), 1);
    }

    #[test]
    fn empty_polls_return_without_allocating() {
        let mut q = CompletionQueue::new();
        // Nothing queued at all.
        assert_eq!(q.drain_due(at(100)).capacity(), 0);
        assert_eq!(q.take_ticket(Ticket::new(1)).capacity(), 0);
        assert_eq!(q.drain_all().capacity(), 0);
        // Something queued, but nothing due / no match: still no
        // allocation, and the queue is untouched.
        q.push(event(1, 0, 500));
        assert_eq!(q.drain_due(at(100)).capacity(), 0);
        assert_eq!(q.take_ticket(Ticket::new(2)).capacity(), 0);
        assert_eq!(q.len(), 1);
    }

    /// The in-place partition through the reusable scratch buffer
    /// preserves the documented drain order across repeated mixed
    /// polls (the satellite regression for the rewrite).
    #[test]
    fn scratch_partition_keeps_drain_order_across_polls() {
        let mut q = CompletionQueue::new();
        for (ticket, index, ready) in [
            (3, 1, 100),
            (1, 0, 300),
            (2, 0, 100),
            (1, 1, 100),
            (2, 1, 300),
            (4, 0, 500),
        ] {
            q.push(event(ticket, index, ready));
        }
        let first = q.drain_due(at(100));
        let order: Vec<(u64, u32)> = first.iter().map(|e| (e.ticket.raw(), e.index)).collect();
        assert_eq!(order, vec![(1, 1), (2, 0), (3, 1)]);
        // The kept events survived the partition swap and drain in
        // order on the next polls.
        q.push(event(1, 2, 300));
        let second = q.drain_due(at(300));
        let order: Vec<(u64, u32)> = second.iter().map(|e| (e.ticket.raw(), e.index)).collect();
        assert_eq!(order, vec![(1, 0), (1, 2), (2, 1)]);
        let rest = q.drain_all();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].ticket.raw(), 4);
        assert!(q.is_empty());
    }

    /// A recording observer: proves the tap sees every retirement in
    /// push order (not drain order) plus each close notification, and
    /// that it can be recovered through `into_any`.
    #[derive(Default)]
    struct Recorder {
        retired: Vec<(u64, u32)>,
        closed: Vec<(u64, u64)>,
    }

    impl RetireObserver for Recorder {
        fn on_retire(&mut self, event: &CompletionEvent) {
            self.retired.push((event.ticket.raw(), event.index));
        }
        fn on_close(&mut self, ticket: Ticket, _finished: SimTime, faults: &FaultStats) {
            self.closed.push((ticket.raw(), faults.read_retries));
        }
        fn into_any(self: Box<Self>) -> Box<dyn Any> {
            self
        }
    }

    #[test]
    fn observer_sees_retirements_in_push_order_and_closes() {
        let mut q = CompletionQueue::new();
        assert!(!q.has_observer());
        assert!(q.set_observer(Box::new(Recorder::default())).is_none());
        assert!(q.has_observer());
        q.push(event(2, 1, 100));
        q.push(event(1, 0, 50));
        let faults = FaultStats {
            read_retries: 3,
            ..Default::default()
        };
        q.notify_close(Ticket::new(2), at(100), &faults);
        let obs = q.take_observer().expect("observer was installed");
        assert!(!q.has_observer());
        let rec = obs
            .into_any()
            .downcast::<Recorder>()
            .expect("concrete type survives into_any");
        assert_eq!(rec.retired, vec![(2, 1), (1, 0)], "push order, not drain");
        assert_eq!(rec.closed, vec![(2, 3)]);
        // With the observer removed, pushes and closes are silent.
        q.push(event(3, 0, 10));
        q.notify_close(Ticket::new(3), at(10), &faults);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn take_ticket_extracts_only_that_batch() {
        let mut q = CompletionQueue::new();
        q.push(event(1, 1, 100));
        q.push(event(2, 0, 50));
        q.push(event(1, 0, 100));
        let mine = q.take_ticket(Ticket::new(1));
        assert_eq!(mine.len(), 2);
        assert_eq!(mine[0].index, 0);
        assert_eq!(mine[1].index, 1);
        assert_eq!(q.len(), 1);
    }
}
