//! Fair queueing across TEEs — the cross-tenant arbiter of the flash
//! channels.
//!
//! Per-channel FIFO order *inside* one ticket cannot stop a greedy
//! tenant that keeps eight 32-page tickets in flight from booking a
//! channel's entire timeline before a latency-sensitive tenant's
//! four-page ticket gets a single slot. The [`WfqArbiter`] closes that
//! gap with **start-time fair queueing (SFQ) over page-sized quanta**,
//! independently per flash channel:
//!
//! * Every channel keeps one *lane* per tenant (TEE). A lane holds the
//!   tenant's queued page reads for that channel, ordered by
//!   *(effective ready time, ticket id, page index)*, so a lone
//!   tenant's pages issue on each channel in request order.
//! * Each lane carries a *virtual finish tag*. Granting a page advances
//!   the lane's tag by one page quantum; the channel's virtual time
//!   follows the granted start tag. A tenant that went idle re-enters
//!   at the current virtual time (`max(vtime, finish)`), so sleeping
//!   never banks credit.
//! * A grant covers exactly **one page**. The channel's next grant is
//!   decided only when the granted page's flash service completes, so
//!   an in-flight 32-page ticket yields the channel between pages —
//!   these are the preemption points the multi-tenant figures
//!   (Figures 17/18) schedule against.
//!
//! # Invariants
//!
//! 1. **One grant in flight.** A channel with queued pages always has
//!    exactly one granted page in flight. Selection ignores ready
//!    times (determinism over strict work conservation): a granted
//!    page whose chain-effective ready time lies in the future can
//!    idle the channel until it becomes ready. Ready times are
//!    translation offsets — sub-microsecond — so the idle window is
//!    bounded by a CMT miss, not by other tenants' queue depths.
//! 2. **Fairness.** While two lanes stay backlogged, each is granted an
//!    equal number of pages, within one quantum per lane
//!    (regression-tested: any 10k-grant window of a duel stays within
//!    10% of an even split).
//! 3. **Starvation freedom.** A backlogged lane's head page is granted
//!    after at most one quantum of service per other backlogged lane,
//!    no matter how deep the other queues are.
//! 4. **Single-tenant order.** With one lane, grants follow
//!    *(effective ready, ticket, page)*: a lone tenant's pages issue on
//!    each channel in request order, one ticket's after another's,
//!    with no arbitration between its tickets.
//! 5. **Determinism.** Selection depends only on arbiter state: ties on
//!    start tags break by TEE id, ties inside a lane by *(ready,
//!    ticket, page)*. Identical submission sequences produce identical
//!    grant sequences.
//!
//! Writes do not queue here — [`Ftl::write_batch`](crate::Ftl) steers a
//! whole batch in one secure-world entry — but their channel
//! consumption is *charged* to the tenant's lanes
//! ([`WfqArbiter::charge`]), so a write-heavy tenant's reads are
//! deprioritized accordingly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use iceclave_types::{SimTime, TeeId, Ticket};

/// TEE ids are 4 bits (0 reserved), so per-channel tenant state lives
/// in fixed 16-slot arrays indexed by the raw id — no map lookups on
/// the grant path, and ascending-id iteration (the deterministic
/// tie-break order) for free.
const MAX_TENANTS: usize = 16;

/// One page-sized quantum in virtual-time units: every grant and every
/// charged page advances a finish tag by exactly this much. The tags
/// order same-tick executor events ([`IssueGrant::vstart`]).
const QUANTUM_FP: u64 = 4096 << 16;

/// A page read granted the channel by [`WfqArbiter::try_issue`].
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct IssueGrant {
    /// The granted ticket.
    pub ticket: Ticket,
    /// The granted page index within its ticket.
    pub page: u32,
    /// The page's effective ready time (it must not issue earlier).
    pub ready: SimTime,
    /// The SFQ start tag assigned to the grant — the virtual-time key
    /// the executor orders same-tick events by.
    pub vstart: u64,
}

/// One tenant's per-channel queue state.
#[derive(Clone, Debug, Default)]
struct Lane {
    /// Virtual finish tag of the lane's last grant (or charge).
    finish: u64,
    /// Queued pages as a min-heap over *(effective ready, ticket id,
    /// page index)* — the issue order of a lone tenant. Keys are
    /// unique (a page queues once), so pops come in ascending order.
    queue: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
}

/// One flash channel's SFQ state.
#[derive(Clone, Debug, Default)]
struct ChannelWfq {
    /// Virtual time: the start tag of the last grant.
    vtime: u64,
    /// The page currently granted the channel, if any. At most one
    /// page per channel is between grant and flash completion — the
    /// page-boundary preemption point.
    busy: Option<(u64, u32)>,
    /// Per-tenant lanes, indexed by raw TEE id. `None` = the tenant
    /// never touched this channel (or was forgotten).
    lanes: [Option<Lane>; MAX_TENANTS],
}

impl ChannelWfq {
    fn lane_mut(&mut self, tee_raw: u16) -> &mut Lane {
        self.lanes[tee_raw as usize].get_or_insert_with(Lane::default)
    }
}

/// The per-channel fair-queueing arbiter across TEEs.
///
/// Owned by the runtime (`iceclave_core`) and consulted by the
/// executor's stage machine: read pages enter per-tenant lanes at
/// submission, and every flash-service completion hands the channel to
/// the lane with the smallest virtual start tag.
///
/// # Examples
///
/// A backlogged duel between two tenants alternates grants page by
/// page, regardless of queue depth:
///
/// ```
/// use iceclave_ftl::WfqArbiter;
/// use iceclave_types::{SimTime, TeeId, Ticket};
///
/// let mut arb = WfqArbiter::new(1);
/// let (a, b) = (TeeId::new(1).unwrap(), TeeId::new(2).unwrap());
/// // Tenant A floods the channel; tenant B queues two pages.
/// for page in 0..8 {
///     arb.enqueue(0, a, Ticket::new(1), page, SimTime::ZERO);
/// }
/// for page in 0..2 {
///     arb.enqueue(0, b, Ticket::new(2), page, SimTime::ZERO);
/// }
/// let mut order = Vec::new();
/// while let Some(grant) = arb.try_issue(0) {
///     order.push(grant.ticket.raw());
///     arb.release(grant.ticket, grant.page);
/// }
/// assert_eq!(order[..5], [1, 2, 1, 2, 1], "B is served every other page");
/// ```
#[derive(Clone, Debug)]
pub struct WfqArbiter {
    channels: Vec<ChannelWfq>,
}

impl WfqArbiter {
    /// An arbiter over `channels` idle channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "arbiter needs at least one channel");
        WfqArbiter {
            channels: vec![ChannelWfq::default(); channels],
        }
    }

    /// Queues `(ticket, page)` of `tee` on `channel`, eligible from
    /// `ready` (the page's chain-effective ready time).
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn enqueue(
        &mut self,
        channel: usize,
        tee: TeeId,
        ticket: Ticket,
        page: u32,
        ready: SimTime,
    ) {
        self.channels[channel]
            .lane_mut(u16::from(tee.raw()))
            .queue
            .push(Reverse((ready, ticket.raw(), page)));
    }

    /// Number of pages `tee` has queued (not yet granted) on
    /// `channel`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn queued(&self, channel: usize, tee: TeeId) -> usize {
        self.channels[channel].lanes[usize::from(tee.raw())]
            .as_ref()
            .map_or(0, |lane| lane.queue.len())
    }

    /// Total queued pages across all channels and tenants.
    pub fn queued_total(&self) -> usize {
        self.channels
            .iter()
            .flat_map(|c| c.lanes.iter().flatten())
            .map(|lane| lane.queue.len())
            .sum()
    }

    /// Grants `channel` to the queued page with the smallest virtual
    /// start tag, if the channel is free and any lane is backlogged.
    /// The grant stays in flight — blocking further grants on this
    /// channel — until [`WfqArbiter::release`] is called for it.
    ///
    /// Selection: per backlogged lane the prospective start tag is
    /// `max(vtime, lane.finish)`; the smallest tag wins, ties by TEE
    /// id. The winning lane issues its head page (smallest *(ready,
    /// ticket, page)*).
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn try_issue(&mut self, channel: usize) -> Option<IssueGrant> {
        let ch = &mut self.channels[channel];
        if ch.busy.is_some() {
            return None;
        }
        // Smallest prospective start tag wins; scanning lanes in
        // ascending TEE id with a strict `<` breaks ties toward the
        // smaller id.
        let mut winner: Option<(u64, usize)> = None;
        for (tee_raw, lane) in ch.lanes.iter().enumerate() {
            let Some(lane) = lane else { continue };
            if lane.queue.is_empty() {
                continue;
            }
            let start = ch.vtime.max(lane.finish);
            if winner.is_none_or(|(best, _)| start < best) {
                winner = Some((start, tee_raw));
            }
        }
        let (start, tee_raw) = winner?;
        let lane = ch.lanes[tee_raw].as_mut().expect("winning lane exists");
        let Reverse((ready, ticket, page)) = lane.queue.pop().expect("lane is backlogged");
        lane.finish = start + QUANTUM_FP;
        ch.vtime = start;
        ch.busy = Some((ticket, page));
        Some(IssueGrant {
            ticket: Ticket::new(ticket),
            page,
            ready,
            vstart: start,
        })
    }

    /// Marks the grant for `(ticket, page)` as finished, freeing its
    /// channel for the next grant. Returns the channel index, or
    /// `None` if no channel had that grant in flight (e.g. the ticket
    /// was already released at cancellation).
    pub fn release(&mut self, ticket: Ticket, page: u32) -> Option<usize> {
        let key = (ticket.raw(), page);
        for (index, ch) in self.channels.iter_mut().enumerate() {
            if ch.busy == Some(key) {
                ch.busy = None;
                return Some(index);
            }
        }
        None
    }

    /// Charges `pages` page-quanta of channel service on `channel` to
    /// `tee` without queueing anything — the write path's accounting
    /// hook: `Ftl::write_batch` books the channel programs itself, and
    /// this debit makes the tenant's subsequent reads pay for them.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn charge(&mut self, channel: usize, tee: TeeId, pages: u64) {
        let ch = &mut self.channels[channel];
        let vtime = ch.vtime;
        let lane = ch.lane_mut(u16::from(tee.raw()));
        lane.finish = vtime.max(lane.finish) + pages * QUANTUM_FP;
    }

    /// The virtual tag ordering `tee`'s batch-level (Program) events
    /// against other tenants' same-tick events: the tenant's largest
    /// per-channel finish tag. A tenant that has consumed more channel
    /// service sorts later at the same simulated tick.
    pub fn program_tag(&self, tee: TeeId) -> u64 {
        let raw = usize::from(tee.raw());
        self.channels
            .iter()
            .filter_map(|ch| ch.lanes[raw].as_ref().map(|lane| lane.finish))
            .max()
            .unwrap_or(0)
    }

    /// Drops every queued (ungranted) page of `ticket` across all
    /// channels and releases its in-flight grants — TEE teardown
    /// support. Stage
    /// events already on the executor's heap for the released grants
    /// become no-ops; the caller re-kicks the affected channels.
    ///
    /// Returns the channels whose grant was released (and therefore
    /// need a re-kick).
    pub fn cancel_ticket(&mut self, ticket: Ticket) -> Vec<usize> {
        let raw = ticket.raw();
        let mut released = Vec::new();
        for (index, ch) in self.channels.iter_mut().enumerate() {
            for lane in ch.lanes.iter_mut().flatten() {
                lane.queue.retain(|&Reverse((_, t, _))| t != raw);
            }
            if matches!(ch.busy, Some((t, _)) if t == raw) {
                ch.busy = None;
                released.push(index);
            }
        }
        released
    }

    /// Forgets `tee`'s lanes entirely (id recycling): queued pages are
    /// dropped and the finish tags reset, so the next TEE to reuse the
    /// id starts fresh.
    pub fn forget_tee(&mut self, tee: TeeId) {
        let raw = usize::from(tee.raw());
        for ch in &mut self.channels {
            ch.lanes[raw] = None;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn tee(raw: u16) -> TeeId {
        TeeId::new(raw).unwrap()
    }

    fn drain_grants(arb: &mut WfqArbiter, channel: usize) -> Vec<(u64, u32)> {
        let mut order = Vec::new();
        while let Some(grant) = arb.try_issue(channel) {
            order.push((grant.ticket.raw(), grant.page));
            arb.release(grant.ticket, grant.page);
        }
        order
    }

    #[test]
    fn solo_tenant_grants_in_ready_ticket_page_order() {
        let mut arb = WfqArbiter::new(1);
        let a = tee(1);
        // Out-of-order enqueue; ready times dominate, then ticket/page.
        arb.enqueue(0, a, Ticket::new(2), 0, SimTime::ZERO);
        arb.enqueue(0, a, Ticket::new(1), 1, SimTime::ZERO);
        arb.enqueue(0, a, Ticket::new(1), 0, SimTime::ZERO);
        let order = drain_grants(&mut arb, 0);
        assert_eq!(order, vec![(1, 0), (1, 1), (2, 0)]);
    }

    #[test]
    fn equal_weights_alternate_under_backlog() {
        let mut arb = WfqArbiter::new(1);
        let (a, b) = (tee(1), tee(2));
        for page in 0..6 {
            arb.enqueue(0, a, Ticket::new(1), page, SimTime::ZERO);
        }
        for page in 0..6 {
            arb.enqueue(0, b, Ticket::new(2), page, SimTime::ZERO);
        }
        let order = drain_grants(&mut arb, 0);
        let tenants: Vec<u64> = order.iter().map(|&(t, _)| t).collect();
        assert_eq!(tenants, vec![1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn late_arrival_does_not_bank_credit() {
        let mut arb = WfqArbiter::new(1);
        let (a, b) = (tee(1), tee(2));
        // A consumes 100 quanta alone.
        for page in 0..100 {
            arb.enqueue(0, a, Ticket::new(1), page, SimTime::ZERO);
        }
        for _ in 0..100 {
            let g = arb.try_issue(0).unwrap();
            arb.release(g.ticket, g.page);
        }
        // B arrives: it must NOT get 100 back-to-back grants.
        for page in 0..4 {
            arb.enqueue(0, a, Ticket::new(3), page, SimTime::ZERO);
            arb.enqueue(0, b, Ticket::new(2), page, SimTime::ZERO);
        }
        let order = drain_grants(&mut arb, 0);
        let tenants: Vec<u64> = order.iter().map(|&(t, _)| t).collect();
        // B leads each round (fresh lane re-enters at vtime) but
        // alternates with A (ticket 3) rather than monopolizing.
        assert_eq!(tenants, vec![2, 3, 2, 3, 2, 3, 2, 3]);
    }

    #[test]
    fn one_grant_in_flight_per_channel() {
        let mut arb = WfqArbiter::new(2);
        let a = tee(1);
        arb.enqueue(0, a, Ticket::new(1), 0, SimTime::ZERO);
        arb.enqueue(0, a, Ticket::new(1), 1, SimTime::ZERO);
        arb.enqueue(1, a, Ticket::new(1), 2, SimTime::ZERO);
        let g0 = arb.try_issue(0).unwrap();
        assert!(arb.try_issue(0).is_none(), "channel 0 is busy");
        let g1 = arb.try_issue(1).unwrap();
        assert_eq!(g1.page, 2, "channels grant independently");
        assert_eq!(arb.release(g0.ticket, g0.page), Some(0));
        assert!(arb.try_issue(0).is_some(), "released channel grants again");
        assert_eq!(arb.release(g1.ticket, g1.page), Some(1));
    }

    #[test]
    fn cancel_ticket_drops_queue_and_frees_grant() {
        let mut arb = WfqArbiter::new(1);
        let (a, b) = (tee(1), tee(2));
        arb.enqueue(0, a, Ticket::new(1), 0, SimTime::ZERO);
        arb.enqueue(0, a, Ticket::new(1), 1, SimTime::ZERO);
        arb.enqueue(0, b, Ticket::new(2), 0, SimTime::ZERO);
        let g = arb.try_issue(0).unwrap();
        assert_eq!(g.ticket.raw(), 1);
        let released = arb.cancel_ticket(Ticket::new(1));
        assert_eq!(released, vec![0], "in-flight grant released");
        assert_eq!(arb.queued(0, a), 0, "queued pages dropped");
        let next = arb.try_issue(0).unwrap();
        assert_eq!(next.ticket.raw(), 2, "survivor takes the channel");
        // Releasing the cancelled grant later is a no-op.
        assert_eq!(arb.release(Ticket::new(1), 0), None);
        arb.release(next.ticket, next.page);
    }

    #[test]
    fn charge_debits_future_reads() {
        let mut arb = WfqArbiter::new(1);
        let (a, b) = (tee(1), tee(2));
        // A wrote 3 pages on this channel; both then queue reads.
        arb.charge(0, a, 3);
        for page in 0..3 {
            arb.enqueue(0, a, Ticket::new(1), page, SimTime::ZERO);
            arb.enqueue(0, b, Ticket::new(2), page, SimTime::ZERO);
        }
        let order = drain_grants(&mut arb, 0);
        let tenants: Vec<u64> = order.iter().map(|&(t, _)| t).collect();
        // B's reads go first until A's write debt is paid off.
        assert_eq!(tenants[..3], [2, 2, 2], "write debt defers A's reads");
    }

    #[test]
    fn program_tag_tracks_consumption() {
        let mut arb = WfqArbiter::new(2);
        let (a, b) = (tee(1), tee(2));
        assert_eq!(arb.program_tag(a), 0);
        arb.charge(0, a, 2);
        arb.charge(1, a, 5);
        arb.charge(0, b, 1);
        assert!(arb.program_tag(a) > arb.program_tag(b));
        arb.forget_tee(a);
        assert_eq!(arb.program_tag(a), 0, "forgotten tenants start fresh");
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_panics() {
        let _ = WfqArbiter::new(0);
    }
}
