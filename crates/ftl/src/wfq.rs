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
//!   *(effective ready time, ticket id, page index)* — the exact order
//!   a lone tenant's pages would issue in without the arbiter.
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
//! # Hierarchical (two-level) mode
//!
//! Under [`TicketPolicy::Wfq`] the same SFQ machinery recurses one
//! level down: the winning *lane* runs its own virtual clock over
//! per-ticket sub-lanes, so a tenant's deep analytics ticket yields to
//! that same tenant's four-page point lookup at every page boundary.
//! A fresh sub-lane enters at the lane clock (prompt first grant for
//! sparse arrivals), and a *draining* sub-lane surrenders its finish
//! tag to the lane clock on departure — so a tenant cannot grow its
//! share by splitting work across many short tickets, and a cycling
//! K-page ticket's long-run grant share is exactly an equal share.
//! With one ticket per lane — or under the legacy
//! [`TicketPolicy::Fifo`] — the grant sequence is bit-identical to the
//! flat arbiter.
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
//!    10% of an even split). Under `TicketPolicy::Wfq` the same holds
//!    one level down between a lane's backlogged tickets.
//! 3. **Starvation freedom.** A backlogged lane's head page is granted
//!    after at most one quantum of service per other backlogged lane,
//!    no matter how deep the other queues are. Under
//!    `TicketPolicy::Wfq` a backlogged *ticket* enjoys the same bound
//!    against its sibling tickets.
//! 4. **Single-tenant transparency.** With one lane, grants replay the
//!    *(effective ready, ticket, page)* order of the pre-WFQ executor,
//!    so a solo tenant's schedule is bit-identical to the legacy FIFO
//!    path. Likewise, a lane holding a single ticket grants the same
//!    *(ready, page)* order under either ticket policy.
//! 5. **Determinism.** Selection depends only on arbiter state: ties on
//!    start tags break by TEE id (and by ticket id one level down),
//!    ties inside a (sub-)lane by *(ready, ticket, page)*. Identical
//!    submission sequences produce identical grant sequences.
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

/// Which cross-tenant policy the channel arbiter runs.
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub enum SchedPolicy {
    /// Legacy behavior: per-ticket FIFO chains, no cross-tenant
    /// pacing. A tenant's in-flight pages book the channel timelines
    /// in event order, so a greedy tenant can starve the others.
    Fifo,
    /// Fair queueing across tenants (the default): per-channel SFQ
    /// over page-sized quanta with preemption points at page
    /// boundaries.
    #[default]
    Wfq,
}

/// How pages are ordered *inside* one tenant's lane.
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub enum TicketPolicy {
    /// Legacy behavior (the default): the lane is one FIFO heap over
    /// *(ready, ticket, page)*, so a deep ticket's earlier pages drain
    /// before a later ticket's — intra-tenant head-of-line blocking.
    #[default]
    Fifo,
    /// Hierarchical fair queueing: each ticket gets its own virtual
    /// clock inside the lane, so sibling tickets share the tenant's
    /// channel slots page by page.
    Wfq,
}

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
    /// The ticket-level start tag inside the winning lane — the
    /// secondary virtual-time key under [`TicketPolicy::Wfq`]; always
    /// zero under [`TicketPolicy::Fifo`].
    pub tstart: u64,
}

/// One ticket's sub-lane inside a tenant lane ([`TicketPolicy::Wfq`]).
#[derive(Clone, Debug)]
struct TicketLane {
    /// Raw ticket id.
    ticket: u64,
    /// Virtual finish tag of the ticket's last grant, in the lane's
    /// ticket-clock domain.
    finish: u64,
    /// Queued pages as a min-heap over *(effective ready, page)*.
    queue: BinaryHeap<Reverse<(SimTime, u32)>>,
}

/// One tenant's per-channel queue state.
#[derive(Clone, Debug, Default)]
struct Lane {
    /// Virtual finish tag of the lane's last grant (or charge).
    finish: u64,
    /// Queued pages as a min-heap over *(effective ready, ticket id,
    /// page index)* — the pre-WFQ issue order of a lone tenant. Keys
    /// are unique (a page queues once), so popping the heap yields
    /// exactly the ascending key order the former ordered map gave.
    /// Used under [`TicketPolicy::Fifo`]; empty otherwise.
    queue: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Ticket-clock virtual time: the ticket-level start tag of the
    /// lane's last grant ([`TicketPolicy::Wfq`] only).
    tvtime: u64,
    /// Per-ticket sub-lanes, each non-empty by construction (a drained
    /// sub-lane is removed on the spot — read tickets enqueue all
    /// their pages at submission, so an empty sub-lane can never
    /// refill). Kept in ascending ticket-id order: ticket ids are
    /// allocated monotonically and all pages of a ticket enqueue
    /// together. Used under [`TicketPolicy::Wfq`]; empty otherwise.
    tickets: Vec<TicketLane>,
}

impl Lane {
    fn queued(&self) -> usize {
        self.queue.len() + self.tickets.iter().map(|t| t.queue.len()).sum::<usize>()
    }
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
///
/// Under [`TicketPolicy::Wfq`] the same holds between one tenant's own
/// tickets:
///
/// ```
/// use iceclave_ftl::{TicketPolicy, WfqArbiter};
/// use iceclave_types::{SimTime, TeeId, Ticket};
///
/// let mut arb = WfqArbiter::new(1);
/// arb.set_ticket_policy(TicketPolicy::Wfq);
/// let a = TeeId::new(1).unwrap();
/// for page in 0..8 {
///     arb.enqueue(0, a, Ticket::new(1), page, SimTime::ZERO);
/// }
/// for page in 0..2 {
///     arb.enqueue(0, a, Ticket::new(2), page, SimTime::ZERO);
/// }
/// let mut order = Vec::new();
/// while let Some(grant) = arb.try_issue(0) {
///     order.push(grant.ticket.raw());
///     arb.release(grant.ticket, grant.page);
/// }
/// assert_eq!(order[..5], [1, 2, 1, 2, 1], "sibling tickets alternate");
/// ```
#[derive(Clone, Debug)]
pub struct WfqArbiter {
    channels: Vec<ChannelWfq>,
    ticket_policy: TicketPolicy,
}

impl WfqArbiter {
    /// An arbiter over `channels` idle channels with ticket policy
    /// [`TicketPolicy::Fifo`].
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "arbiter needs at least one channel");
        WfqArbiter {
            channels: vec![ChannelWfq::default(); channels],
            ticket_policy: TicketPolicy::Fifo,
        }
    }

    /// Selects how pages are ordered inside one tenant's lane. Must be
    /// set while the arbiter is idle — the two policies keep queued
    /// pages in different structures, so flipping mid-backlog would
    /// strand entries.
    ///
    /// # Panics
    ///
    /// Panics if any pages are queued.
    pub fn set_ticket_policy(&mut self, policy: TicketPolicy) {
        assert_eq!(
            self.queued_total(),
            0,
            "ticket policy must be set while the arbiter is idle"
        );
        self.ticket_policy = policy;
    }

    /// The intra-lane scheduling policy currently in force.
    pub fn ticket_policy(&self) -> TicketPolicy {
        self.ticket_policy
    }

    /// Number of channels under arbitration.
    pub fn channels(&self) -> usize {
        self.channels.len()
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
        let lane = self.channels[channel].lane_mut(u16::from(tee.raw()));
        match self.ticket_policy {
            TicketPolicy::Fifo => lane.queue.push(Reverse((ready, ticket.raw(), page))),
            TicketPolicy::Wfq => {
                let raw = ticket.raw();
                let sub = match lane.tickets.iter_mut().find(|t| t.ticket == raw) {
                    Some(sub) => sub,
                    None => {
                        // New tickets enter at finish 0: their first
                        // start tag is max(tvtime, 0) = tvtime, so a
                        // fresh ticket starts at the lane clock and is
                        // granted promptly. Churn cannot bank credit,
                        // because a *departing* ticket surrenders its
                        // finish tag to the lane clock (see
                        // `try_issue`): back-to-back short tickets
                        // each start one quantum later, keeping a
                        // cycling K-page ticket's long-run share at
                        // exactly an equal share.
                        lane.tickets.push(TicketLane {
                            ticket: raw,
                            finish: 0,
                            queue: BinaryHeap::new(),
                        });
                        lane.tickets.last_mut().expect("just pushed")
                    }
                };
                sub.queue.push(Reverse((ready, page)));
            }
        }
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
            .map_or(0, Lane::queued)
    }

    /// Total queued pages across all channels and tenants.
    pub fn queued_total(&self) -> usize {
        self.channels
            .iter()
            .flat_map(|c| c.lanes.iter().flatten())
            .map(Lane::queued)
            .sum()
    }

    /// Number of pages `ticket` still has queued on `channel` under
    /// `tee` — zero once the ticket's sub-lane has drained (its clock
    /// state is dropped with it). Test/introspection hook for the
    /// lifecycle suite.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn ticket_backlog(&self, channel: usize, tee: TeeId, ticket: Ticket) -> usize {
        let raw = ticket.raw();
        self.channels[channel].lanes[usize::from(tee.raw())]
            .as_ref()
            .map_or(0, |lane| {
                let flat = lane
                    .queue
                    .iter()
                    .filter(|&&Reverse((_, t, _))| t == raw)
                    .count();
                let sub = lane
                    .tickets
                    .iter()
                    .find(|t| t.ticket == raw)
                    .map_or(0, |t| t.queue.len());
                flat + sub
            })
    }

    /// The ticket-clock finish tag of `ticket` on `channel` under
    /// `tee`, or `None` once the sub-lane has drained (or under
    /// [`TicketPolicy::Fifo`], which keeps no ticket clocks).
    /// Test/introspection hook: the no-double-charge retry test pins
    /// this tag across retry rungs.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn ticket_clock(&self, channel: usize, tee: TeeId, ticket: Ticket) -> Option<u64> {
        let raw = ticket.raw();
        self.channels[channel].lanes[usize::from(tee.raw())]
            .as_ref()
            .and_then(|lane| lane.tickets.iter().find(|t| t.ticket == raw))
            .map(|t| t.finish)
    }

    /// Grants `channel` to the queued page with the smallest virtual
    /// start tag, if the channel is free and any lane is backlogged.
    /// The grant stays in flight — blocking further grants on this
    /// channel — until [`WfqArbiter::release`] is called for it.
    ///
    /// Selection: per backlogged lane the prospective start tag is
    /// `max(vtime, lane.finish)`; the smallest tag wins, ties by TEE
    /// id. Within the winning lane, [`TicketPolicy::Fifo`] issues the
    /// head page (smallest *(ready, ticket, page)*);
    /// [`TicketPolicy::Wfq`] first picks the ticket sub-lane with the
    /// smallest ticket-clock start tag `max(tvtime, ticket.finish)`
    /// (ties by ticket id), then issues that ticket's head page
    /// (smallest *(ready, page)*).
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
        // smaller id, exactly as the former ordered-map min did.
        let mut winner: Option<(u64, usize)> = None;
        for (tee_raw, lane) in ch.lanes.iter().enumerate() {
            let Some(lane) = lane else { continue };
            if lane.queued() == 0 {
                continue;
            }
            let start = ch.vtime.max(lane.finish);
            if winner.is_none_or(|(best, _)| start < best) {
                winner = Some((start, tee_raw));
            }
        }
        let (start, tee_raw) = winner?;
        let lane = ch.lanes[tee_raw].as_mut().expect("winning lane exists");
        let (ready, ticket, page, tstart) = match self.ticket_policy {
            TicketPolicy::Fifo => {
                let Reverse((ready, ticket, page)) = lane.queue.pop().expect("lane is backlogged");
                (ready, ticket, page, 0)
            }
            TicketPolicy::Wfq => {
                // Same SFQ selection one level down: smallest
                // prospective ticket start tag wins, ties toward the
                // smaller ticket id (sub-lanes sit in ascending-id
                // order, so strict `<` suffices).
                let mut best: Option<(u64, usize)> = None;
                for (index, sub) in lane.tickets.iter().enumerate() {
                    let tstart = lane.tvtime.max(sub.finish);
                    if best.is_none_or(|(b, _)| tstart < b) {
                        best = Some((tstart, index));
                    }
                }
                let (tstart, index) = best.expect("lane is backlogged");
                let sub = &mut lane.tickets[index];
                let Reverse((ready, page)) = sub.queue.pop().expect("sub-lane is non-empty");
                sub.finish = tstart + QUANTUM_FP;
                lane.tvtime = tstart;
                let ticket = sub.ticket;
                if sub.queue.is_empty() {
                    // Read tickets enqueue every page at submission,
                    // so a drained sub-lane never refills: drop it
                    // (and its clock) to keep the scan short and the
                    // channel leak-free. The departing ticket
                    // surrenders its finish tag to the lane clock
                    // first — a successor ticket entering at finish 0
                    // then starts where this one left off, so a tenant
                    // cannot bank credit by splitting work into
                    // back-to-back short tickets (churn gaming).
                    lane.tvtime = lane.tvtime.max(sub.finish);
                    lane.tickets.remove(index);
                }
                (ready, ticket, page, tstart)
            }
        };
        lane.finish = start + QUANTUM_FP;
        ch.vtime = start;
        ch.busy = Some((ticket, page));
        Some(IssueGrant {
            ticket: Ticket::new(ticket),
            page,
            ready,
            vstart: start,
            tstart,
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
    /// channels — including its ticket sub-lanes and their clocks —
    /// and releases its in-flight grants — TEE teardown support. Stage
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
                lane.tickets.retain(|t| t.ticket != raw);
            }
            if matches!(ch.busy, Some((t, _)) if t == raw) {
                ch.busy = None;
                released.push(index);
            }
        }
        released
    }

    /// Forgets `tee`'s lanes entirely (id recycling): queued pages are
    /// dropped and the finish and ticket-clock tags reset, so the next
    /// TEE to reuse the id starts fresh.
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

    // ---- hierarchical (TicketPolicy::Wfq) tests ----

    fn hier(channels: usize) -> WfqArbiter {
        let mut arb = WfqArbiter::new(channels);
        arb.set_ticket_policy(TicketPolicy::Wfq);
        arb
    }

    /// A same-tenant deep ticket and small ticket alternate page by
    /// page under the hierarchical policy — the intra-tenant analog of
    /// `equal_weights_alternate_under_backlog`.
    #[test]
    fn sibling_tickets_alternate_under_backlog() {
        let mut arb = hier(1);
        let a = tee(1);
        for page in 0..8 {
            arb.enqueue(0, a, Ticket::new(1), page, SimTime::ZERO);
        }
        for page in 0..4 {
            arb.enqueue(0, a, Ticket::new(2), page, SimTime::ZERO);
        }
        let order = drain_grants(&mut arb, 0);
        let tickets: Vec<u64> = order.iter().map(|&(t, _)| t).collect();
        assert_eq!(tickets[..8], [1, 2, 1, 2, 1, 2, 1, 2]);
        assert_eq!(tickets[8..], [1, 1, 1, 1], "survivor drains alone");
    }

    /// With exactly one ticket per tenant, the hierarchical arbiter
    /// reproduces the flat grant sequence bit for bit.
    #[test]
    fn one_ticket_per_tenant_matches_flat_grants() {
        let enqueue_all = |arb: &mut WfqArbiter| {
            let (a, b) = (tee(1), tee(2));
            for page in 0..6 {
                arb.enqueue(
                    0,
                    a,
                    Ticket::new(1),
                    page,
                    SimTime::from_ps(u64::from(page) * 3),
                );
            }
            for page in 0..4 {
                arb.enqueue(
                    0,
                    b,
                    Ticket::new(2),
                    page,
                    SimTime::from_ps(u64::from(page) * 5),
                );
            }
        };
        let mut flat = WfqArbiter::new(1);
        enqueue_all(&mut flat);
        let mut two_level = hier(1);
        enqueue_all(&mut two_level);
        let mut flat_grants = Vec::new();
        let mut hier_grants = Vec::new();
        loop {
            let f = flat.try_issue(0);
            let h = two_level.try_issue(0);
            match (f, h) {
                (None, None) => break,
                (Some(f), Some(h)) => {
                    assert_eq!(
                        (f.ticket, f.page, f.ready, f.vstart),
                        (h.ticket, h.page, h.ready, h.vstart)
                    );
                    flat.release(f.ticket, f.page);
                    two_level.release(h.ticket, h.page);
                    flat_grants.push((f.ticket.raw(), f.page));
                    hier_grants.push((h.ticket.raw(), h.page));
                }
                other => panic!("grant streams diverged: {other:?}"),
            }
        }
        assert_eq!(flat_grants, hier_grants);
        assert_eq!(flat_grants.len(), 10);
    }

    /// Cancelling a ticket under the hierarchical policy purges its
    /// sub-lane and clock on every channel.
    #[test]
    fn cancel_ticket_purges_ticket_clocks() {
        let mut arb = hier(2);
        let a = tee(1);
        for ch in 0..2 {
            for page in 0..3 {
                arb.enqueue(ch, a, Ticket::new(1), page, SimTime::ZERO);
                arb.enqueue(ch, a, Ticket::new(2), page, SimTime::ZERO);
            }
        }
        let g = arb.try_issue(0).unwrap();
        assert!(arb.ticket_clock(0, a, Ticket::new(1)).is_some());
        let released = arb.cancel_ticket(Ticket::new(1));
        assert_eq!(released, vec![0], "in-flight grant released");
        for ch in 0..2 {
            assert_eq!(arb.ticket_backlog(ch, a, Ticket::new(1)), 0);
            assert_eq!(
                arb.ticket_clock(ch, a, Ticket::new(1)),
                None,
                "clock purged"
            );
        }
        assert_eq!(arb.queued(0, a), 3, "survivor's pages untouched");
        let _ = g;
        let next = arb.try_issue(0).unwrap();
        assert_eq!(next.ticket.raw(), 2);
    }

    /// A drained ticket sub-lane is dropped immediately, so long-lived
    /// tenants never accumulate dead ticket clocks.
    #[test]
    fn drained_ticket_lane_is_dropped() {
        let mut arb = hier(1);
        let a = tee(1);
        arb.enqueue(0, a, Ticket::new(1), 0, SimTime::ZERO);
        assert!(arb.ticket_clock(0, a, Ticket::new(1)).is_some());
        let g = arb.try_issue(0).unwrap();
        arb.release(g.ticket, g.page);
        assert_eq!(arb.ticket_clock(0, a, Ticket::new(1)), None, "lane dropped");
        assert_eq!(arb.queued(0, a), 0);
    }

    /// `forget_tee` under the hierarchical policy drops ticket clocks
    /// with the lanes, so a recycled TEE id reseeds from scratch.
    #[test]
    fn forget_tee_reseeds_ticket_lanes() {
        let mut arb = hier(1);
        let a = tee(1);
        for page in 0..4 {
            arb.enqueue(0, a, Ticket::new(1), page, SimTime::ZERO);
        }
        let g = arb.try_issue(0).unwrap();
        arb.release(g.ticket, g.page);
        assert!(arb.ticket_clock(0, a, Ticket::new(1)).unwrap() > 0);
        arb.forget_tee(a);
        assert_eq!(arb.ticket_clock(0, a, Ticket::new(1)), None);
        assert_eq!(arb.queued(0, a), 0);
        // The recycled id starts a fresh clock domain.
        arb.enqueue(0, a, Ticket::new(9), 0, SimTime::ZERO);
        let g = arb.try_issue(0).unwrap();
        assert_eq!((g.vstart, g.tstart), (0, 0), "fresh lane, fresh clocks");
        arb.release(g.ticket, g.page);
    }

    #[test]
    #[should_panic(expected = "while the arbiter is idle")]
    fn policy_flip_with_backlog_panics() {
        let mut arb = WfqArbiter::new(1);
        arb.enqueue(0, tee(1), Ticket::new(1), 0, SimTime::ZERO);
        arb.set_ticket_policy(TicketPolicy::Wfq);
    }

    /// The grant's ticket-level start tag is reported (and zero under
    /// Fifo), and the clock advances exactly once per grant.
    #[test]
    fn tstart_reported_and_advances_once_per_grant() {
        let mut arb = hier(1);
        let a = tee(1);
        for page in 0..2 {
            arb.enqueue(0, a, Ticket::new(1), page, SimTime::ZERO);
            arb.enqueue(0, a, Ticket::new(2), page, SimTime::ZERO);
        }
        let g = arb.try_issue(0).unwrap();
        assert_eq!(g.tstart, 0);
        let clock = arb.ticket_clock(0, a, g.ticket).unwrap();
        assert_eq!(clock, QUANTUM_FP, "one quantum per grant");
        // Release without re-issue must not advance the clock again.
        arb.release(g.ticket, g.page);
        assert_eq!(arb.ticket_clock(0, a, g.ticket).unwrap(), clock);

        let mut flat = WfqArbiter::new(1);
        flat.enqueue(0, a, Ticket::new(1), 0, SimTime::ZERO);
        let g = flat.try_issue(0).unwrap();
        assert_eq!(g.tstart, 0, "Fifo grants carry a zero ticket tag");
    }
}
