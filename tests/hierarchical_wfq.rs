//! Acceptance and regression tests of the **hierarchical** WFQ
//! arbiter: per-ticket fair queueing inside each tenant's lane
//! ([`TicketPolicy::Wfq`]), layered under the existing per-tenant
//! start-time clocks.
//!
//! * **Ticket-level starvation freedom** (property test): inside one
//!   tenant, a cycling 4-page victim ticket keeps its grant share
//!   within 10% of an equal share over any 10k-grant window, no
//!   matter how a deep sibling antagonist bursts.
//! * **Byte-identity**: with one ticket per tenant — and separately
//!   under the legacy [`TicketPolicy::Fifo`] — the hierarchical
//!   arbiter drains event-for-event identical to the flat arbiter:
//!   same order, same timestamps, same bytes.
//! * **Lifecycle edges**: TEE teardown purges per-ticket clocks
//!   without leaking a channel; a recycled TEE id starts with fresh
//!   ticket lanes; the read-retry ladder keeps its grant without
//!   double-charging the ticket clock (pinned through grant order).

use iceclave_repro::iceclave_core::{AbortReason, IceClave, SchedPolicy, TicketPolicy};
use iceclave_repro::iceclave_experiments::{Mode, Overrides};
use iceclave_repro::iceclave_flash::FaultPlan;
use iceclave_repro::iceclave_ftl::WfqArbiter;
use iceclave_repro::iceclave_types::{Lpn, SimTime, TeeId, Ticket};
use proptest::prelude::*;

const CHANNELS: u32 = 8;

fn device(ticket_policy: TicketPolicy, channels: u32, pages: u64) -> (IceClave, SimTime) {
    let overrides = Overrides {
        channels: Some(channels),
        ..Overrides::none()
    };
    let mut config = Mode::IceClave.ssd_config(&overrides);
    config.fairness.policy = SchedPolicy::Wfq;
    config.fairness.ticket_policy = ticket_policy;
    let mut ice = IceClave::new(config);
    let t = ice.populate(Lpn::new(0), pages, SimTime::ZERO).unwrap();
    (ice, t)
}

fn payload(i: u64) -> Vec<u8> {
    (0..4096u32).map(|b| (b as u8) ^ (i as u8) ^ 0xA5).collect()
}

// ---- ticket-level starvation freedom (property test) ---------------

proptest! {
    /// One tenant, one channel: a deep antagonist ticket (kept >= 64
    /// pages backlogged, replenished in arbitrary bursts) against a
    /// victim cycling fresh 4-page tickets. Every 10k-grant window
    /// keeps the victim within 10% (relative) of an equal share — the
    /// per-ticket mirror of the tenant-level property in
    /// `tests/wfq_fairness.rs`.
    #[test]
    fn victim_ticket_share_stays_within_ten_percent_of_equal_share(
        antagonist_bursts in prop::collection::vec(1usize..=256, 16),
        replenish_low in 16usize..=64,
    ) {
        const TOTAL: usize = 30_000;
        const WINDOW: usize = 10_000;
        let mut arb = WfqArbiter::new(1);
        arb.set_ticket_policy(TicketPolicy::Wfq);
        let tee = TeeId::new(1).unwrap();
        // Odd ticket ids = antagonist, even = victim. Exactly one
        // antagonist sub-lane is ever live (its backlog never drains),
        // and exactly one victim sub-lane (a fresh 4-page ticket the
        // moment the previous one drained) — so the victim's equal
        // share is one half.
        let antagonist = Ticket::new(1);
        let mut ant_page = 0u32;
        let mut ant_burst = 0usize;
        let mut queued_a = 0usize;
        let mut victim_gen = 0u64;
        let mut victim_page = 0u32;
        let mut queued_v = 0usize;
        let mut grants: Vec<bool> = Vec::with_capacity(TOTAL); // true = victim
        while grants.len() < TOTAL {
            while queued_a < replenish_low {
                let burst = antagonist_bursts[ant_burst % antagonist_bursts.len()];
                ant_burst += 1;
                for _ in 0..burst {
                    arb.enqueue(0, tee, antagonist, ant_page, SimTime::ZERO);
                    ant_page += 1;
                }
                queued_a += burst;
            }
            if queued_v == 0 {
                victim_gen += 1;
                for _ in 0..4 {
                    arb.enqueue(0, tee, Ticket::new(2 * victim_gen), victim_page, SimTime::ZERO);
                    victim_page += 1;
                }
                queued_v = 4;
            }
            let grant = arb.try_issue(0).expect("lane is backlogged");
            let is_victim = grant.ticket.raw().is_multiple_of(2);
            if is_victim {
                queued_v -= 1;
            } else {
                queued_a -= 1;
            }
            grants.push(is_victim);
            arb.release(grant.ticket, grant.page);
        }
        let expected = 0.5;
        let mut victim_in_window = grants[..WINDOW].iter().filter(|&&g| g).count();
        let mut worst = victim_in_window as f64 / WINDOW as f64;
        let mut best = worst;
        for end in WINDOW..TOTAL {
            victim_in_window += grants[end] as usize;
            victim_in_window -= grants[end - WINDOW] as usize;
            let share = victim_in_window as f64 / WINDOW as f64;
            worst = worst.min(share);
            best = best.max(share);
        }
        prop_assert!(
            worst >= expected * 0.9 && best <= expected * 1.1,
            "victim share left [{:.3}, {:.3}]: min {worst:.3}, max {best:.3}",
            expected * 0.9,
            expected * 1.1
        );
    }
}

// ---- byte-identity against the flat arbiter ------------------------

/// One drained read completion: (ticket, index, ready ps, lpn, data).
type ReadTraceEntry = (u64, u32, u64, u64, Option<Vec<u8>>);

fn drain_reads(ice: &mut IceClave) -> Vec<ReadTraceEntry> {
    ice.drain_completions()
        .into_iter()
        .map(|e| {
            (
                e.ticket.raw(),
                e.index,
                e.ready_at().as_ps(),
                e.lpn.raw(),
                e.data,
            )
        })
        .collect()
}

/// Two waves of three tenants, each holding exactly **one** read
/// ticket at a time: with a single sub-lane per tenant lane the
/// hierarchical arbiter must collapse to the flat one, event for
/// event — order, ready times and delivered bytes.
#[test]
fn one_ticket_per_tenant_is_byte_identical_to_the_flat_arbiter() {
    let run = |ticket_policy: TicketPolicy| {
        let (mut ice, t) = device(ticket_policy, CHANNELS, 96);
        for i in 0..96 {
            ice.host_store_data(Lpn::new(i), &payload(i), t).unwrap();
        }
        let mut tees = Vec::new();
        let mut t0 = t;
        for tenant in 0..3u64 {
            let lpns: Vec<Lpn> = (32 * tenant..32 * (tenant + 1)).map(Lpn::new).collect();
            let (tee, t1) = ice.offload_code(1024, &lpns, t0).unwrap();
            t0 = t1;
            tees.push((tee, lpns));
        }
        let mut trace = Vec::new();
        for wave in 0..2usize {
            let range = 16 * wave..16 * (wave + 1);
            for (tee, lpns) in &tees {
                ice.submit_batch_async(*tee, &lpns[range.clone()], t0)
                    .unwrap();
            }
            trace.extend(drain_reads(&mut ice));
            t0 = ice.exec_clock();
        }
        trace
    };
    let flat = run(TicketPolicy::Fifo);
    let hier = run(TicketPolicy::Wfq);
    assert_eq!(flat.len(), 96);
    assert_eq!(
        flat, hier,
        "one ticket per tenant must make the hierarchy invisible"
    );
}

/// `ticket_policy: Fifo` — the config default — **is** the flat
/// arbiter: a multi-ticket-per-tenant schedule drains identically to
/// an untouched default config, pinning the legacy behavior of every
/// existing baseline.
#[test]
fn explicit_fifo_ticket_policy_matches_the_default_config() {
    let run = |explicit: bool| {
        let overrides = Overrides {
            channels: Some(CHANNELS),
            ..Overrides::none()
        };
        let mut config = Mode::IceClave.ssd_config(&overrides);
        config.fairness.policy = SchedPolicy::Wfq;
        if explicit {
            config.fairness.ticket_policy = TicketPolicy::Fifo;
        }
        let mut ice = IceClave::new(config);
        let t = ice.populate(Lpn::new(0), 64, SimTime::ZERO).unwrap();
        for i in 0..64 {
            ice.host_store_data(Lpn::new(i), &payload(i), t).unwrap();
        }
        let lpns: Vec<Lpn> = (0..64).map(Lpn::new).collect();
        let (tee, t0) = ice.offload_code(1024, &lpns, t).unwrap();
        // Four concurrent tickets from the one tenant.
        for chunk in lpns.chunks(16) {
            ice.submit_batch_async(tee, chunk, t0).unwrap();
        }
        drain_reads(&mut ice)
    };
    let implicit = run(false);
    let explicit = run(true);
    assert_eq!(implicit.len(), 64);
    assert_eq!(implicit, explicit, "Fifo is the default ticket policy");
}

// ---- lifecycle edges ------------------------------------------------

/// TEE teardown mid-flight purges every queued page *and* every
/// per-ticket clock of the torn-down tenant from the arbiter, and
/// releases its in-flight grants: the surviving tenant drains its own
/// batch fully and a follow-up batch proves no channel leaked.
#[test]
fn teardown_purges_ticket_clocks_without_leaking_channels() {
    let (mut ice, t) = device(TicketPolicy::Wfq, CHANNELS, 128);
    let doomed_lpns: Vec<Lpn> = (0..64).map(Lpn::new).collect();
    let survivor_lpns: Vec<Lpn> = (64..128).map(Lpn::new).collect();
    let (doomed, t0) = ice.offload_code(1024, &doomed_lpns, t).unwrap();
    let (survivor, t0) = ice.offload_code(1024, &survivor_lpns, t0).unwrap();
    let da = ice
        .submit_batch_async(doomed, &doomed_lpns[..32], t0)
        .unwrap();
    let db = ice
        .submit_batch_async(doomed, &doomed_lpns[32..], t0)
        .unwrap();
    let sv = ice
        .submit_batch_async(survivor, &survivor_lpns, t0)
        .unwrap();
    // The doomed tenant's tickets are backlogged in per-ticket
    // sub-lanes before the teardown...
    let backlog: usize = (0..CHANNELS as usize)
        .map(|ch| {
            ice.arbiter().ticket_backlog(ch, doomed, da)
                + ice.arbiter().ticket_backlog(ch, doomed, db)
        })
        .sum();
    assert!(backlog > 0, "teardown must race a real backlog");
    ice.throw_out(doomed, AbortReason::ProgramException, t0)
        .unwrap();
    // ...and gone — backlog and clocks both — the moment it is thrown
    // out, on every channel.
    for ch in 0..CHANNELS as usize {
        for ticket in [da, db] {
            assert_eq!(ice.arbiter().ticket_backlog(ch, doomed, ticket), 0);
            assert_eq!(ice.arbiter().ticket_clock(ch, doomed, ticket), None);
        }
        assert_eq!(ice.arbiter().queued(ch, doomed), 0);
    }
    // The survivor still drains every page, and a follow-up batch
    // proves no channel grant leaked with the teardown.
    let events = ice.drain_completions();
    let survivor_done = events
        .iter()
        .filter(|e| e.ticket == sv && e.status.is_done())
        .count();
    assert_eq!(survivor_done, 64);
    let again = ice
        .submit_batch_async(survivor, &survivor_lpns, ice.exec_clock())
        .unwrap();
    let done = ice.wait_batch(again).unwrap();
    assert_eq!(done.len(), 64);
    assert_eq!(ice.in_flight_tickets(), 0);
    assert_eq!(ice.arbiter().queued_total(), 0);
}

/// A recycled TEE id starts with **fresh** ticket lanes: after
/// `forget_tee`, the first grant of a new ticket under the recycled id
/// carries the same ticket-clock tags as on an arbiter that never saw
/// the previous tenant.
#[test]
fn recycled_tee_id_reseeds_ticket_lanes() {
    let tee = TeeId::new(3).unwrap();
    let mut arb = WfqArbiter::new(1);
    arb.set_ticket_policy(TicketPolicy::Wfq);
    // First life: run the ticket clock well past zero.
    for page in 0..8 {
        arb.enqueue(0, tee, Ticket::new(7), page, SimTime::ZERO);
    }
    for _ in 0..8 {
        let g = arb.try_issue(0).unwrap();
        arb.release(g.ticket, g.page);
    }
    assert!(arb.ticket_clock(0, tee, Ticket::new(7)).is_none());
    arb.forget_tee(tee);
    // Second life under the recycled id, against a control arbiter
    // that never saw the first tenant: identical ticket-clock tags.
    let mut control = WfqArbiter::new(1);
    control.set_ticket_policy(TicketPolicy::Wfq);
    for page in 0..2 {
        arb.enqueue(0, tee, Ticket::new(9), page, SimTime::ZERO);
        control.enqueue(0, tee, Ticket::new(9), page, SimTime::ZERO);
    }
    let recycled = arb.try_issue(0).unwrap();
    let fresh = control.try_issue(0).unwrap();
    assert_eq!(
        recycled.tstart, fresh.tstart,
        "fresh start tag after recycle"
    );
    assert_eq!(
        arb.ticket_clock(0, tee, Ticket::new(9)),
        control.ticket_clock(0, tee, Ticket::new(9)),
        "recycled id must not inherit the previous tenant's ticket clock"
    );
}

/// End-to-end id recycling: terminate a TEE, offload a successor that
/// reuses the id, and stream a full batch under the hierarchical
/// policy — the recycled id's lanes start empty and the batch drains
/// completely.
#[test]
fn recycled_tee_id_streams_cleanly_under_wfq_tickets() {
    let (mut ice, t) = device(TicketPolicy::Wfq, CHANNELS, 64);
    let lpns: Vec<Lpn> = (0..64).map(Lpn::new).collect();
    let (first, t0) = ice.offload_code(1024, &lpns, t).unwrap();
    let ticket = ice.submit_batch_async(first, &lpns, t0).unwrap();
    let done = ice.wait_batch(ticket).unwrap();
    assert_eq!(done.len(), 64);
    let t1 = ice.terminate_tee(first, done.finished).unwrap();
    let (second, t2) = ice.offload_code(1024, &lpns, t1).unwrap();
    assert_eq!(second, first, "the id pool recycles the freed id");
    for ch in 0..CHANNELS as usize {
        assert_eq!(ice.arbiter().queued(ch, second), 0);
    }
    let ticket = ice.submit_batch_async(second, &lpns, t2).unwrap();
    let done = ice.wait_batch(ticket).unwrap();
    assert_eq!(done.len(), 64);
    assert!(done.completions.iter().all(|c| c.status.is_done()));
    assert_eq!(ice.arbiter().queued_total(), 0);
}

/// The read-retry ladder keeps its WFQ grant and does **not**
/// re-charge the ticket clock: on one channel, two sibling tickets
/// alternate grants strictly, and a scripted transient
/// fault mid-stream must not perturb that alternation — only delay it.
/// (A retry that re-entered the arbiter, or double-charged the
/// faulted ticket's clock, would hand its sibling extra turns and
/// reorder the drain.)
#[test]
fn transient_read_fault_keeps_grant_order_without_double_charging() {
    let run = |fault: bool| {
        let (mut ice, t) = device(TicketPolicy::Wfq, 1, 16);
        for i in 0..16 {
            ice.host_store_data(Lpn::new(i), &payload(i), t).unwrap();
        }
        let lpns: Vec<Lpn> = (0..16).map(Lpn::new).collect();
        let (tee, t0) = ice.offload_code(1024, &lpns, t).unwrap();
        if fault {
            // Grants on the single channel alternate between the two
            // sibling tickets; ordinal 4 lands mid-stream,
            // with both sub-lanes still backlogged on either side.
            ice.install_fault_plan(FaultPlan {
                read_fail_ops: vec![4],
                ..FaultPlan::none()
            });
        }
        ice.submit_batch_async(tee, &lpns[..8], t0).unwrap();
        ice.submit_batch_async(tee, &lpns[8..], t0).unwrap();
        let events = ice.drain_completions();
        assert!(events.iter().all(|e| e.status.is_done()));
        let order: Vec<(u64, u64)> = events
            .iter()
            .map(|e| (e.ticket.raw(), e.lpn.raw()))
            .collect();
        let finished = events.iter().map(|e| e.ready_at()).max().unwrap();
        let retries = ice.stats().read_retries;
        assert_eq!(ice.arbiter().queued_total(), 0);
        assert_eq!(ice.in_flight_tickets(), 0);
        (order, finished, retries)
    };
    let (clean_order, clean_finish, clean_retries) = run(false);
    let (fault_order, fault_finish, fault_retries) = run(true);
    assert_eq!(clean_retries, 0);
    assert_eq!(
        fault_retries, 1,
        "the scripted fault must bite exactly once"
    );
    // Steady-state alternation in the clean run: one channel. (The head grant issues before the second ticket is even
    // queued and the tail drains whichever sibling holds the last
    // pages, so the strict window is the middle of the trace.)
    for i in 1..14 {
        assert_ne!(
            clean_order[i].0,
            clean_order[i + 1].0,
            "siblings alternate grants: {clean_order:?}"
        );
    }
    assert_eq!(
        clean_order, fault_order,
        "a retained grant must not change the grant order, only its timing"
    );
    assert!(
        fault_finish > clean_finish,
        "the retry rung costs real time ({fault_finish} vs {clean_finish})"
    );
}
