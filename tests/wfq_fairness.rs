//! Acceptance and regression tests of the fair-queueing channel
//! arbiter (`iceclave_ftl::WfqArbiter` + the WFQ read path in
//! `iceclave_core`).
//!
//! * **Starvation freedom** (property test): a backlogged duel keeps
//!   the victim's share of grants within 10% of an even split over any
//!   10k-page window, no matter how the antagonist bursts.
//! * **Determinism**: same submissions ⇒ identical completion
//!   sequences.
//! * **Single-tenant transparency**: with one tenant, the WFQ
//!   scheduler's output is byte-identical to the legacy FIFO executor.
//! * **Antagonist duel** (the Figures 17/18 scenario): against a
//!   tenant keeping 8×32-page tickets in flight, a solo 4-page-ticket
//!   tenant's p99 latency improves at least 2x over FIFO, and
//!   channel-time splits near-evenly once both tenants are backlogged.

use iceclave_repro::iceclave_core::{IceClave, SchedPolicy};
use iceclave_repro::iceclave_experiments::fairness::{jain, p99, run_duel};
use iceclave_repro::iceclave_experiments::{Mode, Overrides};
use iceclave_repro::iceclave_ftl::WfqArbiter;
use iceclave_repro::iceclave_types::{Lpn, PageWrite, SimTime, TeeId, Ticket};
use proptest::prelude::*;

const CHANNELS: u32 = 8;

fn device(policy: SchedPolicy, pages: u64) -> (IceClave, SimTime) {
    let overrides = Overrides {
        channels: Some(CHANNELS),
        ..Overrides::none()
    };
    let mut config = Mode::IceClave.ssd_config(&overrides);
    config.fairness.policy = policy;
    let mut ice = IceClave::new(config);
    let t = ice.populate(Lpn::new(0), pages, SimTime::ZERO).unwrap();
    (ice, t)
}

fn payload(i: u64) -> Vec<u8> {
    (0..4096u32).map(|b| (b as u8) ^ (i as u8) ^ 0xA5).collect()
}

// ---- starvation freedom (property test over the arbiter) -----------

proptest! {
    /// Both lanes kept backlogged, antagonist enqueueing
    /// in arbitrary bursts: every 10k-grant window stays within 10% of
    /// a 50/50 split (share in [0.45, 0.55]).
    #[test]
    fn equal_weight_victim_share_stays_within_ten_percent_of_half(
        antagonist_bursts in prop::collection::vec(1usize..=256, 16),
        victim_bursts in prop::collection::vec(1usize..=8, 16),
    ) {
        const TOTAL: usize = 30_000;
        const WINDOW: usize = 10_000;
        let mut arb = WfqArbiter::new(1);
        let (a, v) = (TeeId::new(1).unwrap(), TeeId::new(2).unwrap());
        let mut next_a = (0u64, 0u32); // (burst cursor, page counter)
        let mut next_v = (0u64, 0u32);
        let mut queued_a = 0usize;
        let mut queued_v = 0usize;
        let mut grants: Vec<bool> = Vec::with_capacity(TOTAL); // true = victim
        while grants.len() < TOTAL {
            // Keep both tenants backlogged: replenish whichever lane
            // dropped below one burst of headroom.
            while queued_a < 64 {
                let burst = antagonist_bursts[(next_a.0 as usize) % antagonist_bursts.len()];
                next_a.0 += 1;
                for _ in 0..burst {
                    arb.enqueue(0, a, Ticket::new(1 + 2 * next_a.0), next_a.1, SimTime::ZERO);
                    next_a.1 += 1;
                }
                queued_a += burst;
            }
            while queued_v < 8 {
                let burst = victim_bursts[(next_v.0 as usize) % victim_bursts.len()];
                next_v.0 += 1;
                for _ in 0..burst {
                    arb.enqueue(0, v, Ticket::new(2 + 2 * next_v.0), next_v.1, SimTime::ZERO);
                    next_v.1 += 1;
                }
                queued_v += burst;
            }
            let grant = arb.try_issue(0).expect("both lanes backlogged");
            let is_victim = grant.ticket.raw().is_multiple_of(2);
            if is_victim {
                queued_v -= 1;
            } else {
                queued_a -= 1;
            }
            grants.push(is_victim);
            arb.release(grant.ticket, grant.page);
        }
        // Every 10k-grant window splits evenly (the windows slide one
        // grant at a time; shares move by at most 1/10_000 per step,
        // so checking every step is cheap with a running count).
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
            worst >= 0.45 && best <= 0.55,
            "victim share left [0.45, 0.55]: min {worst:.3}, max {best:.3}"
        );
    }
}

// ---- determinism ---------------------------------------------------

/// Same submissions ⇒ identical completion sequences, with two
/// tenants and mixed read/write tickets in flight.
#[test]
fn identical_runs_drain_identical_sequences() {
    let run = || {
        let (mut ice, t0) = device(SchedPolicy::Wfq, 96);
        let a_lpns: Vec<Lpn> = (0..64).map(Lpn::new).collect();
        let b_lpns: Vec<Lpn> = (64..96).map(Lpn::new).collect();
        let (tee_a, _) = ice.offload_code(1024, &a_lpns, t0).unwrap();
        let (tee_b, _) = ice.offload_code(1024, &b_lpns, t0).unwrap();
        for chunk in a_lpns.chunks(32) {
            ice.submit_batch_async(tee_a, chunk, t0).unwrap();
        }
        ice.submit_batch_async(tee_b, &b_lpns[..16], t0).unwrap();
        let writes: Vec<PageWrite> = b_lpns[16..]
            .iter()
            .map(|&lpn| PageWrite::with_data(lpn, payload(lpn.raw())))
            .collect();
        ice.submit_write_batch_async_as(tee_b, writes, t0).unwrap();
        let trace: Vec<(u64, u32, u64, u64)> = ice
            .drain_completions()
            .iter()
            .map(|e| (e.ticket.raw(), e.index, e.ready_at().as_ps(), e.lpn.raw()))
            .collect();
        trace
    };
    let first = run();
    assert_eq!(first.len(), 64 + 16 + 16);
    assert_eq!(first, run(), "identical runs must drain identically");
}

// ---- single-tenant transparency ------------------------------------

/// One drained read completion: (ticket, index, ready ps, lpn, data).
type ReadTraceEntry = (u64, u32, u64, u64, Option<Vec<u8>>);

/// With a single tenant, the WFQ scheduler's output is byte-identical
/// to the pre-WFQ (FIFO) executor: concurrent read tickets, then
/// concurrent write tickets, compared event for event — ready times,
/// page order, and delivered bytes.
#[test]
fn single_tenant_wfq_is_byte_identical_to_fifo() {
    let run = |policy: SchedPolicy| {
        let (mut ice, t) = device(policy, 64);
        for i in 0..16 {
            ice.host_store_data(Lpn::new(i), &payload(i), t).unwrap();
        }
        let lpns: Vec<Lpn> = (0..64).map(Lpn::new).collect();
        let (tee, t0) = ice.offload_code(1024, &lpns, t).unwrap();
        // Four concurrent read tickets from the one tenant.
        for chunk in lpns.chunks(16) {
            ice.submit_batch_async(tee, chunk, t0).unwrap();
        }
        let reads: Vec<ReadTraceEntry> = ice
            .drain_completions()
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
            .collect();
        // Then two concurrent write tickets.
        let t1 = ice.exec_clock();
        for chunk in lpns.chunks(32) {
            let writes: Vec<PageWrite> = chunk
                .iter()
                .map(|&lpn| PageWrite::with_data(lpn, payload(lpn.raw() ^ 7)))
                .collect();
            ice.submit_write_batch_async_as(tee, writes, t1).unwrap();
        }
        let writes: Vec<(u64, u32, u64, u64)> = ice
            .drain_completions()
            .into_iter()
            .map(|e| (e.ticket.raw(), e.index, e.ready_at().as_ps(), e.lpn.raw()))
            .collect();
        (reads, writes)
    };
    let fifo = run(SchedPolicy::Fifo);
    let wfq = run(SchedPolicy::Wfq);
    assert_eq!(fifo.0.len(), 64);
    assert_eq!(fifo.1.len(), 64);
    assert_eq!(
        fifo, wfq,
        "a lone tenant's schedule must not change under WFQ"
    );
}

// ---- the antagonist duel (Figures 17/18 scenario) ------------------
//
// The closed-loop duel driver is shared with the `fairness` bench
// (`iceclave_experiments::fairness`), so the acceptance tests below
// exercise exactly the protocol the published `BENCH_fairness.json`
// baseline measures.

/// The headline acceptance criterion: against an antagonist keeping
/// 8×32-page tickets in flight, the solo 4-page tenant's p99 latency
/// under WFQ improves at least 2x over the FIFO scheduler.
#[test]
fn solo_tenant_p99_improves_2x_against_antagonist() {
    let fifo = run_duel(SchedPolicy::Fifo, CHANNELS, 8, 1, 40);
    let wfq = run_duel(SchedPolicy::Wfq, CHANNELS, 8, 1, 40);
    let (fifo_p99, wfq_p99) = (p99(&fifo.victim_latencies), p99(&wfq.victim_latencies));
    assert!(
        wfq_p99.as_ps() * 2 <= fifo_p99.as_ps(),
        "victim p99 under WFQ ({wfq_p99}) not 2x better than FIFO ({fifo_p99})"
    );
}

/// Once both tenants are backlogged (victim keeps four 4-page tickets
/// in flight, enough to cover every channel), fair queueing splits the
/// drained pages — and with uniform 4 KiB pages, the channel time —
/// near evenly (Jain's index at or above the 0.95 acceptance floor).
#[test]
fn backlogged_equal_weights_split_channel_time_evenly() {
    let duel = run_duel(SchedPolicy::Wfq, CHANNELS, 8, 4, 150);
    let (victim_pages, ant_pages) = (duel.victim_pages, duel.antagonist_pages);
    let share = victim_pages as f64 / (victim_pages + ant_pages) as f64;
    assert!(
        (0.40..=0.60).contains(&share),
        "backlogged victim drained {share:.3} of pages (victim {victim_pages}, antagonist {ant_pages})"
    );
    assert!(
        jain(victim_pages, ant_pages) >= 0.95,
        "Jain index {:.3} below the acceptance floor",
        jain(victim_pages, ant_pages)
    );
}
