//! Cross-tenant fairness sweep: a 2-tenant antagonist duel through the
//! fair-queueing channel arbiter (Figures 17/18 machinery).
//!
//! One tenant (the *antagonist*) keeps {1, 2, 4, 8} 32-page read
//! tickets in flight; the other (the *victim*) cycles solo 4-page
//! tickets — the latency-sensitive pattern the WFQ scheduler protects.
//! Every sweep point runs under both `SchedPolicy::Fifo` (the legacy
//! event-order scheduler) and `SchedPolicy::Wfq`, and reports:
//!
//! * the victim's p99 per-ticket latency under each policy (the
//!   acceptance criterion: ≥ 2x improvement at the 8-ticket point);
//! * Jain's fairness index over per-tenant channel time, measured with
//!   both tenants backlogged (the victim keeps four 4-page tickets in
//!   flight so every channel sees both claimants; see
//!   `iceclave_experiments::fairness::jain` for the formula) — 1.0 is
//!   a perfect split, the acceptance floor is 0.95 under WFQ.
//!
//! A second, **intra-tenant** sweep puts both roles inside one TEE,
//! where only the hierarchical per-ticket clocks
//! (`TicketPolicy::Wfq`) can protect the victim: the same antagonist
//! depths run under the flat lane (`TicketPolicy::Fifo`) and the
//! hierarchical one, and the acceptance criterion is again a ≥ 2x
//! victim-p99 improvement at the deepest point.
//!
//! The duel driver itself lives in `iceclave_experiments::fairness`,
//! shared with the acceptance tests in `tests/wfq_fairness.rs` so the
//! benchmark baseline and the tested protocol cannot diverge. The
//! simulated numbers are printed once and emitted as a
//! `BENCH_fairness.json` [`BenchReport`] (uploaded as a CI artifact
//! beside `BENCH_writes.json` and `BENCH_exec.json`, and gated by
//! `check_regression`). Override the output path with the
//! `BENCH_FAIRNESS_JSON` environment variable. Criterion times the WFQ
//! duel's submit+poll loop as a smoke check.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use iceclave_core::SchedPolicy;
use iceclave_experiments::fairness::{
    jain, p99, run_duel, run_intra_duel, TicketPolicy, ANTAGONIST_TICKET_PAGES, VICTIM_TICKET_PAGES,
};
use iceclave_obs::{BenchReport, Direction};

const CHANNELS: u32 = 8;
const ANTAGONIST_IN_FLIGHT: [usize; 4] = [1, 2, 4, 8];
const VICTIM_TICKETS: usize = 40;
const BACKLOG_TICKETS: usize = 150;

struct SweepPoint {
    in_flight: usize,
    p99_fifo: u64,
    p99_wfq: u64,
    jain_fifo: f64,
    jain_wfq: f64,
}

/// One point of the intra-tenant duel: the same deep antagonist, but
/// sharing the victim's TEE — flat lane vs hierarchical ticket clocks.
struct IntraPoint {
    in_flight: usize,
    p99_flat: u64,
    p99_hier: u64,
}

fn bench_fairness(c: &mut Criterion) {
    let mut group = c.benchmark_group("fairness");
    let mut sweep: Vec<SweepPoint> = Vec::new();
    for &in_flight in &ANTAGONIST_IN_FLIGHT {
        // Latency mode: strictly solo victim (one ticket at a time).
        let fifo = run_duel(SchedPolicy::Fifo, CHANNELS, in_flight, 1, VICTIM_TICKETS);
        let wfq = run_duel(SchedPolicy::Wfq, CHANNELS, in_flight, 1, VICTIM_TICKETS);
        // Fairness mode: both tenants backlogged (the victim's four
        // 4-page tickets cover all 8 channels).
        let fifo_backlog = run_duel(SchedPolicy::Fifo, CHANNELS, in_flight, 4, BACKLOG_TICKETS);
        let wfq_backlog = run_duel(SchedPolicy::Wfq, CHANNELS, in_flight, 4, BACKLOG_TICKETS);
        let point = SweepPoint {
            in_flight,
            p99_fifo: p99(&fifo.victim_latencies).as_nanos(),
            p99_wfq: p99(&wfq.victim_latencies).as_nanos(),
            jain_fifo: jain(fifo_backlog.victim_pages, fifo_backlog.antagonist_pages),
            jain_wfq: jain(wfq_backlog.victim_pages, wfq_backlog.antagonist_pages),
        };
        println!(
            "fairness antagonist x{in_flight}: victim p99 fifo {} ns / wfq {} ns ({:.2}x), \
             jain fifo {:.3} / wfq {:.3}",
            point.p99_fifo,
            point.p99_wfq,
            point.p99_fifo as f64 / point.p99_wfq as f64,
            point.jain_fifo,
            point.jain_wfq,
        );
        sweep.push(point);
    }

    // Intra-tenant sweep: both roles share one TEE; only the
    // hierarchical ticket clocks can protect the victim.
    let mut intra: Vec<IntraPoint> = Vec::new();
    for &in_flight in &ANTAGONIST_IN_FLIGHT {
        let flat = run_intra_duel(TicketPolicy::Fifo, CHANNELS, in_flight, VICTIM_TICKETS);
        let hier = run_intra_duel(TicketPolicy::Wfq, CHANNELS, in_flight, VICTIM_TICKETS);
        let point = IntraPoint {
            in_flight,
            p99_flat: p99(&flat.victim_latencies).as_nanos(),
            p99_hier: p99(&hier.victim_latencies).as_nanos(),
        };
        println!(
            "fairness intra-tenant antagonist x{in_flight}: victim p99 flat {} ns / \
             hierarchical {} ns ({:.2}x)",
            point.p99_flat,
            point.p99_hier,
            point.p99_flat as f64 / point.p99_hier as f64,
        );
        intra.push(point);
    }

    // Criterion smoke: time the deepest WFQ duel's submit+poll loop.
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("wfq_duel_8x32_vs_solo4", 8), &8, |b, _| {
        b.iter(|| {
            run_duel(SchedPolicy::Wfq, CHANNELS, 8, 1, 8)
                .victim_latencies
                .len()
        })
    });
    group.finish();
    write_baseline(&sweep, &intra);

    // The acceptance floor of the antagonist sweep's deepest point.
    let deepest = sweep.last().expect("sweep is non-empty");
    assert!(
        deepest.p99_wfq * 2 <= deepest.p99_fifo,
        "victim p99 under WFQ ({} ns) must beat FIFO ({} ns) by 2x",
        deepest.p99_wfq,
        deepest.p99_fifo,
    );
    assert!(
        deepest.jain_wfq >= 0.95,
        "Jain index under WFQ ({:.3}) must be >= 0.95",
        deepest.jain_wfq,
    );
    // And of the intra-tenant sweep's deepest point: the hierarchical
    // clocks must buy the same-tenant victim at least 2x on p99.
    let deepest = intra.last().expect("sweep is non-empty");
    assert!(
        deepest.p99_hier * 2 <= deepest.p99_flat,
        "intra-tenant victim p99 under hierarchical WFQ ({} ns) must beat the flat lane ({} ns) by 2x",
        deepest.p99_hier,
        deepest.p99_flat,
    );
}

/// Emits the fairness report: per sweep point the victim's p99 under
/// both policies and both Jain indices, and per intra-tenant point the
/// victim's p99 under both ticket policies — all gated (deterministic
/// simulated values) — plus the acceptance ratios at the deepest
/// points as ungated informational metrics.
fn write_baseline(sweep: &[SweepPoint], intra: &[IntraPoint]) {
    let mut report = BenchReport::new("fairness")
        .config("channels", CHANNELS)
        .config("antagonist_batch_pages", ANTAGONIST_TICKET_PAGES)
        .config("victim_ticket_pages", VICTIM_TICKET_PAGES)
        .config("victim_tickets", VICTIM_TICKETS);
    for p in sweep {
        let n = p.in_flight;
        report.push_metric(
            format!("victim_p99_ns_fifo_x{n}"),
            "ns",
            p.p99_fifo as f64,
            Direction::Either,
            0.02,
            true,
        );
        report.push_metric(
            format!("victim_p99_ns_wfq_x{n}"),
            "ns",
            p.p99_wfq as f64,
            Direction::Lower,
            0.02,
            true,
        );
        report.push_metric(
            format!("jain_channel_time_fifo_x{n}"),
            "index",
            p.jain_fifo,
            Direction::Either,
            0.05,
            true,
        );
        report.push_metric(
            format!("jain_channel_time_wfq_x{n}"),
            "index",
            p.jain_wfq,
            Direction::Higher,
            0.01,
            true,
        );
    }
    let deepest = sweep.last().expect("sweep is non-empty");
    report.push_metric(
        "p99_improvement_at_8",
        "ratio",
        deepest.p99_fifo as f64 / deepest.p99_wfq as f64,
        Direction::Higher,
        0.1,
        false,
    );
    for p in intra {
        let n = p.in_flight;
        report.push_metric(
            format!("intra_victim_p99_ns_flat_x{n}"),
            "ns",
            p.p99_flat as f64,
            Direction::Either,
            0.02,
            true,
        );
        report.push_metric(
            format!("intra_victim_p99_ns_hier_x{n}"),
            "ns",
            p.p99_hier as f64,
            Direction::Lower,
            0.02,
            true,
        );
    }
    let deepest = intra.last().expect("sweep is non-empty");
    report.push_metric(
        "intra_p99_improvement_at_8",
        "ratio",
        deepest.p99_flat as f64 / deepest.p99_hier as f64,
        Direction::Higher,
        0.1,
        false,
    );
    match report.write_default("BENCH_FAIRNESS_JSON", "BENCH_fairness.json") {
        Ok(path) => println!("fairness report written to {path}"),
        Err(e) => eprintln!("could not write fairness report: {e}"),
    }
}

criterion_group!(benches, bench_fairness);
criterion_main!(benches);
