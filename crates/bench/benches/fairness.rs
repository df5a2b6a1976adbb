//! Cross-tenant fairness sweep: an antagonist duel through the
//! fair-queueing channel arbiter (Figures 17/18 machinery).
//!
//! One role (the *antagonist*) keeps {1, 2, 4, 8} 32-page read
//! tickets in flight; the other (the *victim*) cycles solo 4-page
//! tickets — the latency-sensitive pattern the WFQ scheduler protects.
//! Every sweep point runs the duel twice: with the two roles in two
//! TEEs (the `wfq` rows), which the arbiter keeps apart, and with both
//! roles in one TEE (the `fifo` rows, named for the first-come order
//! they measure). One TEE has one lane per channel, which issues both
//! roles' pages in *(ready, ticket, page)* order with no arbitration
//! between them: the victim waits behind every antagonist page queued
//! before it, as under a FIFO scheduler. Each point reports:
//!
//! * the victim's p99 per-ticket latency on each side (the acceptance
//!   criterion: ≥ 2x improvement at the 8-ticket point);
//! * Jain's fairness index over the two roles' channel time, measured
//!   with both roles backlogged (the victim keeps four 4-page tickets
//!   in flight so every channel sees both claimants; see
//!   `iceclave_experiments::fairness::jain` for the formula) — 1.0 is
//!   a perfect split, the acceptance floor is 0.95 for two TEEs.
//!
//! The duel driver itself lives in `iceclave_experiments::fairness`,
//! shared with the acceptance tests in `tests/wfq_fairness.rs` so the
//! benchmark baseline and the tested protocol cannot diverge. The
//! simulated numbers are printed once and emitted as a
//! `BENCH_fairness.json` [`BenchReport`] (uploaded as a CI artifact
//! beside `BENCH_writes.json` and `BENCH_exec.json`, and gated by
//! `check_regression`). Override the output path with the
//! `BENCH_FAIRNESS_JSON` environment variable.

use iceclave_experiments::fairness::{
    jain, p99, run_duel, DuelConfig, DuelOutcome, ANTAGONIST_TICKET_PAGES, VICTIM_TICKET_PAGES,
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

/// The duel of one sweep point: the roles in one TEE (`shared_tenant`)
/// or in two.
fn duel(
    shared_tenant: bool,
    antagonist_in_flight: usize,
    victim_in_flight: usize,
    victim_tickets: usize,
) -> DuelOutcome {
    run_duel(&DuelConfig {
        channels: CHANNELS,
        antagonist_in_flight,
        victim_in_flight,
        victim_tickets,
        shared_tenant,
    })
}

fn main() {
    let mut sweep: Vec<SweepPoint> = Vec::new();
    for &in_flight in &ANTAGONIST_IN_FLIGHT {
        // Latency mode: strictly solo victim (one ticket at a time).
        let fifo = duel(true, in_flight, 1, VICTIM_TICKETS);
        let wfq = duel(false, in_flight, 1, VICTIM_TICKETS);
        // Fairness mode: both roles backlogged (the victim's four
        // 4-page tickets cover all 8 channels).
        let fifo_backlog = duel(true, in_flight, 4, BACKLOG_TICKETS);
        let wfq_backlog = duel(false, in_flight, 4, BACKLOG_TICKETS);
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
    write_baseline(&sweep);

    // The acceptance floor of the antagonist sweep's deepest point.
    let deepest = sweep.last().expect("sweep is non-empty");
    assert!(
        deepest.p99_wfq * 2 <= deepest.p99_fifo,
        "victim p99 in its own TEE ({} ns) must beat the shared TEE ({} ns) by 2x",
        deepest.p99_wfq,
        deepest.p99_fifo,
    );
    assert!(
        deepest.jain_wfq >= 0.95,
        "Jain index across two TEEs ({:.3}) must be >= 0.95",
        deepest.jain_wfq,
    );
}

/// Emits the fairness report: per sweep point the victim's p99 and
/// the Jain index on both sides — all gated (deterministic simulated
/// values) — plus the acceptance ratio at the deepest point as an
/// ungated informational metric.
fn write_baseline(sweep: &[SweepPoint]) {
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
    match report.write_default("BENCH_FAIRNESS_JSON", "BENCH_fairness.json") {
        Ok(path) => println!("fairness report written to {path}"),
        Err(e) => eprintln!("could not write fairness report: {e}"),
    }
}
