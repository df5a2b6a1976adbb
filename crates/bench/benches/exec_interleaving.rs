//! Executor interleaving sweep: 2 TEEs × {1, 2, 4, 8} in-flight
//! batches through the event-driven completion-queue API.
//!
//! Each configuration submits `in_flight` 32-page read batches per TEE
//! as concurrent tickets at the same simulated instant and drains the
//! completion queue. The bench reports the simulated throughput
//! (pages/s) and per-page p99 latency and emits a `BENCH_exec.json`
//! baseline (uploaded as a CI artifact beside `BENCH_writes.json`) so
//! the executor's interleaving trajectory is tracked across PRs.
//! Override the output path with the `BENCH_EXEC_JSON` environment
//! variable.

use iceclave_core::IceClave;
use iceclave_experiments::{Mode, Overrides};
use iceclave_obs::{BenchReport, Direction};
use iceclave_sim::Histogram;
use iceclave_types::{CompletionEvent, Lpn, SimTime, TeeId};

const TEES: u64 = 2;
const BATCH_PAGES: u64 = 32;
const IN_FLIGHT: [u64; 4] = [1, 2, 4, 8];
const CHANNELS: u32 = 16;

/// A 16-channel device with two TEEs, each granted enough pages for
/// the deepest sweep point.
fn setup(in_flight: u64) -> (IceClave, Vec<(TeeId, Vec<Lpn>)>, SimTime) {
    let overrides = Overrides {
        channels: Some(CHANNELS),
        ..Overrides::none()
    };
    let config = Mode::IceClave.ssd_config(&overrides);
    let mut ice = IceClave::new(config);
    let pages_per_tee = BATCH_PAGES * in_flight;
    let t = ice
        .populate(Lpn::new(0), TEES * pages_per_tee, SimTime::ZERO)
        .expect("population fits");
    let mut tees = Vec::new();
    for tee_idx in 0..TEES {
        let base = tee_idx * pages_per_tee;
        let lpns: Vec<Lpn> = (base..base + pages_per_tee).map(Lpn::new).collect();
        let (tee, _) = ice.offload_code(64 << 10, &lpns, t).expect("offload");
        tees.push((tee, lpns));
    }
    (ice, tees, t)
}

/// Submits `in_flight` batches per TEE concurrently and drains them.
/// Returns the drained events.
fn interleave(
    ice: &mut IceClave,
    tees: &[(TeeId, Vec<Lpn>)],
    in_flight: u64,
    t: SimTime,
) -> Vec<CompletionEvent> {
    for batch in 0..in_flight as usize {
        for (tee, lpns) in tees {
            let chunk = &lpns[batch * BATCH_PAGES as usize..(batch + 1) * BATCH_PAGES as usize];
            ice.submit_batch_async(*tee, chunk, t)
                .expect("granted batch");
        }
    }
    ice.drain_completions()
}

fn main() {
    let mut baseline: Vec<(u64, f64, u64)> = Vec::new();
    for &in_flight in &IN_FLIGHT {
        let total_pages = TEES * BATCH_PAGES * in_flight;
        let (mut ice, tees, t) = setup(in_flight);
        let events = interleave(&mut ice, &tees, in_flight, t);
        assert_eq!(events.len(), total_pages as usize);
        let mut latencies = Histogram::new();
        let mut finished = t;
        for ev in &events {
            latencies.record(ev.breakdown.total().as_nanos());
            finished = finished.max(ev.ready_at());
        }
        let sim_latency = finished.saturating_since(t);
        let pages_per_s = total_pages as f64 / (sim_latency.as_nanos_f64() * 1e-9);
        let p99_ns = latencies.quantile(0.99);
        println!(
            "exec 2tee x {in_flight} batches: simulated drain {sim_latency}, \
             {pages_per_s:.0} pages/s, p99 page latency {p99_ns} ns"
        );
        baseline.push((in_flight, pages_per_s, p99_ns));
    }
    write_baseline(&baseline);
}

/// Emits the interleaving report: simulated pages/s and p99 page
/// latency per sweep point, all gated (deterministic simulated
/// values).
fn write_baseline(baseline: &[(u64, f64, u64)]) {
    let mut report = BenchReport::new("exec")
        .config("tees", TEES)
        .config("batch_pages", BATCH_PAGES)
        .config("channels", CHANNELS);
    for &(in_flight, pages_per_s, p99_ns) in baseline {
        report.push_metric(
            format!("pages_per_s_if{in_flight}"),
            "pages/s",
            pages_per_s,
            Direction::Higher,
            0.02,
            true,
        );
        report.push_metric(
            format!("p99_page_latency_ns_if{in_flight}"),
            "ns",
            p99_ns as f64,
            Direction::Lower,
            0.02,
            true,
        );
    }
    match report.write_default("BENCH_EXEC_JSON", "BENCH_exec.json") {
        Ok(path) => println!("wrote executor interleaving report to {path}"),
        Err(e) => eprintln!("could not write interleaving report: {e}"),
    }
}
