//! Simulator-speed bench: wall-clock throughput of the executor hot
//! path on a fixed 2-tenant interleaving scenario.
//!
//! Unlike the figure benches (which report *simulated* latencies), this
//! bench measures how fast the simulator itself runs: simulated pages
//! retired per wall-clock second while two TEEs keep read and write
//! tickets interleaved across 16 channels under WFQ. This is the
//! metric that gates fleet-scale serving and trace replay — see the
//! "Simulator performance" section of `docs/ARCHITECTURE.md`.
//!
//! The scenario is fixed so numbers are comparable across PRs:
//! 2 TEEs x 4 concurrent 32-page read batches + one 16-page write
//! batch per TEE per round, 8 rounds per iteration (2,304 simulated
//! pages). The bench emits a `BenchReport` to `BENCH_simspeed.json`
//! (override the path with `BENCH_SIMSPEED_JSON`) and asserts a
//! conservative pages/s floor — with op-log capture *off* — so a
//! future PR cannot silently regress the hot path. A second datapoint
//! measures the same scenario with capture *on*, quantifying the
//! observer's overhead; the two kinds of timed block alternate on the
//! same device, so drift lands on both sides alike.
//!
//! Two gated numbers do not depend on the machine at all:
//! `peak_heap_mib`, the heap high-water mark of setup plus the first
//! scenario (counted by `iceclave_testkit::CountingAlloc`, installed as
//! this binary's global allocator), and `events_per_page`, executor
//! events per simulated page over that scenario (counted by an empty
//! `PowerLossPlan`, which never trips).

use std::time::Instant;

use iceclave_core::{IceClave, PowerLossPlan};
use iceclave_experiments::{Mode, Overrides};
use iceclave_obs::{BenchReport, Direction};
use iceclave_testkit::CountingAlloc;
use iceclave_types::{Lpn, PageWrite, SimTime, TeeId};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const TEES: u64 = 2;
const READ_BATCHES: u64 = 4;
const BATCH_PAGES: u64 = 32;
const WRITE_PAGES: u64 = 16;
const ROUNDS: u64 = 8;
const CHANNELS: u32 = 16;

/// Simulated pages retired per iteration of the scenario.
const PAGES_PER_ITER: u64 = ROUNDS * TEES * (READ_BATCHES * BATCH_PAGES + WRITE_PAGES);

/// Conservative wall-clock floor (pages/s) asserted at the end of the
/// bench, with trace capture off. The flattened hot path sustains well
/// over 10^6 pages/s on a development machine; the floor is set an
/// order of magnitude below the post-flattening rate so slow shared CI
/// runners pass while a return to the pre-flattening executor (~5x
/// slower) still trips it.
const FLOOR_PAGES_PER_S: f64 = 150_000.0;

/// A 16-channel device with two TEEs. Each TEE's grant is split into a
/// read half and a write half so in-flight read and write tickets never
/// race the same logical page (the executor's documented in-flight
/// contract).
fn setup() -> (IceClave, Vec<(TeeId, Vec<Lpn>)>, SimTime) {
    let overrides = Overrides {
        channels: Some(CHANNELS),
        ..Overrides::none()
    };
    let config = Mode::IceClave.ssd_config(&overrides);
    let mut ice = IceClave::new(config);
    let pages_per_tee = READ_BATCHES * BATCH_PAGES + WRITE_PAGES;
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
    // Counts executor events from here on; an empty plan never trips.
    ice.install_power_loss_plan(PowerLossPlan::none());
    (ice, tees, t)
}

/// Runs one iteration of the fixed scenario: `ROUNDS` rounds of
/// concurrent read + write tickets from both tenants, each round
/// drained to idle. Returns the number of completions (checked against
/// `PAGES_PER_ITER`) and the simulated finish time.
fn scenario(ice: &mut IceClave, tees: &[(TeeId, Vec<Lpn>)], start: SimTime) -> (u64, SimTime) {
    let read_pages = (READ_BATCHES * BATCH_PAGES) as usize;
    let mut t = start;
    let mut completions = 0u64;
    for _ in 0..ROUNDS {
        for (tee, lpns) in tees {
            for batch in 0..READ_BATCHES as usize {
                let chunk = &lpns[batch * BATCH_PAGES as usize..(batch + 1) * BATCH_PAGES as usize];
                ice.submit_batch_async(*tee, chunk, t).expect("read batch");
            }
            let writes: Vec<PageWrite> = lpns[read_pages..]
                .iter()
                .map(|&lpn| PageWrite::new(lpn))
                .collect();
            ice.submit_write_batch_async_as(*tee, writes, t)
                .expect("write batch");
        }
        for ev in ice.drain_completions() {
            completions += 1;
            t = t.max(ev.ready_at());
        }
    }
    (completions, t)
}

/// Median wall-clock pages/s with op-log capture off and on, over
/// `SAMPLES` timed blocks of each kind. The two kinds alternate on the
/// same device and swap which runs first on every sample, so device
/// ageing and machine drift land on both sides alike; the trace is
/// enabled before and taken after the timed region.
fn measure(ice: &mut IceClave, tees: &[(TeeId, Vec<Lpn>)], t: &mut SimTime) -> (f64, f64) {
    const SAMPLES: usize = 5;
    const ITERS_PER_SAMPLE: u64 = 10;
    let mut rates = [Vec::with_capacity(SAMPLES), Vec::with_capacity(SAMPLES)];
    for sample in 0..SAMPLES {
        let traced_first = sample % 2 == 1;
        for traced in [traced_first, !traced_first] {
            if traced {
                ice.enable_tracing();
            }
            let begin = Instant::now();
            for _ in 0..ITERS_PER_SAMPLE {
                *t = scenario(ice, tees, *t).1;
            }
            let wall = begin.elapsed().as_secs_f64();
            if traced {
                let trace = ice.take_trace().expect("tracing was enabled");
                assert!(!trace.is_empty(), "capture-on block recorded tickets");
            }
            rates[usize::from(traced)].push((ITERS_PER_SAMPLE * PAGES_PER_ITER) as f64 / wall);
        }
    }
    let [off, on] = rates.map(|mut side| {
        side.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
        side[SAMPLES / 2]
    });
    (off, on)
}

fn main() {
    ALLOC.reset_peak();
    let heap_base = ALLOC.live_bytes();
    let (mut ice, tees, t0) = setup();
    let (completions, sim_end) = scenario(&mut ice, &tees, t0);
    assert_eq!(completions, PAGES_PER_ITER, "scenario retired every page");
    let sim_elapsed_ns = sim_end.saturating_since(t0).as_nanos_f64();
    let peak_heap_mib = (ALLOC.peak_bytes() - heap_base) as f64 / (1u64 << 20) as f64;
    let events = ice
        .events_processed()
        .expect("setup installed a power-loss plan");
    let events_per_page = events as f64 / PAGES_PER_ITER as f64;

    // Wall-clock measurement for the JSON report: warm up, then time
    // fixed blocks of iterations with a plain monotonic clock.
    let mut t = t0;
    for _ in 0..3 {
        t = scenario(&mut ice, &tees, t).1;
    }
    // The capture-on side runs the same scenario with the op-log
    // observer installed, so the trace hook's overhead has a tracked
    // number.
    let (pages_per_s, pages_per_s_traced) = measure(&mut ice, &tees, &mut t);

    println!(
        "simspeed 2tee interleaving: {PAGES_PER_ITER} simulated pages/iter, \
         {pages_per_s:.0} pages per wall-clock second capture-off, \
         {pages_per_s_traced:.0} capture-on ({:.1}% overhead); \
         {events_per_page:.3} events/page, {peak_heap_mib:.3} MiB peak heap",
        (1.0 - pages_per_s_traced / pages_per_s) * 100.0
    );

    let mut report = BenchReport::new("simspeed")
        .config("scenario", "2tee_16ch_interleaving")
        .config("tees", TEES)
        .config("read_batches_per_tee", READ_BATCHES)
        .config("batch_pages", BATCH_PAGES)
        .config("write_pages_per_tee", WRITE_PAGES)
        .config("rounds", ROUNDS)
        .config("channels", CHANNELS);
    report.push_metric(
        "simulated_pages_per_iter",
        "pages",
        PAGES_PER_ITER as f64,
        Direction::Either,
        0.0,
        true,
    );
    report.push_metric(
        "sim_elapsed_ns",
        "ns",
        sim_elapsed_ns,
        Direction::Lower,
        0.02,
        true,
    );
    report.push_metric(
        "pages_per_wall_s",
        "pages/s",
        pages_per_s,
        Direction::Higher,
        0.5,
        false,
    );
    report.push_metric(
        "pages_per_wall_s_traced",
        "pages/s",
        pages_per_s_traced,
        Direction::Higher,
        0.5,
        false,
    );
    report.push_metric(
        "peak_heap_mib",
        "MiB",
        peak_heap_mib,
        Direction::Lower,
        0.05,
        true,
    );
    report.push_metric(
        "events_per_page",
        "events/page",
        events_per_page,
        Direction::Lower,
        0.0,
        true,
    );
    match report.write_default("BENCH_SIMSPEED_JSON", "BENCH_simspeed.json") {
        Ok(path) => println!("wrote simulator-speed report to {path}"),
        Err(e) => eprintln!("could not write simspeed report: {e}"),
    }

    assert!(
        pages_per_s >= FLOOR_PAGES_PER_S,
        "simulator speed regressed: {pages_per_s:.0} pages/s (capture off) is below \
         the {FLOOR_PAGES_PER_S:.0} pages/s floor"
    );
}
