//! Table 1 (write-intensity sweep), rebuilt on the batched data path:
//! a 64-page mixed batch goes through one read ticket and one write
//! ticket (each submitted, then waited with `IceClave::wait_batch`) at
//! write ratios {0, 20, 50, 80, 100}%, and the bench prints its
//! simulated latency and throughput.
//!
//! The bench also sweeps a pure write batch across 2/4/8/16 channels
//! and emits a `BENCH_writes.json` [`BenchReport`] (simulated pages/s
//! per channel count) so the write-path perf trajectory is tracked and
//! gated across PRs. Override the output path with the
//! `BENCH_WRITES_JSON` environment variable.

use iceclave_core::IceClave;
use iceclave_experiments::{Mode, Overrides};
use iceclave_obs::{BenchReport, Direction};
use iceclave_types::{Lpn, SimTime};

const BATCH_PAGES: u64 = 64;
const WRITE_RATIOS: [u64; 5] = [0, 20, 50, 80, 100];
const CHANNELS: [u32; 4] = [2, 4, 8, 16];

/// Builds a populated runtime with an offloaded TEE owning
/// `BATCH_PAGES` pages, at the given channel count.
fn setup(channels: u32) -> (IceClave, iceclave_types::TeeId, SimTime) {
    let overrides = Overrides {
        channels: Some(channels),
        ..Overrides::none()
    };
    let config = Mode::IceClave.ssd_config(&overrides);
    let mut ice = IceClave::new(config);
    let t = ice
        .populate(Lpn::new(0), BATCH_PAGES, SimTime::ZERO)
        .expect("population fits");
    let lpns: Vec<Lpn> = (0..BATCH_PAGES).map(Lpn::new).collect();
    let (tee, t) = ice.offload_code(64 << 10, &lpns, t).expect("offload");
    (ice, tee, t)
}

/// One mixed 64-page step at `ratio`% writes: the write fraction goes
/// through a write ticket, the rest through a read ticket, each waited
/// before the next is submitted. Returns the simulated completion of
/// the slower side.
fn mixed_step(
    ice: &mut IceClave,
    tee: iceclave_types::TeeId,
    read_lpns: &[Lpn],
    write_lpns: &[Lpn],
    t: SimTime,
) -> SimTime {
    let mut finished = t;
    if !read_lpns.is_empty() {
        finished = finished.max(
            ice.submit_batch_async(tee, read_lpns, t)
                .and_then(|tk| ice.wait_batch(tk))
                .expect("granted batch")
                .finished,
        );
    }
    if !write_lpns.is_empty() {
        finished = finished.max(
            ice.submit_write_batch_async(tee, write_lpns, t)
                .and_then(|tk| ice.wait_batch(tk))
                .expect("granted batch")
                .finished,
        );
    }
    finished
}

fn main() {
    write_ratio_sweep();
    write_channel_sweep();
}

/// Mixed batch across the write-ratio sweep on an 8-channel device.
fn write_ratio_sweep() {
    for &ratio in &WRITE_RATIOS {
        let writes = (BATCH_PAGES * ratio / 100) as usize;
        let lpns: Vec<Lpn> = (0..BATCH_PAGES).map(Lpn::new).collect();
        let (read_lpns, write_lpns) = lpns.split_at(lpns.len() - writes);
        let (mut ice, tee, t) = setup(8);
        let done = mixed_step(&mut ice, tee, read_lpns, write_lpns, t);
        let sim_latency = done.saturating_since(t);
        let pages_per_s = BATCH_PAGES as f64 / (sim_latency.as_nanos_f64() * 1e-9);
        println!(
            "table1 {ratio:>3}% writes: simulated batch latency {sim_latency}, \
             {pages_per_s:.0} pages/s"
        );
    }
}

/// Pure write batch across the channel sweep; emits the
/// `BENCH_writes.json` baseline of simulated write throughput.
fn write_channel_sweep() {
    let lpns: Vec<Lpn> = (0..BATCH_PAGES).map(Lpn::new).collect();
    let mut baseline: Vec<(u32, f64)> = Vec::new();
    for &channels in &CHANNELS {
        let (mut ice, tee, t) = setup(channels);
        let done = ice
            .submit_write_batch_async(tee, &lpns, t)
            .and_then(|tk| ice.wait_batch(tk))
            .expect("granted");
        let sim_latency = done.latency();
        let pages_per_s = BATCH_PAGES as f64 / (sim_latency.as_nanos_f64() * 1e-9);
        println!(
            "writes ch{channels:<2}: simulated batch latency {sim_latency}, \
             {pages_per_s:.0} pages/s"
        );
        baseline.push((channels, pages_per_s));
    }
    write_baseline(&baseline);
}

/// Emits the simulated write-throughput report: one gated pages/s
/// metric per channel count (deterministic simulated values, so the
/// tolerance band is tight).
fn write_baseline(baseline: &[(u32, f64)]) {
    let mut report = BenchReport::new("writes").config("batch_pages", BATCH_PAGES);
    for &(channels, pages_per_s) in baseline {
        report.push_metric(
            format!("pages_per_s_ch{channels}"),
            "pages/s",
            pages_per_s,
            Direction::Higher,
            0.02,
            true,
        );
    }
    match report.write_default("BENCH_WRITES_JSON", "BENCH_writes.json") {
        Ok(path) => println!("wrote write-path report to {path}"),
        Err(e) => eprintln!("could not write write-path report: {e}"),
    }
}
