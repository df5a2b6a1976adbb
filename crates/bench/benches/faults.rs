//! Fault-rate sweep: goodput and tail latency under injected flash
//! faults.
//!
//! The robustness counterpart of `simspeed.rs`: a fixed single-tenant
//! read/write scenario is replayed under [`FaultPlan`]s of increasing
//! severity (fault-free, 1e-3, 1e-2 read-burst + program-fail rates)
//! and the bench reports, per rate:
//!
//! * **goodput** — pages delivered `Done` per *simulated* second (a
//!   degraded page costs its retry ladder and still counts zero), and
//! * **victim p99** — the 99th-percentile per-page read latency, which
//!   captures the backoff rungs the retry ladder inserts on faulting
//!   pages.
//!
//! The bench emits `BENCH_faults.json` (override the path with
//! `BENCH_FAULTS_JSON`) and asserts the recovery contract from
//! `docs/ARCHITECTURE.md`: at a 1e-3 fault rate the retry ladder must
//! preserve at least 90% of fault-free goodput — degradation has to be
//! graceful, not a cliff.

use iceclave_core::IceClave;
use iceclave_experiments::{Mode, Overrides};
use iceclave_flash::FaultPlan;
use iceclave_obs::{BenchReport, Direction};
use iceclave_types::{Lpn, SimTime, TeeId};

const PAGES: u64 = 256;
const BATCH_PAGES: u64 = 32;
const ROUNDS: u64 = 4;
const CHANNELS: u32 = 8;
const SEED: u64 = 2021;

/// The swept per-operation fault rates. `RATES[1]` is the rate the
/// goodput floor is asserted at.
const RATES: [f64; 3] = [0.0, 1e-3, 1e-2];

/// Minimum fraction of fault-free goodput the device must retain at a
/// 1e-3 fault rate.
const GOODPUT_FLOOR_AT_1E3: f64 = 0.9;

/// What one swept rate produced.
struct RatePoint {
    rate: f64,
    goodput_pages_per_sim_s: f64,
    victim_p99_us: f64,
    done_pages: u64,
    failed_pages: u64,
    read_retries: u64,
    program_remaps: u64,
    blocks_retired: u64,
}

/// A fresh single-TEE device over `PAGES` populated LPNs.
fn setup() -> (IceClave, TeeId, Vec<Lpn>, SimTime) {
    let overrides = Overrides {
        channels: Some(CHANNELS),
        ..Overrides::none()
    };
    let config = Mode::IceClave.ssd_config(&overrides);
    let mut ice = IceClave::new(config);
    let t = ice
        .populate(Lpn::new(0), PAGES, SimTime::ZERO)
        .expect("population fits");
    let lpns: Vec<Lpn> = (0..PAGES).map(Lpn::new).collect();
    let (tee, t) = ice.offload_code(64 << 10, &lpns, t).expect("offload");
    (ice, tee, lpns, t)
}

/// Replays the fixed scenario at one fault rate: `ROUNDS` rounds of a
/// full-range write wave followed by `PAGES / BATCH_PAGES` read
/// batches, all drained to completion.
fn run_rate(rate: f64) -> RatePoint {
    let (mut ice, tee, lpns, mut t) = setup();
    ice.install_fault_plan(FaultPlan {
        seed: SEED,
        read_burst_rate: rate,
        max_burst: 16,
        ecc_t: 8,
        program_fail_rate: rate,
        erase_fail_rate: rate,
        ..FaultPlan::none()
    });

    let start = t;
    let mut done_pages = 0u64;
    let mut failed_pages = 0u64;
    let mut read_latencies_us: Vec<f64> = Vec::new();
    for _ in 0..ROUNDS {
        let wt = ice
            .submit_write_batch_async(tee, &lpns, t)
            .expect("write batch");
        let writes = ice.wait_batch(wt).expect("write wave completes");
        t = writes.finished;
        for c in &writes.completions {
            if c.status.is_done() {
                done_pages += 1;
            } else {
                failed_pages += 1;
            }
        }
        for chunk in lpns.chunks(BATCH_PAGES as usize) {
            let rt = ice.submit_batch_async(tee, chunk, t).expect("read batch");
            let reads = ice.wait_batch(rt).expect("read batch completes");
            for c in &reads.completions {
                if c.status.is_done() {
                    done_pages += 1;
                    read_latencies_us
                        .push(c.ready_at().as_micros_f64() - reads.issued.as_micros_f64());
                } else {
                    failed_pages += 1;
                }
            }
            t = reads.finished;
        }
    }

    let sim_elapsed_s = (t.as_secs_f64() - start.as_secs_f64()).max(f64::EPSILON);
    read_latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p99_idx = (read_latencies_us.len().saturating_sub(1)) * 99 / 100;
    let victim_p99_us = read_latencies_us.get(p99_idx).copied().unwrap_or(0.0);
    let rt = ice.stats();
    let ftl = ice.platform().ftl.stats();
    RatePoint {
        rate,
        goodput_pages_per_sim_s: done_pages as f64 / sim_elapsed_s,
        victim_p99_us,
        done_pages,
        failed_pages,
        read_retries: rt.read_retries,
        program_remaps: ftl.program_remaps,
        blocks_retired: ftl.blocks_retired,
    }
}

fn main() {
    let points: Vec<RatePoint> = RATES.iter().map(|&rate| run_rate(rate)).collect();
    for p in &points {
        println!(
            "faults rate={:.0e}: goodput {:.0} pages/sim-s, victim p99 {:.1} us, \
             {} done / {} failed, {} retries, {} remaps, {} blocks retired",
            p.rate,
            p.goodput_pages_per_sim_s,
            p.victim_p99_us,
            p.done_pages,
            p.failed_pages,
            p.read_retries,
            p.program_remaps,
            p.blocks_retired,
        );
    }
    write_artifact(&points);

    // Recovery contract: a realistic 1e-3 fault rate must not cost more
    // than 10% of fault-free goodput.
    let fault_free = points[0].goodput_pages_per_sim_s;
    let at_1e3 = points[1].goodput_pages_per_sim_s;
    assert!(
        at_1e3 >= GOODPUT_FLOOR_AT_1E3 * fault_free,
        "goodput cliff at 1e-3 faults: {at_1e3:.0} pages/sim-s is below \
         {GOODPUT_FLOOR_AT_1E3}x the fault-free {fault_free:.0} pages/sim-s"
    );
}

/// Emits the fault sweep as a [`BenchReport`]: goodput, tail latency
/// and page outcomes are gated per rate (the fault stream is seeded,
/// so every number is deterministic); the raw recovery counters ride
/// along ungated as diagnostics.
fn write_artifact(points: &[RatePoint]) {
    let mut report = BenchReport::new("faults")
        .config("scenario", format!("1tee_{CHANNELS}ch_fault_sweep"))
        .config("pages", PAGES)
        .config("rounds", ROUNDS)
        .config("seed", SEED)
        .config("goodput_floor_at_1e-3", GOODPUT_FLOOR_AT_1E3);
    for p in points {
        let key = format!("{:.0e}", p.rate).replace('-', "m");
        report.push_metric(
            format!("goodput_pages_per_sim_s_r{key}"),
            "pages/s",
            p.goodput_pages_per_sim_s,
            Direction::Higher,
            0.02,
            true,
        );
        report.push_metric(
            format!("victim_p99_us_r{key}"),
            "us",
            p.victim_p99_us,
            Direction::Lower,
            0.02,
            true,
        );
        report.push_metric(
            format!("done_pages_r{key}"),
            "pages",
            p.done_pages as f64,
            Direction::Higher,
            0.0,
            true,
        );
        report.push_metric(
            format!("failed_pages_r{key}"),
            "pages",
            p.failed_pages as f64,
            Direction::Lower,
            0.0,
            true,
        );
        for (name, value) in [
            ("read_retries", p.read_retries),
            ("program_remaps", p.program_remaps),
            ("blocks_retired", p.blocks_retired),
        ] {
            report.push_metric(
                format!("{name}_r{key}"),
                "count",
                value as f64,
                Direction::Either,
                0.1,
                false,
            );
        }
    }
    match report.write_default("BENCH_FAULTS_JSON", "BENCH_faults.json") {
        Ok(path) => println!("wrote fault sweep report to {path}"),
        Err(e) => eprintln!("could not write fault sweep report: {e}"),
    }
}
