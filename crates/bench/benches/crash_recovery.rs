//! Crash-point sweep: reboot latency and replay throughput after a
//! power loss at every phase of a fixed two-tenant scenario.
//!
//! The robustness counterpart of `faults.rs` for *power* faults: a
//! deterministic two-tenant read/write schedule is replayed on a
//! journaled device, the power is cut at [`CUTS`] evenly spaced
//! executor-event indices, and each crash is rebooted through
//! `IceClave::recover`. Per crash point the bench records:
//!
//! * **recovery time** — simulated time the journal replay took
//!   (reading the journal pages through the real flash path and
//!   rebuilding the mapping/grown-bad/IV tables);
//! * **replay throughput** — journal records replayed per simulated
//!   second of recovery;
//! * **pages lost** — unacknowledged in-flight pages the crash
//!   destroyed (the loss report; acknowledged writes never count).
//!
//! The bench emits `BENCH_recovery.json` (override the path with
//! `BENCH_RECOVERY_JSON`) and asserts the crash-consistency contract
//! from `docs/ARCHITECTURE.md`: every crash point must recover, and
//! the later the cut the more records replay (the journal only
//! grows).

use iceclave_core::{IceClave, IceClaveError, PowerLossPlan};
use iceclave_experiments::{Mode, Overrides};
use iceclave_obs::{BenchReport, Direction};
use iceclave_types::{Lpn, SimTime, TeeId};

/// Logical pages per tenant.
const SPAN: u64 = 64;
/// Interleaved write+read rounds per tenant.
const ROUNDS: u64 = 3;
/// Flash channels of the bench device.
const CHANNELS: u32 = 8;
/// Reserved metadata-journal blocks.
const JOURNAL_BLOCKS: u32 = 8;
/// Evenly spaced crash points swept over the scenario's event horizon.
const CUTS: u64 = 16;

/// What one crash point produced.
struct CrashPoint {
    cut: u64,
    recovery_us: f64,
    records_replayed: u64,
    pages_read: u64,
    pages_lost: u64,
    acked_batches: u64,
}

/// A journaled device with two tenants over `2 * SPAN` populated LPNs.
fn setup() -> (IceClave, [TeeId; 2], SimTime) {
    let overrides = Overrides {
        channels: Some(CHANNELS),
        ..Overrides::none()
    };
    let mut config = Mode::IceClave.ssd_config(&overrides);
    config.platform.ftl.journal_blocks = JOURNAL_BLOCKS;
    let mut ice = IceClave::new(config);
    let t = ice
        .populate(Lpn::new(0), 2 * SPAN, SimTime::ZERO)
        .expect("population fits");
    let lpns_a: Vec<Lpn> = (0..SPAN).map(Lpn::new).collect();
    let lpns_b: Vec<Lpn> = (SPAN..2 * SPAN).map(Lpn::new).collect();
    let (tee_a, t) = ice.offload_code(64 << 10, &lpns_a, t).expect("offload A");
    let (tee_b, t) = ice.offload_code(64 << 10, &lpns_b, t).expect("offload B");
    (ice, [tee_a, tee_b], t)
}

/// Runs the fixed schedule until completion or the first power loss.
/// Returns the acknowledged write-batch count and the clock at exit.
fn run_schedule(ice: &mut IceClave, tees: [TeeId; 2], mut t: SimTime) -> (u64, SimTime, bool) {
    let mut acked = 0u64;
    for _ in 0..ROUNDS {
        for (i, &tee) in tees.iter().enumerate() {
            let base = i as u64 * SPAN;
            let lpns: Vec<Lpn> = (base..base + SPAN).map(Lpn::new).collect();
            match ice
                .submit_write_batch_async(tee, &lpns, t)
                .and_then(|tk| ice.wait_batch(tk))
            {
                Ok(done) => {
                    t = done.finished;
                    acked += 1;
                }
                Err(IceClaveError::PowerLost) => return (acked, t, true),
                Err(e) => panic!("write batch failed: {e}"),
            }
            match ice
                .submit_batch_async(tee, &lpns, t)
                .and_then(|tk| ice.wait_batch(tk))
            {
                Ok(done) => t = done.finished,
                Err(IceClaveError::PowerLost) => return (acked, t, true),
                Err(e) => panic!("read batch failed: {e}"),
            }
        }
    }
    (acked, t, false)
}

/// Measures the schedule's event horizon with an armed-but-empty plan.
fn event_horizon() -> u64 {
    let (mut ice, tees, t) = setup();
    ice.install_power_loss_plan(PowerLossPlan::none());
    let (_, _, crashed) = run_schedule(&mut ice, tees, t);
    assert!(!crashed, "the empty plan never cuts");
    ice.events_processed().expect("injector counts events")
}

/// Crashes the scenario at event `cut` and reboots through recovery.
fn run_cut(cut: u64) -> CrashPoint {
    let (mut ice, tees, t0) = setup();
    ice.install_power_loss_plan(PowerLossPlan::at_event(cut));
    let (acked, t, crashed) = run_schedule(&mut ice, tees, t0);
    assert!(crashed, "cut {cut} must land inside the schedule");
    let stats = ice.recover(t).expect("every crash point recovers");
    assert!(!stats.clean_boot);
    assert_eq!(stats.torn_records, 0, "between-event cuts never tear");
    assert!(ice.counter_epoch() >= acked, "no counter rollback");
    CrashPoint {
        cut,
        recovery_us: stats.recovery_time.as_micros_f64(),
        records_replayed: stats.records_replayed,
        pages_read: stats.pages_read,
        pages_lost: stats.pages_lost,
        acked_batches: acked,
    }
}

fn main() {
    let events = event_horizon();
    let points: Vec<CrashPoint> = (0..CUTS).map(|i| run_cut(i * events / CUTS)).collect();
    for p in &points {
        println!(
            "crash at event {}: recovery {:.1} us, {} records replayed \
             ({} journal pages), {} pages lost, {} batches acked",
            p.cut, p.recovery_us, p.records_replayed, p.pages_read, p.pages_lost, p.acked_batches,
        );
    }

    // The journal only grows: a later cut never replays fewer records.
    for w in points.windows(2) {
        assert!(
            w[1].records_replayed >= w[0].records_replayed,
            "replay shrank between cut {} and cut {}",
            w[0].cut,
            w[1].cut,
        );
    }
    write_artifact(events, &points);
}

/// Emits the sweep as a [`BenchReport`]. The scenario and the cut
/// schedule are deterministic, so the simulated metrics are gated with
/// tight tolerances; the raw replay counters ride along ungated as
/// diagnostics.
fn write_artifact(events: u64, points: &[CrashPoint]) {
    let n = points.len() as f64;
    let mean_recovery_us = points.iter().map(|p| p.recovery_us).sum::<f64>() / n;
    let max_recovery_us = points.iter().map(|p| p.recovery_us).fold(0.0, f64::max);
    let mean_replay_per_s = points
        .iter()
        .map(|p| p.records_replayed as f64 / (p.recovery_us / 1e6).max(f64::EPSILON))
        .sum::<f64>()
        / n;
    let total_pages_lost: u64 = points.iter().map(|p| p.pages_lost).sum();
    let max_records: u64 = points.iter().map(|p| p.records_replayed).max().unwrap_or(0);
    let max_pages_read: u64 = points.iter().map(|p| p.pages_read).max().unwrap_or(0);

    let mut report = BenchReport::new("crash_recovery")
        .config("scenario", format!("2tee_{CHANNELS}ch_{ROUNDS}rounds"))
        .config("span_pages", SPAN)
        .config("journal_blocks", JOURNAL_BLOCKS)
        .config("cuts", CUTS)
        .config("event_horizon", events);
    report.push_metric(
        "recovery_time_mean_us",
        "us",
        mean_recovery_us,
        Direction::Lower,
        0.02,
        true,
    );
    report.push_metric(
        "recovery_time_max_us",
        "us",
        max_recovery_us,
        Direction::Lower,
        0.02,
        true,
    );
    report.push_metric(
        "replay_records_per_sim_s_mean",
        "records/s",
        mean_replay_per_s,
        Direction::Higher,
        0.02,
        true,
    );
    report.push_metric(
        "pages_lost_total",
        "pages",
        total_pages_lost as f64,
        Direction::Lower,
        0.0,
        true,
    );
    report.push_metric(
        "records_replayed_max",
        "records",
        max_records as f64,
        Direction::Either,
        0.1,
        false,
    );
    report.push_metric(
        "journal_pages_read_max",
        "pages",
        max_pages_read as f64,
        Direction::Either,
        0.1,
        false,
    );
    match report.write_default("BENCH_RECOVERY_JSON", "BENCH_recovery.json") {
        Ok(path) => println!("wrote crash-recovery report to {path}"),
        Err(e) => eprintln!("could not write crash-recovery report: {e}"),
    }
}
