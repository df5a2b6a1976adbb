//! Trace smoke run: captures a ticket op-log from a small 2-tenant
//! interleaving workload, verifies it replays, and writes it to disk.
//!
//! ```text
//! trace_smoke [output.trace]
//! ```
//!
//! The output path defaults to `trace_smoke.trace` (first CLI argument
//! overrides). CI runs this binary and uploads the capture as a build
//! artifact, so every merge leaves behind a replayable op-log of a
//! known workload. Before writing, the binary replays the capture
//! as-fast-as-possible against a fresh identically-configured device
//! and checks the completion sequence matches — the replay-equivalence
//! property the integration tests assert, exercised here end to end on
//! every CI run.

use std::process::ExitCode;

use iceclave_core::IceClave;
use iceclave_experiments::{Mode, Overrides};
use iceclave_obs::{replay, ReplayMode};
use iceclave_types::{Lpn, PageWrite, SimTime, TeeId};

const TEES: u64 = 2;
const PAGES_PER_TEE: u64 = 48;
const READ_BATCH: usize = 16;
const ROUNDS: usize = 4;

fn device() -> (IceClave, Vec<(TeeId, Vec<Lpn>)>, SimTime) {
    let overrides = Overrides {
        channels: Some(8),
        ..Overrides::none()
    };
    let mut ice = IceClave::new(Mode::IceClave.ssd_config(&overrides));
    let t = ice
        .populate(Lpn::new(0), TEES * PAGES_PER_TEE, SimTime::ZERO)
        .expect("population fits");
    let mut tees = Vec::new();
    for tee_idx in 0..TEES {
        let base = tee_idx * PAGES_PER_TEE;
        let lpns: Vec<Lpn> = (base..base + PAGES_PER_TEE).map(Lpn::new).collect();
        let (tee, _) = ice.offload_code(64 << 10, &lpns, t).expect("offload");
        tees.push((tee, lpns));
    }
    (ice, tees, t)
}

/// The captured workload: both tenants interleave 16-page read batches
/// with an 8-page write batch per round.
fn workload(ice: &mut IceClave, tees: &[(TeeId, Vec<Lpn>)], start: SimTime) -> SimTime {
    let mut t = start;
    for _ in 0..ROUNDS {
        for (tee, lpns) in tees {
            ice.submit_batch_async(*tee, &lpns[..READ_BATCH], t)
                .expect("read batch");
            let writes: Vec<PageWrite> = lpns[READ_BATCH..READ_BATCH + 8]
                .iter()
                .map(|&lpn| PageWrite::new(lpn))
                .collect();
            ice.submit_write_batch_async_as(*tee, writes, t)
                .expect("write batch");
        }
        for ev in ice.drain_completions() {
            t = t.max(ev.ready_at());
        }
    }
    t
}

fn main() -> ExitCode {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace_smoke.trace".to_string());

    let (mut ice, tees, t0) = device();
    ice.enable_tracing();
    workload(&mut ice, &tees, t0);
    let log = ice.take_trace().expect("tracing was enabled");
    let records = log.records();
    let pages: usize = records.iter().map(|r| r.pages.len()).sum();
    println!(
        "captured {} tickets ({} pages) from the 2-tenant smoke workload",
        log.len(),
        pages
    );

    // Replay equivalence: a fresh identically-configured device fed the
    // capture AFAP must retire the same (tee, lpn, status) sequence.
    let (mut fresh, _, rt0) = device();
    let outcome = match replay(&mut fresh, &log, ReplayMode::Afap, rt0) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("trace_smoke: replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut expected: Vec<(u8, u64, bool)> = records
        .iter()
        .flat_map(|r| {
            r.pages
                .iter()
                .map(move |p| (r.tee, p.lpn.raw(), p.status.is_done()))
        })
        .collect();
    let mut replayed: Vec<(u8, u64, bool)> = outcome
        .completions
        .iter()
        .map(|e| (e.tee.raw(), e.lpn.raw(), e.status.is_done()))
        .collect();
    // The capture is keyed by close order while the drain is keyed by
    // ready order; compare as multisets of per-page outcomes.
    expected.sort_unstable();
    replayed.sort_unstable();
    if expected != replayed {
        eprintln!(
            "trace_smoke: replay mismatch: {} captured pages vs {} replayed",
            expected.len(),
            replayed.len()
        );
        return ExitCode::FAILURE;
    }
    println!(
        "afap replay reproduced all {} page outcomes on a fresh device",
        replayed.len()
    );

    if let Err(e) = log.write_to(std::path::Path::new(&out)) {
        eprintln!("trace_smoke: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote op-log to {out} ({} bytes)", log.as_bytes().len());
    ExitCode::SUCCESS
}
