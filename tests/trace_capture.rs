//! Op-log tracing integration tests: determinism of the captured
//! byte stream, AFAP replay equivalence against a fresh device, and
//! the per-ticket fault activity the capture hook records.

use iceclave_repro::iceclave_core::IceClave;
use iceclave_repro::iceclave_experiments::{Mode, Overrides};
use iceclave_repro::iceclave_flash::FaultPlan;
use iceclave_repro::iceclave_obs::trace::hash_payload;
use iceclave_repro::iceclave_obs::{replay, ReplayMode, TraceLog};
use iceclave_repro::iceclave_types::{Lpn, PageWrite, SimTime, TeeId, TicketKind};

const TEES: u64 = 2;
const PAGES_PER_TEE: u64 = 32;
const READ_BATCH: usize = 12;
const WRITE_BATCH: usize = 6;
const ROUNDS: usize = 3;

/// An 8-channel device with two TEEs, each granted a disjoint range.
fn device() -> (IceClave, Vec<(TeeId, Vec<Lpn>)>, SimTime) {
    let overrides = Overrides {
        channels: Some(8),
        ..Overrides::none()
    };
    let mut ice = IceClave::new(Mode::IceClave.ssd_config(&overrides));
    let t = ice
        .populate(Lpn::new(0), TEES * PAGES_PER_TEE, SimTime::ZERO)
        .unwrap();
    // Distinct plaintext per page so data hashes are meaningful.
    for i in 0..TEES * PAGES_PER_TEE {
        let plaintext: Vec<u8> = (0..4096u32)
            .map(|b| (b as u8).wrapping_add(i as u8))
            .collect();
        ice.host_store_data(Lpn::new(i), &plaintext, t).unwrap();
    }
    let mut tees = Vec::new();
    for tee_idx in 0..TEES {
        let base = tee_idx * PAGES_PER_TEE;
        let lpns: Vec<Lpn> = (base..base + PAGES_PER_TEE).map(Lpn::new).collect();
        let (tee, _) = ice.offload_code(64 << 10, &lpns, t).unwrap();
        tees.push((tee, lpns));
    }
    (ice, tees, t)
}

/// The captured 2-tenant workload: interleaved read and write batches
/// from both tenants, drained each round.
fn workload(ice: &mut IceClave, tees: &[(TeeId, Vec<Lpn>)], start: SimTime) -> SimTime {
    let mut t = start;
    for _ in 0..ROUNDS {
        for (tee, lpns) in tees {
            ice.submit_batch_async(*tee, &lpns[..READ_BATCH], t)
                .unwrap();
            let writes: Vec<PageWrite> = lpns[READ_BATCH..READ_BATCH + WRITE_BATCH]
                .iter()
                .map(|&lpn| PageWrite::new(lpn))
                .collect();
            ice.submit_write_batch_async_as(*tee, writes, t).unwrap();
        }
        for ev in ice.drain_completions() {
            t = t.max(ev.ready_at());
        }
    }
    t
}

fn capture() -> TraceLog {
    let (mut ice, tees, t0) = device();
    ice.enable_tracing();
    assert!(ice.tracing_enabled());
    workload(&mut ice, &tees, t0);
    let log = ice.take_trace().expect("tracing was enabled");
    assert!(!ice.tracing_enabled());
    log
}

#[test]
fn two_identical_runs_capture_byte_identical_logs() {
    let a = capture();
    let b = capture();
    assert!(!a.is_empty());
    assert_eq!(
        a.as_bytes(),
        b.as_bytes(),
        "the executor determinism contract must extend to the op-log"
    );
    // And the encoded stream round-trips through the codec.
    let decoded = TraceLog::from_bytes(a.as_bytes()).unwrap();
    assert_eq!(decoded.records(), a.records());
}

#[test]
fn capture_records_every_ticket_with_pages_and_timestamps() {
    let log = capture();
    let tickets = (TEES as usize) * 2 * ROUNDS;
    assert_eq!(log.len(), tickets, "one record per submitted batch");
    let mut reads = 0;
    let mut writes = 0;
    for rec in log.records() {
        match rec.kind {
            TicketKind::Read => {
                reads += 1;
                assert_eq!(rec.pages.len(), READ_BATCH);
            }
            TicketKind::Write => {
                writes += 1;
                assert_eq!(rec.pages.len(), WRITE_BATCH);
            }
        }
        assert!(rec.finished >= rec.first_ready);
        assert!(rec.first_ready >= rec.submitted);
        for (i, page) in rec.pages.iter().enumerate() {
            assert_eq!(page.index as usize, i, "pages sorted by batch index");
            assert!(page.status.is_done());
            assert!(page.breakdown.ready >= rec.submitted);
        }
    }
    assert_eq!(reads, TEES as usize * ROUNDS);
    assert_eq!(writes, TEES as usize * ROUNDS);
}

/// Device-wide counters of the fault activity a ticket can be charged
/// with: read retries, uncorrectable pages, program remaps and block
/// retirements.
fn fault_counters(ice: &IceClave) -> [u64; 4] {
    let ftl = ice.platform().ftl.stats();
    [
        ice.stats().read_retries,
        ice.stats().uncorrectable_pages,
        ftl.program_remaps,
        ftl.blocks_retired,
    ]
}

#[test]
fn tickets_carry_their_fault_activity() {
    // No faults injected: every record's fault block is quiet.
    let log = capture();
    assert!(!log.is_empty());
    assert!(log.records().iter().all(|r| r.faults.is_quiet()));

    // Read bursts and program failures: what the records charge to
    // their tickets adds up to what the device counted while capturing.
    let (mut ice, tees, t0) = device();
    ice.install_fault_plan(FaultPlan {
        program_fail_rate: 0.05,
        ..FaultPlan::transient(11, 0.3)
    });
    let before = fault_counters(&ice);
    ice.enable_tracing();
    workload(&mut ice, &tees, t0);
    let log = ice.take_trace().unwrap();
    let after = fault_counters(&ice);
    let device: [u64; 4] = std::array::from_fn(|i| after[i] - before[i]);
    let mut tickets = [0u64; 4];
    for rec in log.records() {
        tickets[0] += rec.faults.read_retries;
        tickets[1] += rec.faults.uncorrectable_pages;
        tickets[2] += rec.faults.program_remaps;
        tickets[3] += rec.faults.blocks_retired;
    }
    assert_eq!(
        tickets, device,
        "per-ticket [retries, uncorrectable, remaps, retirements] must sum to the device's"
    );
    assert!(
        device[0] > 0,
        "the plan's read bursts climbed the retry ladder"
    );
    assert!(device[2] > 0, "the plan's program failures were remapped");
}

/// One burst: every tenant's read and write batch submitted at the
/// same instant, then drained. This is the workload shape whose AFAP
/// replay the determinism contract pins down exactly — all captured
/// submission times coincide, so re-submitting everything at that time
/// is a faithful re-run, not a compression of the original schedule.
fn burst_capture() -> (TraceLog, SimTime) {
    let (mut ice, tees, t0) = device();
    ice.enable_tracing();
    for (tee, lpns) in &tees {
        ice.submit_batch_async(*tee, &lpns[..READ_BATCH], t0)
            .unwrap();
        let writes: Vec<PageWrite> = lpns[READ_BATCH..READ_BATCH + WRITE_BATCH]
            .iter()
            .map(|&lpn| PageWrite::new(lpn))
            .collect();
        ice.submit_write_batch_async_as(*tee, writes, t0).unwrap();
    }
    ice.drain_completions();
    (ice.take_trace().unwrap(), t0)
}

#[test]
fn afap_replay_reproduces_completion_order_and_bytes() {
    let (log, t0) = burst_capture();
    assert!(!log.is_empty());

    let (mut fresh, _, start) = device();
    assert_eq!(start, t0, "identically built devices share the epoch");
    fresh.enable_tracing();
    let outcome = replay(&mut fresh, &log, ReplayMode::Afap, start).unwrap();
    let replay_log = fresh.take_trace().unwrap();

    // The determinism contract, end to end: identical submissions into
    // an identically configured device produce the identical encoded
    // op-log — ticket close order, stage timestamps, page statuses,
    // fault activity and payload hashes, byte for byte.
    assert_eq!(
        replay_log.as_bytes(),
        log.as_bytes(),
        "AFAP replay must reproduce the captured completion sequence byte-identically"
    );
    assert_eq!(outcome.submitted.len(), log.len());

    // Cross-check the hash chain itself against the drained events.
    let hashed: Vec<u64> = outcome
        .completions
        .iter()
        .filter(|e| e.kind == TicketKind::Read)
        .map(|e| hash_payload(e.data.as_deref()))
        .collect();
    assert_eq!(hashed.len(), READ_BATCH * TEES as usize);
    assert!(hashed.iter().all(|&h| h != 0), "read pages carry payloads");
}

#[test]
fn replay_roundtrips_through_disk() {
    let log = capture();
    let dir = std::env::temp_dir().join("iceclave_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("capture.trace");
    log.write_to(&path).unwrap();
    let loaded = TraceLog::read_from(&path).unwrap();
    assert_eq!(loaded.as_bytes(), log.as_bytes());
    std::fs::remove_file(&path).ok();

    let (mut fresh, _, t0) = device();
    let outcome = replay(&mut fresh, &loaded, ReplayMode::Paced, t0).unwrap();
    let pages = (READ_BATCH + WRITE_BATCH) * TEES as usize * ROUNDS;
    assert_eq!(outcome.completions.len(), pages);
}
