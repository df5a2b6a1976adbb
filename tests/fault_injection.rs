//! End-to-end fault injection and recovery.
//!
//! The fault plans (`iceclave_flash::faults`, `iceclave_mee::faults`)
//! are deterministic schedules; these tests drive them through the
//! whole stack — executor read-retry ladder, FTL grown-bad remap, MEE
//! MAC fallback — and pin the recovery contract:
//!
//! * An **empty plan is invisible**: installing it changes no event of
//!   a fault-free run, bit for bit.
//! * Recovery is **graceful per page**: a batch with one bad page
//!   still completes, the bad page reporting a structured
//!   [`PageError`] instead of poisoning the ticket.
//! * There is **no silent corruption**: every page a run delivers as
//!   `Done` carries exactly the bytes that were stored; everything
//!   else is reported `Failed`.
//! * Fault handling is **deterministic**: same plan + same submission
//!   order ⇒ identical remap decisions, completion sequences and
//!   clocks.

use proptest::prelude::*;

use iceclave_repro::iceclave_core::{IceClave, READ_RETRY_LIMIT};
use iceclave_repro::iceclave_experiments::{Mode, Overrides};
use iceclave_repro::iceclave_flash::FaultPlan;
use iceclave_repro::iceclave_types::{Lpn, PageErrorCause, PageStatus, SimTime, TeeId};

const BATCH: u64 = 64;

fn payload(i: u64) -> Vec<u8> {
    (0..4096u32).map(|b| (b as u8) ^ (i as u8) ^ 0xA5).collect()
}

/// A device with one TEE granted `pages` LPNs of staged functional
/// content. Fault plans are installed by the caller *after* setup, so
/// scripted ordinals count from the first post-setup operation.
fn setup(pages: u64) -> (IceClave, TeeId, Vec<Lpn>, SimTime) {
    let overrides = Overrides {
        channels: Some(8),
        ..Overrides::none()
    };
    let config = Mode::IceClave.ssd_config(&overrides);
    let mut ice = IceClave::new(config);
    let t = ice.populate(Lpn::new(0), pages, SimTime::ZERO).unwrap();
    for i in 0..pages {
        ice.host_store_data(Lpn::new(i), &payload(i), t).unwrap();
    }
    let lpns: Vec<Lpn> = (0..pages).map(Lpn::new).collect();
    let (tee, t) = ice.offload_code(1024, &lpns, t).unwrap();
    (ice, tee, lpns, t)
}

#[test]
fn empty_fault_plan_is_invisible() {
    let (mut plain, tee_a, lpns_a, t0) = setup(BATCH);
    let (mut armed, tee_b, lpns_b, t1) = setup(BATCH);
    assert_eq!(t0, t1, "identical setups share a clock");
    // The armed twin carries a full (but empty) injector stack.
    armed.install_fault_plan(FaultPlan::none());
    armed.install_mac_fault_plan(iceclave_repro::iceclave_mee::MacFaultPlan::none());

    let ta = plain.submit_batch_async(tee_a, &lpns_a, t0).unwrap();
    let tb = armed.submit_batch_async(tee_b, &lpns_b, t1).unwrap();
    assert_eq!(ta, tb);
    let events_plain = plain.drain_completions();
    let events_armed = armed.drain_completions();
    // Event-for-event identical: order, status, data, every timestamp.
    assert_eq!(events_plain, events_armed);
    assert!(plain.stats().read_retries == 0 && armed.stats().read_retries == 0);
}

#[test]
fn read_retry_ladder_recovers_a_transient_burst() {
    let (mut ice, tee, lpns, t) = setup(4);
    // Ordinal 0: the batch's first flash read fails once; the retry
    // (a fresh ordinal) succeeds.
    ice.install_fault_plan(FaultPlan {
        read_fail_ops: vec![0],
        ..FaultPlan::none()
    });
    let ticket = ice.submit_batch_async(tee, &lpns, t).unwrap();
    let done = ice.wait_batch(ticket).unwrap();
    assert_eq!(done.len(), 4);
    assert!(done.completions.iter().all(|c| c.status.is_done()));
    for (i, c) in done.completions.iter().enumerate() {
        assert_eq!(c.data.as_deref(), Some(&payload(i as u64)[..]));
    }
    assert_eq!(ice.stats().read_retries, 1, "one rung climbed");
    assert_eq!(ice.stats().uncorrectable_pages, 0);
}

#[test]
fn persistent_uncorrectable_degrades_one_page_gracefully() {
    let (mut ice, tee, mut lpns, t) = setup(4);
    // Enough consecutive scripted failures to exhaust the ladder on
    // one page: submit the victim page alone first, so ordinals 0..
    // are its first attempt plus every rung of its retry ladder.
    ice.install_fault_plan(FaultPlan {
        read_fail_ops: (0..u64::from(READ_RETRY_LIMIT)).collect(),
        ..FaultPlan::none()
    });
    let victim = vec![lpns.remove(0)];
    let ticket = ice.submit_batch_async(tee, &victim, t).unwrap();
    // The soft per-page failure must NOT fail the ticket.
    let bad = ice.wait_batch(ticket).unwrap();
    assert_eq!(bad.len(), 1);
    // The survivors stream untouched afterwards.
    let ticket = ice.submit_batch_async(tee, &lpns, bad.finished).unwrap();
    let done = ice.wait_batch(ticket).unwrap();
    assert_eq!(done.len(), 3);
    let done = iceclave_repro::iceclave_types::BatchCompletion {
        issued: bad.issued,
        finished: done.finished,
        completions: bad
            .completions
            .into_iter()
            .chain(done.completions)
            .collect(),
    };
    assert_eq!(done.len(), 4);
    let failed: Vec<_> = done
        .completions
        .iter()
        .filter_map(|c| c.status.error())
        .collect();
    assert_eq!(failed.len(), 1, "exactly one page degraded");
    assert_eq!(failed[0].cause, PageErrorCause::Uncorrectable);
    assert_eq!(failed[0].attempts, READ_RETRY_LIMIT);
    // Healthy pages still deliver verified bytes.
    let delivered = done
        .completions
        .iter()
        .filter(|c| c.status.is_done())
        .count();
    assert_eq!(delivered, 3);
    let s = ice.stats();
    assert_eq!(s.uncorrectable_pages, 1);
    assert_eq!(s.pages_failed, 1);
    assert_eq!(s.read_retries, u64::from(READ_RETRY_LIMIT) - 1);
}

#[test]
fn batch_with_one_program_failure_completes_with_a_remap() {
    let (mut ice, tee, lpns, t) = setup(BATCH);
    // One program failure in the middle of the 64-page write wave.
    ice.install_fault_plan(FaultPlan {
        program_fail_ops: vec![10],
        ..FaultPlan::none()
    });
    let ticket = ice.submit_write_batch_async(tee, &lpns, t).unwrap();
    let done = ice.wait_batch(ticket).unwrap();
    assert_eq!(done.len(), BATCH as usize);
    // The FTL re-steered the failed page; all 64 are durable.
    assert!(done.completions.iter().all(|c| c.status.is_done()));
    let ftl = ice.platform().ftl.stats();
    assert_eq!(ftl.program_remaps, 1);
    assert_eq!(ftl.blocks_retired, 1);
    assert_eq!(
        ice.platform().ftl.grown_bad_blocks().len(),
        1,
        "the failing block went into the grown-bad table"
    );
    // WFQ channel accounting stayed balanced through the re-steer: no
    // ticket or grant is left in flight, and a clean follow-up batch
    // streams every (remapped) page back.
    assert_eq!(ice.in_flight_tickets(), 0);
    let ticket = ice.submit_batch_async(tee, &lpns, done.finished).unwrap();
    let reread = ice.wait_batch(ticket).unwrap();
    assert!(reread.completions.iter().all(|c| c.status.is_done()));
    assert_eq!(ice.in_flight_tickets(), 0);
}

#[test]
fn fault_recovery_is_deterministic() {
    let run = || {
        let (mut ice, tee, lpns, t) = setup(BATCH);
        ice.install_fault_plan(FaultPlan {
            seed: 7,
            read_burst_rate: 0.05,
            max_burst: 16,
            ecc_t: 8,
            program_fail_rate: 0.02,
            ..FaultPlan::none()
        });
        let wt = ice.submit_write_batch_async(tee, &lpns, t).unwrap();
        let writes = ice.wait_batch(wt).unwrap();
        let rt = ice.submit_batch_async(tee, &lpns, writes.finished).unwrap();
        let reads = ice.wait_batch(rt).unwrap();
        let stats = ice.stats();
        (
            writes,
            reads,
            ice.platform().ftl.grown_bad_blocks(),
            stats.read_retries,
            stats.pages_failed,
        )
    };
    let a = run();
    let b = run();
    // Same plan + same submission order: identical remap decisions,
    // completion sequences, grown-bad tables and retry counts.
    assert_eq!(a, b);
}

#[test]
fn channels_are_not_leaked_after_faulty_batches() {
    let (mut ice, tee, lpns, t) = setup(BATCH);
    // Heavy read faulting: many retries, some terminal failures.
    ice.install_fault_plan(FaultPlan {
        seed: 11,
        read_burst_rate: 0.3,
        max_burst: 16,
        ecc_t: 8,
        ..FaultPlan::none()
    });
    let faulty = ice.submit_batch_async(tee, &lpns, t).unwrap();
    let faulty_done = ice.wait_batch(faulty).unwrap();
    assert_eq!(faulty_done.len(), BATCH as usize);
    assert!(ice.stats().read_retries > 0, "the plan must actually bite");

    // If the retry ladder leaked a WFQ grant, a follow-up batch would
    // starve on its channel. Disarm the injector and prove the device
    // still streams a full clean batch.
    ice.install_fault_plan(FaultPlan::none());
    let clean = ice
        .submit_batch_async(tee, &lpns, faulty_done.finished)
        .unwrap();
    let clean_done = ice.wait_batch(clean).unwrap();
    assert!(clean_done.completions.iter().all(|c| c.status.is_done()));
    assert_eq!(ice.in_flight_tickets(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// No silent corruption, at any fault rate: every page delivered
    /// `Done` carries exactly the stored bytes; every other page is
    /// reported `Failed` with a structured reason. Nothing is dropped.
    #[test]
    fn no_silent_corruption(
        seed in 0u64..1000,
        burst_permille in 0u32..200,
        program_permille in 0u32..50,
        erase_permille in 0u32..50,
    ) {
        let (mut ice, tee, lpns, t) = setup(32);
        ice.install_fault_plan(FaultPlan {
            seed,
            read_burst_rate: f64::from(burst_permille) / 1000.0,
            max_burst: 16,
            ecc_t: 8,
            program_fail_rate: f64::from(program_permille) / 1000.0,
            erase_fail_rate: f64::from(erase_permille) / 1000.0,
            ..FaultPlan::none()
        });
        let ticket = ice.submit_batch_async(tee, &lpns, t).unwrap();
        let done = ice.wait_batch(ticket).unwrap();
        prop_assert_eq!(done.len(), 32, "every page accounted for");
        for (i, c) in done.completions.iter().enumerate() {
            prop_assert_eq!(c.lpn, Lpn::new(i as u64));
            match c.status {
                PageStatus::Done => {
                    // Delivered means verified: exact stored bytes.
                    prop_assert_eq!(
                        c.data.as_deref(),
                        Some(&payload(i as u64)[..]),
                        "silent corruption on page {}", i
                    );
                }
                PageStatus::Failed { reason } => {
                    prop_assert!(c.data.is_none(), "failed page delivered data");
                    prop_assert_eq!(reason.cause, PageErrorCause::Uncorrectable);
                    prop_assert!(reason.attempts >= 1);
                }
            }
        }
        let failed = done.completions.iter().filter(|c| !c.status.is_done()).count() as u64;
        prop_assert_eq!(ice.stats().pages_failed, failed);
        prop_assert_eq!(ice.stats().uncorrectable_pages, failed);
    }
}
