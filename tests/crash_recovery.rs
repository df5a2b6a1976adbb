//! Power-loss crash consistency, end to end.
//!
//! These tests drive the whole stack — metadata journal, power-loss
//! injector, replay-safe reboot — and pin the crash-consistency
//! contract:
//!
//! * An **empty power-loss plan is invisible**: arming the injector
//!   with no cut changes no event of a run, bit for bit.
//! * **Acked ⇒ durable**: any write ticket whose `wait_batch`
//!   returned `Ok` is readable byte-exact after a crash at *any*
//!   later event and a reboot through `IceClave::recover`.
//! * **Unacked writes are atomic**: a batch interrupted by the cut is
//!   either fully visible or fully absent after recovery — never a
//!   mix of old and new pages.
//! * **Counters never roll back**: recovery restores the MEE counter
//!   epoch to the highest sealed value, and a forged stale seal is
//!   rejected with an integrity error.
//! * **Torn journal tails are discarded exactly**: damage to the last
//!   journal page (bit flips or truncation at arbitrary byte offsets)
//!   costs only the torn suffix; every earlier record still replays.
//! * **Grown-bad retirements are durable**: a block retired before
//!   the crash is still retired after recovery and never hosts
//!   another program.

use std::collections::HashMap;

use proptest::prelude::*;

use iceclave_repro::iceclave_core::{
    IceClave, IceClaveConfig, IceClaveError, JournalRecord, PowerLossPlan,
};
use iceclave_repro::iceclave_flash::FaultPlan;
use iceclave_repro::iceclave_types::{Lpn, PageWrite, SimTime, TeeId};

/// Logical pages staged in the two-tenant harness (each tenant owns
/// [`SPAN`] of them).
const PAGES: u64 = 12;
const SPAN: u64 = 6;

/// Versioned page content: distinct per page and per rewrite, so a
/// byte-exact read identifies exactly which write survived.
fn payload(lpn: u64, version: u64) -> Vec<u8> {
    (0..4096u32)
        .map(|b| (b as u8) ^ (lpn as u8) ^ (version as u8).wrapping_mul(31) ^ 0xA5)
        .collect()
}

fn journaled_config() -> IceClaveConfig {
    let mut cfg = IceClaveConfig::tiny();
    cfg.platform.ftl.journal_blocks = 6;
    cfg
}

/// A journaled device with two tenants: TEE A owns LPNs `0..SPAN`,
/// TEE B owns `SPAN..PAGES`, every page staged with version-0 bytes.
fn setup_two_tenants() -> (IceClave, [TeeId; 2], SimTime) {
    let mut ice = IceClave::new(journaled_config());
    let t = ice.populate(Lpn::new(0), PAGES, SimTime::ZERO).unwrap();
    for i in 0..PAGES {
        ice.host_store_data(Lpn::new(i), &payload(i, 0), t).unwrap();
    }
    let lpns_a: Vec<Lpn> = (0..SPAN).map(Lpn::new).collect();
    let lpns_b: Vec<Lpn> = (SPAN..PAGES).map(Lpn::new).collect();
    let (tee_a, t) = ice.offload_code(1024, &lpns_a, t).unwrap();
    let (tee_b, t) = ice.offload_code(1024, &lpns_b, t).unwrap();
    (ice, [tee_a, tee_b], t)
}

/// A journaled device with one tenant over 8 staged pages.
fn setup_one_tenant() -> (IceClave, TeeId, SimTime) {
    let mut ice = IceClave::new(journaled_config());
    let t = ice.populate(Lpn::new(0), 8, SimTime::ZERO).unwrap();
    for i in 0..8 {
        ice.host_store_data(Lpn::new(i), &payload(i, 0), t).unwrap();
    }
    let lpns: Vec<Lpn> = (0..8).map(Lpn::new).collect();
    let (tee, t) = ice.offload_code(1024, &lpns, t).unwrap();
    (ice, tee, t)
}

/// One step of an interleaved two-tenant schedule.
#[derive(Clone, Debug)]
struct Op {
    tenant: usize,
    write: bool,
    start: u64,
    len: u64,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..2, any::<bool>(), 0u64..SPAN, 1u64..3).prop_map(|(tenant, write, start, len)| Op {
        tenant,
        write,
        start,
        len,
    })
}

/// What a schedule run left behind.
struct RunOutcome {
    /// Last acknowledged bytes per LPN (acked ⇒ must survive).
    committed: HashMap<u64, Vec<u8>>,
    /// The write batch the cut interrupted, if any: its pages may
    /// surface old or new after recovery, but atomically.
    pending: Option<HashMap<u64, Vec<u8>>>,
    /// Write batches acknowledged before the cut.
    acked: u64,
    t: SimTime,
    crashed: bool,
}

/// Runs `ops` (each ticket submitted, then waited) until completion or
/// the first [`IceClaveError::PowerLost`]. Reads double as an oracle
/// check: pre-crash reads must observe exactly the committed bytes.
fn run_schedule(ice: &mut IceClave, tees: [TeeId; 2], ops: &[Op], mut t: SimTime) -> RunOutcome {
    let mut committed: HashMap<u64, Vec<u8>> = (0..PAGES).map(|l| (l, payload(l, 0))).collect();
    let mut acked = 0u64;
    let mut version = 1u64;
    for op in ops {
        let base = op.tenant as u64 * SPAN;
        let end = (op.start + op.len).min(SPAN);
        let lpns: Vec<u64> = (op.start..end).map(|l| base + l).collect();
        if op.write {
            let ver = version;
            version += 1;
            let writes: Vec<PageWrite> = lpns
                .iter()
                .map(|&l| PageWrite::with_data(Lpn::new(l), payload(l, ver)))
                .collect();
            match ice
                .submit_write_batch_async_as(tees[op.tenant], writes, t)
                .and_then(|tk| ice.wait_batch(tk))
            {
                Ok(done) => {
                    assert!(done.completions.iter().all(|c| c.status.is_done()));
                    t = done.finished;
                    acked += 1;
                    for &l in &lpns {
                        committed.insert(l, payload(l, ver));
                    }
                }
                Err(IceClaveError::PowerLost) => {
                    let pending = lpns.iter().map(|&l| (l, payload(l, ver))).collect();
                    return RunOutcome {
                        committed,
                        pending: Some(pending),
                        acked,
                        t,
                        crashed: true,
                    };
                }
                Err(e) => panic!("unexpected write error: {e}"),
            }
        } else {
            let batch: Vec<Lpn> = lpns.iter().map(|&l| Lpn::new(l)).collect();
            match ice
                .submit_batch_async(tees[op.tenant], &batch, t)
                .and_then(|tk| ice.wait_batch(tk))
            {
                Ok(done) => {
                    for c in &done.completions {
                        assert_eq!(
                            c.data.as_deref(),
                            Some(&committed[&c.lpn.raw()][..]),
                            "read-your-writes violated before the crash"
                        );
                    }
                    t = done.finished;
                }
                Err(IceClaveError::PowerLost) => {
                    return RunOutcome {
                        committed,
                        pending: None,
                        acked,
                        t,
                        crashed: true,
                    };
                }
                Err(e) => panic!("unexpected read error: {e}"),
            }
        }
    }
    RunOutcome {
        committed,
        pending: None,
        acked,
        t,
        crashed: false,
    }
}

#[test]
fn empty_power_loss_plan_is_invisible() {
    let (mut plain, tee_a, t0) = setup_one_tenant();
    let (mut armed, tee_b, t1) = setup_one_tenant();
    assert_eq!(t0, t1, "identical setups share a clock");
    assert_eq!(plain.events_processed(), None, "no injector installed");
    armed.install_power_loss_plan(PowerLossPlan::none());

    let lpns: Vec<Lpn> = (0..8).map(Lpn::new).collect();
    let ra = plain.submit_batch_async(tee_a, &lpns, t0).unwrap();
    let rb = armed.submit_batch_async(tee_b, &lpns, t1).unwrap();
    assert_eq!(ra, rb);
    let wa = plain.submit_write_batch_async(tee_a, &lpns, t0).unwrap();
    let wb = armed.submit_write_batch_async(tee_b, &lpns, t1).unwrap();
    assert_eq!(wa, wb);

    // Event-for-event identical: order, status, data, every timestamp.
    let events_plain = plain.drain_completions();
    let events_armed = armed.drain_completions();
    assert_eq!(events_plain, events_armed);
    assert!(!armed.power_lost());
    assert!(armed.events_processed().unwrap() > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The any-point crash harness: an arbitrary interleaved
    /// two-tenant schedule, a cut at an arbitrary executor event,
    /// reboot, and a full audit of what survived.
    #[test]
    fn any_point_crash_preserves_every_acked_write(
        ops in proptest::collection::vec(op_strategy(), 1..10),
        frac in 0u64..256,
    ) {
        // A dry run with an armed-but-empty plan measures this
        // schedule's event horizon without perturbing it.
        let (mut dry, tees, t0) = setup_two_tenants();
        dry.install_power_loss_plan(PowerLossPlan::none());
        let full = run_schedule(&mut dry, tees, &ops, t0);
        prop_assert!(!full.crashed);
        let events = dry.events_processed().unwrap();
        prop_assert!(events > 0);
        let cut = frac * events / 256;

        // The same schedule with the power cut before event `cut`.
        let (mut ice, tees, t0) = setup_two_tenants();
        ice.install_power_loss_plan(PowerLossPlan::at_event(cut));
        let run = run_schedule(&mut ice, tees, &ops, t0);
        prop_assert!(run.crashed, "cut {} of {} events must land", cut, events);
        prop_assert!(ice.power_lost());

        let stats = ice.recover(run.t).unwrap();
        prop_assert!(!stats.clean_boot);
        prop_assert!(stats.records_replayed > 0);
        // Journal syncs are single executor events, so a between-event
        // cut never tears a record.
        prop_assert_eq!(stats.torn_records, 0);
        // The restored counter epoch covers every sealed batch.
        prop_assert!(ice.counter_epoch() >= run.acked);

        // Reboot: a fresh enclave audits every page.
        let t = run.t + stats.recovery_time;
        let all: Vec<Lpn> = (0..PAGES).map(Lpn::new).collect();
        let (tee, t) = ice.offload_code(1024, &all, t).unwrap();
        let done = ice.submit_batch_async(tee, &all, t).and_then(|tk| ice.wait_batch(tk)).unwrap();
        prop_assert_eq!(done.len(), PAGES as usize);
        let mut new_seen = 0usize;
        let mut old_seen = 0usize;
        for c in &done.completions {
            prop_assert!(c.status.is_done());
            let l = c.lpn.raw();
            let bytes = c.data.as_deref().unwrap();
            let old = &run.committed[&l];
            match &run.pending {
                Some(p) if p.contains_key(&l) => {
                    if bytes == &p[&l][..] {
                        new_seen += 1;
                    } else {
                        prop_assert_eq!(bytes, &old[..], "interrupted page at lpn {} is neither old nor new", l);
                        old_seen += 1;
                    }
                }
                _ => prop_assert_eq!(bytes, &old[..], "acked write lost at lpn {}", l),
            }
        }
        if let Some(p) = &run.pending {
            // The interrupted batch is atomic: fully there or fully
            // absent, never a mix.
            prop_assert!(new_seen == 0 || old_seen == 0, "interrupted batch applied partially");
            prop_assert_eq!(new_seen + old_seen, p.len());
        }
    }

    /// Bit flips and truncations anywhere in the last journal page
    /// cost only the torn suffix; every earlier record still replays
    /// and its pages read back byte-exact.
    #[test]
    fn torn_journal_tail_discards_only_the_suffix(
        off in 0usize..4096,
        truncate in any::<bool>(),
    ) {
        let (mut ice, tee, t) = setup_one_tenant();
        let (r1, p1) = {
            let j = ice.platform().ftl.journal().unwrap();
            (j.records_synced(), j.pages_written())
        };
        // One acked rewrite of half the pages: its records are the
        // journal's last page.
        let writes: Vec<PageWrite> = (0..4)
            .map(|l| PageWrite::with_data(Lpn::new(l), payload(l, 1)))
            .collect();
        let done = ice
            .submit_write_batch_async_as(tee, writes, t)
            .and_then(|tk| ice.wait_batch(tk))
            .unwrap();
        let t = done.finished;
        let (r2, p2) = {
            let j = ice.platform().ftl.journal().unwrap();
            (j.records_synced(), j.pages_written())
        };
        prop_assert!(r2 > r1);
        prop_assert_eq!(p2, p1 + 1, "the batch's records fit one journal page");

        // Locate the last written journal page and damage it.
        let g = ice.platform().ftl.flash().config().geometry;
        let blocks = ice.platform().ftl.journal().unwrap().blocks().to_vec();
        let mut last = None;
        for &b in &blocks {
            let f = ice.platform().ftl.flash().frontier(b);
            if f > 0 {
                last = Some((b, f - 1));
            }
        }
        let (block, page) = last.unwrap();
        let ppn = g.pack(block.page(page));
        let mut img = ice.platform().ftl.flash().read_data(ppn).unwrap().to_vec();
        if truncate {
            for byte in &mut img[off..] {
                *byte = 0;
            }
        } else {
            img[off] ^= 0xFF;
        }
        ice.platform_mut().ftl.flash_mut().write_data(ppn, &img);

        let stats = ice.recover(t).unwrap();
        prop_assert!(stats.records_replayed >= r1, "earlier journal pages must replay untouched");
        prop_assert!(stats.records_replayed <= r2);
        if stats.records_replayed < r2 && !truncate {
            prop_assert!(stats.torn_records >= 1);
        }

        // Pages the damaged records never covered read back exactly.
        let t = t + stats.recovery_time;
        let survivors: Vec<Lpn> = (4..8).map(Lpn::new).collect();
        let (tee, t) = ice.offload_code(1024, &survivors, t).unwrap();
        let done = ice
            .submit_batch_async(tee, &survivors, t)
            .and_then(|tk| ice.wait_batch(tk))
            .unwrap();
        for c in &done.completions {
            prop_assert!(c.status.is_done());
            prop_assert_eq!(c.data.as_deref(), Some(&payload(c.lpn.raw(), 0)[..]));
        }
        // The endpoints pin exact semantics: a fully-surviving page
        // replays the new bytes, a fully-torn tail the old.
        if stats.records_replayed == r2 || stats.records_replayed == r1 {
            let ver = u64::from(stats.records_replayed == r2);
            let rewritten: Vec<Lpn> = (0..4).map(Lpn::new).collect();
            let (tee, t) = ice.offload_code(1024, &rewritten, t).unwrap();
            let done = ice
                .submit_batch_async(tee, &rewritten, t)
                .and_then(|tk| ice.wait_batch(tk))
                .unwrap();
            for c in &done.completions {
                prop_assert_eq!(c.data.as_deref(), Some(&payload(c.lpn.raw(), ver)[..]));
            }
        }
    }
}

#[test]
fn crash_mid_write_bricks_the_device_until_recover() {
    let (mut ice, tee, t) = setup_one_tenant();
    // Cut before the very first executor event: the write batch is
    // submitted but nothing of it ever runs.
    ice.install_power_loss_plan(PowerLossPlan::at_event(0));
    let writes: Vec<PageWrite> = (0..4)
        .map(|l| PageWrite::with_data(Lpn::new(l), payload(l, 1)))
        .collect();
    let err = ice
        .submit_write_batch_async_as(tee, writes, t)
        .and_then(|tk| ice.wait_batch(tk))
        .unwrap_err();
    assert!(matches!(err, IceClaveError::PowerLost));
    assert!(ice.power_lost());

    // Every device entry point refuses until the reboot; the volatile
    // completion queue is gone.
    assert!(matches!(
        ice.host_store_data(Lpn::new(0), &payload(0, 9), t),
        Err(IceClaveError::PowerLost)
    ));
    assert!(matches!(
        ice.submit_batch_async(tee, &[Lpn::new(0)], t)
            .and_then(|tk| ice.wait_batch(tk)),
        Err(IceClaveError::PowerLost)
    ));
    assert!(matches!(ice.shutdown(t), Err(IceClaveError::PowerLost)));
    assert!(ice.poll_completions(t).is_empty());
    assert!(ice.drain_completions().is_empty());

    let stats = ice.recover(t).unwrap();
    assert!(!stats.clean_boot);
    assert_eq!(
        stats.pages_lost, 4,
        "the in-flight batch is the loss report"
    );
    assert!(stats.records_replayed > 0);
    assert!(stats.recovery_time > iceclave_repro::iceclave_types::SimDuration::ZERO);

    // The reboot restores service: all version-0 bytes intact.
    let t = t + stats.recovery_time;
    let all: Vec<Lpn> = (0..8).map(Lpn::new).collect();
    let (tee, t) = ice.offload_code(1024, &all, t).unwrap();
    let done = ice
        .submit_batch_async(tee, &all, t)
        .and_then(|tk| ice.wait_batch(tk))
        .unwrap();
    for c in &done.completions {
        assert_eq!(c.data.as_deref(), Some(&payload(c.lpn.raw(), 0)[..]));
    }
}

#[test]
fn clean_shutdown_boots_on_the_fast_path() {
    let (mut ice, tee, t) = setup_one_tenant();
    let writes: Vec<PageWrite> = (0..4)
        .map(|l| PageWrite::with_data(Lpn::new(l), payload(l, 1)))
        .collect();
    let done = ice
        .submit_write_batch_async_as(tee, writes, t)
        .and_then(|tk| ice.wait_batch(tk))
        .unwrap();
    let epoch = ice.counter_epoch();
    assert!(epoch >= 1);

    let t = ice.shutdown(done.finished).unwrap();
    let stats = ice.recover(t).unwrap();
    assert!(stats.clean_boot, "the shutdown seal marks the boot clean");
    assert_eq!(stats.pages_lost, 0);
    assert_eq!(stats.torn_records, 0);
    assert_eq!(
        ice.counter_epoch(),
        epoch,
        "the sealed epoch is restored exactly"
    );

    let t = t + stats.recovery_time;
    let all: Vec<Lpn> = (0..8).map(Lpn::new).collect();
    let (tee, t) = ice.offload_code(1024, &all, t).unwrap();
    let done = ice
        .submit_batch_async(tee, &all, t)
        .and_then(|tk| ice.wait_batch(tk))
        .unwrap();
    for c in &done.completions {
        let ver = u64::from(c.lpn.raw() < 4);
        assert_eq!(c.data.as_deref(), Some(&payload(c.lpn.raw(), ver)[..]));
    }
}

#[test]
fn recover_without_a_journal_region_is_refused() {
    // The default tiny device reserves no journal blocks: nothing was
    // ever durable, so a reboot cannot pretend to recover.
    let mut ice = IceClave::new(IceClaveConfig::tiny());
    assert!(!ice.platform().ftl.journal_enabled());
    assert!(matches!(
        ice.recover(SimTime::ZERO),
        Err(IceClaveError::NoJournal)
    ));
}

#[test]
fn counter_rollback_is_rejected_at_recovery() {
    let (mut ice, tee, t) = setup_one_tenant();
    let writes: Vec<PageWrite> = (0..4)
        .map(|l| PageWrite::with_data(Lpn::new(l), payload(l, 1)))
        .collect();
    let done = ice
        .submit_write_batch_async_as(tee, writes, t)
        .and_then(|tk| ice.wait_batch(tk))
        .unwrap();
    assert!(ice.counter_epoch() >= 1);

    // A rollback attack: a stale epoch seal forged onto the journal
    // tail, pretending the counters never advanced.
    ice.platform_mut()
        .ftl
        .journal_append(JournalRecord::EpochSeal { epoch: 0 });
    ice.platform_mut().ftl.journal_sync(done.finished).unwrap();
    let err = ice.recover(done.finished).unwrap_err();
    assert!(matches!(err, IceClaveError::Integrity { .. }));
}

#[test]
fn retired_blocks_survive_recovery_and_never_reallocate() {
    let (mut ice, tee, t) = setup_one_tenant();
    // The batch's first data program fails: the FTL re-steers the
    // page and retires the block, journaling the retirement.
    ice.install_fault_plan(FaultPlan {
        program_fail_ops: vec![0],
        ..FaultPlan::none()
    });
    let writes: Vec<PageWrite> = (0..8)
        .map(|l| PageWrite::with_data(Lpn::new(l), payload(l, 1)))
        .collect();
    let done = ice
        .submit_write_batch_async_as(tee, writes, t)
        .and_then(|tk| ice.wait_batch(tk))
        .unwrap();
    assert!(done.completions.iter().all(|c| c.status.is_done()));
    let t = done.finished;
    let retired = ice.platform().ftl.grown_bad_blocks();
    assert_eq!(retired.len(), 1);
    let flat = retired[0];
    let g = ice.platform().ftl.flash().config().geometry;
    let addr = g.block_from_index(flat);

    let stats = ice.recover(t).unwrap();
    assert!(!stats.clean_boot);
    assert_eq!(
        ice.platform().ftl.grown_bad_blocks(),
        vec![flat],
        "the retirement survived the reboot"
    );
    let frontier0 = ice.platform().ftl.flash().frontier(addr);

    // Hammer the rebuilt allocator: wave after wave of rewrites (with
    // the GC churn they trigger) must keep skipping the bad block.
    let t = t + stats.recovery_time;
    let all: Vec<Lpn> = (0..8).map(Lpn::new).collect();
    let (tee, mut t) = ice.offload_code(1024, &all, t).unwrap();
    for round in 2..8u64 {
        let writes: Vec<PageWrite> = (0..8)
            .map(|l| PageWrite::with_data(Lpn::new(l), payload(l, round)))
            .collect();
        let done = ice
            .submit_write_batch_async_as(tee, writes, t)
            .and_then(|tk| ice.wait_batch(tk))
            .unwrap();
        assert!(done.completions.iter().all(|c| c.status.is_done()));
        t = done.finished;
    }
    assert_eq!(
        ice.platform().ftl.flash().frontier(addr),
        frontier0,
        "no program ever landed in the retired block"
    );
    assert_eq!(ice.platform().ftl.grown_bad_blocks(), vec![flat]);
    // The churned data still reads back byte-exact.
    let done = ice
        .submit_batch_async(tee, &all, t)
        .and_then(|tk| ice.wait_batch(tk))
        .unwrap();
    for c in &done.completions {
        assert_eq!(c.data.as_deref(), Some(&payload(c.lpn.raw(), 7)[..]));
    }
}

#[test]
fn seeded_power_plans_are_deterministic() {
    let run = |seed: u64| {
        let (mut ice, tee, mut t) = setup_one_tenant();
        ice.install_power_loss_plan(PowerLossPlan::seeded(seed, 64));
        let mut crashed = false;
        for round in 1..6u64 {
            let writes: Vec<PageWrite> = (0..8)
                .map(|l| PageWrite::with_data(Lpn::new(l), payload(l, round)))
                .collect();
            match ice
                .submit_write_batch_async_as(tee, writes, t)
                .and_then(|tk| ice.wait_batch(tk))
            {
                Ok(done) => t = done.finished,
                Err(IceClaveError::PowerLost) => {
                    crashed = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let events = ice.events_processed();
        let stats = if crashed {
            Some(ice.recover(t).unwrap())
        } else {
            None
        };
        (crashed, events, stats)
    };
    assert_eq!(run(7), run(7), "same seed, same cut, same recovery");
    assert_eq!(run(1234), run(1234));
}
