//! Batch/sequential equivalence and scaling of the protected write
//! path.
//!
//! One write ticket over a page set
//! (`IceClave::submit_write_batch_async_as`, then `IceClave::wait_batch`)
//! must be a *scheduling* change: the post-state (mapping consistency,
//! valid-page count, read-back plaintext) and the access-control
//! outcomes are identical to issuing the same programs one page at a
//! time — only the simulated time differs (and only downward).

use iceclave_repro::iceclave_core::{
    AbortReason, IceClave, IceClaveConfig, IceClaveError, TeeStatus,
};
use iceclave_repro::iceclave_flash::FlashConfig;
use iceclave_repro::iceclave_ftl::{Ftl, FtlConfig, FtlError, Requestor};
use iceclave_repro::iceclave_trustzone::WorldMonitor;
use iceclave_repro::iceclave_types::{
    Lpn, PageWrite, SimDuration, SimTime, TeeId, WriteBatchRequest,
};

const PAGES: u64 = 8;

/// A fresh runtime with `PAGES` populated pages and a TEE granted all
/// of them.
fn setup(config: IceClaveConfig) -> (IceClave, TeeId, SimTime) {
    let mut ice = IceClave::new(config);
    let t = ice.populate(Lpn::new(0), PAGES, SimTime::ZERO).unwrap();
    let lpns: Vec<Lpn> = (0..PAGES).map(Lpn::new).collect();
    let (tee, t) = ice.offload_code(1024, &lpns, t).unwrap();
    (ice, tee, t)
}

fn payload(i: u64) -> Vec<u8> {
    (0..4096u32).map(|b| (b as u8) ^ (i as u8) ^ 0xA5).collect()
}

#[test]
fn write_batch_matches_sequential_post_state_and_bytes() {
    let writes: Vec<PageWrite> = (0..PAGES)
        .map(|i| PageWrite::with_data(Lpn::new(i), payload(i)))
        .collect();

    // One batch of N page writes...
    let (mut batched, tee_b, t_b) = setup(IceClaveConfig::tiny());
    let batch = batched
        .submit_write_batch_async_as(tee_b, writes.clone(), t_b)
        .and_then(|tk| batched.wait_batch(tk))
        .unwrap();
    assert_eq!(batch.len(), PAGES as usize);

    // ...versus N sequential one-page write batches.
    let (mut sequential, tee_s, t_s) = setup(IceClaveConfig::tiny());
    let mut t = t_s;
    for write in &writes {
        let one = sequential
            .submit_write_batch_async_as(tee_s, vec![write.clone()], t)
            .and_then(|tk| sequential.wait_batch(tk))
            .unwrap();
        t = one.finished;
    }

    // Identical post-state: same valid-page count, identical runtime
    // counters, and byte-identical read-back through the protected
    // read path on both sides.
    assert_eq!(
        batched.platform().ftl.valid_pages(),
        sequential.platform().ftl.valid_pages()
    );
    assert_eq!(batched.stats(), sequential.stats());
    assert_eq!(batched.stats().pages_stored, PAGES);
    let lpns: Vec<Lpn> = (0..PAGES).map(Lpn::new).collect();
    let read_b = batched
        .submit_batch_async(tee_b, &lpns, batch.finished)
        .and_then(|tk| batched.wait_batch(tk))
        .unwrap();
    let read_s = sequential
        .submit_batch_async(tee_s, &lpns, t)
        .and_then(|tk| sequential.wait_batch(tk))
        .unwrap();
    for (i, (b, s)) in read_b
        .completions
        .iter()
        .zip(&read_s.completions)
        .enumerate()
    {
        assert_eq!(b.lpn, s.lpn);
        assert_eq!(b.data, s.data, "plaintext must be byte-identical");
        assert_eq!(b.data.as_deref(), Some(&payload(i as u64)[..]));
    }

    // Scheduling may only help: the batch cannot be slower than the
    // chained sequential writes.
    let batch_latency = batch.finished.saturating_since(t_b);
    let seq_latency = t.saturating_since(t_s);
    assert!(
        batch_latency <= seq_latency,
        "batch {batch_latency} slower than sequential {seq_latency}"
    );
}

#[test]
fn write_batch_with_foreign_page_throws_the_tee_out() {
    // The TEE owns pages 0..PAGES; page `PAGES` exists but belongs to
    // nobody — a write batch touching it must abort the whole TEE
    // before any allocation or flash program.
    let mut ice = IceClave::new(IceClaveConfig::tiny());
    let t = ice.populate(Lpn::new(0), PAGES + 1, SimTime::ZERO).unwrap();
    let lpns: Vec<Lpn> = (0..PAGES).map(Lpn::new).collect();
    let (tee, t) = ice.offload_code(1024, &lpns, t).unwrap();

    let programs_before = ice.platform().ftl.flash().stats().programs;
    let mut probe = lpns.clone();
    probe.push(Lpn::new(PAGES)); // out of the granted region
    let err = ice.submit_write_batch_async(tee, &probe, t).unwrap_err();
    assert!(matches!(
        err,
        IceClaveError::Ftl(FtlError::AccessDenied { lpn, .. }) if lpn == Lpn::new(PAGES)
    ));
    assert_eq!(
        ice.status(tee),
        Some(TeeStatus::Aborted(AbortReason::AccessViolation))
    );
    assert_eq!(ice.stats().aborted, 1);
    // The atomic denial programmed nothing and stored nothing.
    assert_eq!(ice.platform().ftl.flash().stats().programs, programs_before);
    assert_eq!(ice.stats().pages_stored, 0);
    // A dead TEE cannot submit again.
    assert!(matches!(
        ice.submit_write_batch_async(tee, &lpns, t),
        Err(IceClaveError::NotRunning(_))
    ));
}

#[test]
fn write_batch_on_16_channels_halves_sequential_time() {
    // Acceptance criterion: a 64-page write batch on 16 channels
    // completes in under half the simulated time of 64 sequential
    // `Ftl::write` calls.
    let pages = 64u64;
    let lpns: Vec<Lpn> = (0..pages).map(Lpn::new).collect();
    let mut flash_config = FlashConfig::table3();
    flash_config.geometry = flash_config.geometry.with_channels(16);

    let mut batched = Ftl::new(flash_config, FtlConfig::default());
    let mut mb = WorldMonitor::with_table5_cost();
    let out = batched
        .write_batch(
            Requestor::Host,
            &WriteBatchRequest::from_lpns(&lpns),
            &mut mb,
            SimTime::ZERO,
        )
        .unwrap();
    let batch_latency = out.finished.saturating_since(SimTime::ZERO);

    let mut sequential = Ftl::new(flash_config, FtlConfig::default());
    let mut ms = WorldMonitor::with_table5_cost();
    let mut chained = SimTime::ZERO;
    for &lpn in &lpns {
        chained = sequential
            .write(Requestor::Host, lpn, &mut ms, chained)
            .unwrap();
    }
    let seq_latency = chained.saturating_since(SimTime::ZERO);

    assert!(
        batch_latency < seq_latency / 2,
        "batch {batch_latency} must be under half of sequential {seq_latency}"
    );
    // Same post-state despite the different schedule.
    assert_eq!(batched.valid_pages(), sequential.valid_pages());
    assert_eq!(batched.stats().writes, sequential.stats().writes);
}

#[test]
fn write_channel_sweep_strictly_reduces_batch_latency() {
    // Acceptance criterion: a 64-page write batch gets strictly faster
    // as the device grows 2 -> 4 -> 8 -> 16 channels, through the full
    // runtime pipeline (seal + encrypt + program).
    let pages = 64u64;
    let lpns: Vec<Lpn> = (0..pages).map(Lpn::new).collect();
    let mut latencies: Vec<(u32, SimDuration)> = Vec::new();
    for channels in [2u32, 4, 8, 16] {
        let mut config = IceClaveConfig::table3();
        config.platform.flash.geometry = config.platform.flash.geometry.with_channels(channels);
        let mut ice = IceClave::new(config);
        let t = ice.populate(Lpn::new(0), pages, SimTime::ZERO).unwrap();
        let (tee, t) = ice.offload_code(64 << 10, &lpns, t).unwrap();
        let done = ice
            .submit_write_batch_async(tee, &lpns, t)
            .and_then(|tk| ice.wait_batch(tk))
            .unwrap();
        latencies.push((channels, done.latency()));
    }
    for pair in latencies.windows(2) {
        let ((c_few, slow), (c_many, fast)) = (pair[0], pair[1]);
        assert!(
            fast < slow,
            "{c_many} channels ({fast}) must beat {c_few} channels ({slow})"
        );
    }
}

#[test]
fn cmt_shutdown_flush_scales_with_channels() {
    // Dirty translation pages flush as one channel-steered batch:
    // shutdown latency must decrease from 2 to 16 channels.
    let mut latencies: Vec<(u32, SimDuration)> = Vec::new();
    for channels in [2u32, 4, 8, 16] {
        let mut flash_config = FlashConfig::table3();
        flash_config.geometry = flash_config.geometry.with_channels(channels);
        let mut ftl = Ftl::new(flash_config, FtlConfig::default());
        let mut m = WorldMonitor::with_table5_cost();
        let mut t = SimTime::ZERO;
        // Dirty 48 distinct translation pages (512 entries apart).
        for i in 0..48u64 {
            t = ftl
                .write(Requestor::Host, Lpn::new(i * 512), &mut m, t)
                .unwrap();
        }
        let done = ftl.flush_cmt(t).unwrap();
        latencies.push((channels, done.saturating_since(t)));
    }
    for pair in latencies.windows(2) {
        let ((c_few, slow), (c_many, fast)) = (pair[0], pair[1]);
        assert!(
            fast < slow,
            "shutdown at {c_many} channels ({fast}) must beat {c_few} channels ({slow})"
        );
    }
}

#[test]
fn tee_cannot_trim_foreign_pages() {
    // Regression for the TRIM ownership hole: a TEE trimming another
    // TEE's page is denied at the FTL, just like a write.
    let mut ftl = Ftl::new(FlashConfig::tiny(), FtlConfig::default());
    let mut m = WorldMonitor::with_table5_cost();
    let mut t = SimTime::ZERO;
    for i in 0..2u64 {
        t = ftl.write(Requestor::Host, Lpn::new(i), &mut m, t).unwrap();
    }
    let alice = TeeId::new(1).unwrap();
    let mallory = TeeId::new(2).unwrap();
    ftl.set_id_bits(&[Lpn::new(0)], alice).unwrap();
    let err = ftl
        .trim(Requestor::Tee(mallory), Lpn::new(0), t)
        .unwrap_err();
    assert!(matches!(err, FtlError::AccessDenied { lpn, .. } if lpn == Lpn::new(0)));
    // Alice's page survived and is still hers.
    let tr = ftl
        .translate(Requestor::Tee(alice), Lpn::new(0), &mut m, t)
        .unwrap();
    assert!(ftl.flash_mut().read_page(tr.ppn, tr.ready_at).is_ok());
    // The owner (and the host) may still trim.
    assert!(ftl
        .trim(Requestor::Tee(alice), Lpn::new(0), t)
        .unwrap()
        .is_some());
    assert!(ftl.trim(Requestor::Host, Lpn::new(1), t).unwrap().is_some());
    assert_eq!(ftl.valid_pages(), 0);
}
