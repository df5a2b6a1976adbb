//! Batch/sequential equivalence of the protected data path.
//!
//! One read ticket over a page set (`IceClave::submit_batch_async`,
//! then `IceClave::wait_batch`) must be a *pure scheduling* change: the
//! bytes delivered, the access-control outcomes and the runtime
//! counters are identical to issuing the same pages one ticket at a
//! time — only the simulated time differs (and only downward).

use iceclave_repro::iceclave_core::{
    AbortReason, IceClave, IceClaveConfig, IceClaveError, TeeStatus,
};
use iceclave_repro::iceclave_ftl::FtlError;
use iceclave_repro::iceclave_types::{Lpn, SimDuration, SimTime, TeeId};

const PAGES: u64 = 8;

/// A fresh runtime with `PAGES` populated pages of distinct plaintext
/// and a TEE granted all of them.
fn setup(config: IceClaveConfig) -> (IceClave, TeeId, SimTime) {
    let mut ice = IceClave::new(config);
    let t = ice.populate(Lpn::new(0), PAGES, SimTime::ZERO).unwrap();
    for i in 0..PAGES {
        let plaintext: Vec<u8> = (0..4096u32).map(|b| (b as u8) ^ (i as u8)).collect();
        ice.host_store_data(Lpn::new(i), &plaintext, t).unwrap();
    }
    let lpns: Vec<Lpn> = (0..PAGES).map(Lpn::new).collect();
    let (tee, t) = ice.offload_code(1024, &lpns, t).unwrap();
    (ice, tee, t)
}

#[test]
fn batch_matches_sequential_bytes_and_stats() {
    let lpns: Vec<Lpn> = (0..PAGES).map(Lpn::new).collect();

    // One batch of N pages...
    let (mut batched, tee_b, t_b) = setup(IceClaveConfig::tiny());
    let batch = batched
        .submit_batch_async(tee_b, &lpns, t_b)
        .and_then(|tk| batched.wait_batch(tk))
        .unwrap();
    assert_eq!(batch.len(), PAGES as usize);

    // ...versus N sequential one-page tickets, each waited before the
    // next is submitted.
    let (mut sequential, tee_s, t_s) = setup(IceClaveConfig::tiny());
    let mut seq_completions = Vec::new();
    let mut t = t_s;
    for &lpn in &lpns {
        let one = sequential
            .submit_batch_async(tee_s, &[lpn], t)
            .and_then(|tk| sequential.wait_batch(tk))
            .unwrap();
        t = one.finished;
        seq_completions.extend(one.completions);
    }

    for (b, s) in batch.completions.iter().zip(&seq_completions) {
        assert_eq!(b.lpn, s.lpn);
        assert!(b.data.is_some(), "functional content must flow");
        assert_eq!(b.data, s.data, "plaintext must be byte-identical");
        // And it must actually be the staged plaintext, not ciphertext.
        let i = b.lpn.raw();
        let expected: Vec<u8> = (0..4096u32).map(|v| (v as u8) ^ (i as u8)).collect();
        assert_eq!(b.data.as_deref(), Some(&expected[..]));
    }

    // Identical runtime counters: same pages loaded, same
    // access-control outcomes, nothing aborted on either path.
    assert_eq!(batched.stats(), sequential.stats());
    assert_eq!(batched.stats().pages_loaded, PAGES);
    assert_eq!(batched.stats().aborted, 0);

    // Scheduling may only help: the batch cannot be slower than the
    // chained sequential reads.
    let batch_latency = batch.finished.saturating_since(t_b);
    let seq_latency = t.saturating_since(t_s);
    assert!(
        batch_latency <= seq_latency,
        "batch {batch_latency} slower than sequential {seq_latency}"
    );
}

#[test]
fn batch_with_foreign_page_throws_the_tee_out() {
    // The TEE owns pages 0..PAGES; page `PAGES` exists but belongs to
    // nobody — a batch touching it must abort the whole TEE before any
    // flash traffic.
    let mut ice = IceClave::new(IceClaveConfig::tiny());
    let t = ice.populate(Lpn::new(0), PAGES + 1, SimTime::ZERO).unwrap();
    let lpns: Vec<Lpn> = (0..PAGES).map(Lpn::new).collect();
    let (tee, t) = ice.offload_code(1024, &lpns, t).unwrap();

    let mut probe = lpns.clone();
    probe.push(Lpn::new(PAGES)); // out of the granted region
    let flash_reads_before = ice.platform().ftl.flash().stats().reads;
    let err = ice.submit_batch_async(tee, &probe, t).unwrap_err();
    assert!(matches!(
        err,
        IceClaveError::Ftl(FtlError::AccessDenied { lpn, .. }) if lpn == Lpn::new(PAGES)
    ));
    assert_eq!(
        ice.status(tee),
        Some(TeeStatus::Aborted(AbortReason::AccessViolation))
    );
    assert_eq!(ice.stats().aborted, 1);
    // The atomic denial loaded nothing and read no flash page.
    assert_eq!(ice.stats().pages_loaded, 0);
    assert_eq!(ice.platform().ftl.flash().stats().reads, flash_reads_before);
    // A dead TEE cannot submit again.
    assert!(matches!(
        ice.submit_batch_async(tee, &lpns, t),
        Err(IceClaveError::NotRunning(_))
    ));
}

#[test]
fn channel_sweep_strictly_reduces_batch_latency() {
    // Acceptance criterion: a 64-page batch gets strictly faster as
    // the device grows 2 -> 4 -> 8 -> 16 channels.
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
            .submit_batch_async(tee, &lpns, t)
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
