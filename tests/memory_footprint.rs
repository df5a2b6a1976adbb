//! Heap footprint of a shared device. The MEE's per-page counters and
//! classes and the flash array's per-block state must cost memory in
//! proportion to the pages and blocks a run writes, not to the highest
//! DRAM page a TEE region reaches or to the device's block count.
//!
//! The binary installs a counting global allocator. Its counters are
//! process-wide and the test harness runs tests in parallel, so this
//! file holds exactly one `#[test]`.

use iceclave_repro::iceclave_core::IceClave;
use iceclave_repro::iceclave_experiments::{Mode, Overrides};
use iceclave_repro::iceclave_types::{Lpn, PageStatus, PageWrite, SimTime};
use iceclave_testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const MIB: usize = 1 << 20;
const TEES: u64 = 4;
const PAGES_PER_TEE: u64 = 80;
const READ_PAGES: usize = 64;

#[test]
fn four_tee_device_heap_stays_small() {
    let config = Mode::IceClave.ssd_config(&Overrides::none());
    ALLOC.reset_peak();
    let base = ALLOC.live_bytes();

    let mut ice = IceClave::new(config);
    let new_peak = ALLOC.peak_bytes() - base;

    let t = ice
        .populate(Lpn::new(0), TEES * PAGES_PER_TEE, SimTime::ZERO)
        .expect("population fits");
    let mut tees = Vec::new();
    for i in 0..TEES {
        let lpns: Vec<Lpn> = (i * PAGES_PER_TEE..(i + 1) * PAGES_PER_TEE)
            .map(Lpn::new)
            .collect();
        let (tee, _) = ice.offload_code(64 << 10, &lpns, t).expect("offload");
        tees.push((tee, lpns));
    }
    // Each TEE region sits 65,536 DRAM pages above the previous one, so
    // the fourth TEE's pages lie more than 200k pages up.
    for (tee, lpns) in &tees {
        ice.submit_batch_async(*tee, &lpns[..READ_PAGES], t)
            .expect("read batch");
        let writes = lpns[READ_PAGES..]
            .iter()
            .map(|&l| PageWrite::new(l))
            .collect();
        ice.submit_write_batch_async_as(*tee, writes, t)
            .expect("write batch");
    }
    let done = ice.drain_completions();
    assert_eq!(done.len(), (TEES * PAGES_PER_TEE) as usize);
    assert!(done.iter().all(|e| e.status == PageStatus::Done));
    let run_peak = ALLOC.peak_bytes() - base;

    let mib = |bytes: usize| bytes as f64 / MIB as f64;
    eprintln!(
        "heap peak: IceClave::new {:.3} MiB, four-TEE run {:.3} MiB",
        mib(new_peak),
        mib(run_peak)
    );
    assert!(
        new_peak < MIB,
        "IceClave::new peaked at {:.2} MiB of heap",
        mib(new_peak)
    );
    assert!(
        run_peak < 4 * MIB,
        "a four-TEE device peaked at {:.2} MiB of heap",
        mib(run_peak)
    );
}
