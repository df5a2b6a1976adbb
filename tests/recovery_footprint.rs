//! Heap footprint of crash recovery. `IceClave::recover` discards every
//! volatile table and rebuilds it from the metadata journal. The
//! rebuild must neither hold the pre-crash tables beside the new ones
//! nor collect the journal's records before folding them, and it
//! leaves each plane's untouched blocks behind the fresh cursor
//! instead of listing them as free (a list of every block would cost
//! 2 MiB on the Table 3 geometry). So the heap it adds over what was
//! live before the call stays small, whatever the journal's length.
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
/// Host-staged pages: one journal mapping record each.
const POPULATED: u64 = 32 * 1024;
/// Pages a TEE then rewrites: one more mapping record each.
const REWRITTEN: u64 = 4 * 1024;

#[test]
fn recovery_heap_stays_near_the_rebuilt_tables() {
    let mut config = Mode::IceClave.ssd_config(&Overrides::none());
    config.platform.ftl.journal_blocks = 512;
    let mut ice = IceClave::new(config);
    let t = ice
        .populate(Lpn::new(0), POPULATED, SimTime::ZERO)
        .expect("population fits");
    let lpns: Vec<Lpn> = (0..REWRITTEN).map(Lpn::new).collect();
    let (tee, t) = ice.offload_code(64 << 10, &lpns, t).expect("offload");
    let writes = lpns.iter().map(|&l| PageWrite::new(l)).collect();
    ice.submit_write_batch_async_as(tee, writes, t)
        .expect("write batch");
    let done = ice.drain_completions();
    assert_eq!(done.len(), REWRITTEN as usize);
    assert!(done.iter().all(|e| e.status == PageStatus::Done));
    let end = done.iter().map(|e| e.ready_at()).fold(t, SimTime::max);

    ALLOC.reset_peak();
    let live = ALLOC.live_bytes();
    let stats = ice.recover(end).expect("recover");
    let peak = ALLOC.peak_bytes();
    assert!(stats.records_replayed > POPULATED + REWRITTEN);

    let mib = |bytes: usize| bytes as f64 / MIB as f64;
    let over = peak.saturating_sub(live);
    eprintln!(
        "heap before recover {:.3} MiB, peak during it {:.3} MiB (+{:.3} MiB)",
        mib(live),
        mib(peak),
        mib(over)
    );
    assert!(
        over < MIB / 2,
        "recover peaked {:.2} MiB over the {:.2} MiB live before it",
        mib(over),
        mib(live)
    );
}
