//! Quickstart: bring up an IceClave SSD, offload a program, stream
//! protected data through it, and fetch the result.
//!
//! Run with: `cargo run --example quickstart`

use iceclave_repro::iceclave_core::{IceClave, IceClaveConfig};
use iceclave_repro::iceclave_cpu::{OpClass, OpCounts};
use iceclave_repro::iceclave_types::{Lpn, SimTime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A computational SSD with the paper's Table 3 configuration.
    let mut ice = IceClave::new(IceClaveConfig::table3());

    // 2. The host stages a dataset of 256 pages (1 MiB) over NVMe.
    let pages = 256u64;
    let mut t = ice.populate(Lpn::new(0), pages, SimTime::ZERO)?;
    println!("dataset staged: {pages} pages, t = {t}");

    // 3. OffloadCode: create a TEE granted those pages (SetIDBits runs
    //    under the hood and the Table 5 creation cost is billed).
    let lpns: Vec<Lpn> = (0..pages).map(Lpn::new).collect();
    let (tee, after) = ice.offload_code(128 << 10, &lpns, t)?;
    t = after;
    println!("TEE {tee:?} created, t = {t}");

    // 4. The in-storage program streams its input through the Trivium
    //    engine into MEE-protected DRAM and computes.
    for i in 0..pages {
        let ticket = ice.submit_batch_async(tee, &[Lpn::new(i)], t)?;
        t = ice.wait_batch(ticket)?.finished;
    }
    let mut ops = OpCounts::new();
    ops.add(OpClass::ScanTuple, pages * 64);
    ops.add(OpClass::Aggregate, pages * 64);
    t = ice.compute(tee, &ops, t)?;
    println!("input processed, t = {t}");

    // 5. Intermediate state lives in encrypted, integrity-checked DRAM.
    let offset = 200_000; // a cache line inside the TEE's working half
    t = ice.mem_write(tee, offset, t)?;
    t = ice.mem_read(tee, offset, t)?;

    // 6. GetResult DMAs the output to the host; TerminateTEE reclaims
    //    resources and recycles the TEE id.
    t = ice.get_result(tee, 4096, t)?;
    t = ice.terminate_tee(tee, t)?;
    println!("done at t = {t}");

    let mee = ice.mee().stats();
    println!(
        "security work: {} pad generations, {} verifications, \
         {:.1}% counter-cache hit rate",
        mee.encryptions,
        mee.verifications,
        ice.mee().cache_hit_rate() * 100.0
    );
    println!(
        "world switches: {}",
        ice.platform().monitor.stats().switches
    );
    Ok(())
}
