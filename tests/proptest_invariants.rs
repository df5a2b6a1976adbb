//! Property-based tests (proptest) over the core data structures and
//! invariants of the reproduction.

use proptest::prelude::*;

use iceclave_repro::iceclave_cipher::Trivium;
use iceclave_repro::iceclave_core::{IceClave, IceClaveConfig};
use iceclave_repro::iceclave_flash::{FlashArray, FlashConfig, FlashGeometry};
use iceclave_repro::iceclave_ftl::{FaultPlan, Ftl, FtlConfig, MappingEntry, Requestor};
use iceclave_repro::iceclave_mee::MetaCache;
use iceclave_repro::iceclave_sim::Resource;
use iceclave_repro::iceclave_trustzone::WorldMonitor;
use iceclave_repro::iceclave_types::{
    ByteSize, CacheLine, Lpn, PageWrite, Ppn, SimDuration, SimTime, TeeId,
};
use iceclave_testkit::{SecureMemory, TriviumRef};

use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The word-sliced Trivium equals the bit-at-a-time reference for
    /// arbitrary keys and IVs.
    #[test]
    fn trivium_implementations_agree(key in prop::array::uniform10(0u8..), iv in prop::array::uniform10(0u8..)) {
        let fast = Trivium::new(&key, &iv).keystream_bytes(96);
        let slow = TriviumRef::new(&key, &iv).keystream_bytes(96);
        prop_assert_eq!(fast, slow);
    }

    /// Encrypt-then-decrypt is the identity for any payload.
    #[test]
    fn trivium_round_trip(key in prop::array::uniform10(0u8..), iv in prop::array::uniform10(0u8..), data in prop::collection::vec(0u8.., 0..512)) {
        let mut buf = data.clone();
        Trivium::new(&key, &iv).apply_keystream(&mut buf);
        Trivium::new(&key, &iv).apply_keystream(&mut buf);
        prop_assert_eq!(buf, data);
    }

    /// Flash geometry pack/unpack is a bijection over valid addresses.
    #[test]
    fn geometry_pack_unpack(raw in 0u64..1024) {
        let g = FlashGeometry::tiny();
        let ppn = Ppn::new(raw % g.total_pages());
        let addr = g.unpack(ppn);
        prop_assert!(g.contains(addr));
        prop_assert_eq!(g.pack(addr), ppn);
    }

    /// Mapping entries survive the 8-byte packing for any PPN and id.
    #[test]
    fn mapping_entry_round_trip(ppn in 0u64..(1u64 << 48), id in 0u16..16) {
        let entry = MappingEntry::new(Ppn::new(ppn), TeeId::new(id).unwrap());
        prop_assert_eq!(MappingEntry::unpack(entry.pack()), Some(entry));
    }

    /// Resource timelines never move backward and busy time never
    /// exceeds the horizon.
    #[test]
    fn resource_timeline_is_monotone(services in prop::collection::vec(1u64..10_000, 1..64)) {
        let mut r = Resource::new("r");
        let mut last_end = SimTime::ZERO;
        for s in &services {
            let span = r.acquire(SimTime::ZERO, SimDuration::from_nanos(*s));
            prop_assert!(span.start >= last_end);
            prop_assert_eq!(span.end, span.start + SimDuration::from_nanos(*s));
            last_end = span.end;
        }
        let total: u64 = services.iter().sum();
        prop_assert_eq!(r.busy_time(), SimDuration::from_nanos(total));
    }

    /// The metadata cache never reports more blocks resident than its
    /// capacity, and a just-inserted block is always resident.
    #[test]
    fn meta_cache_capacity_invariant(blocks in prop::collection::vec(0u64..4096, 1..512)) {
        let mut cache = MetaCache::new(ByteSize::from_bytes(64 * 64), 4);
        for &b in &blocks {
            cache.access(b);
            prop_assert!(cache.contains(b));
        }
        let resident = (0u64..4096).filter(|&b| cache.contains(b)).count();
        prop_assert!(resident <= cache.capacity_blocks());
    }

    /// SecureMemory read-back equals the last write for arbitrary
    /// write sequences (counter-mode correctness under reuse).
    #[test]
    fn secure_memory_linearizes(ops in prop::collection::vec((0u64..128, 0u8..), 1..60)) {
        let mut mem = SecureMemory::new(2, [3; 16], [4; 16]);
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (line, value) in &ops {
            mem.write_line(CacheLine::new(*line), &[*value; 64]);
            model.insert(*line, *value);
        }
        // Every line written must read back its final value.
        for (&l, &v) in &model {
            let got = mem.read_line(CacheLine::new(l)).unwrap();
            prop_assert_eq!(got, [v; 64]);
        }
    }

    /// Any single-bit tamper of stored ciphertext is detected.
    #[test]
    fn secure_memory_detects_any_bitflip(line in 0u64..64, byte in 0usize..64, bit in 0u8..8) {
        let mut mem = SecureMemory::new(1, [5; 16], [6; 16]);
        mem.write_line(CacheLine::new(line), &[0x77; 64]);
        mem.tamper_line(CacheLine::new(line), |c| c[byte] ^= 1 << bit);
        prop_assert!(mem.read_line(CacheLine::new(line)).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// FTL read-after-write: for any interleaving of host writes over a
    /// small logical space, every written page remains translatable and
    /// the number of valid pages equals the number of distinct LPNs —
    /// across GC and wear leveling.
    #[test]
    fn ftl_read_after_write_under_churn(writes in prop::collection::vec(0u64..24, 1..300)) {
        let mut ftl = Ftl::new(FlashConfig::tiny(), FtlConfig::default());
        let mut monitor = WorldMonitor::with_table5_cost();
        let mut t = SimTime::ZERO;
        let mut written = std::collections::HashSet::new();
        for lpn in &writes {
            t = ftl.write(Requestor::Host, Lpn::new(*lpn), &mut monitor, t).unwrap();
            written.insert(*lpn);
        }
        for lpn in &written {
            let tr = ftl.translate(Requestor::Host, Lpn::new(*lpn), &mut monitor, t).unwrap();
            prop_assert!(ftl.flash().is_written(tr.ppn), "LPN {} -> stale {:?}", lpn, tr.ppn);
        }
        prop_assert_eq!(ftl.valid_pages() as usize, written.len());
    }

    /// Interleaved protected write/read batches keep mapping
    /// consistency across garbage collection: after any interleaving
    /// of write and read tickets (each waited before the next is
    /// submitted) over a working set that overwrites the tiny device
    /// far beyond its capacity (so GC fires mid-run, usually
    /// mid-batch), every page still translates,
    /// `valid_pages` equals the working-set size, and read-back is
    /// byte-identical to the last write. Up to three scripted program
    /// failures land anywhere in the run, so a failed page retries in
    /// its plane's next block mid-batch, often while GC runs; each one
    /// the run reaches costs exactly one remap.
    #[test]
    fn write_read_batches_stay_consistent_under_gc(
        ops in prop::collection::vec((0u8..2, prop::collection::vec(0u64..24, 1..24)), 4..28),
        fail_ops in prop::collection::vec(0u64..500, 0..4)
    ) {
        const WORKING_SET: u64 = 24;
        let mut ice = IceClave::new(IceClaveConfig::tiny());
        let mut t = ice.populate(Lpn::new(0), WORKING_SET, SimTime::ZERO).unwrap();
        let mut fail_ops = fail_ops;
        fail_ops.sort_unstable();
        fail_ops.dedup();
        // Program ordinals count from the install on.
        let programs_attempted = |ice: &IceClave| {
            let stats = ice.platform().ftl.flash().stats();
            stats.programs + stats.program_faults
        };
        let programs_before = programs_attempted(&ice);
        ice.install_fault_plan(FaultPlan {
            program_fail_ops: fail_ops.clone(),
            ..FaultPlan::none()
        });
        let lpns: Vec<Lpn> = (0..WORKING_SET).map(Lpn::new).collect();
        let (tee, t2) = ice.offload_code(1024, &lpns, t).unwrap();
        t = t2;

        // Deterministic churn first: overwrite the working set until GC
        // has fired, so the sampled interleaving runs on a device that
        // keeps collecting mid-batch.
        let mut version = 0u8;
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut churn = 0;
        while ice.platform().ftl.stats().gc_runs == 0 {
            version = version.wrapping_add(1);
            let writes: Vec<PageWrite> = (0..WORKING_SET)
                .map(|l| {
                    let payload = vec![(l as u8) ^ version; 64];
                    model.insert(l, payload.clone());
                    PageWrite::with_data(Lpn::new(l), payload)
                })
                .collect();
            t = ice
                .submit_write_batch_async_as(tee, writes, t)
                .and_then(|tk| ice.wait_batch(tk))
                .unwrap()
                .finished;
            churn += 1;
            prop_assert!(churn < 200, "GC never fired on the tiny device");
        }

        for (kind, batch_lpns) in &ops {
            if *kind == 0 {
                version = version.wrapping_add(1);
                let writes: Vec<PageWrite> = batch_lpns
                    .iter()
                    .map(|&l| {
                        let payload = vec![(l as u8) ^ version; 64];
                        model.insert(l, payload.clone());
                        PageWrite::with_data(Lpn::new(l), payload)
                    })
                    .collect();
                t = ice
                    .submit_write_batch_async_as(tee, writes, t)
                    .and_then(|tk| ice.wait_batch(tk))
                    .unwrap()
                    .finished;
            } else {
                let reads: Vec<Lpn> = batch_lpns.iter().map(|&l| Lpn::new(l)).collect();
                let done = ice
                    .submit_batch_async(tee, &reads, t)
                    .and_then(|tk| ice.wait_batch(tk))
                    .unwrap();
                t = done.finished;
                for c in &done.completions {
                    let expected = model.get(&c.lpn.raw()).expect("populated page");
                    prop_assert_eq!(
                        c.data.as_ref(),
                        Some(expected),
                        "stale read of lpn {}",
                        c.lpn
                    );
                }
            }
        }

        // Post-state: exactly one valid physical page per logical page
        // and a byte-identical full read-back.
        prop_assert!(ice.platform().ftl.stats().gc_runs > 0);
        prop_assert_eq!(ice.platform().ftl.valid_pages(), WORKING_SET);
        let done = ice
            .submit_batch_async(tee, &lpns, t)
            .and_then(|tk| ice.wait_batch(tk))
            .unwrap();
        for c in &done.completions {
            let expected = model.get(&c.lpn.raw()).expect("populated page");
            prop_assert_eq!(c.data.as_ref(), Some(expected));
        }
        let attempted = programs_attempted(&ice) - programs_before;
        let reached = fail_ops.iter().filter(|&&op| op < attempted).count() as u64;
        prop_assert_eq!(ice.platform().ftl.stats().program_remaps, reached);
    }

    /// NAND contract fuzz: programs must be sequential; the array
    /// never accepts an out-of-order program.
    #[test]
    fn flash_program_order_is_enforced(pages in prop::collection::vec(0u64..16, 1..32)) {
        let mut array = FlashArray::new(FlashConfig::tiny());
        let mut next = 0u64;
        for p in pages {
            let result = array.program_page(Ppn::new(p), SimTime::ZERO);
            if p == next {
                prop_assert!(result.is_ok());
                next += 1;
            } else if p < next {
                prop_assert!(result.is_err(), "reprogram of {p} accepted");
            } else {
                prop_assert!(result.is_err(), "skip to {p} accepted");
            }
        }
    }
}
