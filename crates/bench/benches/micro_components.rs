//! Criterion micro-benchmarks of the substrate components: cipher
//! throughput, MEE operations, FTL translation, DRAM accesses and
//! flash page operations. These measure the *simulator's* execution
//! speed (host-side), complementing the figure benches which report
//! *simulated* time.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use iceclave_cipher::{CipherEngine, Trivium};
use iceclave_dram::{Dram, DramConfig, MemOp};
use iceclave_flash::FlashConfig;
use iceclave_ftl::{Ftl, FtlConfig, Requestor};
use iceclave_mee::{MeeConfig, MeeEngine, MetaCache};
use iceclave_testkit::Aes128;
use iceclave_trustzone::WorldMonitor;
use iceclave_types::{ByteSize, CacheLine, Hertz, Lpn, SimTime};

fn bench_trivium(c: &mut Criterion) {
    let mut group = c.benchmark_group("trivium");
    group.throughput(Throughput::Bytes(4096));
    group.bench_function("keystream_4k", |b| {
        let mut cipher = Trivium::new(&[7; 10], &[9; 10]);
        let mut buf = vec![0u8; 4096];
        b.iter(|| cipher.apply_keystream(&mut buf));
    });
    group.finish();
}

fn bench_aes(c: &mut Criterion) {
    let mut group = c.benchmark_group("aes128");
    group.throughput(Throughput::Bytes(16));
    let aes = Aes128::new(&[1; 16]);
    let mut counter = 0u128;
    group.bench_function("encrypt_block", |b| {
        b.iter(|| {
            counter = counter.wrapping_add(1);
            aes.encrypt_counter(counter)
        })
    });
    group.finish();
}

fn bench_cipher_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("cipher_engine");
    group.throughput(Throughput::Bytes(4096));
    let mut engine = CipherEngine::new([3; 10], Hertz::from_mhz(800), 1);
    let page = vec![0xABu8; 4096];
    group.bench_function("encrypt_page_4k", |b| {
        let mut ppa = 0u32;
        b.iter(|| {
            ppa = ppa.wrapping_add(1);
            engine.encrypt_page(ppa, &page)
        })
    });
    group.finish();
}

fn bench_mee(c: &mut Criterion) {
    let mut group = c.benchmark_group("mee");
    group.bench_function("protected_read", |b| {
        let mut dram = Dram::new(DramConfig::table3());
        let mut mee = MeeEngine::new(MeeConfig::hybrid());
        let mut line = 0u64;
        let mut t = SimTime::ZERO;
        b.iter(|| {
            line = (line + 1) % 1_000_000;
            t = mee.read_line(&mut dram, CacheLine::new(line), t);
            t
        })
    });
    group.bench_function("protected_write", |b| {
        let mut dram = Dram::new(DramConfig::table3());
        let mut mee = MeeEngine::new(MeeConfig::hybrid());
        let mut line = 0u64;
        let mut t = SimTime::ZERO;
        b.iter(|| {
            line = (line + 1) % 1_000_000;
            t = mee.write_line(&mut dram, CacheLine::new(line), t);
            t
        })
    });
    group.finish();
}

/// The metadata cache is the simulator's hottest structure: every
/// modeled memory access probes it at least once. The `hit_hot_path`
/// case is the one the explicit LRU stamp optimized — before it, every
/// hit paid a `remove` + `insert(0)` memmove of the set vector; now it
/// updates one integer. `strided_sweep` exercises the mixed set
/// indexing on the miss/eviction path.
fn bench_meta_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("meta_cache");
    group.bench_function("hit_hot_path", |b| {
        // Table 3 geometry (256 sets x 8 ways), pre-warmed with 256
        // ids — one per set on average, so no set overflows its ways
        // and the loop stays on the pure hit path.
        let mut cache = MetaCache::new(ByteSize::from_kib(128), 8);
        for block in 0..256u64 {
            cache.access(block * 8);
        }
        let mut block = 0u64;
        b.iter(|| {
            block = (block + 1) % 256;
            cache.access(block * 8).hit
        })
    });
    group.bench_function("strided_sweep", |b| {
        // 4x capacity, stride-8 ids: every access misses and evicts —
        // the demotion-feed path of the two-level hierarchy.
        let mut cache = MetaCache::new(ByteSize::from_kib(128), 8);
        let mut block = 0u64;
        b.iter(|| {
            block = (block + 1) % 8192;
            cache.access(block * 8).evicted
        })
    });
    group.finish();
}

fn bench_ftl(c: &mut Criterion) {
    let mut group = c.benchmark_group("ftl");
    group.bench_function("translate_hit", |b| {
        let mut ftl = Ftl::new(FlashConfig::table3(), FtlConfig::default());
        let mut monitor = WorldMonitor::with_table5_cost();
        let t = ftl
            .write(Requestor::Host, Lpn::new(0), &mut monitor, SimTime::ZERO)
            .expect("write");
        b.iter(|| {
            ftl.translate(Requestor::Host, Lpn::new(0), &mut monitor, t)
                .expect("mapped")
        })
    });
    group.bench_function("out_of_place_write", |b| {
        let mut ftl = Ftl::new(FlashConfig::table3(), FtlConfig::default());
        let mut monitor = WorldMonitor::with_table5_cost();
        let mut t = SimTime::ZERO;
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            t = ftl
                .write(Requestor::Host, Lpn::new(i % 4096), &mut monitor, t)
                .expect("capacity");
            t
        })
    });
    group.finish();
}

fn bench_dram(c: &mut Criterion) {
    let mut group = c.benchmark_group("dram");
    group.bench_function("sequential_read", |b| {
        let mut dram = Dram::new(DramConfig::table3());
        let mut line = 0u64;
        let mut t = SimTime::ZERO;
        b.iter(|| {
            line += 1;
            t = dram.access(CacheLine::new(line), MemOp::Read, t).end;
            t
        })
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_trivium, bench_aes, bench_cipher_engine, bench_mee, bench_meta_cache,
        bench_ftl, bench_dram
}
criterion_main!(benches);
