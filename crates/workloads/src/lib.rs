//! In-storage workloads (§6.1, Table 4).
//!
//! The eleven workloads of the paper's evaluation: three synthetic
//! database operators (arithmetic, aggregate, filter), five TPC-H
//! queries (Q1, Q3, Q12, Q14, Q19), the TPC-B and TPC-C transaction
//! mixes, and wordcount.
//!
//! Every workload **really computes** over deterministic, seeded,
//! statelessly-generated data (row *i* of a table is a pure function of
//! the seed — no gigabyte materialization), and is *instrumented*: as it
//! runs, it emits [`Batch`]es describing its demand on the platform —
//! flash pages scanned, program-visible DRAM line reads/writes, and
//! per-operator compute counts. The execution-mode pipelines in
//! `iceclave-experiments` replay those batches against the simulated
//! host or SSD.
//!
//! Two scales coexist: the *functional* scale actually
//! computed (MBs, keeps simulation fast) and the *modeled* scale
//! (the paper's 32 GiB) used for cache-visibility decisions, so DRAM
//! write ratios (Table 1) match the paper's profile instead of the
//! miniature dataset's.
//!
//! # Examples
//!
//! ```
//! use iceclave_workloads::{WorkloadConfig, WorkloadKind};
//!
//! let config = WorkloadConfig::test();
//! let workload = WorkloadKind::TpchQ1.build(&config);
//! let mut batches = 0;
//! let output = workload.run(&mut |_batch| batches += 1);
//! assert!(batches > 0);
//! assert!(output.rows > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod data;
pub mod synth;
pub mod tpcb;
pub mod tpcc;
pub mod tpch;
pub mod wordcount;

use std::fmt;

pub use iceclave_cpu::{OpClass, OpCounts};
use iceclave_types::{ByteSize, Lpn};

/// A run of consecutive logical pages read from flash.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct LpnRun {
    /// First logical page.
    pub start: Lpn,
    /// Number of consecutive pages.
    pub count: u32,
}

impl LpnRun {
    /// A run of `count` pages starting at `start`.
    pub fn new(start: Lpn, count: u32) -> Self {
        LpnRun { start, count }
    }

    /// Iterates the pages of the run.
    pub fn iter(&self) -> impl Iterator<Item = Lpn> + '_ {
        (0..u64::from(self.count)).map(move |i| self.start.offset(i))
    }
}

/// One unit of instrumented work: what the workload asked of the
/// platform between two emission points.
#[derive(Clone, Debug, Default)]
pub struct Batch {
    /// Flash pages to load (sequential runs for scans, single-page runs
    /// for transactional random access).
    pub flash_reads: Vec<LpnRun>,
    /// Whether the flash accesses are random point reads (eligible for
    /// the DRAM page cache) rather than a streaming scan.
    pub random_access: bool,
    /// Program-visible DRAM line reads of freshly loaded input.
    pub input_lines: u64,
    /// Random point lookups into a *staged* table (a region scanned into
    /// DRAM earlier, e.g. the part table Q14 probes). When the modeled
    /// staged region does not fit in SSD DRAM, a fraction of these turn
    /// into flash re-reads — the Figure 16 capacity effect.
    pub staged_reads: u64,
    /// Program-visible random reads in the (small) working set: hash
    /// probes, group lookups that miss the processor caches.
    pub working_reads: u64,
    /// Program-visible writes that reach DRAM (after cache absorption).
    pub working_writes: u64,
    /// Compute demand of the batch.
    pub ops: OpCounts,
}

impl Batch {
    /// Total flash pages requested by the batch.
    pub fn flash_pages(&self) -> u64 {
        self.flash_reads.iter().map(|r| u64::from(r.count)).sum()
    }

    /// Program-visible DRAM reads (input + staged + working).
    pub fn dram_reads(&self) -> u64 {
        self.input_lines + self.staged_reads + self.working_reads
    }
}

/// Final output of a workload run: enough to check determinism and
/// correctness across execution modes.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct WorkloadOutput {
    /// Result rows (or transactions committed, or distinct words).
    pub rows: u64,
    /// Order-independent checksum over the result values.
    pub checksum: f64,
}

/// Configuration shared by all workloads.
#[derive(Copy, Clone, Debug)]
pub struct WorkloadConfig {
    /// Bytes of data actually generated and computed over.
    pub functional_bytes: ByteSize,
    /// The dataset size being *modeled* (the paper populates 32 GiB);
    /// structure sizes are scaled by `modeled/functional` before DRAM
    /// residency decisions.
    pub modeled_bytes: ByteSize,
    /// Root seed for data generation.
    pub seed: u64,
}

impl WorkloadConfig {
    /// Tiny datasets for unit tests (512 KiB functional).
    pub fn test() -> Self {
        WorkloadConfig {
            functional_bytes: ByteSize::from_kib(512),
            modeled_bytes: ByteSize::from_gib(32),
            seed: 42,
        }
    }

    /// Benchmark scale (32 MiB functional, modeling the paper's 32 GiB).
    pub fn bench() -> Self {
        WorkloadConfig {
            functional_bytes: ByteSize::from_mib(32),
            modeled_bytes: ByteSize::from_gib(32),
            seed: 42,
        }
    }

    /// How many times larger the modeled dataset is than the functional
    /// one.
    pub fn scale_factor(&self) -> f64 {
        self.modeled_bytes.as_bytes() as f64 / self.functional_bytes.as_bytes() as f64
    }
}

/// A paper workload: deterministic computation plus instrumentation.
pub trait Workload: fmt::Debug {
    /// Display name matching the paper's figures.
    fn name(&self) -> &'static str;

    /// Total dataset pages this workload expects populated in flash
    /// (LPNs `0..dataset_pages`, shifted by the executor for
    /// multi-tenancy).
    fn dataset_pages(&self) -> u64;

    /// The DRAM-visible random-access footprint of the workload's
    /// working structures *at the modeled (paper) scale*: fixed-size
    /// buffers (transaction records, group states, partition windows)
    /// stay small regardless of dataset size, while data-proportional
    /// structures (the wordcount map) report their paper-scale hot
    /// footprint. The executor sweeps random working accesses over
    /// exactly this span.
    fn working_set(&self) -> ByteSize;

    /// Size of the staged table region that `staged_reads` point into
    /// (functional scale; zero when the workload stages nothing).
    fn staged_bytes(&self) -> ByteSize {
        ByteSize::ZERO
    }

    /// Executes the workload, emitting instrumented batches in order,
    /// and returns the computed result.
    fn run(&self, emit: &mut dyn FnMut(Batch)) -> WorkloadOutput;
}

/// The eleven paper workloads (Table 4).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum WorkloadKind {
    /// Mathematical operations against data records.
    Arithmetic,
    /// Average aggregation over a set of values.
    Aggregate,
    /// Feature-match filtering.
    Filter,
    /// TPC-H Q1: pricing summary (scan).
    TpchQ1,
    /// TPC-H Q3: shipping priority (join).
    TpchQ3,
    /// TPC-H Q12: shipping modes and order priority (join).
    TpchQ12,
    /// TPC-H Q14: market response to promotion (join).
    TpchQ14,
    /// TPC-H Q19: discounted revenue (join + aggregate).
    TpchQ19,
    /// TPC-B: bank transactions.
    TpcB,
    /// TPC-C: warehouse order transactions.
    TpcC,
    /// Wordcount over a long text (Biscuit's workload set).
    Wordcount,
}

impl WorkloadKind {
    /// All workloads in the paper's figure order.
    pub const ALL: [WorkloadKind; 11] = [
        WorkloadKind::Aggregate,
        WorkloadKind::Arithmetic,
        WorkloadKind::Filter,
        WorkloadKind::TpchQ1,
        WorkloadKind::TpchQ3,
        WorkloadKind::TpchQ12,
        WorkloadKind::TpchQ14,
        WorkloadKind::TpchQ19,
        WorkloadKind::TpcB,
        WorkloadKind::TpcC,
        WorkloadKind::Wordcount,
    ];

    /// The paper's display name.
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadKind::Arithmetic => "Arithmetic",
            WorkloadKind::Aggregate => "Aggregate",
            WorkloadKind::Filter => "Filter",
            WorkloadKind::TpchQ1 => "TPC-H Q1",
            WorkloadKind::TpchQ3 => "TPC-H Q3",
            WorkloadKind::TpchQ12 => "TPC-H Q12",
            WorkloadKind::TpchQ14 => "TPC-H Q14",
            WorkloadKind::TpchQ19 => "TPC-H Q19",
            WorkloadKind::TpcB => "TPC-B",
            WorkloadKind::TpcC => "TPC-C",
            WorkloadKind::Wordcount => "Wordcount",
        }
    }

    /// Table 1's measured DRAM write ratio, for comparison in reports.
    pub fn paper_write_ratio(&self) -> f64 {
        match self {
            WorkloadKind::Arithmetic => 2.02e-4,
            WorkloadKind::Aggregate => 2.08e-4,
            WorkloadKind::Filter => 1.71e-4,
            WorkloadKind::TpchQ1 => 6.40e-6,
            WorkloadKind::TpchQ3 => 3.96e-3,
            WorkloadKind::TpchQ12 => 2.99e-5,
            WorkloadKind::TpchQ14 => 3.94e-6,
            WorkloadKind::TpchQ19 => 9.92e-7,
            WorkloadKind::TpcB => 5.19e-2,
            WorkloadKind::TpcC => 9.05e-2,
            WorkloadKind::Wordcount => 4.61e-1,
        }
    }

    /// Instantiates the workload at the given configuration.
    pub fn build(&self, config: &WorkloadConfig) -> Box<dyn Workload> {
        match self {
            WorkloadKind::Arithmetic => Box::new(synth::Arithmetic::new(config)),
            WorkloadKind::Aggregate => Box::new(synth::Aggregate::new(config)),
            WorkloadKind::Filter => Box::new(synth::Filter::new(config)),
            WorkloadKind::TpchQ1 => Box::new(tpch::Q1::new(config)),
            WorkloadKind::TpchQ3 => Box::new(tpch::Q3::new(config)),
            WorkloadKind::TpchQ12 => Box::new(tpch::Q12::new(config)),
            WorkloadKind::TpchQ14 => Box::new(tpch::Q14::new(config)),
            WorkloadKind::TpchQ19 => Box::new(tpch::Q19::new(config)),
            WorkloadKind::TpcB => Box::new(tpcb::TpcB::new(config)),
            WorkloadKind::TpcC => Box::new(tpcc::TpcC::new(config)),
            WorkloadKind::Wordcount => Box::new(wordcount::Wordcount::new(config)),
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Pages in a scan batch: 64 pages (256 KiB) per emitted batch keeps
/// per-batch simulation overhead small without hiding pipeline effects.
pub const PAGES_PER_BATCH: u64 = 64;

/// Measures the DRAM write ratio (Table 1) of a workload by running it
/// and summing batch traffic.
pub fn measured_write_ratio(workload: &dyn Workload) -> f64 {
    let mut reads = 0u64;
    let mut writes = 0u64;
    workload.run(&mut |b: Batch| {
        reads += b.dram_reads();
        writes += b.working_writes;
    });
    if reads == 0 {
        0.0
    } else {
        writes as f64 / reads as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpn_run_iterates() {
        let run = LpnRun::new(Lpn::new(10), 3);
        let pages: Vec<u64> = run.iter().map(|l| l.raw()).collect();
        assert_eq!(pages, vec![10, 11, 12]);
    }

    #[test]
    fn batch_accounting() {
        let mut b = Batch::default();
        b.flash_reads.push(LpnRun::new(Lpn::new(0), 4));
        b.flash_reads.push(LpnRun::new(Lpn::new(100), 1));
        b.input_lines = 320;
        b.working_reads = 10;
        assert_eq!(b.flash_pages(), 5);
        assert_eq!(b.dram_reads(), 330);
    }

    #[test]
    fn all_workloads_build_and_run_deterministically() {
        let config = WorkloadConfig::test();
        for kind in WorkloadKind::ALL {
            let w = kind.build(&config);
            let out1 = w.run(&mut |_| {});
            let out2 = w.run(&mut |_| {});
            assert_eq!(out1, out2, "{kind} must be deterministic");
            assert!(w.dataset_pages() > 0, "{kind}");
        }
    }

    /// Folds every field of a batch into `acc`, so two runs that emit
    /// the same batches in the same order fold to the same value.
    fn fold_batch(acc: u64, batch: &Batch) -> u64 {
        let mut acc = acc;
        let mut put = |v: u64| acc = data::mix64(acc ^ v);
        put(batch.flash_reads.len() as u64);
        for run in &batch.flash_reads {
            put(run.start.raw());
            put(u64::from(run.count));
        }
        put(batch.input_lines);
        put(batch.staged_reads);
        put(batch.working_reads);
        put(batch.working_writes);
        put(u64::from(batch.random_access));
        for class in OpClass::ALL {
            put(batch.ops.get(class));
        }
        acc
    }

    #[test]
    fn generated_data_is_pinned() {
        // (rows, checksum bits, fold of every emitted batch) at
        // `WorkloadConfig::test()`. A change to any generated value,
        // any batch field or any op count moves one of these.
        use WorkloadKind::*;
        let pinned: [(WorkloadKind, u64, u64, u64); 11] = [
            (Aggregate, 8192, 0x4089279364633a9e, 0x1408c80fcb4d2a7b),
            (Arithmetic, 8192, 0x4173498f951eb855, 0x5ae8a5d973728e3d),
            (Filter, 9, 0x40dab28000000000, 0x8a5a0c151f5e9075),
            (TpchQ1, 6, 0x41d2a47bf62e7aea, 0x58654eaa50bb8dcb),
            (TpchQ3, 10, 0x4141568280922ea9, 0xc119544f901f66c3),
            (TpchQ12, 2, 0x4186695048000000, 0x04812d3f46c7be2f),
            (TpchQ14, 1, 0x402365cb320aa6da, 0xd222d8e8b08977d8),
            (TpchQ19, 1, 0x0000000000000000, 0x03a4aac440af6560),
            (TpcB, 64, 0x4147693a00000000, 0x4833dbf5f012aef2),
            (TpcC, 32, 0x40d59cc000000000, 0xf3f6d05d758f57aa),
            (Wordcount, 2783, 0x41549adf80000000, 0xf7fb80eca40e9d58),
        ];
        let config = WorkloadConfig::test();
        for (kind, rows, checksum_bits, fold) in pinned {
            let mut acc = 0u64;
            let out = kind
                .build(&config)
                .run(&mut |batch| acc = fold_batch(acc, &batch));
            assert_eq!(out.rows, rows, "{kind} rows");
            assert_eq!(
                out.checksum.to_bits(),
                checksum_bits,
                "{kind} checksum {:#018x}",
                out.checksum.to_bits()
            );
            assert_eq!(acc, fold, "{kind} batches {acc:#018x}");
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 11);
    }

    #[test]
    fn write_ratios_order_read_vs_write_heavy() {
        let config = WorkloadConfig::test();
        let q1 = measured_write_ratio(&*WorkloadKind::TpchQ1.build(&config));
        let wc = measured_write_ratio(&*WorkloadKind::Wordcount.build(&config));
        let tpcc = measured_write_ratio(&*WorkloadKind::TpcC.build(&config));
        assert!(q1 < 1e-2, "Q1 is read-dominated, got {q1}");
        assert!(wc > 0.2, "wordcount is write-heavy, got {wc}");
        assert!(tpcc > q1, "TPC-C writes more than Q1");
    }
}
