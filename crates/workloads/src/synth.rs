//! The three synthetic database operators of Table 4: arithmetic,
//! aggregation and filtering over 64-byte records.
//!
//! Each scans the whole dataset once. Their DRAM write traffic is tiny
//! (Table 1: ~2e-4): accumulators and small group states live in the
//! processor caches and only spill periodically; the documented model
//! is one result-line write-back per `SPILL_PERIOD` rows plus, for the
//! filter, the streamed match output.

use iceclave_types::{ByteSize, Lpn};

use crate::data::{self, TableHash};
use crate::{
    Batch, LpnRun, OpClass, OpCounts, Workload, WorkloadConfig, WorkloadOutput, PAGES_PER_BATCH,
};

/// 64-byte records, 64 per page.
const ROW_SIZE: u64 = 64;
const ROWS_PER_PAGE: u64 = 4096 / ROW_SIZE;

/// Rows between accumulator spills to DRAM (calibrated to Table 1's
/// ~2e-4 write ratio: one 64 B line per 4096 64 B-row reads).
const SPILL_PERIOD: u64 = 4096;

/// Filter selectivity: 0.18% of rows match, each emitting an 8-byte row
/// id into the streamed result (Table 1: 1.71e-4).
const FILTER_PERMILLE_X10: u64 = 18;

/// [`TableHash`] tags: the records' three values, Aggregate's group of
/// each record and Filter's match test.
const RECORD_TAG: u64 = 101;
const GROUP_TAG: u64 = 102;
const MATCH_TAG: u64 = 103;

/// The three values of record `i` of the table `records` hashes.
fn record_value(records: TableHash, i: u64) -> (f64, f64, f64) {
    let h = records.row(i);
    let a = (h % 1000) as f64 / 10.0;
    let b = ((h >> 16) % 1000) as f64 / 10.0;
    let c = ((h >> 32) % 1000) as f64 / 10.0;
    (a, b, c)
}

/// Shared scan driver: iterates rows page-batch by page-batch, calls
/// `per_row`, and emits a batch with the accumulated op counts.
fn scan<F>(
    config: &WorkloadConfig,
    ops_per_row: &[(OpClass, u64)],
    mut per_row: F,
    emit: &mut dyn FnMut(Batch),
    extra_writes_per_row: f64,
) -> u64
where
    F: FnMut(u64),
{
    let rows = data::rows_for(config.functional_bytes.as_bytes(), ROW_SIZE);
    let pages = data::pages_for(rows, ROW_SIZE);
    let mut spill_credit = 0.0f64;
    let mut page = 0u64;
    while page < pages {
        let batch_pages = PAGES_PER_BATCH.min(pages - page);
        let first_row = page * ROWS_PER_PAGE;
        let last_row = ((page + batch_pages) * ROWS_PER_PAGE).min(rows);
        let batch_rows = last_row - first_row;
        for i in first_row..last_row {
            per_row(i);
        }
        let mut ops = OpCounts::new();
        for &(class, n) in ops_per_row {
            ops.add(class, n * batch_rows);
        }
        spill_credit +=
            batch_rows as f64 / SPILL_PERIOD as f64 + extra_writes_per_row * batch_rows as f64;
        let writes = spill_credit.floor() as u64;
        spill_credit -= writes as f64;
        emit(Batch {
            flash_reads: vec![LpnRun::new(Lpn::new(page), batch_pages as u32)],
            random_access: false,
            input_lines: batch_pages * 64,
            staged_reads: 0,
            working_reads: 0,
            working_writes: writes,
            ops,
        });
        page += batch_pages;
    }
    rows
}

/// Mathematical operations against data records (Table 4).
#[derive(Clone, Debug)]
pub struct Arithmetic {
    config: WorkloadConfig,
}

impl Arithmetic {
    /// Creates the workload at `config` scale.
    pub fn new(config: &WorkloadConfig) -> Self {
        Arithmetic { config: *config }
    }
}

impl Workload for Arithmetic {
    fn name(&self) -> &'static str {
        "Arithmetic"
    }

    fn dataset_pages(&self) -> u64 {
        let rows = data::rows_for(self.config.functional_bytes.as_bytes(), ROW_SIZE);
        data::pages_for(rows, ROW_SIZE)
    }

    fn working_set(&self) -> ByteSize {
        ByteSize::from_bytes(256) // a handful of accumulators
    }

    fn run(&self, emit: &mut dyn FnMut(Batch)) -> WorkloadOutput {
        let records = TableHash::new(self.config.seed, RECORD_TAG);
        let mut acc = 0.0f64;
        let rows = scan(
            &self.config,
            &[(OpClass::ScanTuple, 1), (OpClass::Arithmetic, 1)],
            |i| {
                let (a, b, c) = record_value(records, i);
                acc += a * b - c;
            },
            emit,
            0.0,
        );
        WorkloadOutput {
            rows,
            checksum: acc,
        }
    }
}

/// Average-aggregation over a set of values (Table 4).
#[derive(Clone, Debug)]
pub struct Aggregate {
    config: WorkloadConfig,
}

/// Number of aggregation groups (fits in one or two cache lines).
const GROUPS: usize = 16;

impl Aggregate {
    /// Creates the workload at `config` scale.
    pub fn new(config: &WorkloadConfig) -> Self {
        Aggregate { config: *config }
    }
}

impl Workload for Aggregate {
    fn name(&self) -> &'static str {
        "Aggregate"
    }

    fn dataset_pages(&self) -> u64 {
        let rows = data::rows_for(self.config.functional_bytes.as_bytes(), ROW_SIZE);
        data::pages_for(rows, ROW_SIZE)
    }

    fn working_set(&self) -> ByteSize {
        ByteSize::from_bytes((GROUPS * 16) as u64)
    }

    fn run(&self, emit: &mut dyn FnMut(Batch)) -> WorkloadOutput {
        let records = TableHash::new(self.config.seed, RECORD_TAG);
        let groups = TableHash::new(self.config.seed, GROUP_TAG);
        let mut sums = [0.0f64; GROUPS];
        let mut counts = [0u64; GROUPS];
        let rows = scan(
            &self.config,
            &[(OpClass::ScanTuple, 1), (OpClass::Aggregate, 1)],
            |i| {
                let (a, _, _) = record_value(records, i);
                let g = (groups.row(i) % GROUPS as u64) as usize;
                sums[g] += a;
                counts[g] += 1;
            },
            emit,
            0.0,
        );
        let checksum: f64 = sums
            .iter()
            .zip(counts.iter())
            .map(|(s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .sum();
        WorkloadOutput { rows, checksum }
    }
}

/// Feature-match filtering (Table 4).
#[derive(Clone, Debug)]
pub struct Filter {
    config: WorkloadConfig,
}

impl Filter {
    /// Creates the workload at `config` scale.
    pub fn new(config: &WorkloadConfig) -> Self {
        Filter { config: *config }
    }
}

impl Workload for Filter {
    fn name(&self) -> &'static str {
        "Filter"
    }

    fn dataset_pages(&self) -> u64 {
        let rows = data::rows_for(self.config.functional_bytes.as_bytes(), ROW_SIZE);
        data::pages_for(rows, ROW_SIZE)
    }

    fn working_set(&self) -> ByteSize {
        ByteSize::from_kib(4) // match output buffer
    }

    fn run(&self, emit: &mut dyn FnMut(Batch)) -> WorkloadOutput {
        let tests = TableHash::new(self.config.seed, MATCH_TAG);
        let mut matches = 0u64;
        let mut checksum = 0.0f64;
        // Each match appends an 8-byte row id to the streamed output:
        // 8/64 of a line per match.
        let write_per_row = (FILTER_PERMILLE_X10 as f64 / 10_000.0) * (8.0 / 64.0);
        scan(
            &self.config,
            &[(OpClass::ScanTuple, 1), (OpClass::Filter, 1)],
            |i| {
                if tests.row(i) % 10_000 < FILTER_PERMILLE_X10 {
                    matches += 1;
                    checksum += i as f64;
                }
            },
            emit,
            write_per_row,
        );
        WorkloadOutput {
            rows: matches,
            checksum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measured_write_ratio;

    fn config() -> WorkloadConfig {
        WorkloadConfig::test()
    }

    #[test]
    fn arithmetic_scans_whole_dataset() {
        let w = Arithmetic::new(&config());
        let mut pages = 0;
        let out = w.run(&mut |b| pages += b.flash_pages());
        assert_eq!(pages, w.dataset_pages());
        assert!(out.rows > 0);
        assert!(out.checksum.is_finite());
    }

    #[test]
    fn aggregate_checksum_matches_naive_recomputation() {
        let cfg = config();
        let w = Aggregate::new(&cfg);
        let out = w.run(&mut |_| {});
        // Naive recomputation.
        let rows = data::rows_for(cfg.functional_bytes.as_bytes(), ROW_SIZE);
        let records = TableHash::new(cfg.seed, RECORD_TAG);
        let groups = TableHash::new(cfg.seed, GROUP_TAG);
        let mut sums = [0.0f64; GROUPS];
        let mut counts = [0u64; GROUPS];
        for i in 0..rows {
            let (a, _, _) = record_value(records, i);
            let g = (groups.row(i) % GROUPS as u64) as usize;
            sums[g] += a;
            counts[g] += 1;
        }
        let expect: f64 = sums
            .iter()
            .zip(counts.iter())
            .map(|(s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .sum();
        assert!((out.checksum - expect).abs() < 1e-9);
    }

    #[test]
    fn filter_selectivity_is_low() {
        let cfg = config();
        let w = Filter::new(&cfg);
        let out = w.run(&mut |_| {});
        let rows = data::rows_for(cfg.functional_bytes.as_bytes(), ROW_SIZE);
        let sel = out.rows as f64 / rows as f64;
        assert!(sel < 0.01, "selectivity {sel}");
    }

    #[test]
    fn write_ratios_are_near_table1() {
        // Within ~3x of the paper's profile is close enough for the
        // batch model; the repro table prints both side by side.
        for (w, paper) in [
            (
                Box::new(Arithmetic::new(&config())) as Box<dyn Workload>,
                2.02e-4,
            ),
            (Box::new(Aggregate::new(&config())), 2.08e-4),
            (Box::new(Filter::new(&config())), 1.71e-4),
        ] {
            let measured = measured_write_ratio(&*w);
            assert!(
                measured < paper * 3.0 && measured > paper / 3.0,
                "{}: measured {measured:.2e} vs paper {paper:.2e}",
                w.name()
            );
        }
    }

    #[test]
    fn ops_scale_with_rows() {
        let w = Arithmetic::new(&config());
        let mut total_ops = 0u64;
        let out = w.run(&mut |b| total_ops += b.ops.total_ops());
        // ScanTuple + Arithmetic per row.
        let rows = data::rows_for(config().functional_bytes.as_bytes(), ROW_SIZE);
        assert_eq!(total_ops, 2 * rows);
        assert!(out.rows == rows);
    }
}
