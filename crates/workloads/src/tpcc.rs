//! TPC-C: order-processing transactions in a warehouse (Table 4).
//!
//! The stock table is the dataset. Each transaction (a NewOrder-like
//! mix) touches ten random stock pages plus one customer page, updates
//! stock quantities and inserts order lines. The documented write model
//! (≈66 DRAM-visible lines per transaction: 10 stock updates x 2 lines,
//! ~15 order-line inserts at 1.5 lines, order/district/customer rows and
//! log records) lands on Table 1's 9.05e-2 ratio against ~734 line
//! reads.

use iceclave_types::{ByteSize, FastMap, Lpn};

use crate::data::{self, row_size, Modulus, TableHash};
use crate::{Batch, LpnRun, OpClass, OpCounts, Workload, WorkloadConfig, WorkloadOutput};

/// Transactions per emitted batch.
const TXNS_PER_BATCH: u64 = 16;

/// Stock pages read per transaction (ten order lines).
const ITEMS_PER_TXN: u64 = 10;

/// DRAM-visible line writes per transaction.
const WRITES_PER_TXN: u64 = 66;

/// [`TableHash`] tags: each order line's stock item and quantity, each
/// item's initial stock, and each transaction's customer page.
const LINE_TAG: u64 = 301;
const STOCK_TAG: u64 = 302;
const CUSTOMER_TAG: u64 = 303;

/// TPC-C warehouse transactions.
#[derive(Clone, Debug)]
pub struct TpcC {
    config: WorkloadConfig,
}

impl TpcC {
    /// Creates the workload at `config` scale.
    pub fn new(config: &WorkloadConfig) -> Self {
        TpcC { config: *config }
    }

    fn stock_rows(&self) -> u64 {
        data::rows_for(self.config.functional_bytes.as_bytes(), row_size::STOCK)
    }

    fn txn_count(&self) -> u64 {
        (self.dataset_pages() / 8).max(32)
    }
}

impl Workload for TpcC {
    fn name(&self) -> &'static str {
        "TPC-C"
    }

    fn dataset_pages(&self) -> u64 {
        data::pages_for(self.stock_rows(), row_size::STOCK)
    }

    fn working_set(&self) -> ByteSize {
        // District/customer caches and the order-line append buffer.
        ByteSize::from_kib(64)
    }

    fn run(&self, emit: &mut dyn FnMut(Batch)) -> WorkloadOutput {
        let seed = self.config.seed;
        let lines = TableHash::new(seed, LINE_TAG);
        let stock = TableHash::new(seed, STOCK_TAG);
        let customers = TableHash::new(seed, CUSTOMER_TAG);
        let stock_rows = Modulus::new(self.stock_rows());
        let pages = Modulus::new(self.dataset_pages());
        let rows_per_page = 4096 / row_size::STOCK;
        let txns = self.txn_count();
        let mut stock_qty: FastMap<u64, i64> = FastMap::default();
        let mut checksum = 0.0f64;
        let mut committed = 0u64;

        let mut t = 0u64;
        while t < txns {
            let batch_txns = TXNS_PER_BATCH.min(txns - t);
            let mut flash_reads = Vec::new();
            let mut ops = OpCounts::new();
            for k in t..t + batch_txns {
                // Ten stock line items plus one customer page.
                for line in 0..ITEMS_PER_TXN {
                    let h = lines.row(k * ITEMS_PER_TXN + line);
                    let item = h % stock_rows;
                    let qty = 1 + (h >> 32) % 10;
                    let entry = stock_qty
                        .entry(item)
                        .or_insert_with(|| 50 + (stock.row(item) % 50) as i64);
                    *entry -= qty as i64;
                    if *entry < 10 {
                        *entry += 91; // restock rule
                    }
                    checksum += *entry as f64;
                    flash_reads.push(LpnRun::new(Lpn::new(item / rows_per_page), 1));
                }
                let customer_page = customers.row(k) % pages;
                flash_reads.push(LpnRun::new(Lpn::new(customer_page), 1));
                committed += 1;
                ops.add(OpClass::TxnLogic, 5);
                ops.add(OpClass::HashProbe, ITEMS_PER_TXN);
                ops.add(OpClass::Arithmetic, 12);
                ops.add(OpClass::ScanTuple, ITEMS_PER_TXN + 1);
            }
            emit(Batch {
                flash_reads,
                random_access: true,
                input_lines: batch_txns * (ITEMS_PER_TXN + 1) * 64,
                staged_reads: 0,
                working_reads: batch_txns * 30,
                working_writes: batch_txns * WRITES_PER_TXN,
                ops,
            });
            t += batch_txns;
        }
        WorkloadOutput {
            rows: committed,
            checksum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measured_write_ratio;

    fn workload() -> TpcC {
        TpcC::new(&WorkloadConfig::test())
    }

    #[test]
    fn all_txns_commit_deterministically() {
        let w = workload();
        let a = w.run(&mut |_| {});
        assert_eq!(a.rows, w.txn_count());
        assert_eq!(a, w.run(&mut |_| {}));
    }

    #[test]
    fn eleven_pages_per_txn() {
        let w = workload();
        let mut pages = 0u64;
        let out = w.run(&mut |b| pages += b.flash_pages());
        assert_eq!(pages, out.rows * (ITEMS_PER_TXN + 1));
    }

    #[test]
    fn write_ratio_matches_table1() {
        let measured = measured_write_ratio(&workload());
        let paper = 9.05e-2;
        assert!(
            (paper / 1.5..paper * 1.5).contains(&measured),
            "measured {measured:.3} vs paper {paper:.3}"
        );
    }

    #[test]
    fn restock_rule_keeps_quantities_positive() {
        // Implied by construction; validate via checksum stability on a
        // second, longer-config run.
        let big = TpcC::new(&WorkloadConfig {
            functional_bytes: ByteSize::from_mib(1),
            ..WorkloadConfig::test()
        });
        let out = big.run(&mut |_| {});
        assert!(out.checksum > 0.0);
    }
}
