//! TPC-B: debit/credit transactions against a large bank (Table 4).
//!
//! The account table is the dataset; each transaction reads one random
//! account page from flash, applies a balance delta, and appends to the
//! history/log. Branch and teller tables are small and cache-resident.
//! The documented write model (≈3.5 DRAM-visible lines per transaction:
//! account update, history append, log) lands on Table 1's 5.19e-2
//! write ratio against the ~68 line reads per transaction.

use iceclave_types::{ByteSize, FastMap, Lpn};

use crate::data::{self, row_size, AccountGen, Modulus, TableHash};
use crate::{Batch, LpnRun, OpClass, OpCounts, Workload, WorkloadConfig, WorkloadOutput};

/// Transactions per emitted batch.
const TXNS_PER_BATCH: u64 = 128;

/// DRAM-visible line writes per transaction (account + history + log).
const WRITES_PER_TXN: f64 = 3.5;

/// [`TableHash`] tags of the per-transaction streams: the account a
/// transaction updates and its balance delta.
const ACCOUNT_TAG: u64 = 201;
const DELTA_TAG: u64 = 202;

/// TPC-B bank transactions.
#[derive(Clone, Debug)]
pub struct TpcB {
    config: WorkloadConfig,
}

impl TpcB {
    /// Creates the workload at `config` scale.
    pub fn new(config: &WorkloadConfig) -> Self {
        TpcB { config: *config }
    }

    fn accounts(&self) -> u64 {
        data::rows_for(self.config.functional_bytes.as_bytes(), row_size::ACCOUNT)
    }

    /// One transaction reads one random account page; the run touches
    /// about half the dataset.
    fn txn_count(&self) -> u64 {
        (self.dataset_pages() / 2).max(64)
    }
}

impl Workload for TpcB {
    fn name(&self) -> &'static str {
        "TPC-B"
    }

    fn dataset_pages(&self) -> u64 {
        data::pages_for(self.accounts(), row_size::ACCOUNT)
    }

    fn working_set(&self) -> ByteSize {
        // Branch + teller tables.
        ByteSize::from_kib(16)
    }

    fn run(&self, emit: &mut dyn FnMut(Batch)) -> WorkloadOutput {
        let seed = self.config.seed;
        let pick = TableHash::new(seed, ACCOUNT_TAG);
        let deltas = TableHash::new(seed, DELTA_TAG);
        let accounts = Modulus::new(self.accounts());
        let initial = AccountGen::new(seed);
        let rows_per_page = 4096 / row_size::ACCOUNT;
        let txns = self.txn_count();
        let mut balances: FastMap<u64, i64> = FastMap::default();
        let mut checksum = 0.0f64;

        let mut t = 0u64;
        while t < txns {
            let batch_txns = TXNS_PER_BATCH.min(txns - t);
            let mut flash_reads = Vec::with_capacity(batch_txns as usize);
            let mut ops = OpCounts::new();
            for k in t..t + batch_txns {
                let account = pick.row(k) % accounts;
                let delta = (deltas.row(k) % 2001) as i64 - 1000;
                let balance = balances
                    .entry(account)
                    .or_insert_with(|| initial.balance(account));
                *balance += delta;
                checksum += *balance as f64;
                flash_reads.push(LpnRun::new(Lpn::new(account / rows_per_page), 1));
                ops.add(OpClass::TxnLogic, 1);
                ops.add(OpClass::ScanTuple, 1);
                ops.add(OpClass::Arithmetic, 3);
            }
            emit(Batch {
                flash_reads,
                random_access: true,
                input_lines: batch_txns * 64,
                staged_reads: 0,
                working_reads: batch_txns * 4, // teller/branch lines
                working_writes: (batch_txns as f64 * WRITES_PER_TXN) as u64,
                ops,
            });
            t += batch_txns;
        }
        WorkloadOutput {
            rows: txns,
            checksum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measured_write_ratio;

    fn workload() -> TpcB {
        TpcB::new(&WorkloadConfig::test())
    }

    #[test]
    fn txns_are_committed_and_deterministic() {
        let w = workload();
        let a = w.run(&mut |_| {});
        let b = w.run(&mut |_| {});
        assert_eq!(a, b);
        assert_eq!(a.rows, w.txn_count());
    }

    #[test]
    fn accesses_are_random_single_pages() {
        let w = workload();
        w.run(&mut |batch| {
            assert!(batch.random_access);
            assert!(batch.flash_reads.iter().all(|r| r.count == 1));
            assert!(batch
                .flash_reads
                .iter()
                .all(|r| r.start.raw() < w.dataset_pages()));
        });
    }

    #[test]
    fn write_ratio_matches_table1() {
        let measured = measured_write_ratio(&workload());
        let paper = 5.19e-2;
        assert!(
            (paper / 1.5..paper * 1.5).contains(&measured),
            "measured {measured:.3} vs paper {paper:.3}"
        );
    }

    #[test]
    fn balance_deltas_apply() {
        // The checksum differs from the no-op sum of initial balances.
        let w = workload();
        let out = w.run(&mut |_| {});
        let pick = TableHash::new(w.config.seed, ACCOUNT_TAG);
        let initial = AccountGen::new(w.config.seed);
        let mut untouched = 0.0f64;
        for k in 0..w.txn_count() {
            let account = pick.row(k) % w.accounts();
            untouched += initial.balance(account) as f64;
        }
        assert_ne!(out.checksum, untouched);
    }
}
