//! Analytic processor models (gem5-equivalent substrate).
//!
//! The paper simulates the SSD's embedded cores with gem5's out-of-order
//! ARM model (Table 3: a Cortex-A72 at 1.6 GHz) and sweeps core types in
//! Figure 15 (A77 @ 2.8 GHz, A72 @ 1.6/0.8 GHz, A53 @ 1.6 GHz) against a
//! host Intel i7-7700K @ 4.2 GHz. Figures 11/15 depend on the *relative
//! throughput* of these cores on data-processing operators, not on
//! microarchitectural detail, so this crate models a core as
//! `(frequency, effective IPC per operator class)` — the standard
//! analytic substitute.
//!
//! Workloads report their compute demand as [`OpCounts`] (tuples
//! scanned, predicates evaluated, hash probes, ...); a [`CoreModel`]
//! turns that demand into time.
//!
//! # Examples
//!
//! ```
//! use iceclave_cpu::{CoreModel, OpClass, OpCounts};
//!
//! let mut ops = OpCounts::new();
//! ops.add(OpClass::ScanTuple, 1_000_000);
//! ops.add(OpClass::Aggregate, 1_000_000);
//!
//! let ssd_core = CoreModel::a72_1_6ghz();
//! let host_core = CoreModel::i7_7700k();
//! // The host core is several times faster on the same work.
//! assert!(host_core.time_for(&ops) < ssd_core.time_for(&ops));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use iceclave_types::{ByteSize, Hertz, SimDuration};

/// Operator classes whose costs differ enough to model separately.
///
/// Base costs (cycles per operation on a scalar in-order reference
/// machine) are embedded in [`OpClass::reference_cycles`]; core models
/// scale them by their effective IPC.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub enum OpClass {
    /// Materialize/advance over one tuple during a scan.
    ScanTuple,
    /// Evaluate one predicate (filter).
    Filter,
    /// Arithmetic on one record (projection math).
    Arithmetic,
    /// Update one aggregation bucket.
    Aggregate,
    /// Build one hash-table entry (join build side).
    HashBuild,
    /// Probe the hash table once (join probe side).
    HashProbe,
    /// Sort-related comparison/exchange.
    SortStep,
    /// Tokenize/compare a short string (wordcount, LIKE).
    StringOp,
    /// Transaction bookkeeping (locking, logging) per statement.
    TxnLogic,
}

impl OpClass {
    /// All classes, for iteration in reports. Each class sits at the
    /// index of its discriminant (`OpClass::ALL[i] as usize == i`),
    /// which is how [`OpCounts`] stores its counters.
    pub const ALL: [OpClass; 9] = [
        OpClass::ScanTuple,
        OpClass::Filter,
        OpClass::Arithmetic,
        OpClass::Aggregate,
        OpClass::HashBuild,
        OpClass::HashProbe,
        OpClass::SortStep,
        OpClass::StringOp,
        OpClass::TxnLogic,
    ];

    /// Cycles per operation on the scalar reference machine.
    ///
    /// Costs assume the columnar/vectorized operator implementations
    /// in-storage engines use (amortized per-tuple work of a few
    /// cycles), matching the I/O-bound behaviour the paper's Figure 12
    /// channel scaling implies.
    pub fn reference_cycles(self) -> u64 {
        match self {
            OpClass::ScanTuple => 2,
            OpClass::Filter => 1,
            OpClass::Arithmetic => 1,
            OpClass::Aggregate => 2,
            OpClass::HashBuild => 8,
            OpClass::HashProbe => 6,
            OpClass::SortStep => 4,
            OpClass::StringOp => 2,
            OpClass::TxnLogic => 40,
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A bag of operation counts: the compute demand of (part of) a
/// workload.
///
/// One counter per [`OpClass`], indexed by the class's position in
/// [`OpClass::ALL`]: workloads add to it once or more per generated
/// row, so an add is one indexed increment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    counts: [u64; OpClass::ALL.len()],
}

impl OpCounts {
    /// An empty demand.
    pub fn new() -> Self {
        OpCounts::default()
    }

    /// Adds `n` operations of `class`.
    #[inline]
    pub fn add(&mut self, class: OpClass, n: u64) {
        self.counts[class as usize] += n;
    }

    /// The count for one class.
    pub fn get(&self, class: OpClass) -> u64 {
        self.counts[class as usize]
    }

    /// Merges another demand into this one.
    pub fn merge(&mut self, other: &OpCounts) {
        for (n, m) in self.counts.iter_mut().zip(other.counts) {
            *n += m;
        }
    }

    /// Total operations, all classes.
    pub fn total_ops(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total reference cycles of this demand.
    pub fn reference_cycles(&self) -> u64 {
        OpClass::ALL
            .iter()
            .zip(self.counts)
            .map(|(c, n)| c.reference_cycles() * n)
            .sum()
    }

    /// True if no operations are recorded.
    pub fn is_empty(&self) -> bool {
        self.total_ops() == 0
    }
}

/// Pipeline style, which sets the effective IPC band.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum PipelineKind {
    /// In-order issue (Cortex-A53 class).
    InOrder,
    /// Out-of-order issue (Cortex-A72/A77, desktop class).
    OutOfOrder,
}

/// An analytic core model: frequency plus effective IPC on the operator
/// mix.
#[derive(Clone, Debug)]
pub struct CoreModel {
    name: String,
    freq: Hertz,
    kind: PipelineKind,
    /// Effective instructions-per-cycle on data-processing operators
    /// (captures width, memory-level parallelism, branch prediction).
    ipc: f64,
}

impl CoreModel {
    /// Builds a custom model.
    ///
    /// # Panics
    ///
    /// Panics if `ipc` is not positive.
    pub fn new(name: impl Into<String>, freq: Hertz, kind: PipelineKind, ipc: f64) -> Self {
        assert!(ipc > 0.0, "IPC must be positive");
        CoreModel {
            name: name.into(),
            freq,
            kind,
            ipc,
        }
    }

    /// Table 3's SSD processor: ARM Cortex-A72, out-of-order, 1.6 GHz
    /// (3-wide decode, 5-wide dispatch/retire).
    pub fn a72_1_6ghz() -> Self {
        CoreModel::new(
            "A72 @1.6GHz",
            Hertz::from_mhz(1600),
            PipelineKind::OutOfOrder,
            1.25,
        )
    }

    /// Figure 15's down-clocked A72.
    pub fn a72_0_8ghz() -> Self {
        CoreModel::new(
            "A72 @0.8GHz",
            Hertz::from_mhz(800),
            PipelineKind::OutOfOrder,
            1.25,
        )
    }

    /// Figure 15's in-order Cortex-A53 at the same clock as the A72.
    pub fn a53_1_6ghz() -> Self {
        CoreModel::new(
            "A53 @1.6GHz",
            Hertz::from_mhz(1600),
            PipelineKind::InOrder,
            0.75,
        )
    }

    /// Figure 15's big out-of-order Cortex-A77 at 2.8 GHz.
    pub fn a77_2_8ghz() -> Self {
        CoreModel::new(
            "A77 @2.8GHz",
            Hertz::from_ghz_f64(2.8),
            PipelineKind::OutOfOrder,
            1.9,
        )
    }

    /// The evaluation host: Intel i7-7700K at 4.2 GHz (§6.1).
    pub fn i7_7700k() -> Self {
        CoreModel::new(
            "i7-7700K @4.2GHz",
            Hertz::from_ghz_f64(4.2),
            PipelineKind::OutOfOrder,
            2.2,
        )
    }

    /// Model name for reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Core clock.
    pub fn freq(&self) -> Hertz {
        self.freq
    }

    /// Pipeline kind.
    pub fn kind(&self) -> PipelineKind {
        self.kind
    }

    /// Effective IPC.
    pub fn ipc(&self) -> f64 {
        self.ipc
    }

    /// Time to execute a compute demand on this core.
    pub fn time_for(&self, ops: &OpCounts) -> SimDuration {
        let cycles = ops.reference_cycles() as f64 / self.ipc;
        self.freq.cycles(cycles.round() as u64)
    }

    /// Throughput relative to another core on the same demand (>1 means
    /// `self` is faster).
    pub fn speedup_over(&self, other: &CoreModel) -> f64 {
        (self.freq.as_hz() as f64 * self.ipc) / (other.freq.as_hz() as f64 * other.ipc)
    }
}

/// Host-side SGX cost model (the Host+SGX baseline of §6.1).
///
/// SGX gen-1 costs come from the literature the paper cites: enclave
/// transitions are ~8,000 cycles and EPC paging (EWB + ELDU) is ~40,000
/// cycles per 4 KiB page once the working set exceeds the ~93 MiB of
/// usable EPC. The dominant steady-state cost — the MEE on every DRAM
/// access — is modelled for real by running the host access stream
/// through a split-counter `iceclave_mee::MeeEngine`; this struct
/// carries only the SGX-specific constants.
#[derive(Clone, Debug)]
pub struct SgxModel {
    /// Usable enclave page cache.
    pub epc: ByteSize,
    /// Cycles per ECALL/OCALL round trip.
    pub transition_cycles: u64,
    /// Cycles to evict + reload one EPC page.
    pub paging_cycles_per_page: u64,
}

impl Default for SgxModel {
    fn default() -> Self {
        SgxModel {
            epc: ByteSize::from_mib(93),
            transition_cycles: 8_000,
            paging_cycles_per_page: 40_000,
        }
    }
}

impl SgxModel {
    /// Time spent on `transitions` enclave boundary crossings.
    pub fn transition_time(&self, core: &CoreModel, transitions: u64) -> SimDuration {
        core.freq().cycles(self.transition_cycles * transitions)
    }

    /// EPC paging time for streaming `touched` bytes of enclave data:
    /// zero while it fits in the EPC, otherwise every page beyond the
    /// EPC costs an evict+load pair.
    pub fn paging_time(&self, core: &CoreModel, touched: ByteSize) -> SimDuration {
        if touched.as_bytes() <= self.epc.as_bytes() {
            return SimDuration::ZERO;
        }
        let overflow_pages = (touched.as_bytes() - self.epc.as_bytes()).div_ceil(4096);
        core.freq()
            .cycles(self.paging_cycles_per_page * overflow_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_heavy() -> OpCounts {
        let mut ops = OpCounts::new();
        ops.add(OpClass::ScanTuple, 1_000_000);
        ops.add(OpClass::Filter, 500_000);
        ops
    }

    #[test]
    fn op_counts_merge_and_total() {
        let mut a = scan_heavy();
        let b = scan_heavy();
        a.merge(&b);
        assert_eq!(a.total_ops(), 3_000_000);
        assert_eq!(a.get(OpClass::ScanTuple), 2_000_000);
        assert_eq!(a.get(OpClass::TxnLogic), 0);
        assert!(!a.is_empty());
        assert!(OpCounts::new().is_empty());
    }

    #[test]
    fn classes_sit_at_their_discriminant() {
        for (i, class) in OpClass::ALL.into_iter().enumerate() {
            assert_eq!(class as usize, i, "{class}");
        }
    }

    #[test]
    fn reference_cycles_weight_by_class() {
        let mut cheap = OpCounts::new();
        cheap.add(OpClass::Filter, 100);
        let mut pricey = OpCounts::new();
        pricey.add(OpClass::TxnLogic, 100);
        assert!(pricey.reference_cycles() > cheap.reference_cycles());
    }

    #[test]
    fn host_beats_every_embedded_core() {
        let ops = scan_heavy();
        let host = CoreModel::i7_7700k().time_for(&ops);
        for core in [
            CoreModel::a77_2_8ghz(),
            CoreModel::a72_1_6ghz(),
            CoreModel::a72_0_8ghz(),
            CoreModel::a53_1_6ghz(),
        ] {
            assert!(core.time_for(&ops) > host, "{}", core.name());
        }
    }

    #[test]
    fn figure15_core_ordering() {
        // A77@2.8 > A72@1.6 > A53@1.6 > A72@0.8 in throughput.
        let ops = scan_heavy();
        let a77 = CoreModel::a77_2_8ghz().time_for(&ops);
        let a72 = CoreModel::a72_1_6ghz().time_for(&ops);
        let a53 = CoreModel::a53_1_6ghz().time_for(&ops);
        let a72_slow = CoreModel::a72_0_8ghz().time_for(&ops);
        assert!(a77 < a72);
        assert!(a72 < a53);
        assert!(a53 < a72_slow);
    }

    #[test]
    fn frequency_scales_linearly() {
        let ops = scan_heavy();
        let fast = CoreModel::a72_1_6ghz().time_for(&ops);
        let slow = CoreModel::a72_0_8ghz().time_for(&ops);
        let ratio = slow.as_nanos_f64() / fast.as_nanos_f64();
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn speedup_over_matches_time_ratio() {
        let ops = scan_heavy();
        let host = CoreModel::i7_7700k();
        let a72 = CoreModel::a72_1_6ghz();
        let time_ratio = a72.time_for(&ops).as_nanos_f64() / host.time_for(&ops).as_nanos_f64();
        assert!((host.speedup_over(&a72) - time_ratio).abs() / time_ratio < 0.01);
    }

    #[test]
    fn sgx_paging_kicks_in_past_epc() {
        let sgx = SgxModel::default();
        let core = CoreModel::i7_7700k();
        assert_eq!(
            sgx.paging_time(&core, ByteSize::from_mib(64)),
            SimDuration::ZERO
        );
        let over = sgx.paging_time(&core, ByteSize::from_mib(256));
        assert!(over > SimDuration::ZERO);
        // 1 GiB touches more than 256 MiB does.
        assert!(sgx.paging_time(&core, ByteSize::from_gib(1)) > over);
    }

    #[test]
    fn sgx_transitions_cost_time() {
        let sgx = SgxModel::default();
        let core = CoreModel::i7_7700k();
        let t = sgx.transition_time(&core, 1000);
        // 8M cycles at 4.2 GHz ≈ 1.9 ms.
        assert!((t.as_millis_f64() - 1.9).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "IPC must be positive")]
    fn zero_ipc_panics() {
        let _ = CoreModel::new("bad", Hertz::from_mhz(1), PipelineKind::InOrder, 0.0);
    }
}
