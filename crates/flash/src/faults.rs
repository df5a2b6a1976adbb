//! Deterministic fault injection at the [`FlashArray`] boundary.
//!
//! A production in-storage TEE lives with raw-bit-error bursts,
//! program/erase failures and grown bad blocks. This module models
//! them as a *declarative schedule* ([`FaultPlan`]) turned into a
//! stateful drawer ([`FaultInjector`]) seeded from
//! [`iceclave_sim::SimRng`]: every device operation consumes one draw
//! from a per-operation-kind sub-stream, so two runs with the same
//! plan and the same operation sequence inject bit-identical faults —
//! the property every recovery test in `tests/fault_injection.rs`
//! leans on.
//!
//! Injection happens inside [`FlashArray`]
//! ([`FlashArray::read_page`], [`FlashArray::program_page`],
//! [`FlashArray::erase_block`]) so every layer above — FTL remap, the
//! executor's read-retry ladder, the MEE fallback — sees faults
//! through the same typed [`FlashError`](crate::FlashError) surface
//! the real device would report through its status registers.
//!
//! [`FlashArray`]: crate::FlashArray
//! [`FlashArray::read_page`]: crate::FlashArray::read_page
//! [`FlashArray::program_page`]: crate::FlashArray::program_page
//! [`FlashArray::erase_block`]: crate::FlashArray::erase_block

use iceclave_sim::SimRng;

/// What one page read drew from the fault plan.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum ReadFault {
    /// No raw-bit-error burst on this read.
    None,
    /// A burst of `raw_errors` byte errors within the ECC correction
    /// strength: the codec corrects them transparently (counted, no
    /// error surfaced).
    Corrected(u32),
    /// A burst beyond the ECC correction strength: the read fails with
    /// [`FlashError::ReadUncorrectable`](crate::FlashError::ReadUncorrectable).
    Uncorrectable(u32),
}

/// A declarative, seed-reproducible schedule of flash faults.
///
/// Rates draw from independent [`SimRng`] sub-streams (one per
/// operation kind, so read traffic never perturbs program draws); the
/// `*_ops` lists script *specific* operation ordinals to fail — ordinal
/// 0 is the first operation of that kind executed after the injector
/// is installed — which is how tests pin "exactly one program failure
/// in the middle of this batch".
///
/// The [`Default`] plan injects nothing: a device with an installed
/// empty plan behaves bit-identically to one with no injector at all.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Root seed of every fault sub-stream.
    pub seed: u64,
    /// Probability that a page read suffers a raw-bit-error burst.
    pub read_burst_rate: f64,
    /// Burst sizes draw uniformly from `1..=max_burst` (byte errors
    /// per codeword). Sized against [`ecc_t`](FaultPlan::ecc_t): a
    /// burst of more than `ecc_t` byte errors is uncorrectable.
    pub max_burst: u32,
    /// ECC correction strength `t`: byte errors per codeword the
    /// controller's ECC corrects. Faults are burst counts checked
    /// against it; no codec runs on the stored bytes.
    pub ecc_t: u32,
    /// Probability that a page program reports status FAIL.
    pub program_fail_rate: f64,
    /// Probability that a block erase reports status FAIL.
    pub erase_fail_rate: f64,
    /// Fraction of blocks born bad (factory bad-block list), chosen
    /// deterministically from the seed.
    pub initial_bad_fraction: f64,
    /// Scripted read ordinals that fail uncorrectably regardless of
    /// the rates (a retry is a new ordinal, so a single scripted entry
    /// models a transient burst the retry ladder recovers from).
    pub read_fail_ops: Vec<u64>,
    /// Scripted program ordinals that report status FAIL.
    pub program_fail_ops: Vec<u64>,
    /// Scripted erase ordinals that report status FAIL.
    pub erase_fail_ops: Vec<u64>,
}

impl FaultPlan {
    /// The empty plan: injects nothing, ever.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A transient-fault plan: raw-bit-error bursts at `rate` with
    /// burst sizes up to twice the default correction strength (t=8),
    /// so roughly half the bursts exceed the ECC and trip the retry
    /// ladder. No program/erase faults.
    pub fn transient(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            read_burst_rate: rate,
            max_burst: 16,
            ecc_t: 8,
            ..FaultPlan::default()
        }
    }

    /// True when the plan can never inject a fault.
    pub fn is_empty(&self) -> bool {
        self.read_burst_rate == 0.0
            && self.program_fail_rate == 0.0
            && self.erase_fail_rate == 0.0
            && self.initial_bad_fraction == 0.0
            && self.read_fail_ops.is_empty()
            && self.program_fail_ops.is_empty()
            && self.erase_fail_ops.is_empty()
    }
}

/// The stateful fault drawer: one per device, installed with
/// [`FlashArray::set_fault_injector`](crate::FlashArray::set_fault_injector).
///
/// Each operation kind consumes from its own derived [`SimRng`]
/// stream and its own ordinal counter, so the injected schedule is a
/// pure function of `(plan, per-kind operation sequence)`.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    read_rng: SimRng,
    program_rng: SimRng,
    erase_rng: SimRng,
    read_ops: u64,
    program_ops: u64,
    erase_ops: u64,
}

impl FaultInjector {
    /// Builds the injector, deriving one sub-stream per operation
    /// kind.
    pub fn new(plan: FaultPlan) -> Self {
        let root = SimRng::new(plan.seed);
        FaultInjector {
            read_rng: root.derive("faults/read"),
            program_rng: root.derive("faults/program"),
            erase_rng: root.derive("faults/erase"),
            plan,
            read_ops: 0,
            program_ops: 0,
            erase_ops: 0,
        }
    }

    /// The plan this injector draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The factory bad-block list: block indexes (see
    /// [`FlashGeometry::block_index`](crate::FlashGeometry::block_index))
    /// born bad under this plan's seed. Deterministic and idempotent —
    /// the draw uses its own derived stream, untouched by runtime
    /// operations.
    pub fn born_bad_blocks(&self, total_blocks: u64) -> Vec<u64> {
        if self.plan.initial_bad_fraction <= 0.0 {
            return Vec::new();
        }
        let mut rng = SimRng::new(self.plan.seed).derive("faults/born-bad");
        (0..total_blocks)
            .filter(|_| rng.gen_bool(self.plan.initial_bad_fraction))
            .collect()
    }

    /// Draws the fault outcome of the next page read.
    pub fn read_outcome(&mut self) -> ReadFault {
        let op = self.read_ops;
        self.read_ops += 1;
        if self.plan.read_fail_ops.contains(&op) {
            return ReadFault::Uncorrectable(self.plan.ecc_t + 1);
        }
        if self.plan.read_burst_rate > 0.0 && self.read_rng.gen_bool(self.plan.read_burst_rate) {
            let burst = 1 + self
                .read_rng
                .gen_below(u64::from(self.plan.max_burst.max(1)))
                as u32;
            if burst > self.plan.ecc_t {
                return ReadFault::Uncorrectable(burst);
            }
            return ReadFault::Corrected(burst);
        }
        ReadFault::None
    }

    /// Draws whether the next page program reports status FAIL.
    pub fn program_fails(&mut self) -> bool {
        let op = self.program_ops;
        self.program_ops += 1;
        if self.plan.program_fail_ops.contains(&op) {
            return true;
        }
        self.plan.program_fail_rate > 0.0 && self.program_rng.gen_bool(self.plan.program_fail_rate)
    }

    /// Draws whether the next block erase reports status FAIL.
    pub fn erase_fails(&mut self) -> bool {
        let op = self.erase_ops;
        self.erase_ops += 1;
        if self.plan.erase_fail_ops.contains(&op) {
            return true;
        }
        self.plan.erase_fail_rate > 0.0 && self.erase_rng.gen_bool(self.plan.erase_fail_rate)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_faults() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        for _ in 0..1000 {
            assert_eq!(inj.read_outcome(), ReadFault::None);
            assert!(!inj.program_fails());
            assert!(!inj.erase_fails());
        }
        assert!(inj.born_bad_blocks(4096).is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn same_plan_same_draws() {
        let plan = FaultPlan {
            program_fail_rate: 0.1,
            erase_fail_rate: 0.1,
            ..FaultPlan::transient(7, 0.05)
        };
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for _ in 0..500 {
            assert_eq!(a.read_outcome(), b.read_outcome());
            assert_eq!(a.program_fails(), b.program_fails());
            assert_eq!(a.erase_fails(), b.erase_fails());
        }
    }

    #[test]
    fn substreams_are_independent() {
        let plan = FaultPlan {
            program_fail_rate: 0.1,
            ..FaultPlan::transient(7, 0.05)
        };
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        // Extra read traffic on `a` must not perturb its program draws.
        for _ in 0..100 {
            a.read_outcome();
        }
        for _ in 0..200 {
            assert_eq!(a.program_fails(), b.program_fails());
        }
    }

    #[test]
    fn scripted_ops_fail_exactly_once() {
        let plan = FaultPlan {
            program_fail_ops: vec![3],
            read_fail_ops: vec![1],
            erase_fail_ops: vec![0],
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan);
        let programs: Vec<bool> = (0..6).map(|_| inj.program_fails()).collect();
        assert_eq!(programs, vec![false, false, false, true, false, false]);
        assert_eq!(inj.read_outcome(), ReadFault::None);
        assert!(matches!(inj.read_outcome(), ReadFault::Uncorrectable(_)));
        assert_eq!(inj.read_outcome(), ReadFault::None);
        assert!(inj.erase_fails());
        assert!(!inj.erase_fails());
    }

    #[test]
    fn bursts_respect_ecc_strength() {
        let mut inj = FaultInjector::new(FaultPlan::transient(11, 1.0));
        let mut corrected = 0u32;
        let mut uncorrectable = 0u32;
        for _ in 0..500 {
            match inj.read_outcome() {
                ReadFault::Corrected(n) => {
                    assert!((1..=8).contains(&n));
                    corrected += 1;
                }
                ReadFault::Uncorrectable(n) => {
                    assert!((9..=16).contains(&n));
                    uncorrectable += 1;
                }
                ReadFault::None => unreachable!("rate is 1.0"),
            }
        }
        assert!(corrected > 100 && uncorrectable > 100);
    }

    #[test]
    fn born_bad_list_is_deterministic_and_idempotent() {
        let plan = FaultPlan {
            initial_bad_fraction: 0.05,
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(plan.clone());
        let first = inj.born_bad_blocks(2048);
        assert!(!first.is_empty());
        assert!(first.len() < 300);
        assert_eq!(first, inj.born_bad_blocks(2048));
        assert_eq!(first, FaultInjector::new(plan).born_bad_blocks(2048));
    }
}
