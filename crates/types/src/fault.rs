//! The per-page error and fault-accounting vocabulary.
//!
//! Faults injected at the flash boundary (see `iceclave_flash::faults`)
//! surface to callers in exactly one shape: a [`PageError`] names the
//! physical page, how many attempts the recovery ladder spent on it,
//! and the terminal [`PageErrorCause`]. Completions
//! ([`PageStatus::Failed`](crate::PageStatus)) and run-level statistics
//! ([`FaultStats`]) both speak this vocabulary, so a failed page in a
//! drained completion can be correlated with the aggregate counters
//! without any stringly-typed glue.

use crate::addr::Ppn;
use crate::time::SimDuration;

/// Why a page terminally failed after recovery was exhausted.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum PageErrorCause {
    /// Raw-bit-error bursts exceeded the ECC correction strength on
    /// every rung of the read-retry ladder.
    Uncorrectable,
    /// The program operation reported status FAIL and the remap path
    /// could not land the page elsewhere.
    ProgramFailed,
    /// The owning TEE was thrown out (or terminated) while the page
    /// was in flight; the page was never completed.
    Cancelled,
}

impl core::fmt::Display for PageErrorCause {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PageErrorCause::Uncorrectable => write!(f, "uncorrectable read"),
            PageErrorCause::ProgramFailed => write!(f, "program failed"),
            PageErrorCause::Cancelled => write!(f, "cancelled in flight"),
        }
    }
}

/// The structured record of one page's terminal failure.
///
/// Carried by [`PageStatus::Failed`](crate::PageStatus) so a ticket
/// completes *partially* — healthy pages retire `Done`, each failed
/// page reports its own `PageError` — instead of aborting the whole
/// batch.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct PageError {
    /// The physical page the failure happened at (`Ppn::new(0)` when
    /// the page never reached translation, e.g. cancelled at submit).
    pub ppn: Ppn,
    /// How many attempts were spent before giving up (1 = failed on
    /// the first try with no retry budget left, 0 = never attempted).
    pub attempts: u32,
    /// The terminal cause.
    pub cause: PageErrorCause,
}

impl core::fmt::Display for PageError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} at {} after {} attempt{}",
            self.cause,
            self.ppn,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" }
        )
    }
}

/// Fault-and-recovery accounting for one ticket.
///
/// The executor driver charges each ticket the read retries, ECC
/// corrections, program remaps and block retirements its own stages
/// triggered, and hands the sum to the retirement observer when the
/// ticket closes (the op-log records it).
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct FaultStats {
    /// Read attempts re-issued by the executor's retry ladder.
    pub read_retries: u64,
    /// Pages that exhausted the ladder and completed `Failed`.
    pub uncorrectable_pages: u64,
    /// Raw-bit-error bursts the ECC corrected transparently.
    pub corrected_bursts: u64,
    /// Pages re-steered to another block after a program failure.
    pub program_remaps: u64,
    /// Blocks retired into the grown-bad-block table.
    pub blocks_retired: u64,
}

impl FaultStats {
    /// True when no fault activity was recorded at all.
    pub fn is_quiet(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// What one reboot-and-replay pass recovered (and gave up on).
///
/// Produced by `IceClave::recover` after a power cut (or a clean
/// shutdown), so crash sweeps (`benches/crash_recovery.rs`) can report
/// replay cost alongside the durability outcome.
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct RecoveryStats {
    /// True when the journal's last record was a clean-shutdown seal:
    /// the boot took the fast path and replayed no dirty state.
    pub clean_boot: bool,
    /// Journal records re-applied to rebuild the mapping, grown-bad
    /// and counter-epoch state.
    pub records_replayed: u64,
    /// Records discarded as the torn tail — appended but not fully
    /// durable when the power failed.
    pub torn_records: u64,
    /// Journal pages read back during replay.
    pub pages_read: u64,
    /// In-flight (never-acknowledged) pages the crash destroyed; the
    /// durability contract never covered them.
    pub pages_lost: u64,
    /// Simulated time the reboot spent reading and replaying the
    /// journal.
    pub recovery_time: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_error_displays_cause_and_location() {
        let e = PageError {
            ppn: Ppn::new(42),
            attempts: 3,
            cause: PageErrorCause::Uncorrectable,
        };
        let s = e.to_string();
        assert!(s.contains("uncorrectable"), "{s}");
        assert!(s.contains("3 attempts"), "{s}");
        let one = PageError {
            ppn: Ppn::new(1),
            attempts: 1,
            cause: PageErrorCause::ProgramFailed,
        };
        assert!(one.to_string().ends_with("1 attempt"));
    }

    #[test]
    fn fault_stats_default_is_quiet() {
        assert!(FaultStats::default().is_quiet());
        let s = FaultStats {
            read_retries: 1,
            ..FaultStats::default()
        };
        assert!(!s.is_quiet());
    }
}
