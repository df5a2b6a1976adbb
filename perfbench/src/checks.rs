//! Correctness checks. A failed check, a page that retires `Failed`
//! and an API error each count as one failed operation; nothing
//! panics, so the run still reports every metric.

use iceclave_workloads::WorkloadOutput;

/// Operations attempted and failed over a run, with the first few
/// failure messages.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    const MAX_NOTES: usize = 8;

    /// Counts `attempted` operations of which `failed` failed; `what`
    /// describes the failure.
    pub fn record(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            if self.notes.len() < Self::MAX_NOTES {
                self.notes.push(what());
            }
        }
    }

    /// Counts one operation (an API call or a check) that passed when
    /// `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.record(1, u64::from(!ok), what);
    }

    /// Counts one API call and, on error, its failure.
    pub fn call<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.record(1, 0, String::new);
                Some(v)
            }
            Err(e) => {
                self.record(1, 1, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Failed operations / attempted.
    pub fn share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Every submitted page retired (`Done` or `Failed`).
pub fn all_retired(submitted: u64, retired: u64) -> bool {
    submitted == retired
}

/// No ticket is left in flight at a quiescent point.
pub fn quiescent(in_flight_tickets: usize) -> bool {
    in_flight_tickets == 0
}

/// The ID-bit check never refused one of the benchmark's own TEEs.
pub fn no_denials(access_denied: u64) -> bool {
    access_denied == 0
}

/// After the reboot every written LPN read back `Done` and no
/// in-flight page was lost. `done` lists the LPNs that read back
/// `Done`, in any order.
pub fn readback_complete(written: &[u64], done: &[u64], pages_lost: u64) -> bool {
    let mut done = done.to_vec();
    done.sort_unstable();
    done.dedup();
    let mut written = written.to_vec();
    written.sort_unstable();
    written.dedup();
    pages_lost == 0 && !written.is_empty() && written == done
}

/// Each colocated tenant retired exactly the pages it retired alone.
pub fn solo_counts_match(colocated: &[u64], solo: &[u64]) -> bool {
    colocated.len() == solo.len() && colocated == solo
}

/// Every execution of one program computed the same answer.
pub fn outputs_agree(outputs: &[WorkloadOutput]) -> bool {
    outputs
        .windows(2)
        .all(|w| w[0].rows == w[1].rows && w[0].checksum.to_bits() == w[1].checksum.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_failures_without_panicking() {
        let mut t = Tally::default();
        t.check(true, || unreachable!());
        t.check(false, || "broken".into());
        assert_eq!(t.call::<u8, String>("op", Err("boom".into())), None);
        assert_eq!(t.call::<u8, String>("op", Ok(3)), Some(3));
        t.record(6, 0, || unreachable!());
        assert_eq!((t.attempted, t.failed), (10, 2));
        t.record(10, 3, || "three pages".into());
        assert_eq!((t.attempted, t.failed), (20, 5));
        assert_eq!(t.share(), 0.25);
        assert_eq!(t.notes, ["broken", "op: boom", "three pages"]);
    }

    #[test]
    fn retirement_and_quiescence_checks_catch_tampering() {
        assert!(all_retired(64, 64));
        assert!(!all_retired(64, 63));
        assert!(quiescent(0));
        assert!(!quiescent(1));
        assert!(no_denials(0));
        assert!(!no_denials(1));
    }

    #[test]
    fn readback_check_catches_tampering() {
        assert!(readback_complete(&[3, 1, 2], &[1, 2, 3, 3], 0));
        // A page missing from the read-back, a lost in-flight page, and
        // an empty write set each fail.
        assert!(!readback_complete(&[1, 2, 3], &[1, 3], 0));
        assert!(!readback_complete(&[1, 2, 3], &[1, 2, 3], 1));
        assert!(!readback_complete(&[], &[], 0));
    }

    #[test]
    fn solo_check_catches_tampering() {
        assert!(solo_counts_match(&[10, 20], &[10, 20]));
        assert!(!solo_counts_match(&[10, 21], &[10, 20]));
        assert!(!solo_counts_match(&[10], &[10, 20]));
    }

    #[test]
    fn output_check_catches_tampering() {
        let out = WorkloadOutput {
            rows: 4,
            checksum: 1.5,
        };
        assert!(outputs_agree(&[out, out, out]));
        let rows = WorkloadOutput { rows: 5, ..out };
        let sum = WorkloadOutput {
            checksum: 1.5 + f64::EPSILON,
            ..out
        };
        assert!(!outputs_agree(&[out, rows, out]));
        assert!(!outputs_agree(&[out, out, sum]));
    }
}
