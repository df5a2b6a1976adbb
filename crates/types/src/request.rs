//! The batch/completion vocabulary of the protected data path.
//!
//! IceClave's evaluation (Figures 12–13) rests on flash *channel
//! parallelism*: an in-storage program asks for many pages at once and
//! the device overlaps their cell reads, bus transfers, decryption and
//! MEE fills. A read batch is submitted as a slice of logical pages, a
//! write batch as [`PageWrite`]s (the FTL sees it as a
//! [`WriteBatchRequest`]); waiting on either ticket returns a
//! [`BatchCompletion`] holding each page's [`CompletionEvent`], whose
//! `ready_at()` is the read page's fill or the written page's durable
//! time.

use crate::addr::Lpn;
use crate::ticket::CompletionEvent;
use crate::time::{SimDuration, SimTime};

/// The completion of a whole read or write batch.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct BatchCompletion {
    /// When the batch was submitted.
    pub issued: SimTime,
    /// When the last page of the batch completed (for writes: every
    /// page was durable and the secure world was exited).
    pub finished: SimTime,
    /// Per-page completion events, in page order.
    pub completions: Vec<CompletionEvent>,
}

impl BatchCompletion {
    /// Number of completed pages.
    pub fn len(&self) -> usize {
        self.completions.len()
    }

    /// True when no pages were requested.
    pub fn is_empty(&self) -> bool {
        self.completions.is_empty()
    }

    /// End-to-end simulated latency of the batch.
    pub fn latency(&self) -> SimDuration {
        self.finished.saturating_since(self.issued)
    }
}

/// One page of a write batch: a logical page the requestor wants
/// programmed out-of-place, plus when its (encrypted) data is
/// available to the flash controller.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct WritePageRequest {
    /// The logical page to (re)write.
    pub lpn: Lpn,
    /// When the page's outbound data is ready at the controller
    /// ([`SimTime::ZERO`] means "at submission": the program waits only
    /// for the batch's secure-world entry and its channel).
    pub ready: SimTime,
}

impl WritePageRequest {
    /// A request for `lpn` whose data is ready at submission.
    pub fn new(lpn: Lpn) -> Self {
        WritePageRequest {
            lpn,
            ready: SimTime::ZERO,
        }
    }
}

/// A multi-page program request, issued as one unit so the device can
/// allocate GC-aware and overlap the channel programs.
#[derive(Clone, Eq, PartialEq, Debug, Default)]
pub struct WriteBatchRequest {
    /// The pages, in the order the caller produced them.
    pub requests: Vec<WritePageRequest>,
}

impl WriteBatchRequest {
    /// A batch over `lpns`, preserving order, all ready at submission.
    pub fn from_lpns(lpns: &[Lpn]) -> Self {
        WriteBatchRequest {
            requests: lpns.iter().copied().map(WritePageRequest::new).collect(),
        }
    }

    /// Number of pages in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the batch has no pages.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// One page of a runtime-level write batch: the logical page plus
/// optional functional content (plaintext) to persist at it.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct PageWrite {
    /// The logical page to (re)write.
    pub lpn: Lpn,
    /// Plaintext to store at the page's new physical location
    /// (timing-only simulations carry `None`).
    pub data: Option<Vec<u8>>,
}

impl PageWrite {
    /// A timing-only write of `lpn`.
    pub fn new(lpn: Lpn) -> Self {
        PageWrite { lpn, data: None }
    }

    /// A write of `lpn` carrying functional content.
    pub fn with_data(lpn: Lpn, data: Vec<u8>) -> Self {
        PageWrite {
            lpn,
            data: Some(data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_spans_issue_to_finish() {
        let issued = SimTime::ZERO;
        let finished = issued + SimDuration::from_micros(80);
        let done = BatchCompletion {
            issued,
            finished,
            completions: Vec::new(),
        };
        assert!(done.is_empty());
        assert_eq!(done.len(), 0);
        assert_eq!(done.latency(), SimDuration::from_micros(80));
    }

    #[test]
    fn write_batch_request_preserves_order() {
        let lpns: Vec<Lpn> = (0..5).map(Lpn::new).collect();
        let batch = WriteBatchRequest::from_lpns(&lpns);
        assert_eq!(batch.len(), 5);
        assert!(!batch.is_empty());
        for (i, req) in batch.requests.iter().enumerate() {
            assert_eq!(req.lpn, Lpn::new(i as u64));
            assert_eq!(req.ready, SimTime::ZERO);
        }
    }

    #[test]
    fn page_write_carries_optional_content() {
        assert_eq!(PageWrite::new(Lpn::new(1)).data, None);
        let w = PageWrite::with_data(Lpn::new(2), vec![7; 8]);
        assert_eq!(w.data.as_deref(), Some(&[7u8; 8][..]));
    }
}
