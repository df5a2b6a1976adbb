//! The ticket/completion-event vocabulary of the asynchronous
//! submission path.
//!
//! The event-driven batch executor (`iceclave_exec`, wired into the
//! runtime by `iceclave_core`) accepts read and write batches from
//! multiple TEEs and retires them out of a completion queue instead of
//! blocking the caller. These types carry that contract: a
//! [`Ticket`] names one in-flight batch, and every page of the batch
//! eventually produces one [`CompletionEvent`] with a [`PageStatus`]
//! and a per-stage [`LatencyBreakdown`].
//!
//! Ordering contract: the single source of truth for the completion
//! drain order is the `iceclave_exec::completion` module
//! documentation (quoted verbatim by its `DRAIN_ORDER_CONTRACT`
//! constant and the regression tests); this crate only carries the
//! vocabulary the contract is phrased in.

use crate::addr::Lpn;
use crate::fault::PageError;
use crate::tee::TeeId;
use crate::time::{SimDuration, SimTime};

/// Names one in-flight batch submitted through the asynchronous API.
///
/// Tickets are allocated monotonically per runtime, so they double as
/// the completion queue's same-tick tie-breaker (see the
/// `iceclave_exec::completion` module documentation for the exact
/// drain-order contract).
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub struct Ticket(u64);

impl Ticket {
    /// Wraps a raw ticket number (executor internal).
    pub fn new(raw: u64) -> Self {
        Ticket(raw)
    }

    /// The raw ticket number.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl core::fmt::Display for Ticket {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ticket#{}", self.0)
    }
}

/// Which direction a ticket's batch moves data.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum TicketKind {
    /// A flash-to-TEE read batch (`submit_batch_async`).
    Read,
    /// A TEE-to-flash write batch (`submit_write_batch_async`).
    Write,
}

/// Per-page outcome of an asynchronous batch.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum PageStatus {
    /// The page completed: read pages sit verified in the TEE's input
    /// ring, write pages are durable on flash.
    Done,
    /// The page failed mid-flight. `reason` carries the structured
    /// per-page record ([`PageError`]): what failed, where, and how
    /// many recovery attempts were spent — so one bad page degrades
    /// gracefully instead of aborting the batch.
    Failed {
        /// The structured failure record.
        reason: PageError,
    },
}

impl PageStatus {
    /// True when the page retired successfully.
    pub fn is_done(&self) -> bool {
        matches!(self, PageStatus::Done)
    }

    /// The failure record, when the page failed.
    pub fn error(&self) -> Option<PageError> {
        match self {
            PageStatus::Done => None,
            PageStatus::Failed { reason } => Some(*reason),
        }
    }
}

/// Per-stage timestamps of one page's trip through the executor.
///
/// The stage names are direction-neutral; reads and writes traverse
/// the cipher and flash stages in opposite orders:
///
/// | field        | read ticket                   | write ticket                  |
/// |--------------|-------------------------------|-------------------------------|
/// | `submitted`  | batch submission              | batch submission              |
/// | `prepared`   | translation ready (ID-bit     | MEE seal read-out of the      |
/// |              | check passed)                 | source DRAM page              |
/// | `flash_done` | channel-bus transfer into the | program pulse finished on the |
/// |              | controller                    | die                           |
/// | `cipher_done`| link lane drained (decrypt or | link lane drained (encrypt or |
/// |              | PCIe; `flash_done` if none)   | PCIe)                         |
/// | `ready`      | verified plaintext in the TEE | durable (program + seal       |
/// |              | input ring (MEE fill done)    | metadata both drained)        |
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct LatencyBreakdown {
    /// When the batch was submitted.
    pub submitted: SimTime,
    /// End of the preparation stage (translate / seal read-out).
    pub prepared: SimTime,
    /// End of the flash stage (bus transfer / program pulse).
    pub flash_done: SimTime,
    /// End of the link's lane stage (stream cipher or PCIe).
    pub cipher_done: SimTime,
    /// When the page's completion fires.
    pub ready: SimTime,
}

impl LatencyBreakdown {
    /// A breakdown with every stage pinned at `submitted` (stages fill
    /// in as the page advances).
    pub fn at_submission(submitted: SimTime) -> Self {
        LatencyBreakdown {
            submitted,
            prepared: submitted,
            flash_done: submitted,
            cipher_done: submitted,
            ready: submitted,
        }
    }

    /// End-to-end latency of the page (submission to completion).
    pub fn total(&self) -> SimDuration {
        self.ready.saturating_since(self.submitted)
    }
}

/// One drained entry of the completion queue: a page of an
/// asynchronous batch that has fully retired.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct CompletionEvent {
    /// The batch this page belongs to.
    pub ticket: Ticket,
    /// Read or write side.
    pub kind: TicketKind,
    /// The submitting TEE.
    pub tee: TeeId,
    /// The page's index within its batch (the documented same-tick
    /// tie-breaker after the ticket id).
    pub index: u32,
    /// The logical page.
    pub lpn: Lpn,
    /// Whether the page completed or failed.
    pub status: PageStatus,
    /// Per-stage timestamps; `breakdown.ready` is when this event
    /// became drainable.
    pub breakdown: LatencyBreakdown,
    /// Deciphered page content for read pages with functional data
    /// (timing-only simulations and write pages carry `None`).
    pub data: Option<Vec<u8>>,
}

impl CompletionEvent {
    /// When this completion became drainable.
    pub fn ready_at(&self) -> SimTime {
        self.breakdown.ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn tickets_order_by_raw_value() {
        assert!(Ticket::new(1) < Ticket::new(2));
        assert_eq!(Ticket::new(7).raw(), 7);
        assert_eq!(Ticket::new(7).to_string(), "ticket#7");
    }

    #[test]
    fn breakdown_total_spans_submission_to_ready() {
        let t0 = SimTime::ZERO + SimDuration::from_micros(3);
        let mut b = LatencyBreakdown::at_submission(t0);
        assert_eq!(b.total(), SimDuration::ZERO);
        b.ready = t0 + SimDuration::from_micros(40);
        assert_eq!(b.total(), SimDuration::from_micros(40));
    }
}
