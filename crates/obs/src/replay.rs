//! Replay a captured op-log against a live device.
//!
//! A [`TraceLog`] names, for every ticket, its tenant, direction, LPN
//! set and submission time — everything needed to re-drive the same
//! workload through `submit_batch_async`/`submit_write_batch_async` on
//! any device configuration. The driver is generic over a
//! [`ReplayTarget`] so this crate stays below `iceclave_core` (which
//! implements the trait for `IceClave`).
//!
//! # Modes
//!
//! * [`ReplayMode::Paced`] — preserve the capture's inter-arrival gaps:
//!   ticket *i* is submitted at `start + (submittedᵢ − submitted₀)`,
//!   polling due completions before each submission. Reproduces the
//!   original offered load against a possibly different device.
//! * [`ReplayMode::Afap`] — as fast as possible: submit every ticket at
//!   `start` in capture submission order, then drain. Against the
//!   *same* device configuration this reproduces the captured
//!   completion sequence exactly (the determinism contract), which is
//!   what the replay-equivalence test asserts.

use iceclave_types::{CompletionEvent, Lpn, SimTime, TeeId, Ticket, TicketKind};

use crate::trace::TraceLog;

/// How to space the captured submissions in simulated time.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum ReplayMode {
    /// Preserve the capture's original inter-arrival gaps.
    Paced,
    /// Submit everything at the start time, in capture order.
    Afap,
}

/// A device that can accept replayed submissions.
///
/// Implemented by `iceclave_core::IceClave` over its asynchronous batch
/// API; tests use lightweight mocks.
pub trait ReplayTarget {
    /// The device's submission error type.
    type Error: std::fmt::Debug;

    /// Submits a read batch for `tee` covering `lpns` at time `at`.
    ///
    /// # Errors
    ///
    /// Propagates the device's submission failure.
    fn replay_read(&mut self, tee: TeeId, lpns: &[Lpn], at: SimTime)
        -> Result<Ticket, Self::Error>;

    /// Submits a write batch for `tee` covering `lpns` at time `at`.
    ///
    /// # Errors
    ///
    /// Propagates the device's submission failure.
    fn replay_write(
        &mut self,
        tee: TeeId,
        lpns: &[Lpn],
        at: SimTime,
    ) -> Result<Ticket, Self::Error>;

    /// Drains completions ready at or before `now`.
    fn replay_poll(&mut self, now: SimTime) -> Vec<CompletionEvent>;

    /// Runs the device to idle and drains every completion.
    fn replay_drain(&mut self) -> Vec<CompletionEvent>;
}

/// Why a replay stopped.
#[derive(Debug)]
pub enum ReplayError<E> {
    /// A captured TEE id no longer round-trips through [`TeeId::new`].
    BadTee(u8),
    /// The target rejected a submission.
    Target(E),
}

impl<E: std::fmt::Debug> std::fmt::Display for ReplayError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::BadTee(raw) => write!(f, "captured tee id {raw} is invalid"),
            ReplayError::Target(e) => write!(f, "replay target rejected a submission: {e:?}"),
        }
    }
}

impl<E: std::fmt::Debug> std::error::Error for ReplayError<E> {}

/// The result of a replay run.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// `(captured ticket id, replayed ticket)` in submission order.
    pub submitted: Vec<(u64, Ticket)>,
    /// Every completion drained, in drain order.
    pub completions: Vec<CompletionEvent>,
}

/// Feeds `log` back through `target` under `mode`, starting at `start`.
///
/// Tickets are submitted in ascending *(captured submission time,
/// captured ticket id)* order — the order the original run issued them.
///
/// # Errors
///
/// Returns [`ReplayError::BadTee`] if a captured TEE id fails
/// validation, or [`ReplayError::Target`] when the device rejects a
/// submission (e.g. the TEE is not running on the replay device).
pub fn replay<T: ReplayTarget>(
    target: &mut T,
    log: &TraceLog,
    mode: ReplayMode,
    start: SimTime,
) -> Result<ReplayOutcome, ReplayError<T::Error>> {
    let mut records = log.records();
    records.sort_by_key(|r| (r.submitted, r.ticket));
    let origin = records.first().map_or(SimTime::ZERO, |r| r.submitted);

    let mut outcome = ReplayOutcome {
        submitted: Vec::with_capacity(records.len()),
        completions: Vec::new(),
    };
    for rec in &records {
        let at = match mode {
            ReplayMode::Afap => start,
            ReplayMode::Paced => {
                let at = start + rec.submitted.saturating_since(origin);
                outcome.completions.extend(target.replay_poll(at));
                at
            }
        };
        let tee = TeeId::new(u16::from(rec.tee)).map_err(|_| ReplayError::BadTee(rec.tee))?;
        let lpns: Vec<Lpn> = rec.pages.iter().map(|p| p.lpn).collect();
        let ticket = match rec.kind {
            TicketKind::Read => target.replay_read(tee, &lpns, at),
            TicketKind::Write => target.replay_write(tee, &lpns, at),
        }
        .map_err(ReplayError::Target)?;
        outcome.submitted.push((rec.ticket, ticket));
    }
    outcome.completions.extend(target.replay_drain());
    Ok(outcome)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::trace::{PageTrace, TraceRecord};
    use iceclave_types::{FaultStats, LatencyBreakdown, PageStatus, SimDuration};

    /// Records submissions; completes one dummy event per drain call.
    #[derive(Default, Debug)]
    struct Mock {
        calls: Vec<(String, u8, Vec<u64>, u64)>,
        next: u64,
        polls: usize,
        drains: usize,
    }

    impl ReplayTarget for Mock {
        type Error = ();

        fn replay_read(
            &mut self,
            tee: TeeId,
            lpns: &[Lpn],
            at: SimTime,
        ) -> Result<Ticket, Self::Error> {
            self.next += 1;
            self.calls.push((
                "r".into(),
                tee.raw(),
                lpns.iter().map(|l| l.raw()).collect(),
                at.as_ps(),
            ));
            Ok(Ticket::new(self.next))
        }

        fn replay_write(
            &mut self,
            tee: TeeId,
            lpns: &[Lpn],
            at: SimTime,
        ) -> Result<Ticket, Self::Error> {
            self.next += 1;
            self.calls.push((
                "w".into(),
                tee.raw(),
                lpns.iter().map(|l| l.raw()).collect(),
                at.as_ps(),
            ));
            Ok(Ticket::new(self.next))
        }

        fn replay_poll(&mut self, _now: SimTime) -> Vec<CompletionEvent> {
            self.polls += 1;
            Vec::new()
        }

        fn replay_drain(&mut self) -> Vec<CompletionEvent> {
            self.drains += 1;
            Vec::new()
        }
    }

    fn record(
        ticket: u64,
        tee: u8,
        kind: TicketKind,
        submitted_ns: u64,
        lpns: &[u64],
    ) -> TraceRecord {
        let submitted = SimTime::ZERO + SimDuration::from_nanos(submitted_ns);
        TraceRecord {
            ticket,
            tee,
            kind,
            submitted,
            first_ready: submitted,
            finished: submitted,
            faults: FaultStats::default(),
            pages: lpns
                .iter()
                .enumerate()
                .map(|(i, &lpn)| PageTrace {
                    index: i as u32,
                    lpn: Lpn::new(lpn),
                    status: PageStatus::Done,
                    breakdown: LatencyBreakdown::at_submission(submitted),
                    data_hash: 0,
                })
                .collect(),
        }
    }

    fn two_ticket_log() -> TraceLog {
        let mut log = TraceLog::new();
        // Pushed in close order (2 closed first) but 1 submitted first:
        // replay must sort by submission time.
        log.push(&record(2, 2, TicketKind::Write, 500, &[7, 8]));
        log.push(&record(1, 1, TicketKind::Read, 100, &[3]));
        log
    }

    #[test]
    fn afap_submits_in_capture_submission_order_at_start() {
        let mut mock = Mock::default();
        let start = SimTime::ZERO + SimDuration::from_micros(9);
        let out = replay(&mut mock, &two_ticket_log(), ReplayMode::Afap, start).unwrap();
        assert_eq!(out.submitted.len(), 2);
        assert_eq!(out.submitted[0].0, 1, "earlier submission first");
        assert_eq!(mock.calls[0], ("r".into(), 1, vec![3], start.as_ps()));
        assert_eq!(mock.calls[1], ("w".into(), 2, vec![7, 8], start.as_ps()));
        assert_eq!(mock.drains, 1);
    }

    #[test]
    fn paced_preserves_inter_arrival_gaps() {
        let mut mock = Mock::default();
        let start = SimTime::ZERO + SimDuration::from_micros(1);
        replay(&mut mock, &two_ticket_log(), ReplayMode::Paced, start).unwrap();
        let gap_ps = mock.calls[1].3 - mock.calls[0].3;
        assert_eq!(gap_ps, 400_000, "400 ns original gap, in picoseconds");
        assert_eq!(mock.polls, 2, "polled before each submission");
        assert_eq!(mock.drains, 1);
    }

    #[test]
    fn empty_log_is_a_noop() {
        let mut mock = Mock::default();
        let out = replay(&mut mock, &TraceLog::new(), ReplayMode::Afap, SimTime::ZERO).unwrap();
        assert!(out.submitted.is_empty());
        assert!(out.completions.is_empty());
    }
}
