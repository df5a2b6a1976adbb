//! Acceptance tests of the event-driven batch executor
//! (`iceclave_exec` + `IceClave::submit_batch_async` /
//! `poll_completions`).
//!
//! * Two concurrently submitted 32-page batches on a 16-channel device
//!   must complete in measurably less total simulated time than the
//!   same two batches run back-to-back (each waited before the next is
//!   submitted), while the delivered bytes stay identical.
//! * Completion sequences are deterministic, and same-tick completions
//!   drain in the documented *(ticket id, page index)* order.
//! * `wait_batch` returns exactly the events a drain would deliver for
//!   its ticket, read or write.

use iceclave_repro::iceclave_core::{AbortReason, IceClave, IceClaveError, TeeStatus};
use iceclave_repro::iceclave_experiments::{Mode, Overrides};
use iceclave_repro::iceclave_ftl::FtlError;
use iceclave_repro::iceclave_types::{
    CompletionEvent, Lpn, PageStatus, PageWrite, SimTime, TeeId, Ticket, TicketKind,
};

const BATCH: u64 = 32;

fn payload(i: u64) -> Vec<u8> {
    (0..4096u32).map(|b| (b as u8) ^ (i as u8) ^ 0x3C).collect()
}

/// A 16-channel device with 2 TEEs, each granted `BATCH` pages of
/// staged functional content.
fn setup(channels: u32) -> (IceClave, TeeId, TeeId, Vec<Lpn>, Vec<Lpn>, SimTime) {
    let overrides = Overrides {
        channels: Some(channels),
        ..Overrides::none()
    };
    let config = Mode::IceClave.ssd_config(&overrides);
    let mut ice = IceClave::new(config);
    let t = ice.populate(Lpn::new(0), 2 * BATCH, SimTime::ZERO).unwrap();
    for i in 0..2 * BATCH {
        ice.host_store_data(Lpn::new(i), &payload(i), t).unwrap();
    }
    let a_lpns: Vec<Lpn> = (0..BATCH).map(Lpn::new).collect();
    let b_lpns: Vec<Lpn> = (BATCH..2 * BATCH).map(Lpn::new).collect();
    let (tee_a, t) = ice.offload_code(1024, &a_lpns, t).unwrap();
    let (tee_b, t) = ice.offload_code(1024, &b_lpns, t).unwrap();
    (ice, tee_a, tee_b, a_lpns, b_lpns, t)
}

#[test]
fn concurrent_batches_beat_back_to_back_blocking() {
    // Back-to-back, each ticket waited before the next is submitted:
    // B only enters the device once A's last page sits in its input
    // ring.
    let (mut blocking, tee_a, tee_b, a_lpns, b_lpns, t0) = setup(16);
    let a = blocking
        .submit_batch_async(tee_a, &a_lpns, t0)
        .and_then(|tk| blocking.wait_batch(tk))
        .unwrap();
    let b = blocking
        .submit_batch_async(tee_b, &b_lpns, a.finished)
        .and_then(|tk| blocking.wait_batch(tk))
        .unwrap();
    let blocking_total = b.finished.saturating_since(t0);

    // Concurrently through the executor: both tickets in flight at t0,
    // pages interleaving at stage granularity.
    let (mut exec, tee_a2, tee_b2, a_lpns2, b_lpns2, t1) = setup(16);
    assert_eq!(t0, t1, "identical setups share a clock");
    let ta = exec.submit_batch_async(tee_a2, &a_lpns2, t1).unwrap();
    let tb = exec.submit_batch_async(tee_b2, &b_lpns2, t1).unwrap();
    assert_eq!(exec.in_flight_tickets(), 2);
    let events = exec.drain_completions();
    assert_eq!(events.len(), 2 * BATCH as usize);
    assert_eq!(exec.in_flight_tickets(), 0);
    let concurrent_total = events
        .iter()
        .map(CompletionEvent::ready_at)
        .max()
        .unwrap()
        .saturating_since(t1);

    // The acceptance criterion: measurably less total simulated time.
    assert!(
        concurrent_total < blocking_total,
        "concurrent {concurrent_total} not faster than back-to-back {blocking_total}"
    );
    assert!(
        concurrent_total.as_nanos_f64() < 0.8 * blocking_total.as_nanos_f64(),
        "win not measurable: concurrent {concurrent_total} vs back-to-back {blocking_total}"
    );

    // ...while poll_completions delivers byte-identical plaintext.
    for ev in &events {
        assert_eq!(ev.status, PageStatus::Done);
        assert_eq!(ev.kind, TicketKind::Read);
        let (expected_lpn, blocking_page) = if ev.ticket == ta {
            (
                a_lpns2[ev.index as usize],
                &a.completions[ev.index as usize],
            )
        } else {
            assert_eq!(ev.ticket, tb);
            (
                b_lpns2[ev.index as usize],
                &b.completions[ev.index as usize],
            )
        };
        assert_eq!(ev.lpn, expected_lpn);
        assert_eq!(
            ev.data, blocking_page.data,
            "bytes must match the blocking path"
        );
        assert_eq!(ev.data.as_deref(), Some(&payload(ev.lpn.raw())[..]));
    }
}

/// The latency breakdown of every page is stage-monotone.
#[test]
fn completion_breakdown_is_stage_monotone() {
    let (mut ice, tee_a, _tee_b, a_lpns, _b, t0) = setup(16);
    let ticket = ice.submit_batch_async(tee_a, &a_lpns, t0).unwrap();
    let events = ice.drain_completions();
    assert_eq!(events.len(), BATCH as usize);
    for ev in &events {
        assert_eq!(ev.ticket, ticket);
        let b = ev.breakdown;
        assert_eq!(b.submitted, t0);
        assert!(b.prepared >= b.submitted, "translate after submit");
        assert!(b.flash_done > b.prepared, "flash after translate");
        assert!(b.cipher_done >= b.flash_done, "decrypt after flash");
        assert!(b.ready > b.cipher_done, "fill retires the page");
        assert!(b.total().as_nanos() > 0);
    }
}

/// Interleaved read and write tickets from two TEEs produce the exact
/// same completion sequence on every run (the determinism regression
/// of the completion-queue contract).
#[test]
fn completion_stream_is_deterministic() {
    let run = || {
        let (mut ice, tee_a, tee_b, a_lpns, b_lpns, t0) = setup(8);
        let mut trace: Vec<(u64, u32, u64, u64, bool)> = Vec::new();
        // Two TEEs, reads and writes concurrently in flight.
        let _ta = ice.submit_batch_async(tee_a, &a_lpns, t0).unwrap();
        let writes: Vec<PageWrite> = b_lpns[..16]
            .iter()
            .map(|&lpn| PageWrite::with_data(lpn, payload(lpn.raw() ^ 1)))
            .collect();
        let _tb = ice.submit_write_batch_async_as(tee_b, writes, t0).unwrap();
        let _tc = ice.submit_batch_async(tee_b, &b_lpns[16..], t0).unwrap();
        for ev in ice.drain_completions() {
            trace.push((
                ev.ticket.raw(),
                ev.index,
                ev.ready_at().as_ps(),
                ev.lpn.raw(),
                ev.status == PageStatus::Done,
            ));
        }
        (trace, ice.platform().ftl.valid_pages())
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "identical runs must drain identically");
}

/// Same-tick completions drain in (ticket id, page index) order, and
/// the stream is globally sorted by ready time.
#[test]
fn drain_order_is_ready_then_ticket_then_page() {
    let (mut ice, tee_a, tee_b, a_lpns, b_lpns, t0) = setup(8);
    ice.submit_batch_async(tee_a, &a_lpns, t0).unwrap();
    ice.submit_batch_async(tee_b, &b_lpns, t0).unwrap();
    let events = ice.drain_completions();
    let keys: Vec<(u64, u64, u32)> = events
        .iter()
        .map(|e| (e.ready_at().as_ps(), e.ticket.raw(), e.index))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(
        keys,
        sorted,
        "violated the documented contract: {}",
        iceclave_repro::iceclave_exec::DRAIN_ORDER_CONTRACT
    );
}

/// `poll_completions(now)` only surfaces completions that are ready,
/// and leaves the rest of the pipeline in flight.
#[test]
fn poll_respects_the_simulated_clock() {
    let (mut ice, tee_a, _tee_b, a_lpns, _b, t0) = setup(8);
    ice.submit_batch_async(tee_a, &a_lpns, t0).unwrap();
    // Nothing can have completed at submission time.
    assert!(ice.poll_completions(t0).is_empty());
    assert_eq!(ice.in_flight_tickets(), 1);
    // Drain fully, then poll at the final clock: everything is out.
    let all = ice.drain_completions();
    assert_eq!(all.len(), BATCH as usize);
    assert!(ice.poll_completions(ice.exec_clock()).is_empty());
}

/// The asynchronous submission keeps the §4.5 contract: a foreign page
/// denies the whole batch at submission and throws the TEE out before
/// any flash traffic.
#[test]
fn async_submission_enforces_access_control_atomically() {
    let (mut ice, tee_a, _tee_b, _a, b_lpns, t0) = setup(8);
    let reads_before = ice.platform().ftl.flash().stats().reads;
    let err = ice.submit_batch_async(tee_a, &b_lpns[..1], t0).unwrap_err();
    assert!(matches!(
        err,
        IceClaveError::Ftl(FtlError::AccessDenied { .. })
    ));
    assert_eq!(
        ice.status(tee_a),
        Some(TeeStatus::Aborted(AbortReason::AccessViolation))
    );
    assert_eq!(
        ice.platform().ftl.flash().stats().reads,
        reads_before,
        "denial must precede any flash traffic"
    );
    assert_eq!(ice.in_flight_tickets(), 0);
}

/// Tearing a TEE down cancels its in-flight tickets: the remaining
/// pages fail immediately, no stale stage event can write into the
/// recycled region, and a new TEE taking over the region and id is
/// unaffected.
#[test]
fn teardown_cancels_in_flight_tickets() {
    let (mut ice, tee_a, tee_b, a_lpns, b_lpns, t0) = setup(8);
    let ta = ice.submit_batch_async(tee_a, &a_lpns, t0).unwrap();
    let tb = ice.submit_batch_async(tee_b, &b_lpns, t0).unwrap();
    // A dies with its ticket in flight; its region and id go back to
    // the pools.
    let t1 = ice.terminate_tee(tee_a, t0).unwrap();
    // A new TEE immediately reuses the freed resources.
    let (tee_c, t2) = ice.offload_code(1024, &a_lpns, t1).unwrap();
    assert_eq!(tee_c, tee_a, "LIFO id pool hands A's id to C");
    let tc = ice.submit_batch_async(tee_c, &a_lpns, t2).unwrap();

    // Waiting on the dead TEE's ticket reports the cancellation...
    assert!(matches!(
        ice.wait_batch(ta),
        Err(IceClaveError::NotRunning(t)) if t == tee_a
    ));
    // ...while B's and C's tickets complete untouched, byte-perfect.
    let b_done = ice.wait_batch(tb).unwrap();
    let c_done = ice.wait_batch(tc).unwrap();
    assert_eq!(b_done.len(), BATCH as usize);
    assert_eq!(c_done.len(), BATCH as usize);
    for page in b_done.completions.iter().chain(&c_done.completions) {
        assert_eq!(page.data.as_deref(), Some(&payload(page.lpn.raw())[..]));
    }
    assert_eq!(ice.in_flight_tickets(), 0);
    // A second wait on the drained dead ticket is an explicit error,
    // not a fabricated empty completion.
    assert!(matches!(
        ice.wait_batch(ta),
        Err(IceClaveError::UnknownTicket(t)) if t == ta
    ));
}

/// Mixing the two drain styles on one ticket fails loudly instead of
/// silently truncating the waited completion.
#[test]
fn wait_after_partial_poll_is_an_explicit_error() {
    // Twin run to learn when the batch's first page retires.
    let (mut twin, tee_t, _tb, lpns_t, _bl, t0) = setup(8);
    twin.submit_batch_async(tee_t, &lpns_t, t0).unwrap();
    let readies: Vec<SimTime> = twin
        .drain_completions()
        .iter()
        .map(CompletionEvent::ready_at)
        .collect();
    let first = *readies.iter().min().unwrap();
    let last = *readies.iter().max().unwrap();
    assert!(first < last, "a 32-page batch does not retire in one tick");

    let (mut ice, tee_a, _b, a_lpns, _bl2, t1) = setup(8);
    let ticket = ice.submit_batch_async(tee_a, &a_lpns, t1).unwrap();
    let polled = ice.poll_completions(first);
    assert!(!polled.is_empty(), "first page is ready");
    assert!(polled.len() < BATCH as usize, "later pages are not");
    assert!(matches!(
        ice.wait_batch(ticket),
        Err(IceClaveError::UnknownTicket(t)) if t == ticket
    ));
}

/// Drains the whole completion queue and keeps `ticket`'s events, in
/// page order.
fn drained_events(ice: &mut IceClave, ticket: Ticket) -> Vec<CompletionEvent> {
    let mut events: Vec<CompletionEvent> = ice
        .drain_completions()
        .into_iter()
        .filter(|e| e.ticket == ticket)
        .collect();
    events.sort_by_key(|e| e.index);
    events
}

/// Waiting on a ticket hands back the very events the completion queue
/// would have drained for it, read or write, in page order — and the
/// batch finishes no earlier than any of its pages.
#[test]
fn wait_batch_returns_the_drained_events_of_its_ticket() {
    let (mut waiting, tee_w, _tb, lpns_w, _bl, t0) = setup(8);
    let (mut draining, tee_d, _tb2, lpns_d, _bl2, t1) = setup(8);
    assert_eq!(t0, t1, "identical setups share a clock");

    let read = waiting
        .submit_batch_async(tee_w, &lpns_w, t0)
        .and_then(|tk| waiting.wait_batch(tk))
        .unwrap();
    let ticket = draining.submit_batch_async(tee_d, &lpns_d, t1).unwrap();
    let read_events = drained_events(&mut draining, ticket);

    let t2 = read.finished;
    let write = waiting
        .submit_write_batch_async(tee_w, &lpns_w, t2)
        .and_then(|tk| waiting.wait_batch(tk))
        .unwrap();
    let ticket = draining
        .submit_write_batch_async(tee_d, &lpns_d, t2)
        .unwrap();
    let write_events = drained_events(&mut draining, ticket);

    for (kind, done, events) in [
        (TicketKind::Read, &read, &read_events),
        (TicketKind::Write, &write, &write_events),
    ] {
        assert_eq!(events.len(), BATCH as usize, "{kind:?}");
        assert!(events.iter().all(|e| e.kind == kind && e.status.is_done()));
        assert_eq!(&done.completions, events, "{kind:?}");
        for event in events {
            assert!(
                done.finished >= event.ready_at(),
                "{kind:?} page {} ready at {} after the batch finished at {}",
                event.index,
                event.ready_at(),
                done.finished
            );
        }
    }
    // Functional reads carry their plaintext through either path.
    for event in &read_events {
        assert_eq!(event.data.as_deref(), Some(&payload(event.lpn.raw())[..]));
    }
}
