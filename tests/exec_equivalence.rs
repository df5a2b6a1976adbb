//! Property test: the event-driven executor is a *scheduling* change.
//!
//! Any interleaving of concurrent read/write batches from two TEEs
//! through the executor must yield byte-identical page contents and an
//! identical `valid_pages` count to running the same batches
//! sequentially, each ticket waited before the next is submitted.
//! Concurrent tickets target
//! disjoint pages (the executor's documented in-flight contract: no
//! ordering guarantees between tickets in flight, so well-formed
//! clients never race dependent pages) — but reads do observe content
//! written by *earlier, drained* rounds, so data genuinely flows
//! through the interleaved pipeline.

use proptest::prelude::*;

use iceclave_repro::iceclave_core::{IceClave, IceClaveConfig};
use iceclave_repro::iceclave_types::{Lpn, PageStatus, PageWrite, SimTime, TeeId, TicketKind};

use std::collections::HashMap;

/// Pages per TEE (two TEEs: LPNs 0..8 and 8..16).
const TEE_PAGES: u64 = 8;
/// Each round reads from one half of a TEE's range and writes the
/// other, alternating per round, so rounds read what earlier rounds
/// wrote without racing in-flight pages.
const HALF: u64 = TEE_PAGES / 2;

fn initial(lpn: u64) -> Vec<u8> {
    (0..4096u32)
        .map(|b| (b as u8) ^ (lpn as u8) ^ 0x77)
        .collect()
}

fn written(round: usize, lpn: u64) -> Vec<u8> {
    (0..4096u32)
        .map(|b| (b as u8) ^ (round as u8).wrapping_mul(31) ^ (lpn as u8))
        .collect()
}

fn setup() -> (IceClave, [TeeId; 2], SimTime) {
    let mut ice = IceClave::new(IceClaveConfig::tiny());
    let t = ice
        .populate(Lpn::new(0), 2 * TEE_PAGES, SimTime::ZERO)
        .unwrap();
    for lpn in 0..2 * TEE_PAGES {
        ice.host_store_data(Lpn::new(lpn), &initial(lpn), t)
            .unwrap();
    }
    let a_lpns: Vec<Lpn> = (0..TEE_PAGES).map(Lpn::new).collect();
    let b_lpns: Vec<Lpn> = (TEE_PAGES..2 * TEE_PAGES).map(Lpn::new).collect();
    let (tee_a, t) = ice.offload_code(1024, &a_lpns, t).unwrap();
    let (tee_b, t) = ice.offload_code(1024, &b_lpns, t).unwrap();
    (ice, [tee_a, tee_b], t)
}

/// One round's batches for one TEE, derived from the generated knobs:
/// reads from the round's read half, writes into the other half.
fn round_lpns(
    tee: usize,
    round: usize,
    read_start: u64,
    read_len: u64,
    write_start: u64,
    write_len: u64,
) -> (Vec<Lpn>, Vec<Lpn>) {
    let base = tee as u64 * TEE_PAGES;
    let (read_half, write_half) = if round.is_multiple_of(2) {
        (0, HALF)
    } else {
        (HALF, 0)
    };
    let rs = read_start.min(HALF - 1);
    let reads: Vec<Lpn> = (rs..(rs + read_len).min(HALF))
        .map(|o| Lpn::new(base + read_half + o))
        .collect();
    let ws = write_start.min(HALF - 1);
    let writes: Vec<Lpn> = (ws..(ws + write_len).min(HALF))
        .map(|o| Lpn::new(base + write_half + o))
        .collect();
    (reads, writes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Executor interleavings vs. sequential blocking: byte-identical
    /// contents, identical `valid_pages`.
    #[test]
    fn interleaved_tickets_match_sequential_blocking(
        rounds in prop::collection::vec((0u64..HALF, 1u64..=HALF, 0u64..HALF, 0u64..=HALF), 1..7)
    ) {
        let (mut exec_ice, exec_tees, t0) = setup();
        let (mut block_ice, block_tees, t0b) = setup();
        prop_assert_eq!(t0, t0b);

        // The model: expected plaintext per LPN.
        let mut model: HashMap<u64, Vec<u8>> =
            (0..2 * TEE_PAGES).map(|l| (l, initial(l))).collect();

        let mut t_exec = t0;
        let mut t_block = t0;
        for (round, &(rs, rl, ws, wl)) in rounds.iter().enumerate() {
            // ---- executor instance: everything concurrently in flight.
            let mut plan: Vec<(usize, Vec<Lpn>, Vec<Lpn>)> = Vec::new();
            for tee in 0..2 {
                let (reads, writes) = round_lpns(tee, round, rs, rl, ws, wl);
                plan.push((tee, reads, writes));
            }
            let mut read_tickets = Vec::new();
            for (tee, reads, _) in &plan {
                if !reads.is_empty() {
                    let ticket = exec_ice
                        .submit_batch_async(exec_tees[*tee], reads, t_exec)
                        .unwrap();
                    read_tickets.push(ticket);
                }
            }
            for (tee, _, writes) in &plan {
                if !writes.is_empty() {
                    let pw: Vec<PageWrite> = writes
                        .iter()
                        .map(|&l| PageWrite::with_data(l, written(round, l.raw())))
                        .collect();
                    exec_ice
                        .submit_write_batch_async_as(exec_tees[*tee], pw, t_exec)
                        .unwrap();
                }
            }
            let events = exec_ice.drain_completions();
            for ev in &events {
                prop_assert_eq!(ev.status, PageStatus::Done);
                if ev.kind == TicketKind::Read {
                    prop_assert!(read_tickets.contains(&ev.ticket));
                    prop_assert_eq!(
                        ev.data.as_ref(),
                        model.get(&ev.lpn.raw()),
                        "executor read of lpn {} in round {}",
                        ev.lpn.raw(),
                        round
                    );
                }
                t_exec = t_exec.max(ev.ready_at());
            }

            // ---- blocking instance: the same batches, sequentially.
            for (tee, reads, _) in &plan {
                if !reads.is_empty() {
                    let done = block_ice
                        .submit_batch_async(block_tees[*tee], reads, t_block)
                        .and_then(|tk| block_ice.wait_batch(tk))
                        .unwrap();
                    for page in &done.completions {
                        prop_assert_eq!(
                            page.data.as_ref(),
                            model.get(&page.lpn.raw()),
                            "blocking read of lpn {} in round {}",
                            page.lpn.raw(),
                            round
                        );
                    }
                    t_block = t_block.max(done.finished);
                }
            }
            for (tee, _, writes) in &plan {
                if !writes.is_empty() {
                    let pw: Vec<PageWrite> = writes
                        .iter()
                        .map(|&l| PageWrite::with_data(l, written(round, l.raw())))
                        .collect();
                    let done = block_ice
                        .submit_write_batch_async_as(block_tees[*tee], pw, t_block)
                        .and_then(|tk| block_ice.wait_batch(tk))
                        .unwrap();
                    t_block = t_block.max(done.finished);
                }
            }

            // Commit the round's writes to the model.
            for (_, _, writes) in &plan {
                for &lpn in writes {
                    model.insert(lpn.raw(), written(round, lpn.raw()));
                }
            }
        }

        // Identical device post-state.
        prop_assert_eq!(
            exec_ice.platform().ftl.valid_pages(),
            block_ice.platform().ftl.valid_pages()
        );
        prop_assert_eq!(exec_ice.stats().pages_stored, block_ice.stats().pages_stored);
        prop_assert_eq!(exec_ice.stats().pages_loaded, block_ice.stats().pages_loaded);

        // Byte-identical read-back of every page on both instances.
        for tee in 0..2usize {
            let base = tee as u64 * TEE_PAGES;
            let lpns: Vec<Lpn> = (base..base + TEE_PAGES).map(Lpn::new).collect();
            let from_exec = exec_ice
                .submit_batch_async(exec_tees[tee], &lpns, t_exec)
                .and_then(|tk| exec_ice.wait_batch(tk))
                .unwrap();
            let from_block = block_ice
                .submit_batch_async(block_tees[tee], &lpns, t_block)
                .and_then(|tk| block_ice.wait_batch(tk))
                .unwrap();
            for (e, b) in from_exec.completions.iter().zip(&from_block.completions) {
                prop_assert_eq!(e.lpn, b.lpn);
                prop_assert_eq!(&e.data, &b.data, "lpn {} diverged", e.lpn.raw());
                prop_assert_eq!(e.data.as_ref(), model.get(&e.lpn.raw()));
            }
        }
    }
}
