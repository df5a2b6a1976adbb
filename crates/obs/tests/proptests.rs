//! Property tests for the trace codec: encode→decode identity over
//! arbitrary ticket records (the round-trip half of the trace-layer
//! test satellite; determinism and replay equivalence live in the
//! umbrella crate's integration tests, where a full device exists).

use proptest::prelude::*;

use iceclave_obs::trace::{PageTrace, TraceLog, TraceRecord};
use iceclave_types::{
    FaultStats, LatencyBreakdown, Lpn, PageError, PageErrorCause, PageStatus, Ppn, SimTime,
    TicketKind,
};

fn time(ps: u64) -> SimTime {
    SimTime::from_ps(ps)
}

fn page(seed: u64, index: u32) -> PageTrace {
    let cause = match seed % 4 {
        0 => None,
        1 => Some(PageErrorCause::Uncorrectable),
        2 => Some(PageErrorCause::ProgramFailed),
        _ => Some(PageErrorCause::Cancelled),
    };
    PageTrace {
        index,
        lpn: Lpn::new(seed.rotate_left(17)),
        status: match cause {
            None => PageStatus::Done,
            Some(cause) => PageStatus::Failed {
                reason: PageError {
                    ppn: Ppn::new(seed.rotate_left(5) & 0xFFFF_FFFF),
                    attempts: (seed % 7) as u32,
                    cause,
                },
            },
        },
        breakdown: LatencyBreakdown {
            submitted: time(seed),
            prepared: time(seed.wrapping_add(10)),
            flash_done: time(seed.wrapping_add(20)),
            cipher_done: time(seed.wrapping_add(30)),
            ready: time(seed.wrapping_add(40)),
        },
        data_hash: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    }
}

fn record(ticket: u64, tee: u8, seed: u64, pages: u32) -> TraceRecord {
    TraceRecord {
        ticket,
        tee: tee % 16,
        kind: if seed.is_multiple_of(2) {
            TicketKind::Read
        } else {
            TicketKind::Write
        },
        submitted: time(seed),
        first_ready: time(seed.wrapping_add(100)),
        finished: time(seed.wrapping_add(200)),
        faults: FaultStats {
            read_retries: seed % 11,
            uncorrectable_pages: seed % 3,
            corrected_bursts: seed % 13,
            program_remaps: seed % 5,
            blocks_retired: seed % 2,
        },
        pages: (0..pages)
            .map(|i| page(seed.wrapping_mul(u64::from(i) + 1), i))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode(decode(encode(log))) is the identity for arbitrary
    /// record sets: every field (timestamps, faults, per-page status
    /// including failure records) survives, and the re-encoded bytes
    /// are identical.
    #[test]
    fn trace_codec_round_trips(
        seeds in prop::collection::vec(0u64..u64::MAX, 0..12),
        page_counts in prop::collection::vec(0u32..20, 0..12),
    ) {
        let records: Vec<TraceRecord> = seeds
            .iter()
            .enumerate()
            .map(|(i, seed)| {
                let pages = page_counts.get(i).copied().unwrap_or(3);
                record(i as u64 + 1, (*seed % 16) as u8, *seed, pages)
            })
            .collect();
        let mut log = TraceLog::new();
        for r in &records {
            log.push(r);
        }
        prop_assert_eq!(&log.records(), &records);
        let decoded = TraceLog::from_bytes(log.as_bytes());
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded.err());
        let decoded = match decoded {
            Ok(d) => d,
            Err(_) => unreachable!(),
        };
        prop_assert_eq!(decoded.records(), records);
        let mut reencoded = TraceLog::new();
        for r in &decoded.records() {
            reencoded.push(r);
        }
        prop_assert_eq!(reencoded.as_bytes(), log.as_bytes());
    }

    /// Truncating an encoded log anywhere inside the stream never
    /// panics and never silently decodes to the full record set.
    #[test]
    fn truncation_is_detected(seed in (0u64..u64::MAX), cut in 0usize..200) {
        let mut log = TraceLog::new();
        log.push(&record(1, 2, seed, 4));
        let bytes = log.as_bytes();
        let cut = cut.min(bytes.len().saturating_sub(1));
        let decoded = TraceLog::from_bytes(&bytes[..cut]);
        prop_assert!(
            decoded.as_ref().map(|l| l.len() < log.len()).unwrap_or(true),
            "truncated stream decoded to the full log"
        );
    }
}
