//! The ticket op-log: capture, record format, and the binary codec.
//!
//! # Record format (version 2)
//!
//! A [`TraceLog`] is a byte stream: an 8-byte magic (`ICLV-OPL`), a
//! little-endian `u32` format version, then one length-prefixed record
//! per *closed* ticket, appended in close order (which the executor's
//! determinism contract makes reproducible — two identical runs produce
//! byte-identical logs). The stream is the log's only representation:
//! records are encoded as they close and decoded when read. Each record
//! encodes, little-endian:
//!
//! | field        | encoding                                          |
//! |--------------|---------------------------------------------------|
//! | ticket       | `u64` raw id                                      |
//! | tee          | `u8` raw TEE id                                   |
//! | kind         | `u8` (0 = read, 1 = write)                        |
//! | submitted    | `u64` picoseconds                                 |
//! | first_ready  | `u64` picoseconds (earliest page ready)           |
//! | finished     | `u64` picoseconds (ticket close time)             |
//! | faults       | 5 × `u64` ([`FaultStats`] field order)            |
//! | page count   | `u32`, then that many [`PageTrace`]s in index order |
//!
//! Each page: `u32` index, `u64` lpn, 5 × `u64` breakdown timestamps
//! (submitted/prepared/flash_done/cipher_done/ready), `u64` FxHash of
//! the returned payload (0 when the completion carried no data), and a
//! status tag `u8` (0 = done; 1 = failed, followed by `u8` cause,
//! `u32` attempts, `u64` ppn).

use std::any::Any;
use std::hash::Hasher;
use std::io::{Read, Write};
use std::path::Path;

use iceclave_exec::RetireObserver;
use iceclave_types::{
    CompletionEvent, FastMap, FaultStats, FxHasher, LatencyBreakdown, Lpn, PageError,
    PageErrorCause, PageStatus, Ppn, SimTime, Ticket, TicketKind,
};

/// Magic bytes opening every trace log.
pub const TRACE_MAGIC: [u8; 8] = *b"ICLV-OPL";

/// Current trace format version.
pub const TRACE_VERSION: u32 = 2;

/// Per-page entry of a [`TraceRecord`].
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct PageTrace {
    /// Page index within the batch.
    pub index: u32,
    /// The logical page the entry covers.
    pub lpn: Lpn,
    /// Final status of the page.
    pub status: PageStatus,
    /// Per-stage timestamps of the page's trip through the executor.
    pub breakdown: LatencyBreakdown,
    /// FxHash of the returned payload; 0 when the completion carried no
    /// data (write pages, failed reads). Lets the replay-equivalence
    /// test compare per-ticket bytes without storing 4 KiB per page.
    pub data_hash: u64,
}

/// One closed ticket in the op-log.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct TraceRecord {
    /// Raw ticket id (monotonic, never reused within a run).
    pub ticket: u64,
    /// Raw id of the owning TEE.
    pub tee: u8,
    /// Read or write batch.
    pub kind: TicketKind,
    /// When the batch was submitted.
    pub submitted: SimTime,
    /// When the first page became ready.
    pub first_ready: SimTime,
    /// When the ticket closed (last page retired / batch-level finish).
    pub finished: SimTime,
    /// Fault and recovery activity charged to this ticket.
    pub faults: FaultStats,
    /// Per-page entries, sorted by page index.
    pub pages: Vec<PageTrace>,
}

/// Errors decoding a trace log.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum TraceError {
    /// The stream does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The stream's format version is not [`TRACE_VERSION`].
    BadVersion(u32),
    /// The stream ended mid-record.
    Truncated,
    /// An enum tag byte was out of range.
    BadTag(u8),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a trace log (bad magic)"),
            TraceError::BadVersion(v) => {
                write!(f, "unsupported trace version {v} (want {TRACE_VERSION})")
            }
            TraceError::Truncated => write!(f, "trace log truncated mid-record"),
            TraceError::BadTag(t) => write!(f, "invalid enum tag {t} in trace log"),
        }
    }
}

impl std::error::Error for TraceError {}

/// FxHash of a page payload, as stored in [`PageTrace::data_hash`].
///
/// 0 is reserved for "no data": the hash is seeded with the payload
/// length and the (astronomically unlikely) digest 0 is mapped to 1,
/// so an all-zero payload never collides with the sentinel.
pub fn hash_payload(data: Option<&[u8]>) -> u64 {
    match data {
        None => 0,
        Some(bytes) => {
            let mut h = FxHasher::default();
            h.write(&(bytes.len() as u64).to_le_bytes());
            h.write(bytes);
            h.finish().max(1)
        }
    }
}

/// The versioned, append-only ticket op-log.
///
/// The log holds only its encoded byte stream and a record count:
/// [`push`](TraceLog::push) encodes a record the moment it arrives, and
/// [`records`](TraceLog::records) decodes them on demand.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct TraceLog {
    buf: Vec<u8>,
    len: usize,
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::new()
    }
}

impl TraceLog {
    /// An empty log: just the magic and the format version.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&TRACE_MAGIC);
        buf.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        TraceLog { buf, len: 0 }
    }

    /// Appends one record, encoded in place behind its length prefix.
    pub fn push(&mut self, record: &TraceRecord) {
        let prefix = self.buf.len();
        self.buf.extend_from_slice(&0u32.to_le_bytes());
        encode_record(record, &mut self.buf);
        let body = (self.buf.len() - prefix - 4) as u32;
        self.buf[prefix..prefix + 4].copy_from_slice(&body.to_le_bytes());
        self.len += 1;
    }

    /// The captured records, in ticket close order, decoded from the
    /// stream.
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut records = Vec::with_capacity(self.len);
        decode_stream(&self.buf, |r| records.push(r))
            .expect("a TraceLog holds only well-formed records");
        records
    }

    /// Number of captured tickets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The encoded byte stream (header + records).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Takes over an encoded stream after checking every record in it.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] on a bad header, a truncated stream, or
    /// an out-of-range enum tag.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut len = 0;
        decode_stream(bytes, |_| len += 1)?;
        Ok(TraceLog {
            buf: bytes.to_vec(),
            len,
        })
    }

    /// Writes the encoded stream to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(&self.buf)
    }

    /// Reads and checks a log from `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; decode failures surface as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn read_from(path: &Path) -> std::io::Result<Self> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Checks the header of an encoded stream, then decodes its records
/// in order, handing each to `f`.
fn decode_stream(bytes: &[u8], mut f: impl FnMut(TraceRecord)) -> Result<(), TraceError> {
    let mut cur = Cursor { bytes, pos: 0 };
    if cur.take(8)? != TRACE_MAGIC {
        return Err(TraceError::BadMagic);
    }
    let version = cur.u32()?;
    if version != TRACE_VERSION {
        return Err(TraceError::BadVersion(version));
    }
    while !cur.at_end() {
        let len = cur.u32()? as usize;
        let mut body = Cursor {
            bytes: cur.slice(len)?,
            pos: 0,
        };
        f(decode_record(&mut body)?);
    }
    Ok(())
}

fn encode_record(r: &TraceRecord, out: &mut Vec<u8>) {
    out.extend_from_slice(&r.ticket.to_le_bytes());
    out.push(r.tee);
    out.push(match r.kind {
        TicketKind::Read => 0,
        TicketKind::Write => 1,
    });
    for t in [r.submitted, r.first_ready, r.finished] {
        out.extend_from_slice(&t.as_ps().to_le_bytes());
    }
    for v in [
        r.faults.read_retries,
        r.faults.uncorrectable_pages,
        r.faults.corrected_bursts,
        r.faults.program_remaps,
        r.faults.blocks_retired,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(r.pages.len() as u32).to_le_bytes());
    for p in &r.pages {
        out.extend_from_slice(&p.index.to_le_bytes());
        out.extend_from_slice(&p.lpn.raw().to_le_bytes());
        for t in [
            p.breakdown.submitted,
            p.breakdown.prepared,
            p.breakdown.flash_done,
            p.breakdown.cipher_done,
            p.breakdown.ready,
        ] {
            out.extend_from_slice(&t.as_ps().to_le_bytes());
        }
        out.extend_from_slice(&p.data_hash.to_le_bytes());
        match p.status {
            PageStatus::Done => out.push(0),
            PageStatus::Failed { reason } => {
                out.push(1);
                out.push(match reason.cause {
                    PageErrorCause::Uncorrectable => 0,
                    PageErrorCause::ProgramFailed => 1,
                    PageErrorCause::Cancelled => 2,
                });
                out.extend_from_slice(&reason.attempts.to_le_bytes());
                out.extend_from_slice(&reason.ppn.raw().to_le_bytes());
            }
        }
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }
    fn slice(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self.pos.checked_add(n).ok_or(TraceError::Truncated)?;
        if end > self.bytes.len() {
            return Err(TraceError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        self.slice(n)
    }
    fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.slice(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, TraceError> {
        let s = self.slice(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }
    fn u64(&mut self) -> Result<u64, TraceError> {
        let s = self.slice(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }
    fn time(&mut self) -> Result<SimTime, TraceError> {
        Ok(SimTime::from_ps(self.u64()?))
    }
}

fn decode_record(cur: &mut Cursor<'_>) -> Result<TraceRecord, TraceError> {
    let ticket = cur.u64()?;
    let tee = cur.u8()?;
    let kind = match cur.u8()? {
        0 => TicketKind::Read,
        1 => TicketKind::Write,
        t => return Err(TraceError::BadTag(t)),
    };
    let submitted = cur.time()?;
    let first_ready = cur.time()?;
    let finished = cur.time()?;
    let faults = FaultStats {
        read_retries: cur.u64()?,
        uncorrectable_pages: cur.u64()?,
        corrected_bursts: cur.u64()?,
        program_remaps: cur.u64()?,
        blocks_retired: cur.u64()?,
    };
    let count = cur.u32()? as usize;
    let mut pages = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let index = cur.u32()?;
        let lpn = Lpn::new(cur.u64()?);
        let breakdown = LatencyBreakdown {
            submitted: cur.time()?,
            prepared: cur.time()?,
            flash_done: cur.time()?,
            cipher_done: cur.time()?,
            ready: cur.time()?,
        };
        let data_hash = cur.u64()?;
        let status = match cur.u8()? {
            0 => PageStatus::Done,
            1 => {
                let cause = match cur.u8()? {
                    0 => PageErrorCause::Uncorrectable,
                    1 => PageErrorCause::ProgramFailed,
                    2 => PageErrorCause::Cancelled,
                    t => return Err(TraceError::BadTag(t)),
                };
                let attempts = cur.u32()?;
                let ppn = Ppn::new(cur.u64()?);
                PageStatus::Failed {
                    reason: PageError {
                        ppn,
                        attempts,
                        cause,
                    },
                }
            }
            t => return Err(TraceError::BadTag(t)),
        };
        pages.push(PageTrace {
            index,
            lpn,
            status,
            breakdown,
            data_hash,
        });
    }
    Ok(TraceRecord {
        ticket,
        tee,
        kind,
        submitted,
        first_ready,
        finished,
        faults,
        pages,
    })
}

/// In-flight state of one ticket being captured.
#[derive(Debug)]
struct OpenTicket {
    tee: u8,
    kind: TicketKind,
    submitted: SimTime,
    first_ready: SimTime,
    pages: Vec<PageTrace>,
}

/// The capture observer: encodes one [`TraceRecord`] per closed ticket.
///
/// Installed on the executor's completion queue via
/// `IceClave::enable_tracing` (which wraps
/// [`iceclave_exec::Executor::install_observer`]); recovered with
/// `take_trace`. Pages accumulate per ticket as they retire; the record
/// is finalized — pages sorted by index — when the driver reports the
/// close, so log order is ticket close order (deterministic under the
/// executor's determinism contract).
#[derive(Debug, Default)]
pub struct TraceCapture {
    open: FastMap<u64, OpenTicket>,
    log: TraceLog,
}

impl TraceCapture {
    /// An empty capture.
    pub fn new() -> Self {
        TraceCapture::default()
    }

    /// Finishes the capture, returning the log. Tickets still open
    /// (never closed by the driver) are dropped — a record only exists
    /// for tickets whose full page set was observed.
    pub fn into_log(self) -> TraceLog {
        self.log
    }

    /// Number of tickets captured so far.
    pub fn captured(&self) -> usize {
        self.log.len()
    }
}

impl RetireObserver for TraceCapture {
    fn on_retire(&mut self, event: &CompletionEvent) {
        let open = self
            .open
            .entry(event.ticket.raw())
            .or_insert_with(|| OpenTicket {
                tee: event.tee.raw(),
                kind: event.kind,
                submitted: event.breakdown.submitted,
                first_ready: event.ready_at(),
                pages: Vec::new(),
            });
        open.first_ready = open.first_ready.min(event.ready_at());
        open.pages.push(PageTrace {
            index: event.index,
            lpn: event.lpn,
            status: event.status,
            breakdown: event.breakdown,
            data_hash: hash_payload(event.data.as_deref()),
        });
    }

    fn on_close(&mut self, ticket: Ticket, finished: SimTime, faults: &FaultStats) {
        // A close with no retirements observed means capture was
        // enabled mid-flight; skip rather than record a partial ticket.
        let Some(mut open) = self.open.remove(&ticket.raw()) else {
            return;
        };
        open.pages.sort_by_key(|p| p.index);
        self.log.push(&TraceRecord {
            ticket: ticket.raw(),
            tee: open.tee,
            kind: open.kind,
            submitted: open.submitted,
            first_ready: open.first_ready,
            finished,
            faults: *faults,
            pages: open.pages,
        });
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use iceclave_types::{SimDuration, TeeId};

    fn sample_record(ticket: u64, pages: u32) -> TraceRecord {
        let base = SimTime::ZERO + SimDuration::from_nanos(100 * ticket);
        TraceRecord {
            ticket,
            tee: (ticket % 4) as u8,
            kind: if ticket.is_multiple_of(2) {
                TicketKind::Read
            } else {
                TicketKind::Write
            },
            submitted: base,
            first_ready: base + SimDuration::from_nanos(50),
            finished: base + SimDuration::from_nanos(90),
            faults: FaultStats {
                read_retries: ticket,
                blocks_retired: 1,
                ..FaultStats::default()
            },
            pages: (0..pages)
                .map(|index| PageTrace {
                    index,
                    lpn: Lpn::new(u64::from(index) + 10),
                    status: if index == 1 {
                        PageStatus::Failed {
                            reason: PageError {
                                ppn: Ppn::new(99),
                                attempts: 4,
                                cause: PageErrorCause::Uncorrectable,
                            },
                        }
                    } else {
                        PageStatus::Done
                    },
                    breakdown: LatencyBreakdown {
                        submitted: base,
                        prepared: base + SimDuration::from_nanos(10),
                        flash_done: base + SimDuration::from_nanos(20),
                        cipher_done: base + SimDuration::from_nanos(30),
                        ready: base + SimDuration::from_nanos(40 + u64::from(index)),
                    },
                    data_hash: 0xDEAD_0000 + u64::from(index),
                })
                .collect(),
        }
    }

    #[test]
    fn codec_round_trips_records() {
        let records = [
            sample_record(1, 3),
            sample_record(2, 0),
            sample_record(7, 2),
        ];
        let mut log = TraceLog::new();
        for r in &records {
            log.push(r);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.records(), records);
        let decoded = TraceLog::from_bytes(log.as_bytes()).unwrap();
        assert_eq!(decoded, log);
        assert_eq!(decoded.records(), records);
    }

    #[test]
    fn decode_rejects_corruption() {
        assert_eq!(
            TraceLog::from_bytes(b"NOTATRACE"),
            Err(TraceError::BadMagic)
        );
        let mut log = TraceLog::new();
        log.push(&sample_record(1, 1));
        let mut bytes = log.as_bytes().to_vec();
        bytes.truncate(bytes.len() - 3);
        assert_eq!(TraceLog::from_bytes(&bytes), Err(TraceError::Truncated));
        let mut versioned = log.as_bytes().to_vec();
        versioned[8] = 99;
        assert_eq!(
            TraceLog::from_bytes(&versioned),
            Err(TraceError::BadVersion(99))
        );
    }

    #[test]
    fn capture_builds_records_in_close_order_with_sorted_pages() {
        let mut cap = TraceCapture::new();
        let ev = |ticket: u64, index: u32, ready_ns: u64| {
            let mut breakdown = LatencyBreakdown::at_submission(SimTime::ZERO);
            breakdown.ready = SimTime::ZERO + SimDuration::from_nanos(ready_ns);
            CompletionEvent {
                ticket: Ticket::new(ticket),
                kind: TicketKind::Read,
                tee: TeeId::new(2).unwrap(),
                index,
                lpn: Lpn::new(u64::from(index)),
                status: PageStatus::Done,
                breakdown,
                data: Some(vec![index as u8; 8]),
            }
        };
        // Pages retire out of index order, tickets interleaved.
        cap.on_retire(&ev(2, 1, 300));
        cap.on_retire(&ev(1, 0, 100));
        cap.on_retire(&ev(2, 0, 200));
        let faults = FaultStats::default();
        cap.on_close(
            Ticket::new(2),
            SimTime::ZERO + SimDuration::from_nanos(300),
            &faults,
        );
        cap.on_close(
            Ticket::new(1),
            SimTime::ZERO + SimDuration::from_nanos(100),
            &faults,
        );
        // Close for a ticket never retired under capture: skipped.
        cap.on_close(Ticket::new(9), SimTime::ZERO, &faults);
        let log = cap.into_log();
        assert_eq!(log.len(), 2);
        let records = log.records();
        assert_eq!(records[0].ticket, 2, "close order, not ticket order");
        assert_eq!(records[0].pages[0].index, 0, "pages sorted by index");
        assert_eq!(records[0].pages[1].index, 1);
        assert_eq!(
            records[0].first_ready,
            SimTime::ZERO + SimDuration::from_nanos(200)
        );
        assert_eq!(records[1].ticket, 1);
        assert_ne!(records[1].pages[0].data_hash, 0);
    }

    #[test]
    fn default_log_and_capture_carry_the_header() {
        let log = TraceLog::default();
        assert_eq!(log, TraceLog::new());
        assert_eq!(TraceLog::from_bytes(log.as_bytes()), Ok(TraceLog::new()));

        let mut cap = TraceCapture::default();
        let at = SimTime::ZERO + SimDuration::from_nanos(10);
        let mut breakdown = LatencyBreakdown::at_submission(SimTime::ZERO);
        breakdown.ready = at;
        cap.on_retire(&CompletionEvent {
            ticket: Ticket::new(1),
            kind: TicketKind::Write,
            tee: TeeId::new(1).unwrap(),
            index: 0,
            lpn: Lpn::new(5),
            status: PageStatus::Done,
            breakdown,
            data: None,
        });
        cap.on_close(Ticket::new(1), at, &FaultStats::default());
        let log = cap.into_log();
        let decoded = TraceLog::from_bytes(log.as_bytes()).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded.records(), log.records());
    }

    #[test]
    fn hash_distinguishes_payloads() {
        assert_eq!(hash_payload(None), 0);
        let a = hash_payload(Some(&[1, 2, 3]));
        let b = hash_payload(Some(&[1, 2, 4]));
        assert_ne!(a, b);
        assert_eq!(a, hash_payload(Some(&[1, 2, 3])));
    }
}
