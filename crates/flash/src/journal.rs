//! The write-ahead metadata journal: power-loss durability for the
//! FTL's volatile bookkeeping.
//!
//! Everything the FTL keeps in controller SRAM — the logical→physical
//! mapping, the grown-bad-block table, the per-page cipher IVs, the
//! MEE counter epochs — evaporates at power loss. The journal is the
//! redo log that survives: a small set of flash blocks reserved at
//! device format time, written **through the ordinary program path**
//! (real channel/die timing, real NAND in-order-program rule, real
//! fault-injection draws), holding sequence-numbered, checksummed
//! [`JournalRecord`]s.
//!
//! # On-flash format
//!
//! Records are packed into page-sized images and never span a page
//! boundary. Each record is laid out little-endian as
//!
//! ```text
//! tag: u8 | seq: u64 | payload (fixed size per tag) | checksum: u64
//! ```
//!
//! where the checksum is an [`FxHasher`] digest of `tag | seq |
//! payload`. Tag `0` marks end-of-page: the remainder of the page is
//! padding and the reader skips to the next page. Sequence numbers are
//! allocated contiguously from 0, so replay can detect a torn or
//! rolled-back suffix two independent ways: a checksum mismatch
//! (corrupted bytes) or a sequence discontinuity (records from a stale
//! journal image). The first bad record ends replay — everything
//! before it is applied, the torn suffix is counted and discarded.
//!
//! # Durability model
//!
//! [`MetadataJournal::append`] only buffers; [`MetadataJournal::sync`]
//! makes the buffered records durable by programming journal pages.
//! The FTL syncs at its durability points (acknowledged writes, before
//! any erase, at clean shutdown), which gives the crash invariant its
//! footing: a crash can only lose records appended after the last
//! sync, and those belong to work that was never acknowledged.

use std::hash::Hasher;

use iceclave_types::{FxHasher, Ppn, SimTime, PAGE_SIZE};

use crate::array::{FlashArray, FlashError};
use crate::geometry::BlockAddr;

/// Consecutive injected program failures tolerated per journal page
/// before the journal skips to its next reserved block.
const SYNC_RETRY_LIMIT: u32 = 4;

/// One durable metadata mutation.
///
/// The variants mirror the FTL's volatile tables: mapping entries,
/// persisted translation pages, grown-bad retirements — plus the two
/// record kinds appended by the runtime above the FTL: per-LPN cipher
/// IV seals and MEE counter-epoch seals. The journal itself is
/// mechanism-only; it does not interpret the payloads.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum JournalRecord {
    /// Logical page `lpn` now maps to physical page `ppn`.
    MapUpdate {
        /// Raw logical page number.
        lpn: u64,
        /// Raw physical page number.
        ppn: u64,
    },
    /// Logical page `lpn` was trimmed (mapping removed).
    MapRemove {
        /// Raw logical page number.
        lpn: u64,
    },
    /// Translation virtual page `tvpn` was persisted at `ppn`.
    TransPersist {
        /// Translation virtual page number.
        tvpn: u64,
        /// Raw physical page number.
        ppn: u64,
    },
    /// Flat block index `block` was retired into the grown-bad table.
    Retire {
        /// Flat block index
        /// ([`FlashGeometry::block_index`](crate::FlashGeometry::block_index)).
        block: u64,
    },
    /// The cipher IV under which logical page `lpn`'s current content
    /// was encrypted (opaque to the journal: the cipher layer owns the
    /// two components).
    IvSeal {
        /// Raw logical page number.
        lpn: u64,
        /// IV base component (cipher-layer defined).
        iv_base: u64,
        /// IV physical-address component (cipher-layer defined).
        iv_ppa: u32,
    },
    /// The MEE counter state advanced to `epoch`. Epochs are strictly
    /// increasing in journal order; replay rejects any regression as a
    /// rollback attack.
    EpochSeal {
        /// The sealed counter epoch.
        epoch: u64,
    },
    /// The device shut down cleanly at counter epoch `epoch` with all
    /// metadata flushed. Only ever the last record of a journal.
    CleanShutdown {
        /// The counter epoch at shutdown.
        epoch: u64,
    },
}

/// End-of-page marker tag (the rest of the page is padding).
const TAG_END: u8 = 0;

impl JournalRecord {
    fn tag(&self) -> u8 {
        match self {
            JournalRecord::MapUpdate { .. } => 1,
            JournalRecord::MapRemove { .. } => 2,
            JournalRecord::TransPersist { .. } => 3,
            JournalRecord::Retire { .. } => 4,
            JournalRecord::IvSeal { .. } => 5,
            JournalRecord::EpochSeal { .. } => 6,
            JournalRecord::CleanShutdown { .. } => 7,
        }
    }

    /// Payload size in bytes for `tag`, or `None` for an unknown tag.
    fn payload_len(tag: u8) -> Option<usize> {
        match tag {
            1 | 3 => Some(16),
            2 | 4 | 6 | 7 => Some(8),
            5 => Some(20),
            _ => None,
        }
    }

    fn write_payload(&self, out: &mut Vec<u8>) {
        match *self {
            JournalRecord::MapUpdate { lpn, ppn } => {
                out.extend_from_slice(&lpn.to_le_bytes());
                out.extend_from_slice(&ppn.to_le_bytes());
            }
            JournalRecord::MapRemove { lpn } => out.extend_from_slice(&lpn.to_le_bytes()),
            JournalRecord::TransPersist { tvpn, ppn } => {
                out.extend_from_slice(&tvpn.to_le_bytes());
                out.extend_from_slice(&ppn.to_le_bytes());
            }
            JournalRecord::Retire { block } => out.extend_from_slice(&block.to_le_bytes()),
            JournalRecord::IvSeal {
                lpn,
                iv_base,
                iv_ppa,
            } => {
                out.extend_from_slice(&lpn.to_le_bytes());
                out.extend_from_slice(&iv_base.to_le_bytes());
                out.extend_from_slice(&iv_ppa.to_le_bytes());
            }
            JournalRecord::EpochSeal { epoch } | JournalRecord::CleanShutdown { epoch } => {
                out.extend_from_slice(&epoch.to_le_bytes())
            }
        }
    }

    fn read_payload(tag: u8, bytes: &[u8]) -> Option<JournalRecord> {
        let u64_at = |off: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[off..off + 8]);
            u64::from_le_bytes(b)
        };
        match tag {
            1 => Some(JournalRecord::MapUpdate {
                lpn: u64_at(0),
                ppn: u64_at(8),
            }),
            2 => Some(JournalRecord::MapRemove { lpn: u64_at(0) }),
            3 => Some(JournalRecord::TransPersist {
                tvpn: u64_at(0),
                ppn: u64_at(8),
            }),
            4 => Some(JournalRecord::Retire { block: u64_at(0) }),
            5 => {
                let mut b = [0u8; 4];
                b.copy_from_slice(&bytes[16..20]);
                Some(JournalRecord::IvSeal {
                    lpn: u64_at(0),
                    iv_base: u64_at(8),
                    iv_ppa: u32::from_le_bytes(b),
                })
            }
            6 => Some(JournalRecord::EpochSeal { epoch: u64_at(0) }),
            7 => Some(JournalRecord::CleanShutdown { epoch: u64_at(0) }),
            _ => None,
        }
    }

    /// Serializes one `(seq, record)` into `out`: `tag | seq | payload
    /// | checksum`. Public so tests can craft byte-exact journal images
    /// (stale-epoch rollback, torn-tail fuzzing) without reaching into
    /// the encoder.
    pub fn encode_into(&self, seq: u64, out: &mut Vec<u8>) {
        let start = out.len();
        out.push(self.tag());
        out.extend_from_slice(&seq.to_le_bytes());
        self.write_payload(out);
        let checksum = checksum_of(&out[start..]);
        out.extend_from_slice(&checksum.to_le_bytes());
    }

    /// Encoded size in bytes of this record.
    pub fn encoded_len(&self) -> usize {
        8 + 1
            + Self::payload_len(self.tag()).unwrap_or_else(|| unreachable!("own tag is known"))
            + 8
    }
}

fn checksum_of(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Why journal replay stopped before the end of the written region.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
enum ParseStop {
    /// Clean end of the written region (end-of-page marker on the last
    /// written page, or the region simply ended).
    End,
    /// A record failed its checksum or broke sequence contiguity: the
    /// torn suffix begins here.
    Torn,
}

/// Summary of one journal replay.
#[derive(Clone, Eq, PartialEq, Debug, Default)]
pub struct ReplaySummary {
    /// Records that parsed, checksummed and sequenced correctly.
    pub records_replayed: u64,
    /// Records discarded as the torn suffix: the first bad record
    /// (checksum mismatch or sequence break) plus every complete
    /// record image found after it in the written region.
    pub torn_records: u64,
    /// Journal pages read.
    pub pages_read: u64,
    /// True when the last replayed record is [`JournalRecord::CleanShutdown`].
    pub clean_shutdown: bool,
    /// When the last journal read completed.
    pub end_time: SimTime,
}

/// The reserved-region write-ahead journal over a [`FlashArray`].
///
/// Owns the reserved block list and the append cursor; the FTL owns
/// *what* gets journaled and *when* a sync happens. The journal writes
/// via [`FlashArray::program_page`] — journal programs occupy the same
/// channel buses and dies as data programs and consume fault-injection
/// draws like any other program.
#[derive(Debug)]
pub struct MetadataJournal {
    /// The reserved blocks, in append order.
    blocks: Vec<BlockAddr>,
    /// Index into `blocks` of the block currently accepting appends.
    cursor: usize,
    /// Buffered records awaiting the next sync.
    pending: Vec<JournalRecord>,
    /// Next sequence number to allocate.
    next_seq: u64,
    /// Total records made durable over the journal's lifetime.
    records_synced: u64,
    /// Journal pages programmed over the journal's lifetime.
    pages_written: u64,
}

impl MetadataJournal {
    /// A journal over `blocks` (reserved by the FTL, in append order).
    /// The append cursor starts at the first block with unwritten
    /// pages, so re-creating the journal on a rebooted device resumes
    /// after the surviving tail.
    pub fn new(blocks: Vec<BlockAddr>, flash: &FlashArray) -> Self {
        let pages_per_block = flash.config().geometry.pages_per_block;
        let cursor = blocks
            .iter()
            .position(|&b| flash.frontier(b) < pages_per_block)
            .unwrap_or(blocks.len());
        MetadataJournal {
            blocks,
            cursor,
            pending: Vec::new(),
            next_seq: 0,
            records_synced: 0,
            pages_written: 0,
        }
    }

    /// The reserved journal blocks, in append order.
    pub fn blocks(&self) -> &[BlockAddr] {
        &self.blocks
    }

    /// Total records made durable since construction.
    pub fn records_synced(&self) -> u64 {
        self.records_synced
    }

    /// Journal pages programmed since construction.
    pub fn pages_written(&self) -> u64 {
        self.pages_written
    }

    /// Buffers `record` for the next [`MetadataJournal::sync`].
    pub fn append(&mut self, record: JournalRecord) {
        self.pending.push(record);
    }

    /// Makes every buffered record durable: packs them into page
    /// images and programs journal pages through the ordinary program
    /// path. Returns when the last program pulse completes (`now` if
    /// nothing was pending).
    ///
    /// An injected program failure burns the attempt's bus/die time
    /// and is retried on the same page (`SYNC_RETRY_LIMIT` draws);
    /// a persistently failing page forces the journal onto its next
    /// reserved block, exactly like the data path's re-steer.
    ///
    /// # Errors
    ///
    /// [`FlashError::ProgramFailed`] once every reserved block is
    /// exhausted — the journal region is full and no further metadata
    /// can be made durable.
    pub fn sync(&mut self, flash: &mut FlashArray, now: SimTime) -> Result<SimTime, FlashError> {
        if self.pending.is_empty() {
            return Ok(now);
        }
        let page_size = PAGE_SIZE as usize;
        let mut t = now;
        let mut image = Vec::with_capacity(page_size);
        let pending = std::mem::take(&mut self.pending);
        let total = pending.len() as u64;
        for record in &pending {
            let len = record.encoded_len();
            debug_assert!(len < page_size, "record larger than a journal page");
            // Records never span pages: close the image (end marker +
            // padding) when the next record would not fit alongside
            // its end marker.
            if image.len() + len + 1 > page_size {
                t = self.program_image(flash, &mut image, t)?;
            }
            record.encode_into(self.next_seq, &mut image);
            self.next_seq += 1;
        }
        t = self.program_image(flash, &mut image, t)?;
        self.records_synced += total;
        Ok(t)
    }

    /// Pads `image` to a full page, programs it at the cursor, and
    /// clears it. No-op for an empty image.
    fn program_image(
        &mut self,
        flash: &mut FlashArray,
        image: &mut Vec<u8>,
        now: SimTime,
    ) -> Result<SimTime, FlashError> {
        if image.is_empty() {
            return Ok(now);
        }
        let page_size = PAGE_SIZE as usize;
        image.push(TAG_END);
        image.resize(page_size, 0);
        let mut t = now;
        let mut retries = 0;
        loop {
            let Some(ppn) = self.append_ppn(flash) else {
                // Every reserved block is full: surface the exhaustion
                // as a failed program of the last journal page.
                let last = self.blocks.last().expect("journal has blocks");
                let g = flash.config().geometry;
                return Err(FlashError::ProgramFailed(
                    g.pack(last.page(g.pages_per_block - 1)),
                ));
            };
            match flash.program_page(ppn, t) {
                Ok(span) => {
                    flash.write_data(ppn, image);
                    self.pages_written += 1;
                    image.clear();
                    return Ok(span.end);
                }
                Err(FlashError::ProgramFailed(_)) if retries + 1 < SYNC_RETRY_LIMIT => {
                    // The attempt held the bus and die; redraw on the
                    // same page (the frontier did not advance).
                    retries += 1;
                    let channel = flash.config().geometry.unpack(ppn).channel;
                    t = flash.channel_next_free(channel).max(t);
                }
                Err(FlashError::ProgramFailed(_)) => {
                    // Persistent failure: abandon the block.
                    retries = 0;
                    self.cursor += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The next unwritten journal page, advancing the cursor past full
    /// blocks. `None` when the reserved region is exhausted.
    fn append_ppn(&mut self, flash: &FlashArray) -> Option<Ppn> {
        let g = flash.config().geometry;
        while self.cursor < self.blocks.len() {
            let block = self.blocks[self.cursor];
            let frontier = flash.frontier(block);
            if frontier < g.pages_per_block {
                return Some(g.pack(block.page(frontier)));
            }
            self.cursor += 1;
        }
        None
    }

    /// Reads the whole written journal region in order and hands each
    /// record to `apply` as its page is parsed, stopping at the first
    /// torn record (checksum mismatch or sequence break). Nothing is
    /// collected, so a replay costs no heap in proportion to the
    /// journal. Reads go through
    /// [`FlashArray::read_page_reliable`] — replay pays real channel
    /// and die time but is not subject to injected read faults (the
    /// controller's slow soft-decision boot read).
    ///
    /// Also seeds the append cursor and next sequence number so the
    /// journal keeps appending contiguously after recovery.
    ///
    /// # Errors
    ///
    /// Propagates flash addressing errors (an internal invariant
    /// violation — journal blocks are always in range).
    pub fn replay(
        &mut self,
        flash: &mut FlashArray,
        now: SimTime,
        mut apply: impl FnMut(JournalRecord),
    ) -> Result<ReplaySummary, FlashError> {
        let g = flash.config().geometry;
        let mut last = None;
        let mut summary = ReplaySummary {
            end_time: now,
            ..ReplaySummary::default()
        };
        let mut t = now;
        let mut next_seq = 0u64;
        let mut stop = ParseStop::End;
        'blocks: for &block in &self.blocks {
            let frontier = flash.frontier(block);
            for page in 0..frontier {
                let ppn = g.pack(block.page(page));
                let span = flash.read_page_reliable(ppn, t)?;
                t = span.end;
                summary.pages_read += 1;
                let image = flash.read_data(ppn).map(<[u8]>::to_vec).unwrap_or_default();
                let (page_records, torn, page_stop) = parse_page(&image, &mut next_seq);
                if stop == ParseStop::End {
                    summary.records_replayed += page_records.len() as u64;
                    summary.torn_records += torn;
                    last = page_records.last().copied().or(last);
                    page_records.into_iter().for_each(&mut apply);
                } else {
                    // Already torn: every further record image is part
                    // of the discarded suffix.
                    summary.torn_records += page_records.len() as u64 + torn;
                }
                if page_stop == ParseStop::Torn {
                    stop = ParseStop::Torn;
                }
            }
            if frontier < g.pages_per_block {
                // The journal never leaves gaps: the first partially
                // written block is the end of the written region.
                break 'blocks;
            }
        }
        summary.clean_shutdown =
            stop == ParseStop::End && matches!(last, Some(JournalRecord::CleanShutdown { .. }));
        summary.end_time = t;
        // Resume appending after the surviving records: the torn
        // suffix's sequence numbers are reused, which is safe because
        // its pages are already skipped (their frontier advanced) and
        // its records were discarded.
        self.next_seq = next_seq;
        self.cursor = self
            .blocks
            .iter()
            .position(|&b| flash.frontier(b) < g.pages_per_block)
            .unwrap_or(self.blocks.len());
        Ok(summary)
    }
}

/// Parses one page image. Returns `(good records, torn record images
/// counted, why parsing stopped)`; `expected_seq` advances past every
/// good record.
fn parse_page(image: &[u8], expected_seq: &mut u64) -> (Vec<JournalRecord>, u64, ParseStop) {
    let mut records = Vec::new();
    let mut torn = 0u64;
    let mut off = 0usize;
    let mut stop = ParseStop::End;
    while off < image.len() {
        let tag = image[off];
        if tag == TAG_END {
            break;
        }
        let Some(payload_len) = JournalRecord::payload_len(tag) else {
            torn += 1;
            stop = ParseStop::Torn;
            break;
        };
        let body_end = off + 9 + payload_len;
        let record_end = body_end + 8;
        if record_end > image.len() {
            torn += 1;
            stop = ParseStop::Torn;
            break;
        }
        let mut b = [0u8; 8];
        b.copy_from_slice(&image[off + 1..off + 9]);
        let seq = u64::from_le_bytes(b);
        b.copy_from_slice(&image[body_end..record_end]);
        let stored_checksum = u64::from_le_bytes(b);
        let ok = checksum_of(&image[off..body_end]) == stored_checksum && seq == *expected_seq;
        if !ok {
            torn += 1;
            stop = ParseStop::Torn;
            // Count the remaining complete record images on this page
            // as torn too (they are all past the break point).
            off = record_end;
            while off < image.len() && image[off] != TAG_END {
                match JournalRecord::payload_len(image[off]) {
                    Some(len) if off + 17 + len <= image.len() => {
                        torn += 1;
                        off += 17 + len;
                    }
                    _ => break,
                }
            }
            break;
        }
        let record = JournalRecord::read_payload(tag, &image[off + 9..body_end])
            .expect("payload_len and read_payload agree on known tags");
        records.push(record);
        *expected_seq += 1;
        off = record_end;
    }
    (records, torn, stop)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::config::FlashConfig;

    fn journal_blocks(flash: &FlashArray, n: usize) -> Vec<BlockAddr> {
        let g = flash.config().geometry;
        (0..n as u64)
            .map(|i| g.block_from_index(g.total_blocks() - 1 - i))
            .collect()
    }

    fn setup(n: usize) -> (FlashArray, MetadataJournal) {
        let flash = FlashArray::new(FlashConfig::tiny());
        let journal = MetadataJournal::new(journal_blocks(&flash, n), &flash);
        (flash, journal)
    }

    /// Replays `journal`, collecting the records it applies.
    fn replay_all(
        journal: &mut MetadataJournal,
        flash: &mut FlashArray,
        now: SimTime,
    ) -> (Vec<JournalRecord>, ReplaySummary) {
        let mut records = Vec::new();
        let summary = journal.replay(flash, now, |r| records.push(r)).unwrap();
        (records, summary)
    }

    #[test]
    fn append_sync_replay_round_trips() {
        let (mut flash, mut journal) = setup(2);
        let records = vec![
            JournalRecord::MapUpdate { lpn: 7, ppn: 301 },
            JournalRecord::TransPersist { tvpn: 0, ppn: 12 },
            JournalRecord::Retire { block: 5 },
            JournalRecord::IvSeal {
                lpn: 7,
                iv_base: 0xABCD,
                iv_ppa: 301,
            },
            JournalRecord::EpochSeal { epoch: 1 },
            JournalRecord::MapRemove { lpn: 7 },
            JournalRecord::CleanShutdown { epoch: 1 },
        ];
        for &r in &records {
            journal.append(r);
        }
        let t = journal.sync(&mut flash, SimTime::ZERO).unwrap();
        assert!(t > SimTime::ZERO, "journal programs take real time");
        assert_eq!(journal.records_synced(), records.len() as u64);

        let mut reborn = MetadataJournal::new(journal.blocks().to_vec(), &flash);
        let (replayed, summary) = replay_all(&mut reborn, &mut flash, t);
        assert_eq!(replayed, records);
        assert_eq!(summary.records_replayed, records.len() as u64);
        assert_eq!(summary.torn_records, 0);
        assert!(summary.clean_shutdown);
        assert!(summary.end_time > t);
    }

    #[test]
    fn sync_with_nothing_pending_is_free() {
        let (mut flash, mut journal) = setup(1);
        let programs_before = flash.stats().programs;
        let t = journal.sync(&mut flash, SimTime::ZERO).unwrap();
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(flash.stats().programs, programs_before);
    }

    #[test]
    fn records_pack_many_per_page_and_split_across_pages() {
        let (mut flash, mut journal) = setup(2);
        // 200 MapUpdates at 33 bytes each: > one 4 KiB page, < three.
        for i in 0..200 {
            journal.append(JournalRecord::MapUpdate {
                lpn: i,
                ppn: 1000 + i,
            });
        }
        journal.sync(&mut flash, SimTime::ZERO).unwrap();
        assert_eq!(journal.pages_written(), 2);
        let mut reborn = MetadataJournal::new(journal.blocks().to_vec(), &flash);
        let (replayed, summary) = replay_all(&mut reborn, &mut flash, SimTime::ZERO);
        assert_eq!(replayed.len(), 200);
        assert_eq!(summary.pages_read, 2);
        assert!(!summary.clean_shutdown);
    }

    #[test]
    fn truncated_tail_is_discarded_exactly() {
        let (mut flash, mut journal) = setup(2);
        for i in 0..10 {
            journal.append(JournalRecord::MapUpdate { lpn: i, ppn: i });
        }
        journal.sync(&mut flash, SimTime::ZERO).unwrap();
        // Corrupt the last record's checksum byte on the written page.
        let g = flash.config().geometry;
        let ppn = g.pack(journal.blocks()[0].page(0));
        let mut image = flash.read_data(ppn).unwrap().to_vec();
        let record_len = JournalRecord::MapUpdate { lpn: 0, ppn: 0 }.encoded_len();
        let last_checksum = 10 * record_len - 1;
        image[last_checksum] ^= 0xFF;
        flash.write_data(ppn, &image);

        let mut reborn = MetadataJournal::new(journal.blocks().to_vec(), &flash);
        let (replayed, summary) = replay_all(&mut reborn, &mut flash, SimTime::ZERO);
        assert_eq!(replayed.len(), 9, "only the corrupted record is lost");
        assert_eq!(summary.torn_records, 1);
        assert!(!summary.clean_shutdown);
    }

    #[test]
    fn mid_journal_corruption_discards_the_whole_suffix() {
        let (mut flash, mut journal) = setup(2);
        for i in 0..10 {
            journal.append(JournalRecord::MapUpdate { lpn: i, ppn: i });
        }
        journal.sync(&mut flash, SimTime::ZERO).unwrap();
        let g = flash.config().geometry;
        let ppn = g.pack(journal.blocks()[0].page(0));
        let mut image = flash.read_data(ppn).unwrap().to_vec();
        // Flip a payload byte of record 3: records 3..10 are the torn
        // suffix even though 4..10 still checksum (sequence break is
        // irrelevant here — parsing stops at the first bad record).
        let record_len = JournalRecord::MapUpdate { lpn: 0, ppn: 0 }.encoded_len();
        image[3 * record_len + 10] ^= 0x01;
        flash.write_data(ppn, &image);

        let mut reborn = MetadataJournal::new(journal.blocks().to_vec(), &flash);
        let (replayed, summary) = replay_all(&mut reborn, &mut flash, SimTime::ZERO);
        assert_eq!(replayed.len(), 3);
        assert_eq!(summary.torn_records, 7);
    }

    #[test]
    fn replay_resumes_the_append_cursor_and_sequence() {
        let (mut flash, mut journal) = setup(2);
        journal.append(JournalRecord::EpochSeal { epoch: 1 });
        journal.sync(&mut flash, SimTime::ZERO).unwrap();

        let mut reborn = MetadataJournal::new(journal.blocks().to_vec(), &flash);
        let (_, _) = replay_all(&mut reborn, &mut flash, SimTime::ZERO);
        reborn.append(JournalRecord::EpochSeal { epoch: 2 });
        reborn.sync(&mut flash, SimTime::ZERO).unwrap();

        // A third incarnation sees both records contiguously.
        let mut third = MetadataJournal::new(journal.blocks().to_vec(), &flash);
        let (replayed, summary) = replay_all(&mut third, &mut flash, SimTime::ZERO);
        assert_eq!(
            replayed,
            vec![
                JournalRecord::EpochSeal { epoch: 1 },
                JournalRecord::EpochSeal { epoch: 2 },
            ]
        );
        assert_eq!(summary.torn_records, 0);
    }

    #[test]
    fn journal_exhaustion_errors() {
        let (mut flash, mut journal) = setup(1);
        let g = flash.config().geometry;
        // One reserved block = pages_per_block syncs of one record.
        for i in 0..g.pages_per_block {
            journal.append(JournalRecord::EpochSeal {
                epoch: u64::from(i),
            });
            journal.sync(&mut flash, SimTime::ZERO).unwrap();
        }
        journal.append(JournalRecord::EpochSeal { epoch: 999 });
        assert!(matches!(
            journal.sync(&mut flash, SimTime::ZERO),
            Err(FlashError::ProgramFailed(_))
        ));
    }
}
