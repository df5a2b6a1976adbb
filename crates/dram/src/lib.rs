//! SSD-internal DRAM timing model (USIMM-equivalent substrate).
//!
//! Models the DDR3-1600 DRAM of Table 3: one channel, two ranks of eight
//! banks, open-row policy with `tRCD`-`tRAS`-`tRP`-`tCL`-`tWR` command
//! timing at the 800 MHz command clock. Each access is classified as a
//! row-buffer **hit** (`tCL` + burst), **closed-row miss**
//! (`tRCD + tCL` + burst) or **conflict** (`tRP + tRCD + tCL` + burst,
//! plus write recovery when the previous access wrote), and serialized on
//! its bank and on the channel data bus. The timing, the rank count and
//! the row size are constants of this crate; [`DramConfig`] holds only
//! what a run varies.
//!
//! The memory-encryption engine (`iceclave-mee`) drives this model with
//! both program data and its own metadata traffic (counters, MACs,
//! integrity-tree nodes), which is how the extra-traffic percentages of
//! Table 6 arise.
//!
//! # Examples
//!
//! ```
//! use iceclave_dram::{Dram, DramConfig, MemOp};
//! use iceclave_types::{CacheLine, SimTime};
//!
//! let mut dram = Dram::new(DramConfig::table3());
//! let first = dram.access(CacheLine::new(0), MemOp::Read, SimTime::ZERO);
//! // Line 16 maps to the same bank and row (16 banks interleave low
//! // bits), so the second access is a row-buffer hit and is faster.
//! let second = dram.access(CacheLine::new(16), MemOp::Read, first.end);
//! assert!(second.service() < first.service());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use iceclave_sim::{Resource, ServiceSpan};
use iceclave_types::{ByteSize, CacheLine, Hertz, SimDuration, SimTime, CACHE_LINE_SIZE};

/// Read or write, the two DRAM operations the model distinguishes.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum MemOp {
    /// A cache-line read.
    Read,
    /// A cache-line write-back.
    Write,
}

/// Row-buffer outcome of one access.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum RowOutcome {
    /// The addressed row was already open.
    Hit,
    /// The bank was idle (no open row).
    ClosedMiss,
    /// Another row was open and had to be precharged first.
    Conflict,
}

/// Ranks per channel (Table 3).
const RANKS_PER_CHANNEL: u32 = 2;
/// Cache lines per 8 KiB row buffer.
const LINES_PER_ROW: u64 = ByteSize::from_kib(8).as_bytes() / CACHE_LINE_SIZE;
/// Command clock: 800 MHz for DDR3-1600.
const CLOCK: Hertz = Hertz::from_mhz(800);
/// Activate-to-read delay, in command-clock cycles (Table 3's
/// 11-28-11-11-12 timing).
const T_RCD: u32 = 11;
/// Activate-to-precharge minimum, in cycles.
const T_RAS: u32 = 28;
/// Precharge time, in cycles.
const T_RP: u32 = 11;
/// CAS (read) latency, in cycles.
const T_CL: u32 = 11;
/// Write recovery time, in cycles.
const T_WR: u32 = 12;
/// Data-burst occupancy of the bus per 64 B line (BL8 = 4 cycles).
const BURST_CYCLES: u32 = 4;
/// Most DRAM channels a device may have: [`Dram::access_run`] keeps one
/// bus frontier per channel on the stack.
const MAX_CHANNELS: usize = 64;

/// The DRAM geometry a run varies (Table 3 otherwise): DDR3-1600 with
/// two ranks per channel, 8 KiB rows and 11-28-11-11-12 timing at the
/// 800 MHz command clock.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct DramConfig {
    /// Independent channels: a power of two, at most 64.
    pub channels: u32,
    /// Banks per rank: a power of two.
    pub banks_per_rank: u32,
    /// Total capacity.
    pub capacity: ByteSize,
}

impl DramConfig {
    /// Table 3: DDR3-1600, 4 GiB, 1 channel, 2 ranks/channel,
    /// 8 banks/rank, 11-28-11-11-12 timing.
    pub fn table3() -> Self {
        DramConfig {
            channels: 1,
            banks_per_rank: 8,
            capacity: ByteSize::from_gib(4),
        }
    }

    /// Table 3 configuration with a different capacity (Figure 16 sweeps
    /// 4 GiB vs 2 GiB).
    pub fn with_capacity(mut self, capacity: ByteSize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Total banks across the device.
    pub fn total_banks(&self) -> u32 {
        self.channels * RANKS_PER_CHANNEL * self.banks_per_rank
    }
}

/// Latency/traffic statistics for the DRAM model.
#[derive(Clone, Eq, PartialEq, Debug, Default)]
pub struct DramStats {
    /// Cache-line reads served.
    pub reads: u64,
    /// Cache-line writes served.
    pub writes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Accesses to idle banks.
    pub row_closed_misses: u64,
    /// Row-buffer conflicts.
    pub row_conflicts: u64,
    /// Sum of access latencies.
    pub total_latency: SimDuration,
}

impl DramStats {
    /// Total accesses served.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

#[derive(Clone, Debug)]
struct Bank {
    busy: Resource,
    open_row: Option<u64>,
    last_activate: SimTime,
    last_was_write: bool,
}

/// Command durations precomputed at construction so the per-access path
/// never re-derives them through `Hertz::cycles` (a 128-bit division).
/// Each field caches `CLOCK.cycles(n)` for exactly the cycle count `n`
/// the access path would otherwise pass, so timings are bit-identical.
#[derive(Copy, Clone, Debug)]
struct Timing {
    /// Bank occupancy of a row-buffer hit (`BURST_CYCLES`).
    occ_hit: SimDuration,
    /// Bank occupancy of a conflict (`T_RP + T_RCD + BURST_CYCLES`).
    occ_conflict: SimDuration,
    /// Conflict occupancy plus write recovery (`… + T_WR`).
    occ_conflict_wr: SimDuration,
    /// Bank occupancy of a closed-row miss (`T_RCD + BURST_CYCLES`).
    occ_closed: SimDuration,
    /// Activate-to-precharge minimum.
    t_ras: SimDuration,
    /// CAS latency.
    t_cl: SimDuration,
    /// Data-bus burst occupancy.
    burst: SimDuration,
}

impl Timing {
    fn new() -> Self {
        Timing {
            occ_hit: CLOCK.cycles(BURST_CYCLES.into()),
            occ_conflict: CLOCK.cycles(u64::from(T_RP + T_RCD + BURST_CYCLES)),
            occ_conflict_wr: CLOCK.cycles(u64::from(T_RP + T_RCD + BURST_CYCLES + T_WR)),
            occ_closed: CLOCK.cycles(u64::from(T_RCD + BURST_CYCLES)),
            t_ras: CLOCK.cycles(T_RAS.into()),
            t_cl: CLOCK.cycles(T_CL.into()),
            burst: CLOCK.cycles(BURST_CYCLES.into()),
        }
    }
}

/// Rank bits of a line index (after the channel and bank bits).
const RANK_SHIFT: u32 = RANKS_PER_CHANNEL.trailing_zeros();
const RANK_MASK: u64 = RANKS_PER_CHANNEL as u64 - 1;
/// Column bits of a line index (between the rank and the row bits).
const ROW_SHIFT: u32 = LINES_PER_ROW.trailing_zeros();

/// Shift/mask address decomposition of the power-of-two channel and
/// bank counts.
#[derive(Copy, Clone, Debug)]
struct MapShifts {
    ch_mask: u64,
    ch_shift: u32,
    bank_mask: u64,
    bank_shift: u32,
}

impl MapShifts {
    fn new(c: &DramConfig) -> Self {
        MapShifts {
            ch_mask: u64::from(c.channels) - 1,
            ch_shift: c.channels.trailing_zeros(),
            bank_mask: u64::from(c.banks_per_rank) - 1,
            bank_shift: c.banks_per_rank.trailing_zeros(),
        }
    }

    /// Maps a line index to `(channel, flat bank index, row)`.
    ///
    /// Layout (LSB to MSB): channel, bank, rank, column, row — standard
    /// bank-interleaved mapping so consecutive lines hit the same row via
    /// different columns once the channel/bank bits wrap.
    #[inline]
    fn map(&self, x: u64) -> (usize, usize, u64) {
        let channel = x & self.ch_mask;
        let y = x >> self.ch_shift;
        let bank = y & self.bank_mask;
        let y = y >> self.bank_shift;
        let rank = y & RANK_MASK;
        let row = (y >> RANK_SHIFT) >> ROW_SHIFT;
        let flat_bank = (((channel << RANK_SHIFT) + rank) << self.bank_shift) + bank;
        (channel as usize, flat_bank as usize, row)
    }
}

/// The DRAM device model.
#[derive(Debug)]
pub struct Dram {
    config: DramConfig,
    timing: Timing,
    shifts: MapShifts,
    banks: Vec<Bank>,
    buses: Vec<Resource>,
    stats: DramStats,
}

impl Dram {
    /// Creates an idle DRAM with all banks precharged.
    ///
    /// # Panics
    ///
    /// Panics unless `channels` and `banks_per_rank` are powers of two
    /// and `channels` is at most 64.
    pub fn new(config: DramConfig) -> Self {
        assert!(
            config.channels.is_power_of_two() && config.banks_per_rank.is_power_of_two(),
            "DRAM channels and banks per rank must be powers of two: {config:?}"
        );
        assert!(
            config.channels as usize <= MAX_CHANNELS,
            "at most {MAX_CHANNELS} DRAM channels: {config:?}"
        );
        let banks = (0..config.total_banks())
            .map(|i| Bank {
                busy: Resource::new(format!("bank{i}")),
                open_row: None,
                last_activate: SimTime::ZERO,
                last_was_write: false,
            })
            .collect();
        let buses = (0..config.channels)
            .map(|i| Resource::new(format!("dram-bus{i}")))
            .collect();
        Dram {
            timing: Timing::new(),
            shifts: MapShifts::new(&config),
            config,
            banks,
            buses,
            stats: DramStats::default(),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Serves one cache-line access, returning its service span (`end` is
    /// when the data burst completes on the bus).
    pub fn access(&mut self, line: CacheLine, op: MemOp, arrival: SimTime) -> ServiceSpan {
        let (channel, bank_idx, row) = self.shifts.map(line.raw());
        let timing = self.timing;

        // Bank *occupancy* covers only the commands that keep the bank
        // busy (activate/precharge and the CAS slot); the CAS-to-data
        // latency (tCL) is pipelined, so back-to-back row hits stream at
        // the burst rate while each access still sees tCL of latency.
        let (outcome, occupancy) = {
            let bank = &self.banks[bank_idx];
            match bank.open_row {
                Some(open) if open == row => (RowOutcome::Hit, timing.occ_hit),
                Some(_) if bank.last_was_write => (RowOutcome::Conflict, timing.occ_conflict_wr),
                Some(_) => (RowOutcome::Conflict, timing.occ_conflict),
                None => (RowOutcome::ClosedMiss, timing.occ_closed),
            }
        };

        // On a conflict the precharge may additionally wait for tRAS since
        // the previous activate.
        let earliest_start = if outcome == RowOutcome::Conflict {
            let ras_done = self.banks[bank_idx].last_activate + timing.t_ras;
            arrival.max(ras_done)
        } else {
            arrival
        };

        let command = self.banks[bank_idx].busy.acquire(earliest_start, occupancy);
        // Data appears tCL after the column command and occupies the
        // shared data bus for the burst.
        let burst =
            self.buses[channel].acquire(command.end + timing.t_cl - timing.burst, timing.burst);

        let bank = &mut self.banks[bank_idx];
        if outcome != RowOutcome::Hit {
            bank.last_activate = command.start;
        }
        bank.open_row = Some(row);
        bank.last_was_write = op == MemOp::Write;

        match outcome {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::ClosedMiss => self.stats.row_closed_misses += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
        }
        match op {
            MemOp::Read => self.stats.reads += 1,
            MemOp::Write => self.stats.writes += 1,
        }
        let span = ServiceSpan {
            start: command.start,
            end: burst.end,
        };
        self.stats.total_latency += span.latency_since(arrival);
        span
    }

    /// Serves `count` consecutive cache-line accesses starting at `line`,
    /// returning the completion time of the last one. A convenience for
    /// streaming transfers (page fills, tree walks).
    pub fn access_run(
        &mut self,
        line: CacheLine,
        count: u64,
        op: MemOp,
        arrival: SimTime,
    ) -> SimTime {
        // The streaming runs of the page fill/seal paths dominate the
        // simulator's wall-clock profile, so this loop hoists the timing
        // constants and batches statistics into locals.
        // `run_equals_access_loop` pins it to per-line `access` calls.
        let s = self.shifts;
        let timing = self.timing;
        let is_write = op == MemOp::Write;
        // The per-channel data buses form independent acquire chains;
        // keep each chain's frontier in a stack slot and commit the
        // aggregate back to the `Resource` once after the loop.
        let nch = self.buses.len();
        let mut bus_free = [SimTime::ZERO; MAX_CHANNELS];
        let mut bus_ops = [0u64; MAX_CHANNELS];
        for (c, bus) in self.buses.iter().enumerate() {
            bus_free[c] = bus.next_free();
        }
        let mut done = arrival;
        let (mut hits, mut closed, mut conflicts) = (0u64, 0u64, 0u64);
        let mut total = SimDuration::ZERO;
        // Consecutive lines cycle through every bank before the column
        // advances. In a run that stays inside one row, every line after
        // the first bank round is a row hit on a bank the round left
        // busy past `arrival`, and its bus slot comes after its bank's
        // previous burst plus one burst of each other bank of the
        // channel. That slot is never before its data is ready, so those
        // lines burst back to back. Only the first round runs line by
        // line; the rest is summed per bank and per channel below.
        let banks = self.banks.len() as u64;
        let row_shift = s.ch_shift + s.bank_shift + RANK_SHIFT + ROW_SHIFT;
        let one_row = count > 0 && line.raw() >> row_shift == (line.raw() + count - 1) >> row_shift;
        let exact = if one_row { count.min(banks) } else { count };
        for i in 0..exact {
            let (channel, bank_idx, row) = s.map(line.raw() + i);
            let bank = &mut self.banks[bank_idx];
            let (hit, occupancy, earliest) = match bank.open_row {
                Some(open) if open == row => {
                    hits += 1;
                    (true, timing.occ_hit, arrival)
                }
                Some(_) => {
                    conflicts += 1;
                    let occ = if bank.last_was_write {
                        timing.occ_conflict_wr
                    } else {
                        timing.occ_conflict
                    };
                    (false, occ, arrival.max(bank.last_activate + timing.t_ras))
                }
                None => {
                    closed += 1;
                    (false, timing.occ_closed, arrival)
                }
            };
            let command = bank.busy.acquire(earliest, occupancy);
            if !hit {
                bank.last_activate = command.start;
            }
            bank.open_row = Some(row);
            bank.last_was_write = is_write;
            let burst_start = (command.end + timing.t_cl - timing.burst).max(bus_free[channel]);
            let burst_end = burst_start + timing.burst;
            bus_free[channel] = burst_end;
            bus_ops[channel] += 1;
            total += burst_end.saturating_since(arrival);
            done = done.max(burst_end);
        }
        if exact < count {
            // Line `exact + j` and every `banks`-th line after it hit
            // the same bank: `k` chained row-hit commands there.
            let rest = count - exact;
            let mut channel_lines = [0u64; MAX_CHANNELS];
            for j in 0..rest.min(banks) {
                let k = rest / banks + u64::from(j < rest % banks);
                let (channel, bank_idx, _) = s.map(line.raw() + exact + j);
                let busy = &mut self.banks[bank_idx].busy;
                let occupied = timing.occ_hit * k;
                busy.commit_run(busy.next_free() + occupied, occupied, k);
                channel_lines[channel] += k;
            }
            hits += rest;
            // A channel's `n` bursts end one burst apart after its bus
            // frees up.
            for (c, &n) in channel_lines[..nch].iter().enumerate() {
                if n == 0 {
                    continue;
                }
                total +=
                    bus_free[c].saturating_since(arrival) * n + timing.burst * (n * (n + 1) / 2);
                bus_free[c] += timing.burst * n;
                bus_ops[c] += n;
                done = done.max(bus_free[c]);
            }
        }
        for (c, bus) in self.buses.iter_mut().enumerate() {
            if bus_ops[c] > 0 {
                bus.commit_run(bus_free[c], timing.burst * bus_ops[c], bus_ops[c]);
            }
        }
        self.stats.row_hits += hits;
        self.stats.row_closed_misses += closed;
        self.stats.row_conflicts += conflicts;
        match op {
            MemOp::Read => self.stats.reads += count,
            MemOp::Write => self.stats.writes += count,
        }
        self.stats.total_latency += total;
        done
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Resets timing state and statistics (rows precharged, buses idle).
    pub fn reset(&mut self) {
        for b in &mut self.banks {
            b.busy.reset();
            b.open_row = None;
            b.last_activate = SimTime::ZERO;
            b.last_was_write = false;
        }
        for bus in &mut self.buses {
            bus.reset();
        }
        self.stats = DramStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::table3())
    }

    fn cycles(n: u32) -> SimDuration {
        Hertz::from_mhz(800).cycles(n.into())
    }

    #[test]
    fn closed_miss_then_hit() {
        let mut d = dram();
        let c = *d.config();
        let first = d.access(CacheLine::new(0), MemOp::Read, SimTime::ZERO);
        assert_eq!(first.service(), cycles(T_RCD + T_CL + BURST_CYCLES));
        // Consecutive lines map to different banks (bank-interleaved), so
        // revisit line 0's row through a line in the same bank+row.
        let same_row = CacheLine::new(u64::from(c.banks_per_rank) * u64::from(RANKS_PER_CHANNEL));
        let second = d.access(same_row, MemOp::Read, first.end);
        assert_eq!(second.service(), cycles(T_CL + BURST_CYCLES));
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_closed_misses, 1);
    }

    #[test]
    fn conflict_costs_precharge() {
        let mut d = dram();
        let c = *d.config();
        let lines_per_row = LINES_PER_ROW;
        let banks = u64::from(c.banks_per_rank) * u64::from(RANKS_PER_CHANNEL);
        // Two lines in the same bank but different rows.
        let a = CacheLine::new(0);
        let b = CacheLine::new(banks * lines_per_row);
        let first = d.access(a, MemOp::Read, SimTime::ZERO);
        let second = d.access(b, MemOp::Read, first.end);
        assert!(second.service() >= cycles(T_RP + T_RCD + T_CL + BURST_CYCLES));
        assert_eq!(d.stats().row_conflicts, 1);
    }

    #[test]
    fn write_recovery_penalizes_following_conflict() {
        let mut d = dram();
        let c = *d.config();
        let banks = u64::from(c.banks_per_rank) * u64::from(RANKS_PER_CHANNEL);
        let a = CacheLine::new(0);
        let b = CacheLine::new(banks * LINES_PER_ROW);
        let w = d.access(a, MemOp::Write, SimTime::ZERO);
        let after_write = d.access(b, MemOp::Read, w.end);

        let mut d2 = dram();
        let r = d2.access(a, MemOp::Read, SimTime::ZERO);
        let after_read = d2.access(b, MemOp::Read, r.end);
        assert!(after_write.service() > after_read.service());
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = dram();
        // Lines 0 and 1 interleave across banks, so both start at zero.
        let a = d.access(CacheLine::new(0), MemOp::Read, SimTime::ZERO);
        let b = d.access(CacheLine::new(1), MemOp::Read, SimTime::ZERO);
        assert_eq!(a.start, b.start);
        // But the shared data bus serializes the bursts.
        assert_ne!(a.end, b.end);
    }

    #[test]
    fn access_run_moves_time_forward() {
        let mut d = dram();
        let t = d.access_run(CacheLine::new(0), 8, MemOp::Read, SimTime::ZERO);
        assert!(t > SimTime::ZERO);
        assert_eq!(d.stats().reads, 8);
        assert_eq!(d.stats().accesses(), 8);
    }

    #[test]
    fn run_equals_access_loop() {
        // The specialized streaming loop (an exact first bank round,
        // then closed-form row hits) must be indistinguishable from
        // per-line `access` calls: same completion times, same stats,
        // same bank and bus state afterwards (probed by later runs).
        // Table 3 has 16 banks and a 2048-line row span; the second
        // config spreads them over two channels.
        let two_channels = DramConfig {
            channels: 2,
            banks_per_rank: 4,
            ..DramConfig::table3()
        };
        let runs = [
            (0u64, 64u64, MemOp::Write),
            (64, 64, MemOp::Read),
            // Shorter than one bank round.
            (17, 5, MemOp::Write),
            (64, 64, MemOp::Write),
            (4096, 64, MemOp::Read),
            (0, 64, MemOp::Read),
            // Starts mid-row and mid-round, ends on a partial round.
            (1000, 45, MemOp::Read),
            // Crosses a row boundary.
            (2030, 64, MemOp::Read),
            // Writes, then a read of another row on the same banks:
            // write-recovery conflicts in the first round.
            (6144, 64, MemOp::Write),
            (8192, 64, MemOp::Read),
            // Exactly one round, then a long run of many rounds.
            (32, 16, MemOp::Write),
            (512, 300, MemOp::Read),
        ];
        for config in [DramConfig::table3(), two_channels] {
            let mut fast = Dram::new(config);
            let mut slow = Dram::new(config);
            let mut done = SimTime::ZERO;
            for (n, &(base, count, op)) in runs.iter().enumerate() {
                // Every other run arrives while the previous one still
                // holds the banks and bus.
                let arrival = if n % 2 == 0 {
                    done
                } else {
                    done - SimDuration::from_nanos(100)
                };
                let t_fast = fast.access_run(CacheLine::new(base), count, op, arrival);
                let mut t_slow = arrival;
                for i in 0..count {
                    t_slow = slow
                        .access(CacheLine::new(base + i), op, arrival)
                        .end
                        .max(t_slow);
                }
                assert_eq!(t_fast, t_slow, "run {n} on {config:?}");
                // Probe the bank the run touched last with a conflict
                // from the run's arrival: it queues behind the bank's
                // last command and precharges the row the run left open.
                let row_span = u64::from(config.total_banks()) * LINES_PER_ROW;
                let probe = CacheLine::new(base + count - 1 + row_span);
                assert_eq!(
                    fast.access(probe, MemOp::Read, arrival),
                    slow.access(probe, MemOp::Read, arrival),
                    "probe after run {n} on {config:?}"
                );
                assert_eq!(fast.stats(), slow.stats(), "run {n} on {config:?}");
                done = t_fast;
            }
        }
    }

    #[test]
    fn reset_restores_idle_state() {
        let mut d = dram();
        d.access(CacheLine::new(0), MemOp::Write, SimTime::ZERO);
        d.reset();
        assert_eq!(d.stats().accesses(), 0);
        let first = d.access(CacheLine::new(0), MemOp::Read, SimTime::ZERO);
        // A closed-row miss again: tRCD + tCL + burst, 26 cycles of
        // 1.25 ns.
        assert_eq!(first.service(), cycles(T_RCD + T_CL + BURST_CYCLES));
        assert_eq!(first.service(), SimDuration::from_ps(32_500));
    }

    #[test]
    fn peak_bandwidth_is_ddr3_1600() {
        // 800 MHz command clock / 4 cycles per line * 64 B = 12.8 GB/s.
        let per_channel = CLOCK.as_hz() / u64::from(BURST_CYCLES) * CACHE_LINE_SIZE;
        assert_eq!(per_channel, 12_800_000_000);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn three_channels_panic() {
        let _ = Dram::new(DramConfig {
            channels: 3,
            ..DramConfig::table3()
        });
    }
}
