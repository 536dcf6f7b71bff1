//! DDR4 main-memory model with channel/rank/bank timing and queuing.
//!
//! The paper provisions 3–8 DDR4-3200 channels with 4 ranks × 8 banks each
//! (Table I, parameters from Ramulator). This model reproduces the properties
//! that drive the paper's results:
//!
//! * **finite per-channel bandwidth** — a 64 B burst occupies the channel data
//!   bus for `t_bl` cycles, so offered load beyond ~25.6 GB/s/channel queues;
//! * **bank conflicts and row-buffer locality** — row hits pay `t_cas`, row
//!   misses pay `t_rp + t_rcd + t_cas`;
//! * **load-dependent latency** — each access returns its actual completion
//!   latency including queuing, recorded in a histogram for Figure 6's CDFs.
//!
//! The model is a resource-reservation simulation: banks and buses keep
//! next-free timestamps rather than replaying a full command schedule. That
//! keeps multi-million-access runs fast while preserving the queue-growth
//! behaviour the evaluation depends on.

use crate::addr::BlockAddr;
use crate::stats::Histogram;
use crate::Cycle;

/// DRAM configuration.
///
/// Defaults correspond to DDR4-3200 expressed in 3.2 GHz CPU cycles:
/// CL=tRCD=tRP=22 DRAM cycles ≈ 13.75 ns ≈ 44 CPU cycles; a 64 B burst at
/// 25.6 GB/s lasts 2.5 ns = 8 CPU cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of memory channels (Table I: 3 to 8).
    pub channels: usize,
    /// Ranks per channel (Table I: 4).
    pub ranks_per_channel: usize,
    /// Banks per rank (Table I: 8).
    pub banks_per_rank: usize,
    /// Column access latency (CAS) in CPU cycles.
    pub t_cas: Cycle,
    /// Row activation latency (RCD) in CPU cycles.
    pub t_rcd: Cycle,
    /// Precharge latency (RP) in CPU cycles.
    pub t_rp: Cycle,
    /// Data-bus occupancy of one 64 B burst in CPU cycles.
    pub t_bl: Cycle,
    /// Cache blocks per DRAM row (8 KB row / 64 B = 128).
    pub row_blocks: u64,
    /// Extra bus cycles when the data bus changes direction (tWTR/tRTW).
    pub t_turnaround: Cycle,
    /// Extra channel occupancy charged per row activation (command-bus and
    /// tFAW/tRRD pressure). Random-access streams therefore cap at
    /// `t_bl / (t_bl + t_act_bus)` of nominal peak (~2/3 with defaults),
    /// while row-hit streaming keeps full bandwidth — matching measured
    /// DDR4 behaviour.
    pub t_act_bus: Cycle,
    /// Refresh interval per channel (tREFI), CPU cycles.
    pub t_refi: Cycle,
    /// Refresh duration (tRFC) during which a channel's banks stall, CPU
    /// cycles.
    pub t_rfc: Cycle,
}

impl DramConfig {
    /// The paper's default: four DDR4-3200 channels.
    pub fn paper_default() -> Self {
        Self::with_channels(4)
    }

    /// DDR4-3200 with an explicit channel count.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn with_channels(channels: usize) -> Self {
        assert!(channels > 0, "at least one memory channel is required");
        Self {
            channels,
            ranks_per_channel: 4,
            banks_per_rank: 8,
            t_cas: 44,
            t_rcd: 44,
            t_rp: 44,
            t_bl: 8,
            row_blocks: 128,
            // DDR4-3200: tWTR_L ≈ tCCD + write recovery ≈ 10 ns ≈ 32 CPU
            // cycles; we charge a symmetric, smaller penalty per direction
            // switch.
            t_turnaround: 16,
            t_act_bus: 4,
            // tREFI = 7.8 µs, tRFC ≈ 350 ns for 8 Gb devices.
            t_refi: 24_960,
            t_rfc: 1_120,
        }
    }

    /// Banks per channel.
    pub fn banks_per_channel(&self) -> usize {
        self.ranks_per_channel * self.banks_per_rank
    }

    /// Theoretical peak bandwidth in GB/s (all channels).
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        let bytes_per_cycle = crate::BLOCK_BYTES as f64 / self.t_bl as f64;
        bytes_per_cycle * self.channels as f64 * crate::engine::CLOCK_HZ as f64 / 1e9
    }

    /// Unloaded (no queuing, row miss on an idle closed bank) read latency.
    pub fn unloaded_latency(&self) -> Cycle {
        self.t_rcd + self.t_cas + self.t_bl
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    busy_until: Cycle,
    open_row: Option<u64>,
}

#[derive(Debug, Clone)]
struct Channel {
    banks: Vec<Bank>,
    bus_free: Cycle,
    /// Burst cycles accumulated in the write buffer, drained in batches.
    write_queue_work: Cycle,
    writes_pending: u32,
    reads: u64,
    writes: u64,
}

/// Writes drain in batches of this many bursts, amortizing the two bus
/// turnarounds (read→write, write→read) each drain costs — the standard
/// write-buffering policy of DDR controllers.
const WRITE_DRAIN_BATCH: u32 = 16;

/// Whether a DRAM access moves data to or from the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramOp {
    /// Data read (demand fill); the requester waits for completion.
    Read,
    /// Data write (writeback); posted, the requester does not wait.
    Write,
}

/// Outcome of a DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramAccess {
    /// Cycles from issue to data completion (queuing + device time).
    pub latency: Cycle,
    /// Whether the access hit an open row.
    pub row_hit: bool,
    /// Channel that serviced the access.
    pub channel: usize,
}

/// The DRAM subsystem.
///
/// ```
/// use sweeper_sim::dram::{Dram, DramConfig, DramOp};
/// use sweeper_sim::addr::BlockAddr;
///
/// let mut dram = Dram::new(DramConfig::paper_default());
/// let a = dram.access(BlockAddr(0), 0, DramOp::Read);
/// assert_eq!(a.latency, dram.config().unloaded_latency());
/// // Same row, immediately after: row hit, but queued behind the first.
/// let b = dram.access(BlockAddr(4), a.latency, DramOp::Read);
/// assert!(b.row_hit);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    channels: Vec<Channel>,
    read_latency: Histogram,
    row_hits: u64,
    row_misses: u64,
}

impl Dram {
    /// Builds an idle DRAM subsystem.
    pub fn new(cfg: DramConfig) -> Self {
        let channels = (0..cfg.channels)
            .map(|_| Channel {
                banks: vec![Bank::default(); cfg.banks_per_channel()],
                bus_free: 0,
                write_queue_work: 0,
                writes_pending: 0,
                reads: 0,
                writes: 0,
            })
            .collect();
        Self {
            cfg,
            channels,
            read_latency: Histogram::new(),
            row_hits: 0,
            row_misses: 0,
        }
    }

    /// The configuration this subsystem was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    fn map(&self, block: BlockAddr) -> (usize, usize, u64) {
        let ch = (block.0 % self.cfg.channels as u64) as usize;
        let within = block.0 / self.cfg.channels as u64;
        let row_id = within / self.cfg.row_blocks;
        // Permutation-based bank interleaving: hash the row id into a bank
        // so that power-of-two strides (ring spacing, partition spacing)
        // cannot resonate onto one bank — the XOR/permutation schemes real
        // controllers use for exactly this reason. Consecutive blocks still
        // share a row, preserving streaming row-buffer locality.
        let bank = (row_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32)
            % self.cfg.banks_per_channel() as u64;
        // The row id itself tags the open row: distinct rows never alias.
        (ch, bank as usize, row_id)
    }

    /// Performs one 64 B access at cycle `now` and returns its timing.
    ///
    /// Reads record their latency in the histogram used by the Figure 6 CDFs;
    /// writes occupy the same resources but are posted.
    pub fn access(&mut self, block: BlockAddr, now: Cycle, op: DramOp) -> DramAccess {
        let (ch_idx, bank_idx, row) = self.map(block);
        let ch = &mut self.channels[ch_idx];
        let bank = &mut ch.banks[bank_idx];

        // Periodic all-bank refresh (tREFI/tRFC): accesses landing inside a
        // refresh window (the tail of each tREFI interval) wait for it to
        // finish.
        let mut ready = now.max(bank.busy_until);
        if self.cfg.t_refi > 0 {
            let phase = ready % self.cfg.t_refi;
            if phase >= self.cfg.t_refi - self.cfg.t_rfc {
                ready += self.cfg.t_refi - phase;
            }
        }

        let (device, row_hit) = match bank.open_row {
            Some(r) if r == row => (self.cfg.t_cas, true),
            Some(_) => (self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas, false),
            None => (self.cfg.t_rcd + self.cfg.t_cas, false),
        };
        let data_ready = ready + device;
        let bus_work = self.cfg.t_bl + if row_hit { 0 } else { self.cfg.t_act_bus };

        // The bank frees once its own column access completes (the data sits
        // in the channel's buffers if the bus is backed up); only the burst
        // itself occupies the data bus. Coupling the two queues would
        // collapse the channel far below its real sustainable bandwidth.
        bank.busy_until = data_ready + self.cfg.t_bl;
        bank.open_row = Some(row);

        let latency;
        match op {
            DramOp::Write => {
                // Posted: the burst enters the write buffer. Full batches
                // drain onto the data bus immediately (amortizing the two
                // turnarounds), so write bandwidth is charged continuously
                // and a write-heavy requester cannot push its bus work onto
                // later readers for free.
                ch.write_queue_work += bus_work;
                ch.writes_pending += 1;
                ch.writes += 1;
                if ch.writes_pending >= WRITE_DRAIN_BATCH {
                    ch.bus_free =
                        ch.bus_free.max(now) + ch.write_queue_work + 2 * self.cfg.t_turnaround;
                    ch.write_queue_work = 0;
                    ch.writes_pending = 0;
                }
                latency = data_ready.saturating_sub(now) + self.cfg.t_bl;
            }
            DramOp::Read => {
                let data_start = data_ready.max(ch.bus_free);
                let done = data_start + self.cfg.t_bl;
                ch.bus_free = data_start + bus_work;
                latency = done - now;
                ch.reads += 1;
                self.read_latency.record(latency);
            }
        }
        if row_hit {
            self.row_hits += 1;
        } else {
            self.row_misses += 1;
        }

        DramAccess {
            latency,
            row_hit,
            channel: ch_idx,
        }
    }

    /// Histogram of read latencies (cycles) since the last
    /// [`reset_counters`](Self::reset_counters).
    pub fn read_latency(&self) -> &Histogram {
        &self.read_latency
    }

    /// Clears latencies plus the per-channel and row-hit counters (end of
    /// warmup). Timing state (bank/bus reservations) is kept.
    pub fn reset_counters(&mut self) {
        self.read_latency.clear();
        self.row_hits = 0;
        self.row_misses = 0;
        for ch in &mut self.channels {
            ch.reads = 0;
            ch.writes = 0;
        }
    }

    /// Outstanding bus work (cycles) beyond `now` on the busiest channel —
    /// the backpressure signal a DMA engine observes when the memory system
    /// cannot absorb its writes.
    pub fn backlog(&self, now: Cycle) -> Cycle {
        self.channels
            .iter()
            .map(|ch| (ch.bus_free + ch.write_queue_work).saturating_sub(now))
            .max()
            .unwrap_or(0)
    }

    /// Total accesses serviced, per channel, as `(reads, writes)`.
    pub fn channel_counts(&self) -> Vec<(u64, u64)> {
        self.channels.iter().map(|c| (c.reads, c.writes)).collect()
    }

    /// Snapshot of the scheduling frontier: per channel, the bus-free time
    /// followed by every bank's busy-until time. `access` only ever moves
    /// these forward, so each element must be non-decreasing across
    /// snapshots — the correctness harness asserts exactly that.
    pub fn timing_frontier(&self) -> Vec<Cycle> {
        let mut out = Vec::new();
        for ch in &self.channels {
            out.push(ch.bus_free);
            out.extend(ch.banks.iter().map(|b| b.busy_until));
        }
        out
    }

    /// Fraction of accesses that hit an open row.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::paper_default())
    }

    #[test]
    fn config_sanity() {
        let cfg = DramConfig::paper_default();
        assert_eq!(cfg.channels, 4);
        assert_eq!(cfg.banks_per_channel(), 32);
        // 25.6 GB/s per channel x 4 channels.
        assert!((cfg.peak_bandwidth_gbps() - 102.4).abs() < 0.1);
        assert_eq!(cfg.unloaded_latency(), 44 + 44 + 8);
    }

    #[test]
    fn unloaded_read_has_base_latency() {
        let mut d = dram();
        let a = d.access(BlockAddr(0), 1000, DramOp::Read);
        assert_eq!(a.latency, d.config().unloaded_latency());
        assert!(!a.row_hit);
    }

    #[test]
    fn row_hit_is_faster() {
        let mut d = dram();
        let first = d.access(BlockAddr(0), 0, DramOp::Read);
        // Same channel/bank/row, issued long after the bank is free.
        let later = first.latency + 10_000;
        let second = d.access(BlockAddr(0), later, DramOp::Read);
        assert!(second.row_hit);
        assert_eq!(second.latency, d.config().t_cas + d.config().t_bl);
        assert!(second.latency < first.latency);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let cfg = DramConfig::paper_default();
        let conflict_latency = cfg.t_rp + cfg.t_rcd + cfg.t_cas + cfg.t_bl;
        // Bank indices are hashed, so search channel-0 rows for one that
        // collides with row 0's bank: it must then pay the precharge.
        let mut found = false;
        for k in 1..200u64 {
            let mut d = Dram::new(cfg);
            d.access(BlockAddr(0), 0, DramOp::Read);
            let candidate = BlockAddr(k * cfg.channels as u64 * cfg.row_blocks);
            let a = d.access(candidate, 1_000_000, DramOp::Read);
            assert!(!a.row_hit, "different rows can never row-hit");
            if a.latency == conflict_latency {
                found = true;
                break;
            }
            // Non-colliding banks start closed: activation only.
            assert_eq!(a.latency, cfg.t_rcd + cfg.t_cas + cfg.t_bl);
        }
        assert!(found, "some row must collide with row 0's bank");
    }

    #[test]
    fn hashed_banks_spread_strided_rows() {
        // The resonance the hash exists to kill: rows strided by a power of
        // two must not all land on one bank.
        let cfg = DramConfig::paper_default();
        let mut d = Dram::new(cfg);
        let mut banks = std::collections::HashSet::new();
        for k in 0..64u64 {
            let block = BlockAddr(k * 64 * cfg.channels as u64 * cfg.row_blocks);
            // Observe the bank indirectly through map(); use latency-free
            // probing via the public access on a fresh device per probe.
            let _ = d.access(block, k * 1_000_000, DramOp::Read);
            banks.insert(d.map(block).1);
        }
        assert!(
            banks.len() > 8,
            "64 power-of-two-strided rows hit only {} banks",
            banks.len()
        );
    }

    #[test]
    fn consecutive_blocks_interleave_channels() {
        let mut d = dram();
        let mut seen = std::collections::HashSet::new();
        for i in 0..4u64 {
            seen.insert(d.access(BlockAddr(i), 0, DramOp::Read).channel);
        }
        assert_eq!(seen.len(), 4, "4 consecutive blocks hit 4 channels");
    }

    #[test]
    fn saturation_grows_latency() {
        let mut d = dram();
        // Hammer a single channel (stride = channel count keeps channel 0).
        let mut last = 0;
        for i in 0..1000u64 {
            let a = d.access(BlockAddr(i * 4), 0, DramOp::Read);
            last = a.latency;
        }
        // All thousand requests queued at cycle 0 on one channel: the last
        // one waits for ~999 bursts.
        assert!(
            last > 900 * d.config().t_bl,
            "expected queuing growth, got {last}"
        );
    }

    #[test]
    fn offered_load_spread_over_channels_is_faster() {
        let mut spread = dram();
        let mut single = dram();
        let mut spread_last = 0;
        let mut single_last = 0;
        for i in 0..1000u64 {
            // Stride of 131 rows varies the bank on every access, so the
            // single-channel stream is limited by its data bus rather than
            // by one bank's chain.
            let row_stride = i * 131 * 128;
            spread_last = spread
                .access(BlockAddr(row_stride + i % 4), 0, DramOp::Read)
                .latency;
            single_last = single
                .access(BlockAddr(row_stride * 4), 0, DramOp::Read)
                .latency;
        }
        assert!(
            spread_last * 3 < single_last,
            "spread {spread_last} vs single {single_last}"
        );
    }

    #[test]
    fn writes_occupy_bandwidth_but_are_counted_separately() {
        let mut d = dram();
        for i in 0..100u64 {
            d.access(BlockAddr(i * 4), 0, DramOp::Write);
        }
        let read = d.access(BlockAddr(400), 0, DramOp::Read);
        assert!(
            read.latency > d.config().unloaded_latency(),
            "read must queue behind writes"
        );
        let (reads, writes) = d.channel_counts()[0];
        assert_eq!(reads, 1);
        assert_eq!(writes, 100);
    }

    #[test]
    fn latency_histogram_records_reads_only() {
        let mut d = dram();
        d.access(BlockAddr(0), 0, DramOp::Write);
        assert_eq!(d.read_latency().count(), 0);
        d.access(BlockAddr(1), 0, DramOp::Read);
        assert_eq!(d.read_latency().count(), 1);
    }

    #[test]
    fn row_hit_rate_tracks() {
        let mut d = dram();
        d.access(BlockAddr(0), 0, DramOp::Read);
        d.access(BlockAddr(0), 10_000, DramOp::Read);
        assert!((d.row_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn row_hit_rate_is_zero_before_any_access() {
        assert_eq!(dram().row_hit_rate(), 0.0);
    }

    #[test]
    fn more_channels_more_bandwidth() {
        let c8 = DramConfig::with_channels(8);
        let c3 = DramConfig::with_channels(3);
        assert!(c8.peak_bandwidth_gbps() > 2.0 * c3.peak_bandwidth_gbps());
    }

    #[test]
    #[should_panic(expected = "at least one memory channel")]
    fn zero_channels_rejected() {
        DramConfig::with_channels(0);
    }
}
