//! Measurement infrastructure: traffic attribution and latency histograms.
//!
//! The paper's key diagnostic is the *breakdown of memory accesses per
//! request*, attributed to eight traffic classes (Figures 1c, 2c, 5c, 7b).
//! [`TrafficClass`] reproduces that legend exactly; [`MemStats`] counts DRAM
//! transfers per class; [`Histogram`] records latency distributions for the
//! access-latency CDFs of Figure 6.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::engine::cycles_to_secs;
use crate::telemetry::Record;
use crate::Cycle;

/// Source attribution of a DRAM transfer.
///
/// These are exactly the legend entries of the paper's memory-access
/// breakdown figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrafficClass {
    /// NIC writes an incoming packet directly to memory (DMA mode only).
    NicRxWr,
    /// NIC reads a transmit buffer from memory.
    NicTxRd,
    /// CPU read miss on an RX buffer — the signature of a *premature* buffer
    /// eviction.
    CpuRxRd,
    /// CPU reads or write-allocate reads on TX buffers.
    CpuTxRdWr,
    /// CPU reads to anything that is not a network buffer.
    CpuOtherRd,
    /// Dirty eviction (writeback) of an RX-buffer block — the signature of a
    /// *consumed* buffer eviction, the leak class Sweeper eliminates.
    RxEvct,
    /// Dirty eviction of a TX-buffer block.
    TxEvct,
    /// Dirty eviction of application data.
    OtherEvct,
}

impl TrafficClass {
    /// All classes, in the order used by the paper's figure legends.
    pub const ALL: [TrafficClass; 8] = [
        TrafficClass::NicRxWr,
        TrafficClass::NicTxRd,
        TrafficClass::CpuRxRd,
        TrafficClass::CpuTxRdWr,
        TrafficClass::CpuOtherRd,
        TrafficClass::RxEvct,
        TrafficClass::TxEvct,
        TrafficClass::OtherEvct,
    ];

    /// Stable index into [`TrafficClass::ALL`].
    pub fn index(self) -> usize {
        match self {
            TrafficClass::NicRxWr => 0,
            TrafficClass::NicTxRd => 1,
            TrafficClass::CpuRxRd => 2,
            TrafficClass::CpuTxRdWr => 3,
            TrafficClass::CpuOtherRd => 4,
            TrafficClass::RxEvct => 5,
            TrafficClass::TxEvct => 6,
            TrafficClass::OtherEvct => 7,
        }
    }

    /// Short label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::NicRxWr => "NIC RX Wr",
            TrafficClass::NicTxRd => "NIC TX Rd",
            TrafficClass::CpuRxRd => "CPU RX Rd",
            TrafficClass::CpuTxRdWr => "CPU TX Rd/Wr",
            TrafficClass::CpuOtherRd => "CPU Other Rd",
            TrafficClass::RxEvct => "RX Evct",
            TrafficClass::TxEvct => "TX Evct",
            TrafficClass::OtherEvct => "Other Evct",
        }
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-[`TrafficClass`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassCounts([u64; 8]);

impl ClassCounts {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments one class by one.
    pub fn bump(&mut self, class: TrafficClass) {
        self.0[class.index()] += 1;
    }

    /// Sum over all classes.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Per-class counts paired with their class, in legend order.
    pub fn iter(&self) -> impl Iterator<Item = (TrafficClass, u64)> + '_ {
        TrafficClass::ALL
            .iter()
            .map(move |&c| (c, self.0[c.index()]))
    }

    /// Difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &ClassCounts) -> ClassCounts {
        let mut out = ClassCounts::new();
        for i in 0..8 {
            out.0[i] = self.0[i].saturating_sub(earlier.0[i]);
        }
        out
    }

    /// Structured export keyed by the paper's legend labels, in legend
    /// order.
    pub fn to_record(&self) -> Record {
        let mut rec = Record::new();
        for (class, n) in self.iter() {
            rec.push(class.label(), n);
        }
        rec
    }
}

impl Index<TrafficClass> for ClassCounts {
    type Output = u64;
    fn index(&self, class: TrafficClass) -> &u64 {
        &self.0[class.index()]
    }
}

impl IndexMut<TrafficClass> for ClassCounts {
    fn index_mut(&mut self, class: TrafficClass) -> &mut u64 {
        &mut self.0[class.index()]
    }
}

/// Aggregate memory-system statistics.
///
/// Counts every DRAM transfer (64 B each) with its attribution, plus cache
/// event counters that the unit tests and ablation studies rely on.
#[derive(Debug, Clone, Default)]
pub struct MemStats {
    /// DRAM reads per traffic class.
    pub dram_reads: ClassCounts,
    /// DRAM writes per traffic class.
    pub dram_writes: ClassCounts,
    /// LLC hits observed by CPU demand accesses.
    pub llc_hits: u64,
    /// LLC misses observed by CPU demand accesses.
    pub llc_misses: u64,
    /// NIC DDIO writes that hit an LLC-resident block (write-update).
    pub ddio_hits: u64,
    /// NIC DDIO writes that write-allocated a new LLC block.
    pub ddio_allocs: u64,
    /// Cache blocks invalidated by `sweep` messages.
    pub swept_blocks: u64,
    /// Dirty blocks whose writeback a `sweep` suppressed — memory bandwidth
    /// directly conserved by Sweeper.
    pub sweep_saved_writebacks: u64,
    /// Coherence invalidations sent to private caches.
    pub invalidations: u64,
    /// Cache-to-cache transfers (dirty data forwarded between cores).
    pub c2c_transfers: u64,
    /// Dirty private copies discarded because the NIC fully overwrote the
    /// block (safe by construction — the data was dead).
    pub dirty_dropped_by_nic_overwrite: u64,
    /// Dirty private copies a CPU write invalidated in another core. That
    /// core was not the dirty owner (an owner is written back and cleaned
    /// before the write), so nothing wrote the data back: a modelling bug,
    /// asserted zero by the conservation tests.
    pub dirty_dropped_unexpectedly: u64,
    /// Dirty NIC-origin LLC lines evicted by NIC write-allocations.
    pub nic_lines_evicted_by_nic: u64,
    /// Dirty NIC-origin LLC lines evicted by CPU-side spills (the §VI-C
    /// "runaway"/contention path).
    pub nic_lines_evicted_by_cpu: u64,
    /// Demand DRAM reads per requesting core (grown on demand) — the
    /// per-tenant bandwidth attribution used in collocation studies.
    pub dram_reads_by_core: Vec<u64>,
    /// Simulated block-granularity memory operations processed (CPU block
    /// accesses, NIC block reads/writes, sweeps, flushes). The numerator
    /// of the simulator's own *host* throughput metric (hostbench's
    /// `sim_accesses_per_ref`: simulated accesses per reference unit of
    /// host time).
    pub block_accesses: u64,
}

impl MemStats {
    /// Fresh, all-zero statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attributes one demand DRAM read to `core`.
    pub fn note_core_dram_read(&mut self, core: u16) {
        let idx = core as usize;
        if self.dram_reads_by_core.len() <= idx {
            self.dram_reads_by_core.resize(idx + 1, 0);
        }
        self.dram_reads_by_core[idx] += 1;
    }

    /// Total DRAM transfers (reads + writes).
    pub fn dram_accesses(&self) -> u64 {
        self.dram_reads.total() + self.dram_writes.total()
    }

    /// Total bytes moved to/from DRAM.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_accesses() * crate::BLOCK_BYTES
    }

    /// Average DRAM bandwidth in GB/s over `elapsed` cycles.
    pub fn bandwidth_gbps(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        self.dram_bytes() as f64 / cycles_to_secs(elapsed) / 1e9
    }

    /// Combined read+write counts per class.
    pub fn combined(&self) -> ClassCounts {
        let mut out = ClassCounts::new();
        for (c, n) in self.dram_reads.iter() {
            out[c] += n;
        }
        for (c, n) in self.dram_writes.iter() {
            out[c] += n;
        }
        out
    }

    /// Structured export of every counter, for the telemetry layer.
    pub fn to_record(&self) -> Record {
        Record::new()
            .with("dram_reads", self.dram_reads.to_record())
            .with("dram_writes", self.dram_writes.to_record())
            .with("llc_hits", self.llc_hits)
            .with("llc_misses", self.llc_misses)
            .with("ddio_hits", self.ddio_hits)
            .with("ddio_allocs", self.ddio_allocs)
            .with("swept_blocks", self.swept_blocks)
            .with("sweep_saved_writebacks", self.sweep_saved_writebacks)
            .with("invalidations", self.invalidations)
            .with("c2c_transfers", self.c2c_transfers)
            .with(
                "dirty_dropped_by_nic_overwrite",
                self.dirty_dropped_by_nic_overwrite,
            )
            .with(
                "dirty_dropped_unexpectedly",
                self.dirty_dropped_unexpectedly,
            )
            .with("nic_lines_evicted_by_nic", self.nic_lines_evicted_by_nic)
            .with("nic_lines_evicted_by_cpu", self.nic_lines_evicted_by_cpu)
            .with(
                "dram_reads_by_core",
                self.dram_reads_by_core
                    .iter()
                    .map(|&n| crate::telemetry::Value::U64(n))
                    .collect::<Vec<_>>(),
            )
            .with("block_accesses", self.block_accesses)
    }
}

/// A log-linear latency histogram (HDR-style).
///
/// Buckets grow geometrically, giving ~3% relative precision across the whole
/// range of memory latencies (tens to tens of thousands of cycles) with a
/// small, fixed footprint. Used for the DRAM access-latency CDFs of Figure 6
/// and for request-latency SLO checks.
///
/// ```
/// use sweeper_sim::stats::Histogram;
/// let mut h = Histogram::new();
/// for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 10);
/// assert!(h.percentile(0.5) >= 50 && h.percentile(0.5) <= 60);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Linear buckets of width 1 for values < LINEAR_MAX.
    linear: Vec<u32>,
    /// Geometric buckets above LINEAR_MAX.
    geo: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

const LINEAR_MAX: u64 = 1024;
const GEO_BUCKETS_PER_OCTAVE: u64 = 32;

fn geo_bucket(v: u64) -> usize {
    // v >= LINEAR_MAX here. Bucket = octaves above LINEAR_MAX, subdivided.
    let lz = 63 - v.leading_zeros() as u64; // floor(log2 v), >= 10
    let octave = lz - 10;
    let frac = (v >> (lz.saturating_sub(5))) & 0x1f; // top 5 fractional bits
    (octave * GEO_BUCKETS_PER_OCTAVE + frac) as usize
}

fn geo_bucket_low(bucket: usize) -> u64 {
    let octave = bucket as u64 / GEO_BUCKETS_PER_OCTAVE;
    let frac = bucket as u64 % GEO_BUCKETS_PER_OCTAVE;
    let base = LINEAR_MAX << octave;
    base + (base / GEO_BUCKETS_PER_OCTAVE) * frac
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            linear: vec![0; LINEAR_MAX as usize],
            geo: Vec::new(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
        if value < LINEAR_MAX {
            self.linear[value as usize] += 1;
        } else {
            let b = geo_bucket(value);
            if b >= self.geo.len() {
                self.geo.resize(b + 1, 0);
            }
            self.geo[b] += 1;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]` (lower-bound estimate).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (v, &n) in self.linear.iter().enumerate() {
            seen += n as u64;
            if seen >= target {
                return v as u64;
            }
        }
        for (b, &n) in self.geo.iter().enumerate() {
            seen += n;
            if seen >= target {
                return geo_bucket_low(b);
            }
        }
        self.max
    }

    /// CDF points `(value, cumulative_fraction)` for plotting, skipping empty
    /// buckets.
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        if self.count == 0 {
            return out;
        }
        let mut seen = 0u64;
        for (v, &n) in self.linear.iter().enumerate() {
            if n > 0 {
                seen += n as u64;
                out.push((v as u64, seen as f64 / self.count as f64));
            }
        }
        for (b, &n) in self.geo.iter().enumerate() {
            if n > 0 {
                seen += n;
                out.push((geo_bucket_low(b), seen as f64 / self.count as f64));
            }
        }
        out
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (v, &n) in other.linear.iter().enumerate() {
            self.linear[v] += n;
        }
        if other.geo.len() > self.geo.len() {
            self.geo.resize(other.geo.len(), 0);
        }
        for (b, &n) in other.geo.iter().enumerate() {
            self.geo[b] += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Discards all samples.
    pub fn clear(&mut self) {
        self.linear.fill(0);
        self.geo.fill(0);
        self.count = 0;
        self.sum = 0;
        self.max = 0;
    }

    /// The unified read API: one fixed set of percentile summaries shared
    /// by the report sinks, the figures, and the telemetry exports, so
    /// every consumer reads the same quantiles.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean: self.mean(),
            p50: self.percentile(0.5),
            p90: self.percentile(0.9),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            p999: self.percentile(0.999),
            max: self.max,
        }
    }
}

/// The fixed percentile summary of a [`Histogram`] (see
/// [`Histogram::summary`]). All latencies are in cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Mean of recorded samples (0 if empty).
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Largest recorded sample.
    pub max: u64,
}

impl HistogramSummary {
    /// Structured export for the telemetry layer.
    pub fn to_record(&self) -> Record {
        Record::new()
            .with("count", self.count)
            .with("mean", self.mean)
            .with("p50", self.p50)
            .with("p90", self.p90)
            .with("p95", self.p95)
            .with("p99", self.p99)
            .with("p999", self.p999)
            .with("max", self.max)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_index_round_trips() {
        for (i, c) in TrafficClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn class_labels_match_paper_legend() {
        assert_eq!(TrafficClass::NicRxWr.label(), "NIC RX Wr");
        assert_eq!(TrafficClass::RxEvct.label(), "RX Evct");
        assert_eq!(TrafficClass::CpuTxRdWr.label(), "CPU TX Rd/Wr");
        assert_eq!(format!("{}", TrafficClass::OtherEvct), "Other Evct");
    }

    #[test]
    fn class_counts_bump_and_total() {
        let mut c = ClassCounts::new();
        c.bump(TrafficClass::RxEvct);
        c.bump(TrafficClass::RxEvct);
        c.bump(TrafficClass::NicTxRd);
        assert_eq!(c[TrafficClass::RxEvct], 2);
        assert_eq!(c[TrafficClass::NicTxRd], 1);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn class_counts_since() {
        let mut a = ClassCounts::new();
        a.bump(TrafficClass::CpuRxRd);
        let snapshot = a;
        a.bump(TrafficClass::CpuRxRd);
        a.bump(TrafficClass::TxEvct);
        let delta = a.since(&snapshot);
        assert_eq!(delta[TrafficClass::CpuRxRd], 1);
        assert_eq!(delta[TrafficClass::TxEvct], 1);
        assert_eq!(delta.total(), 2);
    }

    #[test]
    fn mem_stats_bandwidth() {
        let mut s = MemStats::new();
        for _ in 0..1000 {
            s.dram_reads.bump(TrafficClass::CpuOtherRd);
        }
        // 1000 blocks * 64B over 1 second of cycles.
        let gbps = s.bandwidth_gbps(crate::engine::CLOCK_HZ);
        assert!((gbps - 64_000.0 / 1e9).abs() < 1e-12);
        assert_eq!(s.dram_bytes(), 64_000);
        assert_eq!(s.bandwidth_gbps(0), 0.0);
    }

    #[test]
    fn per_core_attribution_grows_on_demand() {
        let mut s = MemStats::new();
        assert!(s.dram_reads_by_core.is_empty());
        s.note_core_dram_read(5);
        s.note_core_dram_read(5);
        s.note_core_dram_read(0);
        assert_eq!(s.dram_reads_by_core, [1, 0, 0, 0, 0, 2]);
    }

    #[test]
    fn mem_stats_combined() {
        let mut s = MemStats::new();
        s.dram_reads.bump(TrafficClass::CpuRxRd);
        s.dram_writes.bump(TrafficClass::RxEvct);
        s.dram_writes.bump(TrafficClass::RxEvct);
        let c = s.combined();
        assert_eq!(c[TrafficClass::CpuRxRd], 1);
        assert_eq!(c[TrafficClass::RxEvct], 2);
        assert_eq!(s.dram_accesses(), 3);
    }

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        h.record(100);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 100.0);
        assert_eq!(h.max(), 100);
        assert_eq!(h.percentile(0.0), 100);
        assert_eq!(h.percentile(1.0), 100);
    }

    #[test]
    fn histogram_percentiles_exact_in_linear_range() {
        let mut h = Histogram::new();
        for v in 1..=1000 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), 500);
        assert_eq!(h.percentile(0.99), 990);
        assert_eq!(h.percentile(1.0), 1000);
    }

    #[test]
    fn histogram_geo_range_precision() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(50_000);
        }
        let p50 = h.percentile(0.5);
        // Geometric buckets give a lower bound within ~3.2%.
        assert!(p50 <= 50_000 && p50 as f64 >= 50_000.0 * 0.95, "p50={p50}");
    }

    #[test]
    fn histogram_cdf_is_monotone_and_complete() {
        let mut h = Histogram::new();
        for v in [5u64, 5, 900, 2000, 70_000, 70_000, 70_001] {
            h.record(v);
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        let mut prev_v = 0;
        let mut prev_f = 0.0;
        for &(v, f) in &cdf {
            assert!(v >= prev_v);
            assert!(f >= prev_f);
            prev_v = v;
            prev_f = f;
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_and_clear() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(20);
        b.record(5000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 5000);
        assert!((a.mean() - (10.0 + 20.0 + 5000.0) / 3.0).abs() < 1e-9);
        a.clear();
        assert_eq!(a.count(), 0);
        assert_eq!(a.max(), 0);
    }

    #[test]
    fn geo_bucket_low_is_lower_bound() {
        for v in [1024u64, 1500, 4096, 123_456, 10_000_000] {
            let b = geo_bucket(v);
            let low = geo_bucket_low(b);
            assert!(low <= v, "low {low} > v {v}");
            // Next bucket's lower bound is above v.
            let next_low = geo_bucket_low(b + 1);
            assert!(next_low > v, "next_low {next_low} <= v {v}");
        }
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn percentile_rejects_bad_quantile() {
        Histogram::new().percentile(1.5);
    }

    #[test]
    fn summary_matches_direct_percentile_calls() {
        let mut h = Histogram::new();
        for v in 1..=1000 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.mean, h.mean());
        assert_eq!(s.p50, h.percentile(0.5));
        assert_eq!(s.p90, h.percentile(0.9));
        assert_eq!(s.p95, h.percentile(0.95));
        assert_eq!(s.p99, h.percentile(0.99));
        assert_eq!(s.p999, h.percentile(0.999));
        assert_eq!(s.max, 1000);
        let rec = s.to_record();
        assert_eq!(rec.get("p99"), Some(&crate::telemetry::Value::U64(s.p99)));
        assert_eq!(rec.len(), 8);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let s = Histogram::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.p999, 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn class_counts_record_uses_legend_order() {
        let mut c = ClassCounts::new();
        c.bump(TrafficClass::RxEvct);
        let rec = c.to_record();
        let keys: Vec<&str> = rec.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys[0], "NIC RX Wr");
        assert_eq!(keys[5], "RX Evct");
        assert_eq!(rec.get("RX Evct"), Some(&crate::telemetry::Value::U64(1)));
    }

    #[test]
    fn mem_stats_record_is_complete() {
        let mut s = MemStats::new();
        s.llc_hits = 3;
        s.note_core_dram_read(1);
        let rec = s.to_record();
        assert_eq!(rec.get("llc_hits"), Some(&crate::telemetry::Value::U64(3)));
        assert!(rec.get("dram_reads").is_some());
        assert!(rec.get("block_accesses").is_some());
        // One field per MemStats member.
        assert_eq!(rec.len(), 16);
    }
}
