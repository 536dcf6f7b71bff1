//! Simulation correctness harness: a shadow-memory oracle plus the
//! bookkeeping behind
//! [`MemorySystem::check_walk`](crate::hierarchy::MemorySystem::check_walk).
//!
//! Sweeper's headline optimisation is correctness-sensitive: dropping dirty
//! consumed-buffer blocks without a writeback (§V-B) must never lose live
//! data. After the directory and cache hot paths were rewritten for speed,
//! nothing end-to-end verified that the simulated memory *contents* are
//! still right — this module is that safety net, in the style of the
//! differential validation used by cycle-level simulators (zSim's
//! bound-weave verification, Ramulator's trace cross-checks).
//!
//! Two mechanisms, both off by default and costing one branch per hook when
//! disabled (the same discipline as span recording):
//!
//! * a **shadow-memory oracle** ([`CheckState`]): a flat block-granular
//!   reference store mirroring every NIC DMA write, CPU store, sweep,
//!   writeback, and DRAM fill. It tracks where the freshest copy of each
//!   block lives (DRAM, a dirty cache line, or nowhere because it was
//!   swept) and a pair of per-block versions — bumped on NIC delivery,
//!   latched on consumption — that detect sweeps of live (unconsumed) RX
//!   data and writebacks of blocks Sweeper claimed to drop;
//! * an **invariant checker** walked on demand over the real hierarchy
//!   (directory vs. private residency, L1 ⊆ L2 inclusion, single-dirty-copy,
//!   DDIO way confinement, occupancy-counter recounts, RX ring indices,
//!   DRAM timing-frontier monotonicity). The walk itself lives in
//!   `hierarchy.rs`, where the caches are; this module owns the
//!   configuration, the violation ledger, and the report.

use std::collections::HashMap;

use crate::addr::{blocks_of, Addr, BlockAddr};
use crate::hierarchy::InjectionPolicy;
use crate::telemetry::Record;
use crate::Cycle;

/// Configuration of the correctness harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Completed requests between on-demand invariant walks (the server also
    /// walks at the start of measurement and at the end of the run). Zero
    /// disables periodic walks, keeping only the drain-point ones.
    pub walk_every_requests: u64,
    /// Maximum retained human-readable violation details. Counts are always
    /// exact; details are a capped sample so a systematically-broken run
    /// cannot allocate without bound.
    pub max_details: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self {
            walk_every_requests: 1024,
            max_details: 16,
        }
    }
}

/// Everything the harness can catch, one counter per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A sweep dropped an RX block the CPU had not yet consumed — the exact
    /// failure mode `clsweep`'s "only legal on consumed buffers" rule
    /// forbids (oracle invariant *a*).
    SweptLiveRx,
    /// The NIC overwrote an RX block whose previous packet was never
    /// consumed — a ring-accounting bug (slot reused while live).
    NicOverwroteLiveRx,
    /// A DRAM writeback of a block the oracle says was swept, with no
    /// intervening store: Sweeper claimed to drop the block without
    /// writeback, then the hierarchy wrote it back anyway (oracle
    /// invariant *b*).
    WritebackOfSweptBlock,
    /// A DRAM read fill while the oracle says the freshest copy is a dirty
    /// cache line — the fill returns stale data (oracle invariant *c*).
    StaleDramFill,
    /// A swept block is still resident somewhere in the hierarchy.
    SweptBlockResident,
    /// Directory sharer sets disagree with actual private-cache residency.
    DirectoryResidencyMismatch,
    /// A dirty owner is missing from its sharer set, or a dirty private
    /// line has no registered owner.
    DirtyOwnershipMismatch,
    /// A block is resident in a core's L1 but not its L2 (inclusion).
    InclusionViolation,
    /// More than one dirty copy of a block exists across LLC + private
    /// caches (single-writer violated; writeback order then decides whether
    /// DRAM ends up stale).
    MultipleDirtyCopies,
    /// A NIC-origin LLC line sits in a way the DDIO mask does not allow.
    DdioWayEscape,
    /// The incremental per-region LLC occupancy counters disagree with a
    /// from-scratch recount.
    OccupancyDrift,
    /// An RX ring's indices or slot occupancy are inconsistent
    /// (`recycled ≤ head ≤ tail ≤ recycled + capacity`, slots occupied iff
    /// in the live window).
    RingInconsistency,
    /// A DRAM bank or channel-bus frontier moved backwards between walks —
    /// an access was scheduled in the past.
    DramTimingRegression,
}

impl ViolationKind {
    /// Every kind, in report order.
    pub const ALL: [ViolationKind; 13] = [
        ViolationKind::SweptLiveRx,
        ViolationKind::NicOverwroteLiveRx,
        ViolationKind::WritebackOfSweptBlock,
        ViolationKind::StaleDramFill,
        ViolationKind::SweptBlockResident,
        ViolationKind::DirectoryResidencyMismatch,
        ViolationKind::DirtyOwnershipMismatch,
        ViolationKind::InclusionViolation,
        ViolationKind::MultipleDirtyCopies,
        ViolationKind::DdioWayEscape,
        ViolationKind::OccupancyDrift,
        ViolationKind::RingInconsistency,
        ViolationKind::DramTimingRegression,
    ];

    /// Stable snake_case name used in reports and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::SweptLiveRx => "swept_live_rx",
            ViolationKind::NicOverwroteLiveRx => "nic_overwrote_live_rx",
            ViolationKind::WritebackOfSweptBlock => "writeback_of_swept_block",
            ViolationKind::StaleDramFill => "stale_dram_fill",
            ViolationKind::SweptBlockResident => "swept_block_resident",
            ViolationKind::DirectoryResidencyMismatch => "directory_residency_mismatch",
            ViolationKind::DirtyOwnershipMismatch => "dirty_ownership_mismatch",
            ViolationKind::InclusionViolation => "inclusion_violation",
            ViolationKind::MultipleDirtyCopies => "multiple_dirty_copies",
            ViolationKind::DdioWayEscape => "ddio_way_escape",
            ViolationKind::OccupancyDrift => "occupancy_drift",
            ViolationKind::RingInconsistency => "ring_inconsistency",
            ViolationKind::DramTimingRegression => "dram_timing_regression",
        }
    }

    /// Position of this kind in [`ViolationKind::ALL`] — the index of its
    /// counter in aggregation arrays sized `[u64; ViolationKind::ALL.len()]`.
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|k| *k == self)
            .expect("every kind is listed in ALL")
    }
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Where the oracle believes a block's freshest data lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum OracleLoc {
    /// DRAM holds the freshest copy (or the block was never written).
    #[default]
    Dram,
    /// Some cache line holds a dirty copy newer than DRAM.
    DirtyCached,
    /// The block was swept: every copy dropped, nothing may write it back
    /// and nothing should still hold it.
    Swept,
}

/// Per-block shadow state.
#[derive(Debug, Clone, Copy, Default)]
struct BlockObs {
    loc: OracleLoc,
    /// Bumped on every NIC delivery into the block.
    nic_version: u32,
    /// Latched to `nic_version` when the server consumes the packet; a
    /// sweep observing `nic_version > consumed_version` is dropping live
    /// data.
    consumed_version: u32,
}

/// The live harness state owned by a checked `MemorySystem`.
///
/// All hook methods are cheap (one hash probe); the expensive walks happen
/// only when `check_walk` is called at drain points.
#[derive(Debug, Clone)]
pub struct CheckState {
    cfg: CheckConfig,
    oracle: HashMap<u64, BlockObs>,
    counts: [u64; ViolationKind::ALL.len()],
    details: Vec<String>,
    /// Oracle events mirrored (NIC writes, CPU stores, sweeps, writebacks,
    /// DRAM fills, consumption marks).
    events: u64,
    /// Invariant walks performed.
    walks: u64,
    /// Last DRAM timing-frontier snapshot (per-channel bus then per-bank
    /// busy times); each element must be non-decreasing across walks.
    dram_frontier: Vec<Cycle>,
}

impl CheckState {
    /// Fresh state under `cfg`.
    pub fn new(cfg: CheckConfig) -> Self {
        Self {
            cfg,
            oracle: HashMap::new(),
            counts: [0; ViolationKind::ALL.len()],
            details: Vec::new(),
            events: 0,
            walks: 0,
            dram_frontier: Vec::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CheckConfig {
        &self.cfg
    }

    /// Records a violation with a capped human-readable detail.
    pub fn note_violation(&mut self, kind: ViolationKind, detail: impl FnOnce() -> String) {
        self.counts[kind.index()] += 1;
        if self.details.len() < self.cfg.max_details {
            self.details.push(format!("{}: {}", kind.name(), detail()));
        }
    }

    /// Counts one completed invariant walk.
    pub fn note_walk(&mut self) {
        self.walks += 1;
    }

    fn obs(&mut self, block: BlockAddr) -> &mut BlockObs {
        self.oracle.entry(block.0).or_default()
    }

    /// Mirrors a NIC delivery into `block`.
    pub fn on_nic_write(&mut self, block: BlockAddr, is_rx: bool, policy: InjectionPolicy) {
        self.events += 1;
        let o = self.obs(block);
        if is_rx && o.nic_version > o.consumed_version {
            let (nic, consumed) = (o.nic_version, o.consumed_version);
            self.note_violation(ViolationKind::NicOverwroteLiveRx, || {
                format!("{block}: delivery v{nic} never consumed (last consumed v{consumed})")
            });
        }
        let o = self.obs(block);
        o.nic_version += 1;
        // DDIO leaves the freshest copy dirty in the LLC; DMA lands it in
        // DRAM; Ideal's side-cache never interacts with DRAM at all, so
        // DRAM-resident is the neutral state that can't false-positive.
        o.loc = match policy {
            InjectionPolicy::Ddio => OracleLoc::DirtyCached,
            InjectionPolicy::Dma | InjectionPolicy::Ideal => OracleLoc::Dram,
        };
    }

    /// Mirrors a CPU store into `block`.
    pub fn on_cpu_write(&mut self, block: BlockAddr) {
        self.events += 1;
        self.obs(block).loc = OracleLoc::DirtyCached;
    }

    /// Mirrors a DRAM writeback of `block`.
    pub fn on_writeback(&mut self, block: BlockAddr) {
        self.events += 1;
        if self.obs(block).loc == OracleLoc::Swept {
            self.note_violation(ViolationKind::WritebackOfSweptBlock, || {
                format!("{block}: written back after being swept")
            });
        }
        self.obs(block).loc = OracleLoc::Dram;
    }

    /// Mirrors a sweep of `block`.
    pub fn on_sweep(&mut self, block: BlockAddr, is_rx: bool) {
        self.events += 1;
        let o = self.obs(block);
        if is_rx && o.nic_version > o.consumed_version {
            let (nic, consumed) = (o.nic_version, o.consumed_version);
            self.note_violation(ViolationKind::SweptLiveRx, || {
                format!("{block}: swept at delivery v{nic}, last consumed v{consumed}")
            });
        }
        self.obs(block).loc = OracleLoc::Swept;
    }

    /// Mirrors a DRAM read fill of `block`.
    pub fn on_dram_fill(&mut self, block: BlockAddr) {
        self.events += 1;
        let o = self.obs(block);
        match o.loc {
            OracleLoc::DirtyCached => {
                self.note_violation(ViolationKind::StaleDramFill, || {
                    format!("{block}: DRAM fill while a dirty cached copy is fresher")
                });
            }
            // A refetch of swept (or clean) data is plain DRAM data again.
            OracleLoc::Swept | OracleLoc::Dram => o.loc = OracleLoc::Dram,
        }
    }

    /// Mirrors an OS DMA-zero of `block`.
    pub fn on_dma_zero(&mut self, block: BlockAddr) {
        self.events += 1;
        self.obs(block).loc = OracleLoc::Dram;
    }

    /// Marks `[addr, addr+len)` as consumed: sweeps of these blocks are now
    /// legal until the next NIC delivery.
    pub fn mark_consumed(&mut self, addr: Addr, len: u64) {
        for block in blocks_of(addr, len) {
            self.events += 1;
            let o = self.obs(block);
            o.consumed_version = o.nic_version;
        }
    }

    /// Whether the oracle currently classifies `block` as swept — used by
    /// the walk to assert swept blocks are resident nowhere.
    pub fn is_swept(&self, block: BlockAddr) -> bool {
        self.oracle
            .get(&block.0)
            .is_some_and(|o| o.loc == OracleLoc::Swept)
    }

    /// Checks a DRAM timing-frontier snapshot against the previous one and
    /// stores it. Each element must be non-decreasing.
    pub fn check_dram_frontier(&mut self, frontier: Vec<Cycle>) {
        if self.dram_frontier.len() == frontier.len() {
            let prev = std::mem::take(&mut self.dram_frontier);
            for (i, (&prev, &cur)) in prev.iter().zip(&frontier).enumerate() {
                if cur < prev {
                    self.note_violation(ViolationKind::DramTimingRegression, || {
                        format!("frontier[{i}] went backwards: {prev} -> {cur}")
                    });
                }
            }
        }
        self.dram_frontier = frontier;
    }

    /// Snapshot of counts, walks, and details.
    pub fn report(&self) -> CheckReport {
        CheckReport {
            walks: self.walks,
            events: self.events,
            tracked_blocks: self.oracle.len() as u64,
            violations: ViolationKind::ALL
                .iter()
                .map(|k| (*k, self.counts[k.index()]))
                .collect(),
            details: self.details.clone(),
        }
    }
}

/// Pass/fail summary of one checked run, attached to the run report.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// Invariant walks performed.
    pub walks: u64,
    /// Oracle events mirrored.
    pub events: u64,
    /// Blocks the shadow store tracked.
    pub tracked_blocks: u64,
    /// Violation count per kind (every kind listed, zero or not).
    pub violations: Vec<(ViolationKind, u64)>,
    /// Capped human-readable samples of the first violations.
    pub details: Vec<String>,
}

impl CheckReport {
    /// Total violations across all kinds.
    pub fn total_violations(&self) -> u64 {
        self.violations.iter().map(|(_, n)| n).sum()
    }

    /// Whether the run passed every oracle and invariant assertion.
    pub fn passed(&self) -> bool {
        self.total_violations() == 0
    }

    /// Violation count for one kind.
    pub fn count(&self, kind: ViolationKind) -> u64 {
        self.violations
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| *n)
    }

    /// Structured export (the `check` section of run documents and the
    /// `sweeper.check/1` payload). Only nonzero kinds appear under
    /// `violations`, so a passing report is compact.
    pub fn to_record(&self) -> Record {
        let mut violations = Record::new();
        for (kind, n) in &self.violations {
            if *n > 0 {
                violations.push(kind.name(), *n);
            }
        }
        Record::new()
            .with("passed", self.passed())
            .with("walks", self.walks)
            .with("events", self.events)
            .with("tracked_blocks", self.tracked_blocks)
            .with("violations_total", self.total_violations())
            .with("violations", violations)
            .with(
                "details",
                self.details
                    .iter()
                    .map(|d| crate::telemetry::Value::from(d.as_str()))
                    .collect::<Vec<_>>(),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> CheckState {
        CheckState::new(CheckConfig::default())
    }

    #[test]
    fn clean_lifecycle_passes() {
        let mut s = state();
        let b = Addr(1 << 30);
        // Deliver, consume, sweep: the legal Sweeper lifecycle.
        s.on_nic_write(b.block(), true, InjectionPolicy::Ddio);
        s.mark_consumed(b, 64);
        s.on_sweep(b.block(), true);
        // Slot reuse after the sweep.
        s.on_nic_write(b.block(), true, InjectionPolicy::Ddio);
        let r = s.report();
        assert!(r.passed(), "details: {:?}", r.details);
        assert_eq!(r.tracked_blocks, 1);
        assert!(r.events >= 4);
    }

    #[test]
    fn sweeping_unconsumed_rx_is_flagged() {
        let mut s = state();
        let b = BlockAddr(100);
        s.on_nic_write(b, true, InjectionPolicy::Ddio);
        s.on_sweep(b, true);
        let r = s.report();
        assert!(!r.passed());
        assert_eq!(r.count(ViolationKind::SweptLiveRx), 1);
        assert!(r.details[0].contains("swept_live_rx"));
    }

    #[test]
    fn overwriting_unconsumed_rx_is_flagged() {
        let mut s = state();
        let b = BlockAddr(7);
        s.on_nic_write(b, true, InjectionPolicy::Dma);
        s.on_nic_write(b, true, InjectionPolicy::Dma);
        assert_eq!(s.report().count(ViolationKind::NicOverwroteLiveRx), 1);
    }

    #[test]
    fn non_rx_blocks_have_no_liveness_rule() {
        let mut s = state();
        let b = BlockAddr(3);
        s.on_nic_write(b, false, InjectionPolicy::Ddio);
        s.on_nic_write(b, false, InjectionPolicy::Ddio);
        s.on_sweep(b, false);
        assert!(s.report().passed());
    }

    #[test]
    fn writeback_after_sweep_is_flagged_until_rewritten() {
        let mut s = state();
        let b = BlockAddr(9);
        s.on_cpu_write(b);
        s.on_sweep(b, false);
        s.on_writeback(b);
        assert_eq!(s.report().count(ViolationKind::WritebackOfSweptBlock), 1);
        // A fresh store legitimizes the next writeback.
        s.on_cpu_write(b);
        s.on_writeback(b);
        assert_eq!(s.report().count(ViolationKind::WritebackOfSweptBlock), 1);
    }

    #[test]
    fn stale_dram_fill_is_flagged() {
        let mut s = state();
        let b = BlockAddr(11);
        s.on_cpu_write(b);
        s.on_dram_fill(b);
        assert_eq!(s.report().count(ViolationKind::StaleDramFill), 1);
        // After a writeback the fill is clean.
        s.on_writeback(b);
        s.on_dram_fill(b);
        assert_eq!(s.report().count(ViolationKind::StaleDramFill), 1);
    }

    #[test]
    fn swept_state_tracks_refills() {
        let mut s = state();
        let b = BlockAddr(5);
        s.on_cpu_write(b);
        s.on_sweep(b, false);
        assert!(s.is_swept(b));
        s.on_dram_fill(b);
        assert!(!s.is_swept(b));
    }

    #[test]
    fn dram_frontier_regression_is_flagged() {
        let mut s = state();
        s.check_dram_frontier(vec![10, 20, 30]);
        s.check_dram_frontier(vec![10, 25, 30]);
        assert!(s.report().passed());
        s.check_dram_frontier(vec![11, 24, 30]);
        assert_eq!(s.report().count(ViolationKind::DramTimingRegression), 1);
    }

    #[test]
    fn details_are_capped_but_counts_exact() {
        let mut s = CheckState::new(CheckConfig {
            walk_every_requests: 0,
            max_details: 2,
        });
        for i in 0..10 {
            s.note_violation(ViolationKind::OccupancyDrift, || format!("drift {i}"));
        }
        let r = s.report();
        assert_eq!(r.count(ViolationKind::OccupancyDrift), 10);
        assert_eq!(r.details.len(), 2);
    }

    #[test]
    fn report_record_shape() {
        let mut s = state();
        s.note_walk();
        s.on_cpu_write(BlockAddr(1));
        let rec = s.report().to_record();
        assert_eq!(
            rec.get("passed"),
            Some(&crate::telemetry::Value::Bool(true))
        );
        assert_eq!(rec.get("walks"), Some(&crate::telemetry::Value::U64(1)));
        // Passing reports carry an empty violations record.
        match rec.get("violations") {
            Some(crate::telemetry::Value::Record(v)) => assert_eq!(v.len(), 0),
            other => panic!("violations: {other:?}"),
        }
    }

    #[test]
    fn every_kind_has_a_unique_name() {
        let names: std::collections::HashSet<_> =
            ViolationKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), ViolationKind::ALL.len());
    }
}
