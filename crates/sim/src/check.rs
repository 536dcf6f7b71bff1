//! Simulation correctness harness: a shadow-memory oracle plus the
//! invariant walk behind [`MemorySystem::check_walk`].
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
//!   DDIO way confinement, RX ring indices, DRAM timing-frontier
//!   monotonicity). The walk is [`CheckState::walk`] and reads the
//!   hierarchy only through its public accessors, so this module owns the
//!   walk, the configuration, the violation ledger, and the report; the
//!   memory system only calls its hooks.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use crate::addr::{blocks_of, Addr, BlockAddr};
use crate::cache::{LineOrigin, WayMask};
use crate::hierarchy::{InjectionPolicy, MemorySystem};
use crate::telemetry::Record;
use crate::{Cycle, KeyHasher};

/// Maximum retained human-readable violation details. Counts are always
/// exact; details are a capped sample so a systematically broken run cannot
/// allocate without bound.
pub const MAX_DETAILS: usize = 16;

/// Configuration of the correctness harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Completed requests between on-demand invariant walks (the server also
    /// walks at the start of measurement and at the end of the run). Zero
    /// disables periodic walks, keeping only the drain-point ones.
    pub walk_every_requests: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self {
            walk_every_requests: 1024,
        }
    }
}

/// Everything the harness can catch, one counter per kind. The declaration
/// order is [`ViolationKind::ALL`]'s, so `kind as usize` indexes
/// [`CheckReport::counts`].
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
    pub const ALL: [ViolationKind; 12] = [
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
            ViolationKind::RingInconsistency => "ring_inconsistency",
            ViolationKind::DramTimingRegression => "dram_timing_regression",
        }
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
/// only when [`MemorySystem::check_walk`] is called at drain points. Every
/// count, walk, event and detail goes into one [`CheckReport`], the ledger
/// [`CheckState::report`] hands out.
#[derive(Debug, Clone)]
pub struct CheckState {
    cfg: CheckConfig,
    oracle: HashMap<u64, BlockObs, BuildHasherDefault<KeyHasher>>,
    ledger: CheckReport,
    /// Last DRAM timing-frontier snapshot (per-channel bus then per-bank
    /// busy times); each element must be non-decreasing across walks.
    dram_frontier: Vec<Cycle>,
}

impl CheckState {
    /// Fresh state under `cfg`.
    pub fn new(cfg: CheckConfig) -> Self {
        Self {
            cfg,
            oracle: HashMap::default(),
            ledger: CheckReport::default(),
            dram_frontier: Vec::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CheckConfig {
        &self.cfg
    }

    /// Records a violation with a capped human-readable detail.
    pub fn note_violation(&mut self, kind: ViolationKind, detail: impl FnOnce() -> String) {
        let ledger = &mut self.ledger;
        ledger.counts[kind as usize] += 1;
        if ledger.details.len() < MAX_DETAILS {
            ledger
                .details
                .push(format!("{}: {}", kind.name(), detail()));
        }
    }

    fn obs(&mut self, block: BlockAddr) -> &mut BlockObs {
        self.oracle.entry(block.0).or_default()
    }

    /// Mirrors a NIC delivery into `block`.
    pub fn on_nic_write(&mut self, block: BlockAddr, is_rx: bool, policy: InjectionPolicy) {
        self.ledger.events += 1;
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
        self.ledger.events += 1;
        self.obs(block).loc = OracleLoc::DirtyCached;
    }

    /// Mirrors a DRAM writeback of `block`.
    pub fn on_writeback(&mut self, block: BlockAddr) {
        self.ledger.events += 1;
        if self.obs(block).loc == OracleLoc::Swept {
            self.note_violation(ViolationKind::WritebackOfSweptBlock, || {
                format!("{block}: written back after being swept")
            });
        }
        self.obs(block).loc = OracleLoc::Dram;
    }

    /// Mirrors a sweep of `block`.
    pub fn on_sweep(&mut self, block: BlockAddr, is_rx: bool) {
        self.ledger.events += 1;
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
        self.ledger.events += 1;
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
        self.ledger.events += 1;
        self.obs(block).loc = OracleLoc::Dram;
    }

    /// Marks `[addr, addr+len)` as consumed: sweeps of these blocks are now
    /// legal until the next NIC delivery.
    pub fn mark_consumed(&mut self, addr: Addr, len: u64) {
        for block in blocks_of(addr, len) {
            self.ledger.events += 1;
            let o = self.obs(block);
            o.consumed_version = o.nic_version;
        }
    }

    /// Whether the oracle currently classifies `block` as swept — used by
    /// the walk to assert swept blocks are resident nowhere.
    fn is_swept(&self, block: BlockAddr) -> bool {
        self.oracle
            .get(&block.0)
            .is_some_and(|o| o.loc == OracleLoc::Swept)
    }

    /// Checks a DRAM timing-frontier snapshot against the previous one and
    /// stores it. Each element must be non-decreasing.
    fn check_dram_frontier(&mut self, frontier: Vec<Cycle>) {
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

    /// Walks every hierarchy invariant of `mem`, recording violations into
    /// the ledger. Expensive — O(resident lines + directory entries) — so
    /// it runs only at drain points, not per access.
    pub fn walk(&mut self, mem: &MemorySystem) {
        self.ledger.walks += 1;
        let cfg = mem.config();
        let dir = mem.directory();

        // Directory ⊆ residency: every sharer the directory records must
        // actually hold the block in its L2, and a dirty owner must be in
        // its own sharer set.
        for (block, sharers, owner) in dir.iter_entries() {
            for core in sharers {
                if mem.l2_of(core).peek(block).is_none() {
                    self.note_violation(ViolationKind::DirectoryResidencyMismatch, || {
                        format!("{block}: directory lists core {core} but its L2 misses")
                    });
                }
            }
            if let Some(o) = owner {
                if !sharers.contains(o) {
                    self.note_violation(ViolationKind::DirtyOwnershipMismatch, || {
                        format!("{block}: dirty owner {o} not in sharer set")
                    });
                }
            }
        }

        // Residency ⊆ directory, L1 ⊆ L2 inclusion (a line dirty in L1 is
        // also dirty in L2, which lets an L1 eviction skip the L2 probe),
        // and the per-block dirty census (at most one dirty copy may exist
        // hierarchy-wide).
        let mut dirty_copies: HashMap<u64, u32, BuildHasherDefault<KeyHasher>> = HashMap::default();
        // The line walks use `for_each`: the flattened set iterators step
        // about three times slower through a `for` loop.
        mem.llc().iter_lines().for_each(|line| {
            if self.is_swept(line.block) {
                self.note_violation(ViolationKind::SweptBlockResident, || {
                    format!("{}: swept block still resident in LLC", line.block)
                });
            }
            if line.dirty {
                *dirty_copies.entry(line.block.0).or_default() += 1;
            }
        });
        for c in mem.cores() {
            let l2 = mem.l2_of(c);
            mem.l1_of(c)
                .iter_lines()
                .for_each(|line| match l2.peek(line.block) {
                    None => self.note_violation(ViolationKind::InclusionViolation, || {
                        format!("{}: in core {c}'s L1 but not its L2", line.block)
                    }),
                    Some(l2) if line.dirty && !l2.dirty => self
                        .note_violation(ViolationKind::InclusionViolation, || {
                            format!("{}: dirty in core {c}'s L1 but clean in its L2", line.block)
                        }),
                    Some(_) => {}
                });
            l2.iter_lines().for_each(|line| {
                if !dir.sharers(line.block).contains(c) {
                    self.note_violation(ViolationKind::DirectoryResidencyMismatch, || {
                        format!(
                            "{}: in core {c}'s L2 but not its directory entry",
                            line.block
                        )
                    });
                }
                if self.is_swept(line.block) {
                    self.note_violation(ViolationKind::SweptBlockResident, || {
                        format!("{}: swept block still resident in core {c}", line.block)
                    });
                }
                // The L1 copy's dirty bit is covered by the inclusion check.
                if line.dirty {
                    *dirty_copies.entry(line.block.0).or_default() += 1;
                    // Under the default semantics every dirty private line
                    // has a registered owner; the strict-victim ablation
                    // deliberately installs dirty lines without claiming
                    // ownership, so the subcheck is gated.
                    if cfg.llc_read_hit_retains && dir.dirty_owner(line.block) != Some(c) {
                        self.note_violation(ViolationKind::DirtyOwnershipMismatch, || {
                            format!("{}: dirty in core {c} without dirty ownership", line.block)
                        });
                    }
                }
            });
        }
        for (&block, &copies) in &dirty_copies {
            if copies > 1 {
                self.note_violation(ViolationKind::MultipleDirtyCopies, || {
                    format!(
                        "{}: {copies} dirty copies in the hierarchy",
                        BlockAddr(block)
                    )
                });
            }
        }

        // NIC-origin LLC lines must sit inside the DDIO way mask.
        let ddio_mask = WayMask::first(cfg.ddio_ways);
        mem.llc().iter_located_lines().for_each(|(_, way, line)| {
            if line.origin == LineOrigin::Nic && !ddio_mask.allows(way) {
                self.note_violation(ViolationKind::DdioWayEscape, || {
                    format!("{}: NIC-origin line in non-DDIO way {way}", line.block)
                });
            }
        });

        // DRAM never schedules an access in the past: the bank/bus frontier
        // must be elementwise non-decreasing between walks.
        self.check_dram_frontier(mem.dram().timing_frontier());
    }

    /// The ledger, with the number of blocks the shadow store tracks.
    pub fn report(&self) -> CheckReport {
        CheckReport {
            tracked_blocks: self.oracle.len() as u64,
            ..self.ledger.clone()
        }
    }
}

/// The harness's violation ledger: the pass/fail summary of one checked run
/// (attached to the run report), or the sum of several
/// ([`CheckReport::merge`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckReport {
    /// Invariant walks performed.
    pub walks: u64,
    /// Oracle events mirrored (NIC writes, CPU stores, sweeps, writebacks,
    /// DRAM fills, consumption marks).
    pub events: u64,
    /// Blocks the shadow store tracked.
    pub tracked_blocks: u64,
    /// Violation count per kind, indexed by `kind as usize`.
    pub counts: [u64; ViolationKind::ALL.len()],
    /// Capped human-readable samples of the first violations.
    pub details: Vec<String>,
}

impl CheckReport {
    /// Total violations across all kinds.
    pub fn total_violations(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether the run passed every oracle and invariant assertion.
    pub fn passed(&self) -> bool {
        self.total_violations() == 0
    }

    /// Violation count for one kind.
    pub fn count(&self, kind: ViolationKind) -> u64 {
        self.counts[kind as usize]
    }

    /// The kinds with at least one violation and their counts, in
    /// [`ViolationKind::ALL`] order.
    pub fn violations(&self) -> impl Iterator<Item = (ViolationKind, u64)> + '_ {
        ViolationKind::ALL
            .into_iter()
            .map(|kind| (kind, self.count(kind)))
            .filter(|&(_, n)| n > 0)
    }

    /// Adds `other` into this ledger: walks, events, tracked blocks and
    /// per-kind counts sum, and `other`'s details follow this ledger's up
    /// to [`MAX_DETAILS`].
    pub fn merge(&mut self, other: &CheckReport) {
        self.walks += other.walks;
        self.events += other.events;
        self.tracked_blocks += other.tracked_blocks;
        for (sum, n) in self.counts.iter_mut().zip(other.counts) {
            *sum += n;
        }
        self.details.extend_from_slice(&other.details);
        self.details.truncate(MAX_DETAILS);
    }

    /// The one-line verdict of a checked run:
    /// `pass (E events mirrored, W walks)` or `FAIL (N violations)`.
    pub fn verdict(&self) -> String {
        let Self { events, walks, .. } = self;
        match self.total_violations() {
            0 => format!("pass ({events} events mirrored, {walks} walks)"),
            n => format!("FAIL ({n} violations)"),
        }
    }

    /// The nonzero per-kind counts as a record keyed by kind name (empty
    /// when the ledger passes).
    pub fn violations_record(&self) -> Record {
        let mut violations = Record::new();
        for (kind, n) in self.violations() {
            violations.push(kind.name(), n);
        }
        violations
    }

    /// Structured export: the `check` section of run documents. Only
    /// nonzero kinds appear under `violations`, so a passing report is
    /// compact.
    pub fn to_record(&self) -> Record {
        Record::new()
            .with("passed", self.passed())
            .with("walks", self.walks)
            .with("events", self.events)
            .with("tracked_blocks", self.tracked_blocks)
            .with("violations_total", self.total_violations())
            .with("violations", self.violations_record())
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
    use crate::hierarchy::MachineConfig;

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
        let mut s = state();
        for i in 0..40 {
            s.note_violation(ViolationKind::DdioWayEscape, || format!("escape {i}"));
        }
        let r = s.report();
        assert_eq!(r.count(ViolationKind::DdioWayEscape), 40);
        assert_eq!(r.details.len(), MAX_DETAILS);
    }

    #[test]
    fn report_record_shape() {
        let mut s = state();
        s.walk(&MemorySystem::new(MachineConfig::tiny_for_tests()));
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
    fn kinds_index_their_counter() {
        for (i, kind) in ViolationKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind}");
        }
    }

    #[test]
    fn merge_sums_every_field_and_caps_details() {
        let ledger = |walks, events, blocks, details: usize| {
            let mut s = state();
            s.ledger.walks = walks;
            s.ledger.events = events;
            for i in 0..details {
                s.note_violation(ViolationKind::SweptLiveRx, || format!("live {i}"));
            }
            s.note_violation(ViolationKind::DramTimingRegression, || "late".into());
            CheckReport {
                tracked_blocks: blocks,
                ..s.report()
            }
        };
        let mut sum = ledger(2, 100, 7, 10);
        sum.merge(&ledger(3, 50, 4, 10));
        assert_eq!((sum.walks, sum.events, sum.tracked_blocks), (5, 150, 11));
        let kinds: Vec<_> = sum.violations().map(|(k, n)| (k.name(), n)).collect();
        assert_eq!(
            kinds,
            [("swept_live_rx", 20), ("dram_timing_regression", 2)]
        );
        // The first ledger's 11 details, then the second's up to the cap.
        assert_eq!(sum.details.len(), MAX_DETAILS);
        assert_eq!(sum.details[10], "dram_timing_regression: late");
        assert_eq!(sum.details[11], "swept_live_rx: live 0");
        assert_eq!(sum.verdict(), "FAIL (22 violations)");
        let pass = CheckReport::default().verdict();
        assert_eq!(pass, "pass (0 events mirrored, 0 walks)");
    }

    #[test]
    fn every_kind_has_a_unique_name() {
        let names: std::collections::HashSet<_> =
            ViolationKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), ViolationKind::ALL.len());
    }
}
