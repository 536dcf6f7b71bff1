//! Property-based drivers through a checked [`MemorySystem`]: the
//! correctness harness must stay silent for disciplined RX lifecycles, and
//! the hierarchy's structural invariants must hold under arbitrary access
//! soup — only the lifecycle-discipline oracles may fire there.

use proptest::collection::vec;
use proptest::prelude::*;

use sweeper_sim::addr::{Addr, RegionKind};
use sweeper_sim::check::{CheckConfig, ViolationKind};
use sweeper_sim::hierarchy::{MachineConfig, MemorySystem};
use sweeper_sim::Cycle;

const BLOCK: u64 = 64;
const SLOTS: u64 = 16;
const APP_BLOCKS: u64 = 32;

/// A checked memory system with an RX region of [`SLOTS`] one-block slots
/// and an app region of [`APP_BLOCKS`] blocks. Returns `(mem, rx, app)`.
fn checked_system() -> (MemorySystem, Addr, Addr) {
    let mut mem = MemorySystem::new(MachineConfig::tiny_for_tests());
    mem.enable_check(CheckConfig {
        walk_every_requests: 1,
    });
    let rx = mem
        .address_map_mut()
        .alloc(SLOTS * BLOCK, RegionKind::Rx { core: 0 });
    let app = mem
        .address_map_mut()
        .alloc(APP_BLOCKS * BLOCK, RegionKind::App);
    (mem, rx, app)
}

/// Per-slot position in the disciplined RX lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Free,
    Delivered,
    Consumed,
}

proptest! {
    /// Disciplined lifecycle: every slot strictly cycles
    /// deliver → consume → sweep. However the per-slot steps interleave
    /// (and whatever app traffic runs alongside), the harness must report a
    /// clean pass — zero violations of any kind.
    #[test]
    fn disciplined_rx_lifecycle_is_clean(
        steps in vec((0u64..SLOTS, 0u8..4, 0u64..APP_BLOCKS, any::<bool>()), 1..400),
    ) {
        let (mut mem, rx, app) = checked_system();
        let mut slots = [Slot::Free; SLOTS as usize];
        let mut now: Cycle = 0;
        for (slot, op, app_block, app_write) in steps {
            now += 50;
            let addr = rx.offset(slot * BLOCK);
            let state = &mut slots[slot as usize];
            match op {
                // Advance the slot's lifecycle by one legal step.
                0..=2 => match *state {
                    Slot::Free => {
                        mem.nic_write(addr, BLOCK, now);
                        *state = Slot::Delivered;
                    }
                    Slot::Delivered => {
                        mem.cpu_read(0, addr, BLOCK, now);
                        mem.mark_consumed(addr, BLOCK);
                        *state = Slot::Consumed;
                    }
                    Slot::Consumed => {
                        mem.sweep_range(addr, BLOCK, now);
                        *state = Slot::Free;
                    }
                },
                // Unrelated app traffic sharing the hierarchy.
                _ => {
                    let a = app.offset(app_block * BLOCK);
                    if app_write {
                        mem.cpu_write(1, a, BLOCK, now);
                    } else {
                        mem.cpu_read(1, a, BLOCK, now);
                    }
                }
            }
            mem.check_walk();
        }
        mem.check_walk();
        let report = mem.check_report().expect("check enabled");
        prop_assert!(
            report.passed(),
            "disciplined lifecycle flagged: {:?}",
            report.violations().collect::<Vec<_>>()
        );
        prop_assert!(report.events > 0);
        prop_assert!(report.walks > 0);
    }

    /// Random soup: arbitrary interleavings of NIC writes, CPU accesses,
    /// sweeps, flushes, and DMA zeroing. The lifecycle oracles
    /// (`swept_live_rx`, `nic_overwrote_live_rx`) may legitimately fire —
    /// the driver takes no care to consume before sweeping — but the
    /// *structural* invariants (directory vs residency, inclusion,
    /// single-writer, DDIO confinement, occupancy recount, swept-block
    /// semantics, DRAM timing) must hold regardless of driver discipline.
    #[test]
    fn structural_invariants_hold_under_access_soup(
        ops in vec((0u8..7, 0u64..SLOTS, 0u64..APP_BLOCKS), 1..400),
    ) {
        let (mut mem, rx, app) = checked_system();
        let mut now: Cycle = 0;
        for (op, slot, app_block) in ops {
            now += 50;
            let r = rx.offset(slot * BLOCK);
            let a = app.offset(app_block * BLOCK);
            match op {
                0 => {
                    mem.nic_write(r, BLOCK, now);
                }
                1 => {
                    mem.cpu_read((slot % 2) as u16, r, BLOCK, now);
                }
                2 => {
                    mem.cpu_write((slot % 2) as u16, a, BLOCK, now);
                }
                3 => {
                    mem.cpu_read((app_block % 2) as u16, a, BLOCK, now);
                }
                4 => {
                    mem.sweep_range(r, BLOCK, now);
                }
                5 => {
                    mem.flush_range(a, BLOCK, now);
                }
                _ => {
                    mem.dma_zero_range(r, BLOCK, now);
                }
            }
            mem.check_walk();
        }
        mem.check_walk();
        let report = mem.check_report().expect("check enabled");
        let structural = [
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
        for kind in structural {
            prop_assert_eq!(
                report.count(kind),
                0,
                "structural invariant {} violated by undisciplined traffic",
                kind
            );
        }
    }
}
