//! Sweeper's software interface and instruction semantics.
//!
//! §V-A introduces a single library function,
//! `relinquish(buffer_address, size)`: the application declares that a
//! network buffer instance's contents have been conclusively used and will
//! never be read again before the NIC overwrites them. The call compiles to
//! one [`clsweep`] per cache block of the buffer; each `clsweep` injects a
//! *sweep* message that invalidates every copy of the block throughout the
//! cache hierarchy **without writing dirty data back to memory** (§V-B).
//!
//! Dropping dirty data is safe here because the next use of the buffer is a
//! full overwrite by the NIC — but it is *undefined behaviour* for the
//! application to read a relinquished buffer, exactly like reading memory
//! after `free()`.

use sweeper_sim::addr::{Addr, BlockAddr};
use sweeper_sim::hierarchy::MemorySystem;
use sweeper_sim::Cycle;

/// Whether the Sweeper RX-path mechanism is active for a run.
///
/// `Enabled` means the networking library calls [`relinquish`] on every RX
/// buffer after the application's last use, before the slot is recycled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SweeperMode {
    /// Baseline: consumed buffers stay dirty and eventually leak to memory.
    #[default]
    Disabled,
    /// Sweeper: consumed buffers are relinquished; their writebacks are
    /// suppressed.
    Enabled,
}

impl SweeperMode {
    /// `true` when Sweeper is active.
    pub fn is_enabled(self) -> bool {
        matches!(self, SweeperMode::Enabled)
    }

    /// Label used in experiment tables ("DDIO 2 Ways + Sweeper").
    pub fn suffix(self) -> &'static str {
        match self {
            SweeperMode::Disabled => "",
            SweeperMode::Enabled => " + Sweeper",
        }
    }
}

impl std::fmt::Display for SweeperMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweeperMode::Disabled => f.write_str("baseline"),
            SweeperMode::Enabled => f.write_str("sweeper"),
        }
    }
}

/// Executes one `clsweep` instruction: invalidates every copy of `block`
/// without writeback (§V-B). Returns the number of dirty copies whose
/// writeback was suppressed.
///
/// `clsweep` is unprivileged; see [`crate::os`] for the system-call gate and
/// the page-recycling privacy mitigation the paper discusses.
pub fn clsweep(mem: &mut MemorySystem, block: BlockAddr) -> u64 {
    mem.sweep_block(block)
}

/// The `relinquish(buffer_address, size)` library call of §V-A.
///
/// Invalidates all cache blocks of `[addr, addr+len)` without writebacks and
/// returns the latency charged to the calling core (the sweeps pipeline; the
/// cost is a couple of cycles per block).
///
/// A networking library **must** call this before recycling the buffer for
/// NIC reuse, to avoid racing the invalidation against the NIC's next write
/// (§V-A).
pub fn relinquish(mem: &mut MemorySystem, addr: Addr, len: u64, now: Cycle) -> Cycle {
    mem.sweep_range(addr, len, now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweeper_sim::addr::RegionKind;
    use sweeper_sim::hierarchy::{InjectionPolicy, MachineConfig, SWEEP_ISSUE_COST};
    use sweeper_sim::stats::TrafficClass;

    fn mem() -> MemorySystem {
        MemorySystem::new(MachineConfig::tiny_for_tests().with_injection(InjectionPolicy::Ddio))
    }

    #[test]
    fn mode_helpers() {
        assert!(!SweeperMode::Disabled.is_enabled());
        assert!(SweeperMode::Enabled.is_enabled());
        assert_eq!(SweeperMode::Enabled.suffix(), " + Sweeper");
        assert_eq!(SweeperMode::default(), SweeperMode::Disabled);
        assert_eq!(format!("{}", SweeperMode::Enabled), "sweeper");
    }

    #[test]
    fn relinquish_sweeps_whole_buffer() {
        let mut m = mem();
        let rx = m.address_map_mut().alloc(1024, RegionKind::Rx { core: 0 });
        m.nic_write(rx, 1024, 0);
        m.cpu_read(0, rx, 1024, 10);
        let cost = relinquish(&mut m, rx, 1024, 20);
        assert_eq!(cost, 16 * SWEEP_ISSUE_COST);
        for i in 0..16 {
            assert!(!m.resident_anywhere(rx.block().step(i)));
        }
        assert!(m.stats().sweep_saved_writebacks >= 16);
    }

    #[test]
    fn relinquish_after_consumption_prevents_rx_evictions() {
        let mut m = mem();
        // A buffer region several times the tiny LLC.
        let total = 64 * 64 * 32;
        let rx = m.address_map_mut().alloc(total, RegionKind::Rx { core: 0 });
        // Simulate buffer churn: NIC writes a 1 KB packet, CPU reads it,
        // library relinquishes — repeatedly over the whole region.
        let mut t = 0;
        for i in 0..(total / 1024) {
            let a = rx.offset(i * 1024);
            m.nic_write(a, 1024, t);
            m.cpu_read(0, a, 1024, t + 10);
            t += relinquish(&mut m, a, 1024, t + 20) + 100;
        }
        assert_eq!(
            m.stats().dram_writes[TrafficClass::RxEvct],
            0,
            "Sweeper must eliminate consumed-buffer evictions entirely"
        );
    }

    #[test]
    fn without_relinquish_buffers_leak() {
        let mut m = mem();
        let total = 64 * 64 * 32;
        let rx = m.address_map_mut().alloc(total, RegionKind::Rx { core: 0 });
        let mut t = 0;
        for i in 0..(total / 1024) {
            let a = rx.offset(i * 1024);
            m.nic_write(a, 1024, t);
            m.cpu_read(0, a, 1024, t + 10);
            t += 100;
        }
        assert!(
            m.stats().dram_writes[TrafficClass::RxEvct] > 0,
            "baseline must exhibit consumed-buffer leaks"
        );
    }

    #[test]
    fn reading_after_relinquish_is_a_fresh_miss() {
        // "A read access after such a guarantee has been declared would have
        // undefined behavior" — in the model it simply refetches stale data
        // from memory.
        let mut m = mem();
        let rx = m.address_map_mut().alloc(64, RegionKind::Rx { core: 0 });
        m.nic_write(rx, 64, 0);
        m.cpu_read(0, rx, 64, 1);
        relinquish(&mut m, rx, 64, 2);
        let r = m.cpu_read(0, rx, 64, 3);
        assert_eq!(r.dram_fetches, 1);
    }

    #[test]
    fn clsweep_on_absent_block_is_harmless() {
        let mut m = mem();
        assert_eq!(clsweep(&mut m, BlockAddr(12345)), 0);
        assert_eq!(m.stats().dram_accesses(), 0);
    }
}
