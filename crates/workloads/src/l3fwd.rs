//! L3 forwarder network function.
//!
//! Adapted (as in the paper, §III) from the stock DPDK `l3fwd` example to
//! the Scale-Out NUMA transport. The NF parses each packet's header, looks
//! the destination up in a forwarding table, rewrites the header, and
//! transmits the packet.
//!
//! Two table sizes matter in the evaluation:
//!
//! * §IV-B / §VI-C use 16 k rules, which "barely fit in each core's private
//!   L2 cache" — adding private-cache pressure,
//! * §VI-E uses an L1-resident table so that all LLC/memory pressure the NF
//!   generates is attributable to packet RX/TX.
//!
//! Transmission is either a copy into a TX buffer (the paper's evaluated
//! mode) or zero-copy in place (§V-D), selected by
//! [`L3fwdConfig::zero_copy`].

use sweeper_core::workload::{CoreEnv, TxAction, Workload};
use sweeper_nic::packet::Packet;
use sweeper_sim::addr::{Addr, RegionKind};
use sweeper_sim::hierarchy::MemorySystem;
use sweeper_sim::Cycle;
use sweeper_sim::BLOCK_BYTES;

/// Forwarder configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L3fwdConfig {
    /// Number of forwarding rules; each occupies one cache block.
    pub rules: u64,
    /// Fixed per-packet compute (header parse, checksum update), cycles.
    pub compute_cycles: Cycle,
    /// Transmit the received buffer in place instead of copying (§V-D).
    pub zero_copy: bool,
}

impl L3fwdConfig {
    /// §IV-B's pressure configuration: 16 k rules (1 MB table, barely
    /// L2-resident).
    pub fn l2_resident() -> Self {
        Self {
            rules: 16 * 1024,
            compute_cycles: 120,
            zero_copy: false,
        }
    }

    /// §VI-E's collocation configuration: an L1-resident table (its LLC and
    /// memory pressure is then purely packet RX/TX).
    pub fn l1_resident() -> Self {
        Self {
            rules: 256,
            compute_cycles: 120,
            zero_copy: false,
        }
    }

    /// Table footprint in bytes.
    pub fn table_bytes(&self) -> u64 {
        self.rules * BLOCK_BYTES
    }

    /// Returns a copy with zero-copy receive-to-transmit enabled.
    pub fn with_zero_copy(mut self) -> Self {
        self.zero_copy = true;
        self
    }
}

/// The forwarder.
#[derive(Debug)]
pub struct L3Forwarder {
    cfg: L3fwdConfig,
    table_base: Addr,
    forwarded: u64,
}

impl L3Forwarder {
    /// Creates a forwarder; the table is allocated in
    /// [`Workload::setup`].
    ///
    /// # Panics
    ///
    /// Panics if `rules` is zero.
    pub fn new(cfg: L3fwdConfig) -> Self {
        assert!(cfg.rules > 0, "forwarding table must be non-empty");
        Self {
            cfg,
            table_base: Addr(0),
            forwarded: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &L3fwdConfig {
        &self.cfg
    }

    /// Packets forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    fn rule_addr(&self, flow: u64) -> Addr {
        let h = flow.wrapping_mul(0xD6E8_FEB8_6659_FD93) >> 13;
        self.table_base.offset((h % self.cfg.rules) * BLOCK_BYTES)
    }
}

impl Workload for L3Forwarder {
    fn name(&self) -> &str {
        "l3fwd"
    }

    fn setup(&mut self, mem: &mut MemorySystem) {
        self.table_base = mem
            .address_map_mut()
            .alloc(self.cfg.table_bytes(), RegionKind::App);
    }

    fn handle_packet(&mut self, packet: &Packet, env: &mut CoreEnv<'_>) -> TxAction {
        self.forwarded += 1;
        // Each packet belongs to a uniformly random flow.
        let flow = env.rng().next_u64_in(u64::MAX);
        // Read the packet from the RX buffer (header first, then payload for
        // the copy-out path).
        env.read(packet.addr, packet.bytes);
        // Two dependent table lookups: first-level index, then the rule —
        // matching l3fwd's hash-table probe.
        let rule = self.rule_addr(flow);
        env.read(rule, BLOCK_BYTES);
        env.read(self.rule_addr(flow ^ 0x5555), BLOCK_BYTES);
        env.compute(self.cfg.compute_cycles);
        if self.cfg.zero_copy {
            // Rewrite the header in place (one dirty block), transmit as-is.
            env.write(packet.addr, BLOCK_BYTES.min(packet.bytes));
            TxAction::ForwardInPlace
        } else {
            TxAction::Reply {
                bytes: packet.bytes,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweeper_nic::packet::PacketId;
    use sweeper_sim::engine::SimRng;
    use sweeper_sim::hierarchy::MachineConfig;

    fn setup(cfg: L3fwdConfig) -> (L3Forwarder, MemorySystem, SimRng) {
        let mut mem = MemorySystem::new(MachineConfig::tiny_for_tests());
        let mut fwd = L3Forwarder::new(cfg);
        fwd.setup(&mut mem);
        (fwd, mem, SimRng::seeded(1))
    }

    fn drive(
        fwd: &mut L3Forwarder,
        pkt: &Packet,
        mem: &mut MemorySystem,
        rng: &mut SimRng,
        t: u64,
    ) -> (TxAction, u64) {
        sweeper_core::workload::drive_packet(fwd, pkt, mem, rng, t)
    }

    fn rx_packet(mem: &mut MemorySystem, bytes: u64) -> Packet {
        let addr = mem
            .address_map_mut()
            .alloc(bytes, RegionKind::Rx { core: 0 });
        mem.nic_write(addr, bytes, 0);
        Packet {
            id: PacketId(0),
            core: 0,
            bytes,
            arrival: 0,
            delivered: 0,
            addr,
        }
    }

    #[test]
    fn table_sizes_match_the_paper() {
        assert_eq!(L3fwdConfig::l2_resident().table_bytes(), 1 << 20);
        // 256 rules * 64 B = 16 KB: fits the 48 KB L1.
        assert_eq!(L3fwdConfig::l1_resident().table_bytes(), 16 * 1024);
    }

    #[test]
    fn copy_mode_replies_with_packet_size() {
        let (mut fwd, mut mem, mut rng) = setup(L3fwdConfig::l2_resident());
        let pkt = rx_packet(&mut mem, 1024);
        let (action, elapsed) = drive(&mut fwd, &pkt, &mut mem, &mut rng, 0);
        assert_eq!(action, TxAction::Reply { bytes: 1024 });
        assert_eq!(fwd.forwarded(), 1);
        assert!(elapsed >= 120);
    }

    #[test]
    fn zero_copy_mode_forwards_in_place() {
        let (mut fwd, mut mem, mut rng) = setup(L3fwdConfig::l1_resident().with_zero_copy());
        let pkt = rx_packet(&mut mem, 1024);
        let (action, _) = drive(&mut fwd, &pkt, &mut mem, &mut rng, 0);
        assert_eq!(action, TxAction::ForwardInPlace);
        // The header rewrite dirtied the first packet block in the core's
        // private cache.
        assert!(mem.l1_of(0).peek(pkt.addr.block()).is_some_and(|l| l.dirty));
    }

    #[test]
    fn rule_lookups_stay_in_table() {
        let (fwd, _mem, _) = setup(L3fwdConfig::l2_resident());
        for flow in 0..10_000u64 {
            let r = fwd.rule_addr(flow);
            assert!(r.0 >= fwd.table_base.0);
            assert!(r.0 < fwd.table_base.0 + fwd.config().table_bytes());
        }
    }

    #[test]
    fn rule_lookups_spread_over_table() {
        let (fwd, _mem, _) = setup(L3fwdConfig::l1_resident());
        let mut seen = std::collections::HashSet::new();
        for flow in 0..4_000u64 {
            seen.insert(fwd.rule_addr(flow));
        }
        assert!(
            seen.len() as u64 > fwd.config().rules / 2,
            "only {} distinct rules hit",
            seen.len()
        );
    }

    #[test]
    fn l1_resident_table_generates_no_dram_traffic_once_warm() {
        // The tiny test machine's caches are far smaller than the paper
        // machine's, so scale the table down proportionally (the paper's
        // l1_resident() is sized for a 48 KB L1).
        let tiny_table = L3fwdConfig {
            rules: 16,
            ..L3fwdConfig::l1_resident()
        };
        let (mut fwd, mut mem, mut rng) = setup(tiny_table);
        let pkt = rx_packet(&mut mem, 64);
        // Warm the table.
        for i in 0..2_000u64 {
            drive(&mut fwd, &pkt, &mut mem, &mut rng, i * 1_000);
        }
        let before = mem.stats().dram_reads.total();
        for i in 2_000..4_000u64 {
            drive(&mut fwd, &pkt, &mut mem, &mut rng, i * 1_000);
        }
        let delta = mem.stats().dram_reads.total() - before;
        assert!(delta < 20, "warm L1-resident table fetched {delta} blocks");
    }

    #[test]
    #[should_panic(expected = "must be non-empty")]
    fn rejects_empty_table() {
        L3Forwarder::new(L3fwdConfig {
            rules: 0,
            compute_cycles: 0,
            zero_copy: false,
        });
    }
}
