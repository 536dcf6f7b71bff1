//! The NIC model: packet delivery, transmission, and NIC-driven sweeping.
//!
//! The NIC is integrated (Scale-Out NUMA style, §III) and interacts with the
//! memory system through the injection policy configured on the
//! [`MemorySystem`]: DMA writes to DRAM, DDIO write-allocates
//! into the LLC's DDIO ways, Ideal-DDIO keeps network data in an infinite
//! side cache. On the transmit path the NIC honors the Work Queue entry's
//! `sweep_buffer` flag (§V-D): after reading the buffer it injects sweep
//! messages so the buffer's dirty blocks are dropped without writebacks.

use sweeper_sim::addr::Addr;
use sweeper_sim::hierarchy::MemorySystem;
use sweeper_sim::span::SpanKind;
use sweeper_sim::Cycle;

use crate::endpoints::{endpoint_of_flow, EndpointRings};
use crate::packet::{Packet, PacketId};
use crate::queue::WqEntry;

/// NIC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicConfig {
    /// RX ring entries per core *per endpoint* (the paper's *B*, 512–2048
    /// typically).
    pub rx_entries: usize,
    /// Bytes per RX buffer entry (≥ max packet size).
    pub buffer_bytes: u64,
    /// Number of cores (one endpoint set each).
    pub cores: u16,
    /// Communicating endpoints per core. 1 models a DPDK-style per-core
    /// ring; larger values model VIA/RDMA per-connection provisioning
    /// (§II-C), multiplying the aggregate buffer footprint.
    pub endpoints_per_core: usize,
}

impl NicConfig {
    /// A single per-core ring (the common DPDK provisioning).
    pub fn per_core(rx_entries: usize, buffer_bytes: u64, cores: u16) -> Self {
        Self {
            rx_entries,
            buffer_bytes,
            cores,
            endpoints_per_core: 1,
        }
    }
}

/// Counters kept by the NIC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Packets successfully written into an RX ring.
    pub delivered: u64,
    /// Packets dropped because the target ring was full.
    pub dropped: u64,
    /// Packets transmitted.
    pub transmitted: u64,
    /// TX buffers swept by the NIC (`sweep_buffer` Work Queue entries).
    pub tx_sweeps: u64,
}

impl NicStats {
    /// Fraction of arriving packets dropped.
    pub fn drop_rate(&self) -> f64 {
        let total = self.delivered + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        }
    }
}

/// Outcome of a successful delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// The packet as enqueued (with its slot address filled in).
    pub packet: Packet,
    /// Buffer address the packet was written to.
    pub addr: Addr,
}

/// The integrated NIC: one RX ring per core plus delivery/transmit logic.
#[derive(Debug, Clone)]
pub struct Nic {
    cfg: NicConfig,
    rings: Vec<EndpointRings>,
    stats: NicStats,
    next_id: u64,
}

impl Nic {
    /// Builds the NIC, allocating each core's RX ring out of the memory
    /// system's address map.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores` is zero or exceeds the machine's core count.
    pub fn new(cfg: NicConfig, mem: &mut MemorySystem) -> Self {
        assert!(cfg.cores > 0, "NIC needs at least one RX ring");
        assert!(
            (cfg.cores as usize) <= mem.config().cores,
            "more RX rings than cores"
        );
        let rings = (0..cfg.cores)
            .map(|core| {
                EndpointRings::new(
                    mem.address_map_mut(),
                    core,
                    cfg.endpoints_per_core,
                    cfg.rx_entries,
                    cfg.buffer_bytes,
                )
            })
            .collect();
        Self {
            cfg,
            rings,
            stats: NicStats::default(),
            next_id: 0,
        }
    }

    /// The NIC's configuration.
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &NicStats {
        &self.stats
    }

    /// Resets counters (end of warmup). Ring contents are untouched.
    pub fn reset_stats(&mut self) {
        self.stats = NicStats::default();
    }

    /// Aggregate RX buffer footprint across all rings, in bytes
    /// (the paper reports this per experiment, §III).
    pub fn total_rx_footprint(&self) -> u64 {
        self.rings.iter().map(|r| r.footprint_bytes()).sum()
    }

    /// Immutable access to a core's endpoint rings.
    pub fn ring(&self, core: u16) -> &EndpointRings {
        &self.rings[core as usize]
    }

    /// Mutable access to a core's endpoint rings (the CPU side pops from
    /// them).
    pub fn ring_mut(&mut self, core: u16) -> &mut EndpointRings {
        &mut self.rings[core as usize]
    }

    /// Delivers a `bytes`-byte packet for `core` at cycle `now`.
    ///
    /// On success the packet's payload blocks are written through the memory
    /// system under the configured injection policy; `None` means the ring
    /// was full and the packet was dropped.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the ring's entry size.
    pub fn deliver(
        &mut self,
        core: u16,
        bytes: u64,
        now: Cycle,
        mem: &mut MemorySystem,
    ) -> Option<Delivered> {
        assert!(
            bytes <= self.cfg.buffer_bytes,
            "packet larger than an RX buffer entry"
        );
        // Memory backpressure: when writebacks cannot drain, the NIC's DMA
        // engine stalls and the packet lands later.
        let delivered = now + mem.nic_backpressure(now);
        let id = PacketId(self.next_id);
        let packet = Packet {
            id,
            core,
            bytes,
            arrival: now,
            delivered,
            addr: Addr(0),
        };
        let endpoint = endpoint_of_flow(id.0, self.cfg.endpoints_per_core);
        let ring = &mut self.rings[core as usize];
        match ring.push(endpoint, packet) {
            None => {
                self.stats.dropped += 1;
                None
            }
            Some(addr) => {
                self.next_id += 1;
                // The packet's trace id is born here: everything the memory
                // system records for this delivery — and the request's later
                // stages — correlates through it.
                mem.record_span(id.0, SpanKind::NicDma, core, now, delivered);
                mem.nic_write(addr, bytes, delivered);
                self.stats.delivered += 1;
                Some(Delivered {
                    packet: Packet { addr, ..packet },
                    addr,
                })
            }
        }
    }

    /// Executes one Work Queue entry: reads the transmit buffer through the
    /// memory system and, if `sweep_buffer` is set, sweeps it (§V-D).
    pub fn transmit(&mut self, entry: WqEntry, now: Cycle, mem: &mut MemorySystem) {
        mem.record_span(entry.packet.0, SpanKind::Tx, u16::MAX, now, now);
        mem.nic_read(entry.buffer_addr, entry.transfer_length, now);
        self.stats.transmitted += 1;
        if entry.sweep_buffer {
            mem.sweep_range(entry.buffer_addr, entry.transfer_length, now);
            self.stats.tx_sweeps += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweeper_sim::hierarchy::{InjectionPolicy, MachineConfig, MemorySystem};
    use sweeper_sim::stats::TrafficClass;

    fn setup(policy: InjectionPolicy, entries: usize) -> (MemorySystem, Nic) {
        let mut mem = MemorySystem::new(MachineConfig::tiny_for_tests().with_injection(policy));
        let nic = Nic::new(NicConfig::per_core(entries, 1024, 2), &mut mem);
        (mem, nic)
    }

    #[test]
    fn delivery_fills_ring_and_memory() {
        let (mut mem, mut nic) = setup(InjectionPolicy::Ddio, 4);
        let d = nic.deliver(0, 1024, 100, &mut mem).unwrap();
        assert_eq!(nic.stats().delivered, 1);
        assert_eq!(d.packet.arrival, 100);
        assert!(mem.resident_anywhere(d.addr.block()));
        let popped = nic.ring_mut(0).pop().unwrap();
        assert_eq!(popped.id, d.packet.id);
        assert_eq!(popped.addr, d.addr);
    }

    #[test]
    fn full_ring_drops() {
        let (mut mem, mut nic) = setup(InjectionPolicy::Ddio, 2);
        assert!(nic.deliver(0, 1024, 0, &mut mem).is_some());
        assert!(nic.deliver(0, 1024, 1, &mut mem).is_some());
        assert!(nic.deliver(0, 1024, 2, &mut mem).is_none());
        assert_eq!(nic.stats().dropped, 1);
        assert!((nic.stats().drop_rate() - 1.0 / 3.0).abs() < 1e-9);
        // The other core's ring is unaffected.
        assert!(nic.deliver(1, 1024, 3, &mut mem).is_some());
    }

    #[test]
    fn packet_ids_are_unique_and_monotone() {
        let (mut mem, mut nic) = setup(InjectionPolicy::Ddio, 8);
        let mut prev = None;
        for i in 0..8 {
            let d = nic.deliver(i % 2, 512, i as u64, &mut mem).unwrap();
            if let Some(p) = prev {
                assert!(d.packet.id > p);
            }
            prev = Some(d.packet.id);
        }
    }

    #[test]
    fn transmit_reads_buffer_and_optionally_sweeps() {
        let (mut mem, mut nic) = setup(InjectionPolicy::Ddio, 4);
        let tx = mem
            .address_map_mut()
            .alloc(1024, sweeper_sim::addr::RegionKind::Tx { core: 0 });
        mem.cpu_write(0, tx, 1024, 0);
        let entry = WqEntry {
            transfer_length: 1024,
            buffer_addr: tx,
            sweep_buffer: true,
            packet: PacketId(0),
        };
        nic.transmit(entry, 100, &mut mem);
        assert_eq!(nic.stats().transmitted, 1);
        assert_eq!(nic.stats().tx_sweeps, 1);
        // Buffer fully swept: nothing resident, writebacks saved.
        assert!(!mem.resident_anywhere(tx.block()));
        assert!(mem.stats().sweep_saved_writebacks >= 16);
        assert_eq!(mem.stats().dram_writes[TrafficClass::TxEvct], 0);
    }

    #[test]
    fn transmit_without_sweep_leaves_dirty_buffer() {
        let (mut mem, mut nic) = setup(InjectionPolicy::Ddio, 4);
        let tx = mem
            .address_map_mut()
            .alloc(1024, sweeper_sim::addr::RegionKind::Tx { core: 0 });
        mem.cpu_write(0, tx, 1024, 0);
        let entry = WqEntry {
            transfer_length: 1024,
            buffer_addr: tx,
            sweep_buffer: false,
            packet: PacketId(0),
        };
        nic.transmit(entry, 100, &mut mem);
        assert_eq!(nic.stats().tx_sweeps, 0);
        assert!(mem.resident_anywhere(tx.block()));
    }

    #[test]
    fn footprint_reports_aggregate() {
        let (_mem, nic) = setup(InjectionPolicy::Ddio, 4);
        assert_eq!(nic.total_rx_footprint(), 2 * 4 * 1024);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let (mut mem, mut nic) = setup(InjectionPolicy::Ddio, 1);
        nic.deliver(0, 64, 0, &mut mem);
        nic.deliver(0, 64, 1, &mut mem);
        nic.reset_stats();
        assert_eq!(*nic.stats(), NicStats::default());
    }

    #[test]
    #[should_panic(expected = "larger than an RX buffer")]
    fn oversized_packet_rejected() {
        let (mut mem, mut nic) = setup(InjectionPolicy::Ddio, 4);
        nic.deliver(0, 4096, 0, &mut mem);
    }

    #[test]
    #[should_panic(expected = "more RX rings than cores")]
    fn too_many_rings_rejected() {
        let mut mem = MemorySystem::new(MachineConfig::tiny_for_tests());
        Nic::new(NicConfig::per_core(1, 64, 99), &mut mem);
    }
}
