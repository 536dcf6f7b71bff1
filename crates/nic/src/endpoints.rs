//! Per-endpoint receive provisioning (Virtual Interface Architecture).
//!
//! §II-C: userspace stacks allocate a ring per core, but RDMA-style VIA
//! systems go further — "high-performance, synchronization-free reliable
//! communication requires allocating dedicated receive buffers not only per
//! core, but also per communicating endpoint", so "the aggregate size of
//! allocated receive buffers … can be in the range of 100 MB, exceeding the
//! entire LLC capacity of even high-end servers".
//!
//! [`EndpointRings`] models that provisioning: each core owns one RX ring
//! *per remote endpoint*. Arrivals are spread across endpoints by flow hash
//! (each remote peer sends on its own connection); the CPU consumes across
//! its endpoint rings round-robin, oldest-first within each.

use sweeper_sim::addr::AddressMap;
use sweeper_sim::Cycle;

use crate::packet::Packet;
use crate::ring::RxRing;

/// One core's per-endpoint receive rings.
#[derive(Debug, Clone)]
pub struct EndpointRings {
    rings: Vec<RxRing>,
    /// Next endpoint the consumer polls (round-robin fairness).
    next_poll: usize,
}

impl EndpointRings {
    /// Allocates `endpoints` rings of `entries` × `entry_bytes` buffers for
    /// `core`.
    ///
    /// # Panics
    ///
    /// Panics if `endpoints` is zero (ring parameter validation lives in
    /// [`RxRing::new`]).
    pub fn new(
        map: &mut AddressMap,
        core: u16,
        endpoints: usize,
        entries: usize,
        entry_bytes: u64,
    ) -> Self {
        assert!(endpoints > 0, "need at least one endpoint");
        Self {
            rings: (0..endpoints)
                .map(|_| RxRing::new(map, core, entries, entry_bytes))
                .collect(),
            next_poll: 0,
        }
    }

    /// Number of endpoints.
    pub fn endpoints(&self) -> usize {
        self.rings.len()
    }

    /// A specific endpoint's ring.
    pub fn ring(&self, endpoint: usize) -> &RxRing {
        &self.rings[endpoint]
    }

    /// Total buffer footprint across all endpoints, bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.rings.iter().map(|r| r.footprint_bytes()).sum()
    }

    /// Unconsumed packets across all endpoints.
    pub fn occupancy(&self) -> usize {
        self.rings.iter().map(|r| r.occupancy()).sum()
    }

    /// Producer side: enqueue `packet` on `endpoint`'s ring; `None` = drop.
    pub fn push(&mut self, endpoint: usize, packet: Packet) -> Option<sweeper_sim::addr::Addr> {
        let idx = endpoint % self.rings.len();
        self.rings[idx].push(packet)
    }

    /// Consumer side: the next packet, polling endpoints round-robin.
    pub fn pop(&mut self) -> Option<Packet> {
        let n = self.rings.len();
        for i in 0..n {
            let idx = (self.next_poll + i) % n;
            if let Some(pkt) = self.rings[idx].pop() {
                self.next_poll = (idx + 1) % n;
                return Some(pkt);
            }
        }
        None
    }

    /// The packet [`pop`](Self::pop) would return, without consuming it.
    pub fn peek(&self) -> Option<&Packet> {
        let n = self.rings.len();
        (0..n)
            .map(|i| (self.next_poll + i) % n)
            .find_map(|idx| self.rings[idx].peek())
    }

    /// The earliest `delivered` time among head packets — the time at which
    /// the consumer can next make progress.
    pub fn earliest_delivery(&self) -> Option<Cycle> {
        self.rings
            .iter()
            .filter_map(|r| r.peek())
            .map(|p| p.delivered)
            .min()
    }

    /// Switches every endpoint ring to deferred slot recycling (see
    /// [`RxRing::set_defer_recycle`]).
    pub fn set_defer_recycle(&mut self, on: bool) {
        for ring in &mut self.rings {
            ring.set_defer_recycle(on);
        }
    }

    /// Consumer side (deferred recycling): returns the oldest popped slot of
    /// the ring whose buffer region contains `addr`. Returns `false` if no
    /// ring contains the address or no popped slot is outstanding there.
    pub fn recycle(&mut self, addr: sweeper_sim::addr::Addr) -> bool {
        self.rings
            .iter_mut()
            .find(|r| r.contains_addr(addr))
            .is_some_and(RxRing::recycle_one)
    }

    /// Verifies every endpoint ring's index and slot invariants (see
    /// [`RxRing::check_consistency`]).
    pub fn check_consistency(&self) -> Result<(), String> {
        for (ep, ring) in self.rings.iter().enumerate() {
            ring.check_consistency()
                .map_err(|e| format!("endpoint {ep}: {e}"))?;
        }
        Ok(())
    }
}

/// Maps a flow identifier (remote peer) onto one of `endpoints` connections.
pub fn endpoint_of_flow(flow: u64, endpoints: usize) -> usize {
    ((flow.wrapping_mul(0xFF51_AFD7_ED55_8CCD) >> 32) % endpoints as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketId;
    use sweeper_sim::addr::{Addr, RegionKind};

    fn pkt(id: u64) -> Packet {
        Packet {
            id: PacketId(id),
            core: 0,
            bytes: 64,
            arrival: id * 10,
            delivered: id * 10 + 3,
            addr: Addr(0),
        }
    }

    fn rings(endpoints: usize, entries: usize) -> (AddressMap, EndpointRings) {
        let mut map = AddressMap::new();
        let r = EndpointRings::new(&mut map, 0, endpoints, entries, 128);
        (map, r)
    }

    #[test]
    fn footprint_scales_with_endpoints() {
        let (_, one) = rings(1, 16);
        let (_, many) = rings(8, 16);
        assert_eq!(many.footprint_bytes(), 8 * one.footprint_bytes());
        assert_eq!(many.endpoints(), 8);
    }

    #[test]
    fn rings_are_disjoint_rx_regions() {
        let (map, r) = rings(4, 4);
        for ep in 0..4 {
            let base = r.ring(ep).slot_addr(0);
            assert_eq!(map.classify(base), RegionKind::Rx { core: 0 });
        }
        let bases: std::collections::HashSet<u64> =
            (0..4).map(|ep| r.ring(ep).slot_addr(0).0).collect();
        assert_eq!(bases.len(), 4, "each endpoint has its own buffers");
    }

    #[test]
    fn pop_round_robins_across_endpoints() {
        let (_, mut r) = rings(3, 4);
        // Two packets on endpoint 0, one each on 1 and 2.
        r.push(0, pkt(0));
        r.push(0, pkt(1));
        r.push(1, pkt(2));
        r.push(2, pkt(3));
        let order: Vec<u64> = std::iter::from_fn(|| r.pop().map(|p| p.id.0)).collect();
        // Round-robin: ep0, ep1, ep2, ep0.
        assert_eq!(order, vec![0, 2, 3, 1]);
        assert_eq!(r.occupancy(), 0);
    }

    #[test]
    fn peek_matches_pop() {
        let (_, mut r) = rings(2, 4);
        r.push(1, pkt(7));
        let peeked = r.peek().unwrap().id;
        assert_eq!(r.pop().unwrap().id, peeked);
    }

    #[test]
    fn per_endpoint_overflow_drops_even_when_others_are_empty() {
        // The VIA pathology: one hot peer overflows its dedicated ring while
        // the other rings sit idle — buffer bloat without utility.
        let (_, mut r) = rings(4, 2);
        assert!(r.push(0, pkt(0)).is_some());
        assert!(r.push(0, pkt(1)).is_some());
        assert!(r.push(0, pkt(2)).is_none(), "hot endpoint overflows");
        assert_eq!(r.occupancy(), 2);
    }

    #[test]
    fn earliest_delivery_is_min_over_heads() {
        let (_, mut r) = rings(2, 4);
        r.push(0, pkt(10));
        r.push(1, pkt(4));
        assert_eq!(r.earliest_delivery(), Some(43));
    }

    #[test]
    fn flow_hash_spreads_and_is_stable() {
        let mut seen = std::collections::HashSet::new();
        for flow in 0..1000u64 {
            let ep = endpoint_of_flow(flow, 16);
            assert!(ep < 16);
            assert_eq!(ep, endpoint_of_flow(flow, 16), "stable per flow");
            seen.insert(ep);
        }
        assert_eq!(seen.len(), 16, "all endpoints receive traffic");
    }

    #[test]
    fn recycle_targets_the_ring_owning_the_address() {
        let (_, mut r) = rings(2, 2);
        r.set_defer_recycle(true);
        r.push(0, pkt(0));
        r.push(1, pkt(1));
        let a0 = r.pop().unwrap().addr;
        let a1 = r.pop().unwrap().addr;
        assert_eq!(r.ring(0).pending_recycle(), 1);
        assert_eq!(r.ring(1).pending_recycle(), 1);
        assert!(r.recycle(a1));
        assert_eq!(r.ring(0).pending_recycle(), 1);
        assert_eq!(r.ring(1).pending_recycle(), 0);
        assert!(r.recycle(a0));
        assert!(!r.recycle(a0), "nothing left outstanding");
        assert!(!r.recycle(Addr(1)), "foreign address recycles nothing");
        r.check_consistency().unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one endpoint")]
    fn zero_endpoints_rejected() {
        let mut map = AddressMap::new();
        EndpointRings::new(&mut map, 0, 0, 4, 64);
    }
}
